#!/usr/bin/env python3
"""Reproduce the worked example end to end and demonstrate infinite pliability
at desk scale.

The base surface is the S3-type surface with xi = s over Q(w)(t1,t2,t3,s).
For each shift z the cubic extension E_z = k((s(t1+z)(t2+z)(t3+z))^(1/3))
carries a 3-point in general position; the links at these points produce
pairwise non-isomorphic models, so the number of models grows without bound
as z ranges over the base field.

Usage: python scripts/run_example_main.py [--count N] [--depth D]
"""

import argparse
import sys
import time

from dp6._ratfunc import QOmega
from dp6.birgroup import explore_graph, psi_image, same_vertex, word_to_generators
from dp6.fieldtower import (
    ExtensionDescriptor,
    GaloisTower,
    VarAutomorphism,
    apply,
    norm_class,
)
from dp6.points import ClosedPointSpec, composite_for, general_position
from dp6.sarkisov import link
from dp6.surface import automorphism_description, index, make_surface


def build_surface():
    one = QOmega.one()
    g = VarAutomorphism([1, 2, 0, 3], [one] * 4)
    f = VarAutomorphism([0, 2, 1, 3], [one] * 4)
    tower = GaloisTower(["t1", "t2", "t3", "s"], {"g": g, "f": f}, name="F")
    return make_surface("S3", tower, tower.var("s"), name="S")


def point_at(spec, z):
    tower = spec.tower
    t1, t2, t3, s = (tower.var(v) for v in ("t1", "t2", "t3", "s"))
    mu = s * (t1 + z) * (t2 + z) * (t3 + z)
    ext = ExtensionDescriptor("kummer-cubic", tower, radicand=mu, name=f"E{z}")
    cg = composite_for(tower, ext)
    lam = (cg.comp.r() / (t3 + z)).inv()
    lam2 = lam * apply(cg.generators["g"], lam)
    return ClosedPointSpec(3, ext, lam, lam2, name=f"p{z}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=5,
                    help="number of distinct shifts z to link at")
    ap.add_argument("--depth", type=int, default=2)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    spec = build_surface()
    g = spec.tower.element_named("g")
    fact = norm_class(spec.xi, g, registry=spec.registry)
    print(f"xi = s: {fact.verdict} over Norm_g ({fact.provenance} on "
          f"{fact.detail[0]})")
    print(f"index: {index(spec)}")
    print(f"automorphisms: {automorphism_description(spec)}")

    points = []
    for z in range(args.count):
        p = point_at(spec, z)
        ok = general_position(spec, p)  # validates p in the same pass
        print(f"point over E{z}: valid and in general position: {ok}")
        points.append(p)

    records = [link(spec, p, name=f"chi{i}") for i, p in enumerate(points)]
    distinct = 0
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            verdict = same_vertex(records[i].target, records[j].target)
            assert verdict is False, (i, j)
            distinct += 1
    print(f"link targets pairwise non-isomorphic: {distinct} pairs checked")

    graph = explore_graph(spec, points, depth=args.depth)
    print(f"model graph at depth {args.depth}: {len(graph.vertices)} vertices")

    edges = {id(e): e for e in graph.edges.values()}.values()
    a_edges = [e for e in edges if e.source_key != graph.base_key
               and e.target_key != graph.base_key and not e.self_loop]
    if a_edges:
        e1 = a_edges[0]
        rec1 = e1.records[e1.pair_id]
        follow = [e for e in a_edges
                  if e.source_key == rec1.target.vertex_key()
                  and e.target_key not in (graph.base_key,
                                           rec1.source.vertex_key())]
        if follow:
            rec2 = follow[0].records[follow[0].pair_id]
            tour = [graph.reference_record(rec1.source.vertex_key()), rec1,
                    rec2,
                    graph.reference_record(rec2.target.vertex_key()).reversed()]
            word = word_to_generators(graph, tour)
            img = psi_image(graph, word)
            print(f"psi of a two-target tour: {img}")
            print(f"distinct Z factors: {len(img.z_factors())}")
    print(f"done in {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
