"""The acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; tolerances are exact (the
results under test are classification statements, not numerics) and the
stated runtime budgets are enforced with monotonic clocks.
"""

import random
import time

import pytest

from dp6 import hexagon
from dp6._ratfunc import QOmega
from dp6.birgroup import (
    Token,
    BirWord,
    check_relation,
    classify_edge,
    explore_graph,
    hexagonal_graph,
    psi_image,
    word_to_generators,
)
from dp6.curveconfig import (
    SIGMA_PRIME,
    CurveConfig,
    config,
    induced_sigma_prime_action,
    minus_one_classes,
)
from dp6.fieldtower import ExtensionDescriptor, apply, norm, norm_class
from dp6.points import (
    ClosedPointSpec,
    PointCaseError,
    PointValidationError,
    composite_for,
    construct_2point,
    construct_3point,
    general_position,
    validate_point,
)
from dp6.sarkisov import (
    LinkError,
    as_data_surface,
    classify_perm_group,
    is_birationally_rigid,
    link,
)
from dp6.surface import (
    SurfaceConditionError,
    equivalence_move,
    index,
    is_automorphism,
    is_isomorphic,
    make_surface,
    torus_member,
    verify_cocycle,
)

from test_curveconfig import CASES, _group_structure
from test_surface import rand_monomial, random_valid_params, t1_member, t23_member


def _report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. cocycle soundness
# ---------------------------------------------------------------------------

def test_acceptance_1_cocycle_soundness(z6_tower, s3_tower, d6_tower):
    start = time.monotonic()
    towers = {"Z6": z6_tower, "S3": s3_tower, "D6": d6_tower}
    rng = random.Random(20260810)
    for gtype, tower in towers.items():
        for _ in range(100):
            xi, rho = random_valid_params(gtype, tower, rng)
            spec = make_surface(gtype, tower, xi, rho)
            assert verify_cocycle(spec)
    # violating sets are rejected with the failing identity named
    for gtype, tower in towers.items():
        rejected = 0
        trial = 0
        while rejected < 100:
            trial += 1
            xi, rho = random_valid_params(gtype, tower, rng)
            mode = trial % 3
            try:
                if gtype == "S3":
                    bad = xi * tower.var(tower.variables[trial % 3])
                    make_surface(gtype, tower, bad, None)
                elif mode == 0:
                    bad = rho * tower.monomial([2, 0, 0, 0])
                    make_surface(gtype, tower, xi, bad)
                elif mode == 1:
                    bad = xi * tower.var(tower.variables[0])
                    make_surface(gtype, tower, bad, rho)
                else:
                    bad = rho * tower.var("y")
                    make_surface(gtype, tower, xi, bad)
            except SurfaceConditionError as e:
                assert "condition fails" in str(e)
                rejected += 1
                continue
            # extremely rare: the mutation accidentally stayed valid
        assert rejected == 100
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"cocycle soundness took {elapsed:.1f}s"
    _report(1, "cocycle soundness")


# ---------------------------------------------------------------------------
# 2. equivalence-move invariance
# ---------------------------------------------------------------------------

def test_acceptance_2_equivalence_moves(z6_hex, s3_example, d6_index2,
                                        z6_index6):
    rng = random.Random(77)
    cases = {
        "Z6": (z6_hex, ["invert", "rotate", "twist"]),
        "S3": (s3_example, ["invert", "twist"]),
        "D6": (d6_index2, ["invert", "twist"]),
    }
    for gtype, (spec, moves) in cases.items():
        tower = spec.tower
        for move in moves:
            for _ in range(5):
                if move == "twist":
                    m = rand_monomial(tower, rng)
                    if gtype == "S3":
                        lam = m * apply(tower.element_named("f"), m)
                    elif gtype == "D6":
                        lam = m * apply(tower.element_named("gf"), m)
                    else:
                        lam = m
                    if lam.is_zero():
                        continue
                    moved = equivalence_move(spec, move, element=lam)
                else:
                    moved = equivalence_move(spec, move)
                res = is_isomorphic(spec, moved)
                assert res.verdict == "Yes" and res.moves
                assert index(moved) == index(spec)
                assert moved.sbdata.am_K == spec.sbdata.am_K
                assert moved.sbdata.am_L == spec.sbdata.am_L
    # the index-6 instance is invariant too (assumed facts carried along)
    moved = equivalence_move(z6_index6, "rotate")
    assert index(moved) == 6
    _report(2, "equivalence-move invariance")


# ---------------------------------------------------------------------------
# 3. lattice oracle
# ---------------------------------------------------------------------------

def test_acceptance_3_lattice_oracle():
    start = time.monotonic()
    for n, count, reg in ((3, 6, 2), (5, 16, 5), (6, 27, 10)):
        assert len(minus_one_classes(n)) == count
        cfg = CurveConfig.build(n)
        assert len(cfg.labels) == count
        # the exhaustive search is the reference for the labels' classes
        assert sorted(c.vector() for c in cfg.labels.values()) == sorted(
            c.vector() for c in minus_one_classes(n))
        assert set(cfg.neighbor_counts().values()) == {reg}
    cfg6 = config(6)
    ring = SIGMA_PRIME[3]
    for a in ring:
        assert sum(1 for b in ring if b != a and cfg6.adjacent(a, b)) == 2
        assert all(not cfg6.adjacent(a, c) for c in ("C1", "C2", "C3"))
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"lattice oracle took {elapsed:.1f}s"
    _report(3, "lattice oracle")


# ---------------------------------------------------------------------------
# 4. table reproduction
# ---------------------------------------------------------------------------

def test_acceptance_4_table_reproduction():
    # lattice route vs the hand-coded proposition tables, every finite case
    for label, d, gens, kernel, group in CASES:
        act = induced_sigma_prime_action(d, gens)
        assert act.kernel_pairs == kernel, label
        assert _group_structure(act) == group, label
    _report(4, "table reproduction")


# ---------------------------------------------------------------------------
# 5. example reproduction
# ---------------------------------------------------------------------------

def test_acceptance_5_example_reproduction(s3_example, example_points):
    start = time.monotonic()
    # xi = s proven NotNorm by the degree argument
    fact = norm_class(s3_example.xi, s3_example.tower.element_named("g"),
                      registry=s3_example.registry)
    assert fact.verdict == "NotNorm" and fact.provenance == "valuation-proof"
    assert fact.detail[0] == "s"
    assert index(s3_example) == 3
    # the four lambda_z^-1 points validate and are in general position
    for p in example_points:
        assert validate_point(s3_example, p)
        assert general_position(s3_example, p)
    # pairwise non-isomorphic link targets (distinct E_z)
    recs = [link(s3_example, p, name=f"chi{i}")
            for i, p in enumerate(example_points)]
    from dp6.birgroup import same_vertex

    for i in range(4):
        for j in range(i + 1, 4):
            assert same_vertex(recs[i].target, recs[j].target) is False
            assert recs[i].point.fld.same_field(
                recs[j].point.fld) is False
    # explore(depth 1) yields >= 5 vertices
    g1 = explore_graph(s3_example, example_points, depth=1)
    assert len(g1.vertices) >= 5
    # psi of a word through two distinct targets: nontrivial, >= 2 Z letters
    g2 = explore_graph(s3_example, example_points, depth=2)
    edges = {id(e): e for e in g2.edges.values()}.values()
    a_edges = [e for e in edges if e.source_key != g2.base_key
               and e.target_key != g2.base_key and not e.self_loop]
    e1 = a_edges[0]
    rec1 = e1.records[e1.positive_id]
    e2 = [e for e in a_edges if e.source_key == rec1.target.vertex_key()
          and e.target_key not in (g2.base_key, rec1.source.vertex_key())][0]
    rec2 = e2.records[e2.positive_id]
    tour = [g2.reference_record(rec1.source.vertex_key()), rec1, rec2,
            g2.reference_record(rec2.target.vertex_key()).reversed()]
    word = word_to_generators(g2, tour)
    img = psi_image(g2, word)
    assert not img.is_identity()
    assert len(img.z_factors()) >= 2
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"example reproduction took {elapsed:.1f}s"
    _report(5, "example reproduction")


# ---------------------------------------------------------------------------
# 6. relation kill-test
# ---------------------------------------------------------------------------

def test_acceptance_6_relation_kill(s3_example, example_points, z6_hex):
    tower = s3_example.tower
    graph = explore_graph(s3_example, example_points, depth=2)
    om = torus_member(s3_example, tower.omega())
    om2 = torus_member(s3_example, tower.omega() * tower.omega())

    def killed(word, g=graph):
        return psi_image(g, word).is_identity() and check_relation(g, word)

    # (1) relations between automorphisms
    w1 = word_to_generators(graph, [("aut", om), ("aut", om2),
                                    ("aut", om * om2)])
    assert killed(w1)
    # (2) B_chi for reference links
    for vkey in graph.vertices:
        if vkey == graph.base_key:
            continue
        ref = graph.reference_record(vkey)
        assert killed(word_to_generators(graph, [ref, ref.reversed()]))
    # (3a) A-inverse pairs
    edges = {id(e): e for e in graph.edges.values()}.values()
    a_edges = [e for e in edges if e.source_key != graph.base_key
               and e.target_key != graph.base_key and not e.self_loop]
    rec = a_edges[0].records[a_edges[0].positive_id]
    ru = graph.reference_record(rec.source.vertex_key())
    rv = graph.reference_record(rec.target.vertex_key())
    assert killed(word_to_generators(
        graph, [ru, rec, rv.reversed(), rv, rec.reversed(), ru.reversed()]))
    # (3b) B-inverse pairs on a non-reference link
    p0 = example_points[0]
    cg = composite_for(tower, p0.ext)
    omega_e = cg.comp.embed(tower.omega())
    lam = p0.lam1 * omega_e
    p0b = ClosedPointSpec(3, p0.ext, lam,
                          lam * apply(cg.generators["g"], lam), name="p0b")
    graph_b = explore_graph(s3_example, example_points + [p0b], depth=1)
    rec_b = graph_b.out[(graph_b.base_key, ("pt", p0b.key()))]
    assert not graph_b.edge_of(rec_b).in_RE
    assert psi_image(
        graph_b, word_to_generators(graph_b, [rec_b, rec_b.reversed()])
    ).is_identity()
    # (3c) self-link inverse pairs, with an almost-involution witness
    pF = construct_3point(s3_example)
    graph_c = explore_graph(s3_example, example_points + [pF], depth=1)
    rec_c = graph_c.out[(graph_c.base_key, ("pt", pF.key()))]
    classify_edge(graph_c, rec_c, [("almost-involution", om)])
    assert psi_image(
        graph_c, word_to_generators(graph_c, [rec_c, rec_c.reversed()])
    ).is_identity()
    # (3d) D-pairs at a non-base vertex
    some_ref = graph.reference_record(
        [k for k in graph.vertices if k != graph.base_key][0])
    w3d = word_to_generators(
        graph, [some_ref, ("aut", om), ("aut", om.inverse()),
                some_ref.reversed()])
    assert killed(w3d)
    # (4a) equivalent A-links via identity automorphisms
    ident = torus_member(s3_example, tower.one())
    w4a = word_to_generators(
        graph, [ru, ("aut", ident), rec, rv.reversed(), rv, ("aut", ident),
                rec.reversed(), ru.reversed()])
    assert killed(w4a)
    # (4b) equivalent B-links: chi2 = beta-image of chi1, merged with witness
    om_sq = omega_e * omega_e
    p0c = ClosedPointSpec(3, p0.ext, p0.lam1 * omega_e, p0.lam2 * om_sq,
                          name="p0c")
    graph_e = explore_graph(s3_example, example_points + [p0c], depth=1)
    rec1 = graph_e.out[(graph_e.base_key, ("pt", p0.key()))]
    rec2 = graph_e.out[(graph_e.base_key, ("pt", p0c.key()))]
    graph_e.merge_edges(rec1, rec2, ("equivalent", rec1, rec2, om))
    w4b = word_to_generators(graph_e, [("aut", om), rec1, rec2.reversed()])
    assert psi_image(graph_e, w4b).is_identity()
    assert check_relation(graph_e, w4b)
    # (4c) conjugate self-link pairs
    w4c = word_to_generators(
        graph_c, [("aut", ident), rec_c, ("aut", ident), rec_c.reversed()])
    assert psi_image(graph_c, w4c).is_identity()
    # (4d) conjugated automorphism pairs at a vertex
    w4d = word_to_generators(
        graph, [some_ref, ("aut", om), ("aut", om2), ("aut", (om * om2).inverse()),
                some_ref.reversed()])
    assert killed(w4d)

    # the six-term hexagonal relation on the bundled Z6 index-2 instance
    ztower = z6_hex.tower
    x1, x2, x3 = (ztower.var(v) for v in ("x1", "x2", "x3"))
    K = ExtensionDescriptor("subfield", ztower, fixing=ztower.subgroup(["g"]),
                            name="K")
    p = ClosedPointSpec(2, K, ztower.one(), ztower.one(), name="p")
    lam = x1 * x2 / (x3 * x3)
    q = ClosedPointSpec(2, K, lam,
                        lam * apply(ztower.element_named("g"), lam), name="q")
    hgraph, recs = hexagonal_graph(z6_hex, p, q)
    word = word_to_generators(hgraph, recs)
    assert check_relation(hgraph, word, relation_meta=("hexagonal", recs))
    assert psi_image(hgraph, word).is_identity()
    # degree-4 Geiser letters are free Z/2 factors
    g4 = Token("C4", ("geiser", "q4"))
    assert psi_image(hgraph, BirWord((g4, g4))).is_identity()
    assert not psi_image(hgraph, BirWord((g4,))).is_identity()
    _report(6, "relation kill-test")


# ---------------------------------------------------------------------------
# 7. index consistency
# ---------------------------------------------------------------------------

def test_acceptance_7_index_consistency(z6_hex, s3_example, z6_index3,
                                        d6_index2, d6_index3, z6_index6,
                                        example_points):
    # index 2: 2-points exist, 3-point construction refuses
    for spec in (z6_hex, d6_index2):
        assert index(spec) == 2
        pts = construct_2point(spec)
        assert pts
        for p in pts:
            assert validate_point(spec, p) and general_position(spec, p)
        with pytest.raises(PointCaseError):
            construct_3point(spec)
    # index 3: 3-points exist per the recipes, 2-point construction refuses
    for spec in (s3_example, z6_index3, d6_index3):
        assert index(spec) == 3
        p = construct_3point(spec)
        assert validate_point(spec, p) and general_position(spec, p)
        with pytest.raises(PointCaseError):
            construct_2point(spec)
    # index 6: no constructed points, no links, reported SuperRigid
    assert index(z6_index6) == 6
    with pytest.raises(PointCaseError):
        construct_2point(z6_index6)
    with pytest.raises(PointCaseError):
        construct_3point(z6_index6)
    assert is_birationally_rigid(z6_index6).verdict == "SuperRigid"
    p2 = construct_2point(z6_hex)[0]
    with pytest.raises((LinkError, PointValidationError, PointCaseError)):
        link(z6_index6, p2)
    graph = explore_graph(z6_index6, [], depth=2)
    assert len(graph.vertices) == 1 and not graph.edges
    _report(7, "index consistency")


# ---------------------------------------------------------------------------
# 8. automorphism membership
# ---------------------------------------------------------------------------

def test_acceptance_8_automorphism_membership(z6_hex, s3_example, d6_index2,
                                              z6_index6, d6_index3, z6_index3):
    rng = random.Random(4242)
    specs = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}
    for gtype, spec in specs.items():
        tower = spec.tower
        g = tower.element_named("g")
        members = 0
        while members < 50:
            lam = t1_member(tower, rng) if gtype == "Z6" else \
                t23_member(tower, rng)
            psi = torus_member(spec, lam)
            assert is_automorphism(spec, psi), gtype
            members += 1
        non_members = 0
        while non_members < 50:
            lam = rand_monomial(tower, rng)
            if lam.is_zero() or norm(g, lam).is_one():
                continue
            psi = torus_member(spec, lam)
            assert not is_automorphism(spec, psi), gtype
            non_members += 1
    # alpha_h accepted exactly when xi is trivial (cases 1b / 3b)
    for spec, expected in ((z6_hex, True), (d6_index2, True),
                           (z6_index6, False), (d6_index3, False)):
        ah = spec.alpha(spec.tower.element_named("h"))
        assert is_automorphism(spec, ah) is expected
    # alpha_g accepted when rho is trivial (case 1c)
    ag = z6_index3.alpha(z6_index3.tower.element_named("g"))
    assert is_automorphism(z6_index3, ag)
    _report(8, "automorphism membership")
