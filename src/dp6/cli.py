"""Scenario-driven command line: classification, links, graphs, quotients.

Usage: python -m dp6 SCENARIO [--strict] [--seed N] [--depth N] [--dump-dir D]

SCENARIO is a path to a scenario file or the name of a bundled scenario.
Reports go to standard output as deterministic `key: value` text; exit codes:
0 success, 2 parse error, 3 semantic error, 4 oracle-Unknown under --strict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import birgroup, curveconfig
from .fieldtower import TowerError, UNKNOWN, UnsupportedCompositeError
from .points import (
    PointCaseError,
    PointValidationError,
    construct_2point,
    construct_3point,
    general_position,
)
from .sarkisov import (
    LinkError,
    are_birational,
    is_birationally_rigid,
    link,
)
from .scenario import ScenarioError, integer, load_scenario, section
from .surface import (
    SurfaceConditionError,
    automorphism_description,
    index,
    is_isomorphic,
)

BUNDLED_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


class CommandError(ValueError):
    pass


class UnknownBlocked(ValueError):
    pass


def bundled_path(name):
    return os.path.join(BUNDLED_DIR, name + ".json")


def resolve_scenario(arg):
    if os.path.exists(arg):
        return arg
    cand = bundled_path(arg)
    if os.path.exists(cand):
        return cand
    raise FileNotFoundError(f"no scenario file or bundled scenario {arg!r}")


def run(path, strict=False, seed=0, depth=None, dump_dir=None):
    """Execute a scenario; returns (exit_code, report_text)."""
    buf = io.StringIO()

    def emit(line=""):
        buf.write(line + "\n")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return 2, f"parse-error: {e}\n"
    try:
        if strict:
            raw = dict(section(raw, dict, "a scenario"))
            dropped = len(section(raw.pop("facts", None), list, "facts"))
        scen = load_scenario(raw)
    except (ScenarioError, TowerError, SurfaceConditionError, KeyError) as e:
        return (2 if isinstance(e, ScenarioError) else 3), f"load-error: {e}\n"

    emit(f"scenario: {scen.name}")
    emit(f"seed: {seed}")
    emit(f"strict: {'on' if strict else 'off'}")
    if strict and dropped:
        emit(f"assumed-facts-dropped: {dropped}")
    state = {"graphs": {}, "depth": depth, "dump_dir": dump_dir, "strict": strict}
    code = 0
    for cmd in scen.commands:
        emit()
        emit("== " + " ".join(str(c) for c in cmd))
        used_before = len(scen.registry.used_assumed)
        try:
            _dispatch(scen, state, cmd, emit)
        except UnknownBlocked as e:
            emit(f"error: {e}")
            code = max(code, 4)
            continue
        except (CommandError, LinkError, PointCaseError, PointValidationError,
                SurfaceConditionError, birgroup.GraphError, TowerError,
                ScenarioError, UnsupportedCompositeError, KeyError) as e:
            emit(f"error: {e}")
            code = max(code, 3)
            continue
        for fact in scen.registry.used_assumed[used_before:]:
            emit(_assumed_line("assumed-fact-used", fact))
    return code, buf.getvalue()


def _assumed_line(label, fact):
    """The report line naming an assumed fact: its note and its verdict."""
    return f"{label}: {fact.detail[0] if fact.detail else ''} ({fact.verdict})"


def _emit_assumed(emit, facts):
    """One `assumed-fact:` line per distinct fact a verdict relies on."""
    for fact in dict.fromkeys(facts):
        emit(_assumed_line("assumed-fact", fact))


def _guard_unknown(state, what, value):
    if state["strict"] and value == UNKNOWN:
        raise UnknownBlocked(f"{what} is Unknown and --strict forbids assumed facts")
    return value


def _named(table, name, what):
    """The entry of `table` named by the command argument `name`."""
    if not isinstance(name, str) or name not in table:
        raise CommandError(f"unknown {what} {name!r}")
    return table[name]


def _surface(scen, name):
    return _named(scen.surfaces, name, "surface")


def _point(scen, name):
    return _named(scen.points, name, "point")


def _points_on(scen, spec):
    """The scenario's points declared on the surface `spec`."""
    return [p for p in scen.points.values() if p.surface is spec]


def _int_arg(value, what):
    """A nonnegative integer command argument."""
    try:
        n = integer(value)
    except (TypeError, ValueError):
        raise CommandError(f"{what} must be an integer, got {value!r}") from None
    if n < 0:
        raise CommandError(f"{what} must be nonnegative, got {n}")
    return n


# (fewest, most) arguments of each command
_ARGS = {"validate": (1, 2), "classify": (1, 1), "iso": (2, 2), "link": (2, 2),
         "rigid": (1, 1), "birational": (2, 2), "explore": (1, 2),
         "psi": (2, 2), "check-relation": (2, 2), "dump-config": (1, 2),
         "construct-point": (2, 2)}


def _dispatch(scen, state, cmd, emit):
    if not cmd:
        raise CommandError("empty command")
    op, *args = cmd
    if not isinstance(op, str) or op not in _ARGS:
        raise CommandError(f"unknown command {op!r}")
    fewest, most = _ARGS[op]
    if op == "check-relation" and args[1:2] == ["hexagonal"]:
        fewest = most = 4
    if len(args) < fewest:
        raise CommandError(
            f"{op} needs at least {fewest} argument(s), got {len(args)}")
    if len(args) > most:
        raise CommandError(
            f"{op} takes at most {most} argument(s), got {len(args)}")
    if op == "validate":
        if len(args) == 1:
            spec = _surface(scen, args[0])
            emit(f"surface: {args[0]}")
            emit("valid: true")  # construction already verified the conditions
            emit(f"gtype: {spec.gtype}")
            return
        spec = _surface(scen, args[0])
        p = _point(scen, args[1])
        gp = general_position(spec, p)  # raises if p is not valid
        emit(f"point: {args[1]}")
        emit("valid: true")
        emit(f"general-position: {str(gp).lower()}")
        return
    if op == "classify":
        spec = _surface(scen, args[0])
        data = spec.sbdata
        idx = index(spec)
        emit(f"surface: {args[0]}")
        emit(f"gtype: {spec.gtype}")
        emit(f"index: {_guard_unknown(state, 'index', idx)}")
        emit(f"K-trivial: {data.k_trivial}")
        emit(f"L-trivial: {data.l_trivial if spec.gtype != 'S3' else '-'}")
        emit(f"Am_K: {data.am_K}")
        emit(f"Am_L: {data.am_L}")
        emit(f"automorphisms: {automorphism_description(spec)}")
        _emit_assumed(emit, data.assumed_facts)
        return
    if op == "iso":
        s1, s2 = _surface(scen, args[0]), _surface(scen, args[1])
        res = is_isomorphic(s1, s2)
        _guard_unknown(state, "isomorphism", res.verdict)
        emit(f"isomorphic: {res.verdict}")
        if res.moves:
            emit(f"moves: {', '.join(res.moves)}")
        if res.reason:
            emit(f"reason: {res.reason}")
        return
    if op == "link":
        spec = _surface(scen, args[0])
        p = _point(scen, args[1])
        rec = link(spec, p, name=f"chi[{args[1]}]")
        emit(f"link: {rec.name}")
        emit(f"degree: {rec.d}")
        emit(f"kernel-H: {rec.h_description}")
        emit(f"target: {rec.target.name}")
        emit(f"target-gtype: {rec.target.gtype}")
        emit(f"self-link: {str(rec.is_self_link()).lower()}")
        emit(f"K': {rec.target.K.name}")
        emit(f"L': {rec.target.L.name if rec.target.L else '-'}")
        emit(f"inverse-point-field: {rec.inverse_point.fld.name}")
        _emit_assumed(emit, rec.source.assumed)
        return
    if op == "rigid":
        spec = _surface(scen, args[0])
        res = is_birationally_rigid(spec, _points_on(scen, spec))
        emit(f"rigidity: {res.verdict}")
        if res.reason:
            emit(f"reason: {res.reason}")
        _emit_assumed(emit, res.assumed)
        return
    if op == "birational":
        s1, s2 = _surface(scen, args[0]), _surface(scen, args[1])
        res = are_birational(s1, s2, _points_on(scen, s1))
        if state["strict"] and res.verdict == "Unknown":
            raise UnknownBlocked("birationality verdict is Unknown")
        emit(f"birational: {res.verdict}")
        emit(f"case: {res.case}")
        if res.chain:
            emit(f"chain: {' -> '.join(r.name for r in res.chain)}")
        if res.reason:
            emit(f"reason: {res.reason}")
        _emit_assumed(emit, res.assumed)
        return
    if op == "explore":
        spec = _surface(scen, args[0])
        depth = _int_arg(args[1] if len(args) > 1 else state["depth"] or 1,
                         "explore depth")
        graph = birgroup.explore_graph(spec, _points_on(scen, spec), depth=depth)
        state["graphs"][args[0]] = graph
        emit(f"depth: {depth}")
        emit(graph.summary())
        dump_dir = state["dump_dir"]
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            fname = os.path.join(dump_dir, f"graph-{args[0]}.txt")
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(graph.dump())
            emit(f"graph-dump: {fname}")
        return
    if op == "psi":
        graph = _graph(scen, state, args[0])
        tour = _walk(scen, graph, args[1])
        word = birgroup.word_to_generators(graph, tour)
        emit(f"word: {word}")
        image = birgroup.psi_image(graph, word)
        emit(f"psi: {image}")
        emit(f"identity: {str(image.is_identity()).lower()}")
        emit(f"z-factors: {len(image.z_factors())}")
        return
    if op == "check-relation":
        if args[1] == "hexagonal":
            spec = _surface(scen, args[0])
            p, q = _point(scen, args[2]), _point(scen, args[3])
            graph, recs = birgroup.hexagonal_graph(spec, p, q)
            word = birgroup.word_to_generators(graph, recs)
            ok = birgroup.check_relation(graph, word,
                                         relation_meta=("hexagonal", recs))
            image = birgroup.psi_image(graph, word)
            emit(f"relation: hexagonal ({', '.join(r.name for r in recs)})")
            emit(f"holds: {str(bool(ok)).lower()}")
            emit(f"psi-identity: {str(image.is_identity()).lower()}")
            return
        graph = _graph(scen, state, args[0])
        tour = _walk(scen, graph, args[1])
        word = birgroup.word_to_generators(graph, tour)
        ok = birgroup.check_relation(graph, word)
        image = birgroup.psi_image(graph, word)
        emit(f"word: {word}")
        emit(f"holds: {str(bool(ok)).lower()}")
        emit(f"psi-identity: {str(image.is_identity()).lower()}")
        return
    if op == "dump-config":
        n = _int_arg(args[0], "point count")
        if n not in curveconfig.POINT_COUNTS:
            raise CommandError(f"unsupported point count {n}")
        cfg = curveconfig.config(n)
        action = None
        if len(args) > 1:
            tower = _named(scen.towers, args[1], "tower")
            if n == 3:
                action = curveconfig.hexagon_action(tower)
        text = cfg.dump(action)
        emit(f"classes: {len(cfg.labels)}")
        dump_dir = state["dump_dir"]
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            fname = os.path.join(dump_dir, f"config{n}.txt")
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(text)
            emit(f"written: {fname}")
        else:
            for line in text.strip().split("\n"):
                emit(line)
        return
    if op == "construct-point":
        spec = _surface(scen, args[0])
        d = _int_arg(args[1], "point degree")
        if d not in (2, 3):
            raise CommandError(f"construct-point builds 2- and 3-points, not {d}")
        if d == 3:
            p = construct_3point(spec)
            emit(f"point-degree: 3")
            emit(f"lambda1: {p.lam1}")
            emit(f"lambda2: {p.lam2}")
            emit(f"field: {p.ext.name}")
        else:
            for p in construct_2point(spec):
                emit(f"point-degree: 2")
                emit(f"lambda1: {p.lam1}")
                emit(f"field: {p.ext.name}")


def _graph(scen, state, name):
    """The graph `explore` built for surface `name`, else one built now at
    the --depth option (default 2)."""
    spec = _surface(scen, name)  # checks the name before it is a key
    graph = state["graphs"].get(name)
    if graph is None:
        graph = birgroup.explore_graph(spec, _points_on(scen, spec),
                                       depth=state["depth"] or 2)
        state["graphs"][name] = graph
    return graph


def _walk(scen, graph, word_text):
    """Turn a word like 'p0 p1 !' into a tour of link records."""
    if not isinstance(word_text, str):
        raise CommandError(f"a tour word is a string, got {word_text!r}")
    cur_key = graph.base_key
    tour = []
    for tok in word_text.replace(",", " ").split():
        if tok == "!":
            rec = graph.reference_record(cur_key).reversed()
            tour.append(rec)
            cur_key = rec.target.vertex_key()
            continue
        p = _point(scen, tok)
        root = ("pt", p.key())
        rec = graph.out.get((cur_key, root))
        if rec is None:
            raise CommandError(
                f"no materialized link at {tok} from the current vertex; "
                "increase the exploration depth"
            )
        tour.append(rec)
        cur_key = rec.target.vertex_key()
    return tour


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dp6", description="sextic del Pezzo classification toolkit")
    ap.add_argument("scenario", help="scenario file path or bundled name")
    ap.add_argument("--strict", action="store_true",
                    help="forbid assumed facts from influencing verdicts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--depth", type=int, default=None)
    ap.add_argument("--dump-dir", default=None)
    args = ap.parse_args(argv)
    try:
        path = resolve_scenario(args.scenario)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    code, text = run(path, strict=args.strict, seed=args.seed,
                     depth=args.depth, dump_dir=args.dump_dir)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
