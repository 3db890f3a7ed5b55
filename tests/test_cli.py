"""Scenario loading, command reports, exit codes, determinism."""

import copy
import json
import os
import random
import subprocess
import sys
import time

import pytest

from dp6._ratfunc import QOmega
from dp6.cli import bundled_path, run
from dp6.fieldtower import ExtensionDescriptor
from dp6.points import composite_for
from dp6.scenario import (
    _MAX_NESTING,
    _MAX_POWER_DEGREE,
    _MAX_POWER_TERMS,
    ScenarioError,
    load_scenario,
    parse_element,
)
from test_ratfunc import _modules_after


def test_parse_element(s3_tower):
    t1, t2, s = (s3_tower.var(v) for v in ("t1", "t2", "s"))
    w = s3_tower.omega()
    assert parse_element("t1 + 2*t2", s3_tower) == t1 + 2 * t2
    assert parse_element("(t1+t2)^2 / s", s3_tower) == (t1 + t2) ** 2 / s
    assert parse_element("-t1^-1", s3_tower) == -(t1.inv())
    assert parse_element("w^2 + w + 1", s3_tower).is_zero()
    assert parse_element("t1**2", s3_tower) == t1 * t1
    with pytest.raises(ScenarioError):
        parse_element("nope", s3_tower)
    with pytest.raises(ScenarioError):
        parse_element("t1 +", s3_tower)
    with pytest.raises(ScenarioError):
        parse_element("r", s3_tower)


@pytest.mark.parametrize("name", ["example-main", "z6-index2-hex",
                                  "z6-index6", "d6-swap"])
def test_bundled_scenarios_run(name):
    code, text = run(bundled_path(name))
    assert code == 0, text
    assert "error:" not in text


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden")


GOLDEN_CASES = [
    ("z6-index2-hex", False), ("z6-index2-hex", True),
    ("z6-index6", False), ("z6-index6", True),
    ("d6-swap", False), ("d6-swap", True),
    ("example-main", False),
]


def _golden(name, strict):
    case = name + ("--strict" if strict else "")
    with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), encoding="utf-8") as fh:
        want_code = json.load(fh)[case]
    with open(os.path.join(GOLDEN_DIR, case + ".out"), encoding="utf-8",
              newline="") as fh:
        return fh.read(), want_code


@pytest.mark.parametrize("name,strict", GOLDEN_CASES)
def test_golden_reports(name, strict):
    want_text, want_code = _golden(name, strict)
    code, text = run(bundled_path(name), strict=strict)
    assert text == want_text
    assert code == want_code


def test_golden_reports_twice_in_one_process():
    """Each run builds its own towers, so runs share only the module-level
    caches; a second pass in reversed order must give the same reports."""
    for name, strict in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        want_text, want_code = _golden(name, strict)
        assert run(bundled_path(name), strict=strict) == (want_code, want_text)


def test_example_main_strict_report():
    # every verdict of example-main is proven, so --strict changes only the
    # header line of the golden report
    with open(os.path.join(GOLDEN_DIR, "example-main.out"), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    assert "strict: off\n" in want
    code, text = run(bundled_path("example-main"), strict=True)
    assert text == want.replace("strict: off\n", "strict: on\n", 1)
    assert code == 0


def test_reports_deterministic():
    path = bundled_path("z6-index2-hex")
    code1, text1 = run(path)
    code2, text2 = run(path)
    assert (code1, text1) == (code2, text2)


def test_example_main_hashes_few_rationals(monkeypatch):
    """Graph, point and image keys keep their hashes, so a warm example-main
    run hashes few `MPQ` leaves (about 1.9k; 7.7k when every lookup rehashed
    its whole key)."""
    from dp6._ratfunc import MPQ

    path = bundled_path("example-main")
    want = run(path)
    calls = []
    plain_hash = MPQ.__hash__

    def counted(self):
        calls.append(None)
        return plain_hash(self)

    monkeypatch.setattr(MPQ, "__hash__", counted)
    assert run(path) == want
    assert 0 < len(calls) < 2000


def test_example_main_report_contents():
    code, text = run(bundled_path("example-main"))
    assert code == 0
    assert "index: 3" in text
    assert "Am_K: Z/3" in text
    assert "gtype: S3" in text
    assert "rigidity: NotRigid" in text
    assert "vertices: 5" in text
    assert "z-factors: 2" in text
    assert "identity: false" in text


def test_strict_mode_blocks_assumed():
    code, text = run(bundled_path("z6-index6"), strict=True)
    assert code == 4
    assert "Unknown" in text
    code2, text2 = run(bundled_path("z6-index6"))
    assert code2 == 0
    assert "index: 6" in text2
    assert "SuperRigid" in text2
    assert "assumed-fact" in text2


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, text = run(str(bad))
    assert code == 2
    # semantic error: invalid surface conditions
    scen = {
        "name": "broken",
        "towers": {"FZ": {"variables": ["x1", "x2", "x3", "y"],
                          "generators": {
                              "g": {"perm": {"x1": "x2", "x2": "x3",
                                             "x3": "x1"}},
                              "h": {"scale": {"y": "-1"}}}}},
        "surfaces": {"S": {"gtype": "Z6", "tower": "FZ", "xi": "x1*x2*x3",
                           "rho": "x1/x2"}},
        "commands": [],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(scen))
    code, text = run(str(p))
    assert code == 3 and "Norm_h" in text
    # empty command list: ok, empty report
    scen2 = {"name": "empty", "commands": []}
    p2 = tmp_path / "empty.json"
    p2.write_text(json.dumps(scen2))
    code, text = run(str(p2))
    assert code == 0


def test_unknown_command_is_semantic_error(tmp_path):
    scen = {"name": "x", "commands": [["frobnicate"]]}
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    code, text = run(str(p))
    assert code == 3


def test_dump_dir(tmp_path):
    code, text = run(bundled_path("z6-index2-hex"), dump_dir=str(tmp_path))
    assert code == 0
    assert (tmp_path / "config6.txt").exists()
    content = (tmp_path / "config6.txt").read_text()
    assert "E1 -- F2" in content


def test_iso_command(tmp_path):
    scen = {
        "name": "iso-test",
        "towers": {"FZ": {"variables": ["x1", "x2", "x3", "y"],
                          "generators": {
                              "g": {"perm": {"x1": "x2", "x2": "x3",
                                             "x3": "x1"}},
                              "h": {"scale": {"y": "-1"}}}}},
        "surfaces": {
            "A": {"gtype": "Z6", "tower": "FZ", "xi": "1", "rho": "x1/x2"},
            "B": {"gtype": "Z6", "tower": "FZ", "xi": "1", "rho": "x2/x3"},
        },
        "commands": [["iso", "A", "B"], ["iso", "A", "A"],
                     ["birational", "A", "B"]],
    }
    p = tmp_path / "iso.json"
    p.write_text(json.dumps(scen))
    code, text = run(str(p))
    assert code == 0
    assert text.count("isomorphic: Yes") == 2
    assert "birational: Yes" in text


def _hex_scenario(tmp_path, name, points, commands):
    scen = json.loads(open(bundled_path("z6-index2-hex")).read())
    scen["points"].update(points)
    scen["commands"] = commands
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scen))
    return run(str(path))


def _sections(text):
    """Report sections keyed by their '== command' header."""
    out = {}
    for block in text.split("\n\n")[1:]:
        head, _, body = block.partition("\n")
        out[head] = body
    return out


def test_zero_coordinate_is_semantic_error(tmp_path):
    zero = {"z": {"surface": "SZ", "degree": 2, "extension": "K",
                  "lambda1": "0"}}
    code, text = _hex_scenario(tmp_path, "zero", zero, [["validate", "SZ", "z"]])
    assert code == 3
    assert "error: coordinate leaves the torus chart" in text


def test_degree4_point_has_no_links(tmp_path):
    q4 = {"q4": {"surface": "SZ", "degree": 4, "general_position": True}}
    shared = [["rigid", "SZ"], ["explore", "SZ", 1], ["birational", "SZ", "SZ"]]
    code, text = _hex_scenario(
        tmp_path, "q4", q4,
        [["validate", "SZ", "q4"], ["link", "SZ", "q4"]] + shared)
    assert code == 3
    got = _sections(text)
    assert got["== validate SZ q4"] == (
        "point: q4\nvalid: true\ngeneral-position: true")
    assert got["== link SZ q4"] == "error: links exist at 2- and 3-points only"
    code0, text0 = _hex_scenario(tmp_path, "plain", {}, shared)
    assert code0 == 0
    want = _sections(text0)
    for cmd in ("== rigid SZ", "== explore SZ 1", "== birational SZ SZ"):
        assert got[cmd] == want[cmd]
        assert "error:" not in got[cmd]


@pytest.mark.parametrize("command,message", [
    (["explore", "SZ", "x"], "explore depth must be an integer, got 'x'"),
    (["explore", "SZ", "-1"], "explore depth must be nonnegative, got -1"),
    (["explore", "SZ", True], "explore depth must be an integer, got True"),
    (["explore", "SZ", 1.5], "explore depth must be an integer, got 1.5"),
    (["dump-config", True], "point count must be an integer, got True"),
    (["dump-config", 9], "unsupported point count 9"),
    ([], "empty command"),
    (["validate"], "validate needs at least 1 argument(s), got 0"),
    (["construct-point", "SZ", 7], "construct-point builds 2- and 3-points, not 7"),
    (["psi", "SZ", 5], "a tour word is a string, got 5"),
    (["classify", "SZ", "junk"], "classify takes at most 1 argument(s), got 2"),
    (["check-relation", "SZ", "hexagonal", "p", "q", "p"],
     "check-relation takes at most 4 argument(s), got 5"),
    ([["classify"], "SZ"], "unknown command ['classify']"),
    ([{"op": "classify"}, "SZ"], "unknown command {'op': 'classify'}"),
    (["classify", ["SZ"]], "unknown surface ['SZ']"),
    (["validate", "SZ", {"p": 1}], "unknown point {'p': 1}"),
    (["dump-config", 3, ["FZ"]], "unknown tower ['FZ']"),
], ids=["explore-word", "explore-negative", "explore-bool", "explore-fraction",
        "dump-config-bool", "dump-config-9", "empty",
        "validate-bare", "construct-point-7", "psi-number", "classify-extra",
        "hexagonal-extra", "list-command", "dict-command", "list-surface",
        "dict-point", "list-tower"])
def test_malformed_command_is_semantic_error(tmp_path, command, message):
    code, text = _hex_scenario(tmp_path, "malformed", {},
                               [command, ["classify", "SZ"]])
    assert code == 3
    got = _sections(text)
    assert got["== " + " ".join(str(c) for c in command)] == "error: " + message
    assert "index: 2" in got["== classify SZ"]


def test_point_degree_not_an_integer(tmp_path):
    bad = {"b": {"surface": "SZ", "degree": "x", "extension": "K",
                 "lambda1": "x1"}}
    code, text = _hex_scenario(tmp_path, "degree", bad, [])
    assert code == 2
    assert text == "load-error: point b: degree must be an integer, got 'x'\n"


@pytest.mark.parametrize("degree", [3.7, True, 2.5])
def test_point_degree_bool_or_fraction(tmp_path, degree):
    """A JSON boolean or a number with a fraction part is no degree, though
    int() would read it as 1 or round it toward zero."""
    bad = {"b": {"surface": "SZ", "degree": degree, "extension": "K",
                 "lambda1": "x1"}}
    code, text = _hex_scenario(tmp_path, "degree", bad, [])
    assert code == 2
    assert text == f"load-error: point b: degree must be an integer, got {degree!r}\n"


@pytest.mark.parametrize("flag", ["false", 0, [], None])
def test_general_position_flag_must_be_boolean(tmp_path, flag):
    """The declared flag of a degree-4 point is a JSON true or false; the
    string "false" would read as true under bool()."""
    q4 = {"q4": {"surface": "SZ", "degree": 4, "general_position": flag}}
    code, text = _hex_scenario(tmp_path, "q4", q4, [["validate", "SZ", "q4"]])
    assert code == 2
    assert text == ("load-error: point q4: general_position must be true or "
                    f"false, got {flag!r}\n")


@pytest.mark.parametrize("commands", [5, [5], ["rigid SZ"]])
def test_commands_not_lists_is_load_error(tmp_path, commands):
    code, text = _hex_scenario(tmp_path, "commands", {}, commands)
    assert code == 2
    assert text == "load-error: commands must be a list of lists\n"


def test_generator_perm_not_a_bijection_is_tower_error(tmp_path):
    """A generator perm that sends two variables to one is refused at load
    as a tower error (exit 3), not later as an order beyond 12."""
    scen = json.loads(open(bundled_path("z6-index2-hex")).read())
    scen["towers"]["FZ"]["generators"]["g"]["perm"] = {"x1": "x2"}
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(scen))
    code, text = run(str(path))
    assert code == 3
    assert text == ("load-error: [1, 1, 2, 3] is not a permutation of the "
                    "variables\n")


def _set(path, value):
    """An edit of the z6-index2-hex scenario: set the entry at path."""
    def edit(scen):
        node = scen
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        return scen
    return edit


def _drop(path):
    """An edit of the z6-index2-hex scenario: delete the entry at path."""
    def edit(scen):
        node = scen
        for k in path[:-1]:
            node = node[k]
        del node[path[-1]]
        return scen
    return edit


_TOWER = ("towers", "FZ")
_K = ("extensions", "K")
_P = ("points", "p")
_SZ = ("surfaces", "SZ")


@pytest.mark.parametrize("edit,strict,message", [
    (_set(("facts",), 5), False, "facts must be a JSON list"),
    (_set(("facts",), 5), True, "facts must be a JSON list"),
    (_set(("points",), [1]), False, "points must be a JSON object"),
    (_set(_TOWER + ("variables",), 5), False,
     "tower FZ: variables must be a JSON list"),
    (_set(_TOWER + ("generators", "g", "perm"), {"x1": "zz"}), False,
     "tower FZ: unknown variable 'zz'"),
    (_set(_TOWER + ("generators", "h", "scale"), {"y": "2"}), False,
     "tower FZ: not a recognized root-of-unity scale: '2'"),
    (_set(_TOWER + ("generators", "g", "perm"), [1]), False,
     "tower FZ: generator g: perm must be a JSON object"),
    (_set(("extensions", "K", "fixing"), 5), False,
     "extension K: fixing must be a JSON list"),
    (lambda scen: [scen], False, "a scenario must be a JSON object"),
    (lambda scen: [scen], True, "a scenario must be a JSON object"),
    (_set(("extensions", "K", "fixing"), [5]), False,
     "extension K: fixing entry must be a string, got 5"),
    (_set(("facts",), [{"tower": "FZ", "element": "x1", "generator": 5,
                        "verdict": "IsNorm"}]), False,
     "fact generator must be a string, got 5"),
    (_set(("name",), [1]), False, "scenario name must be a string, got [1]"),
    (_set(("extensions", "K", "tower"), [1]), False,
     "extension K: tower must be a string, got [1]"),
    (_set(("surfaces", "SZ", "tower"), [1]), False,
     "surface SZ: tower must be a string, got [1]"),
    (_set(("facts",), [{"tower": [1], "element": "x1", "generator": "g",
                        "verdict": "IsNorm"}]), False,
     "fact tower must be a string, got [1]"),
    (_set(("points", "p", "surface"), [1]), False,
     "point p: surface must be a string, got [1]"),
    (_set(("points", "p", "extension"), [1]), False,
     "point p: extension must be a string, got [1]"),
    (_set(_TOWER + ("embedding",), {"g": [1]}), False,
     "tower FZ: embedding of g must be a string, got [1]"),
    (_set(_TOWER + ("embedding",), [1]), False,
     "tower FZ: embedding must be a JSON object"),
    (_set(("extensions", "K", "kind"), [1]), False,
     "extension K: kind must be a string, got [1]"),
    (_set(("extensions", "K", "kind"), "bogus"), False,
     "extension K: unknown kind 'bogus'"),
    (_set(("extensions", "K", "tower"), "nope"), False,
     "extension K: tower: unknown name 'nope'"),
    (_drop(_TOWER + ("variables",)), False,
     "tower FZ: missing field 'variables'"),
    (_drop(_TOWER + ("generators",)), False,
     "tower FZ: missing field 'generators'"),
    (_drop(_K + ("tower",)), False, "extension K: missing field 'tower'"),
    (_drop(_K + ("kind",)), False, "extension K: missing field 'kind'"),
    (_drop(_K + ("fixing",)), False, "extension K: missing field 'fixing'"),
    (_set(_K + ("kind",), "quadratic"), False,
     "extension K: missing field 'radicand'"),
    (_set(("facts",), [{"tower": "FZ", "element": "x1", "generator": "g"}]),
     False, "fact: missing field 'verdict'"),
    (_set(("facts",), [{"element": "x1", "generator": "g"}]), False,
     "fact: missing field 'tower'"),
    (_drop(_SZ + ("tower",)), False, "surface SZ: missing field 'tower'"),
    (_drop(_SZ + ("xi",)), False, "surface SZ: missing field 'xi'"),
    (_drop(_SZ + ("gtype",)), False, "surface SZ: missing field 'gtype'"),
    (_drop(_P + ("surface",)), False, "point p: missing field 'surface'"),
    (_drop(_P + ("degree",)), False, "point p: missing field 'degree'"),
    (_drop(_P + ("extension",)), False, "point p: missing field 'extension'"),
    (_drop(_P + ("lambda1",)), False, "point p: missing field 'lambda1'"),
    (_drop(_P + ("lambda1",)), True, "point p: missing field 'lambda1'"),
    (_set(_SZ + ("xi",), "1/0"), False,
     "surface SZ: xi: division by zero in '1/0'"),
    (_set(_SZ + ("rho",), "x1/(x2 - x2)"), False,
     "surface SZ: rho: division by zero in 'x1/(x2 - x2)'"),
    (_set(_P + ("lambda1",), "x1/0"), False,
     "point p: lambda1: division by zero in 'x1/0'"),
    (_set(_P + ("lambda2",), "0^-1"), False,
     "point p: lambda2: division by zero in '0^-1'"),
    (_set(("facts",), [{"tower": "FZ", "element": "1/0", "generator": "g",
                        "verdict": "IsNorm"}]), False,
     "fact: element: division by zero in '1/0'"),
    # a Z6 tower has the generators g and h only
    (_set(_P + ("lambda2_rule",), "f-form"), False,
     "point p: lambda2_rule: f-form needs an f generator"),
    (_set(_P + ("lambda2_rule",), "h-orbit"), False,
     "point p: lambda2_rule: unknown rule 'h-orbit'"),
    *[(_set(("facts",), [{"tower": "FZ", "element": "x1/x2", "generator": "g",
                          "verdict": verdict}]), False,
       f"fact x1/x2 under g: verdict must be IsNorm or NotNorm, got {verdict!r}")
      for verdict in ("bogus", None, 5, [], {}, "Unknown")],
    (_set(("facts",), [{"tower": "FZ", "element": "x1/x2", "generator": "g",
                        "verdict": "NotNorm", "note": []}]), False,
     "fact x1/x2 under g: note must be a string, got []"),
], ids=["facts", "facts-strict", "points", "variables", "perm", "scale",
        "perm-list", "fixing", "list", "list-strict", "fixing-word",
        "fact-generator", "name", "extension-tower", "surface-tower",
        "fact-tower", "point-surface", "point-extension", "embedding-word",
        "embedding-list", "kind-list", "kind-bogus", "unknown-tower",
        "no-variables", "no-generators", "no-extension-tower", "no-kind",
        "no-fixing", "no-radicand", "no-verdict", "no-fact-tower",
        "no-surface-tower", "no-xi", "no-gtype", "no-point-surface",
        "no-degree", "no-point-extension", "no-lambda1", "no-lambda1-strict",
        "xi-by-zero", "rho-by-zero", "lambda1-by-zero", "lambda2-by-zero",
        "fact-by-zero", "f-form-without-f", "unknown-rule", "verdict-bogus", "verdict-null",
        "verdict-int", "verdict-list", "verdict-object", "verdict-unknown",
        "note-list"])
def test_scenario_shape_is_load_error(tmp_path, edit, strict, message):
    scen = edit(json.loads(open(bundled_path("z6-index2-hex")).read()))
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(scen))
    code, text = run(str(path), strict=strict)
    assert code == 2
    assert text == f"load-error: {message}\n"


@pytest.mark.parametrize("edit,message", [
    # -1 = (-1)^3: the root test finds the cube root, so E0 has no composite
    (_set(("extensions", "E0", "radicand"), "-1"),
     "point p0: extension E0: radicand is a cube in k"),
    (lambda scen: _set(("points", "p0", "lambda2_rule"), "f-form")(
        _set(("points", "p0", "lambda1"), "0")(scen)),
     "point p0: lambda2_rule: f-form divides by lambda1 = 0"),
], ids=["radicand-cube", "f-form-zero"])
def test_example_main_point_is_load_error(tmp_path, edit, message):
    scen = edit(json.loads(open(bundled_path("example-main")).read()))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(scen))
    code, text = run(str(path))
    assert code == 2
    assert text == f"load-error: {message}\n"


def _copied_tower_scenario(tmp_path, edit):
    """z6-index2-hex with a copy FZ2 of its tower and a surface SZ2 on it."""
    scen = json.loads(open(bundled_path("z6-index2-hex")).read())
    scen["towers"]["FZ2"] = scen["towers"]["FZ"]
    scen["surfaces"]["SZ2"] = dict(scen["surfaces"]["SZ"], tower="FZ2")
    edit(scen)
    path = tmp_path / "copied.json"
    path.write_text(json.dumps(scen))
    return run(str(path))


def test_point_over_another_tower_is_semantic_error(tmp_path):
    """A command pairing SZ2 with a point split over FZ's fields names both
    and the towers; the other commands still run.  explore SZ2 takes only
    the points declared on SZ2, none here, so p does not reach it."""
    commands = [["validate", "SZ2", "p"], ["link", "SZ2", "p"],
                ["explore", "SZ2"], ["validate", "SZ", "p"]]
    code, text = _copied_tower_scenario(
        tmp_path, lambda scen: scen.update(commands=commands))
    assert code == 3
    got = _sections(text)
    want = "error: point p splits over tower FZ, but surface SZ2 is over tower FZ2"
    for cmd in ("validate SZ2 p", "link SZ2 p"):
        assert got["== " + cmd] == want
    assert got["== explore SZ2"] == (
        "depth: 1\nvertices: 1\n  vertex SZ2 (base)\nedges: 0")
    assert "valid: true" in got["== validate SZ p"]


def test_point_on_a_surface_over_another_tower_is_load_error(tmp_path):
    def edit(scen):
        scen["points"]["p"]["surface"] = "SZ2"
    code, text = _copied_tower_scenario(tmp_path, edit)
    assert code == 2
    assert text == ("load-error: point p: extension K is over tower FZ, but "
                    "surface SZ2 is over tower FZ2\n")


def test_unsupported_composite_in_a_command(tmp_path, monkeypatch):
    import dp6.cli
    from dp6.fieldtower import UnsupportedCompositeError

    def unsupported(*_, **__):
        raise UnsupportedCompositeError("radicand is a cube in k")

    monkeypatch.setattr(dp6.cli, "link", unsupported)
    code, text = _hex_scenario(tmp_path, "composite", {},
                               [["link", "SZ", "p"], ["classify", "SZ"]])
    assert code == 3
    got = _sections(text)
    assert got["== link SZ p"] == "error: radicand is a cube in k"
    assert "index: 2" in got["== classify SZ"]


# ---------------------------------------------------------------------------
# expression grammar: unary minus, nesting depth
# ---------------------------------------------------------------------------

def test_unary_minus_binds_looser_than_power(s3_tower):
    t1 = s3_tower.var("t1")
    assert parse_element("-t1^2", s3_tower) == -(t1 * t1)
    assert parse_element("-2^2", s3_tower) == s3_tower.const(QOmega(-4))
    assert parse_element("2*-t1^2", s3_tower) == -2 * t1 * t1
    assert parse_element("(-t1)^2", s3_tower) == t1 * t1
    assert parse_element("--t1^3", s3_tower) == t1 ** 3
    assert parse_element("1 - -t1^2", s3_tower) == 1 + t1 * t1


def _index6_with_rho(tmp_path, rho):
    scen = json.loads(open(bundled_path("z6-index6")).read())
    scen["surfaces"]["S6"]["rho"] = rho
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scen))
    return run(str(path))


@pytest.mark.parametrize("rho", [
    "(" * 1200 + "x1/x2" + ")" * 1200,
    "-" * 1500 + "x1/x2",
    "(" * _MAX_NESTING + "-x1/x2" + ")" * _MAX_NESTING,
    "-(" * (_MAX_NESTING // 2) + "-x1/x2" + ")" * (_MAX_NESTING // 2),
], ids=["parentheses", "minus-signs", "one-past-the-bound", "mixed"])
def test_deep_nesting_is_load_error(tmp_path, rho):
    code, text = _index6_with_rho(tmp_path, rho)
    assert (code, text) == (2, "load-error: surface S6: rho: expression "
                               f"nested deeper than {_MAX_NESTING} levels\n")


def test_nesting_at_the_bound_loads(tmp_path):
    code, text = _index6_with_rho(
        tmp_path, "(" * _MAX_NESTING + "x1/x2" + ")" * _MAX_NESTING)
    assert (code, text) == run(bundled_path("z6-index6"))


# ---------------------------------------------------------------------------
# size budget of powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho,message", [
    ("(x1+x2+x3+1)^40", f"up to 12341 terms, over {_MAX_POWER_TERMS}"),
    ("x1/(x1+x2+x3+y+1)^-14", f"up to 3060 terms, over {_MAX_POWER_TERMS}"),
    ("x1/x2^1001", f"degree 1001 is over {_MAX_POWER_DEGREE}"),
    ("2^5000*x1/x2", f"degree 5000 is over {_MAX_POWER_DEGREE}"),
], ids=["terms", "negative-exponent", "degree", "constant"])
def test_oversized_power_is_load_error(tmp_path, rho, message):
    code, text = _index6_with_rho(tmp_path, rho)
    assert (code, text) == (2, f"load-error: surface S6: rho: power too large: "
                               f"{message}\n")


def test_oversized_power_is_refused_unexpanded(s3_tower):
    """(t1+t2+t3+1)^40 has 12341 terms and took seconds to build; its
    prediction refuses it at once."""
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError, match="up to 12341 terms"):
        parse_element("(t1+t2+t3+1)^40", s3_tower)
    assert time.perf_counter() - t0 < 0.1


def test_powers_within_the_budget_parse(s3_tower):
    """Powers at the budget parse: 1771 terms at degree 20, degree 1000 in
    one variable, and the same budget holds for a radical element."""
    t1, t2, t3 = (s3_tower.var(v) for v in ("t1", "t2", "t3"))
    assert parse_element("t1^1000", s3_tower) == t1 ** 1000
    assert parse_element("(t1+t2+t3+1)^20", s3_tower).num.shape() == (1771, 20, 3)
    E = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=t1 + t2 + t3)
    comp = composite_for(s3_tower, E).comp
    assert parse_element("(r+t1)^3", s3_tower, comp) == (comp.r() + t1) ** 3
    with pytest.raises(ScenarioError, match="power too large: up to"):
        parse_element("(r+t1+t2+t3)^20", s3_tower, comp)


# ---------------------------------------------------------------------------
# a seeded sample of leaf mutations of the bundled scenarios
# ---------------------------------------------------------------------------

BUNDLED = ("example-main", "z6-index2-hex", "z6-index6", "d6-swap")
_FUZZ_VALUES = ("(" * 1200 + "x1" + ")" * 1200, "-" * 1500 + "x1", [], {},
                None, "bogus", 10 ** 30)


def _leaves(node, path=()):
    """The paths of the scalar leaves of a JSON document."""
    if isinstance(node, (dict, list)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for k in keys:
            yield from _leaves(node[k], path + (k,))
    else:
        yield path


def test_fuzzed_scenarios_exit_cleanly(tmp_path):
    """Each run ends in a report with a documented exit code: no exception
    escapes `run`, whatever a leaf of the scenario is replaced by."""
    scenarios = {name: json.loads(open(bundled_path(name)).read())
                 for name in BUNDLED}
    mutations = [(name, path, value) for name in BUNDLED
                 for path in _leaves(scenarios[name])
                 for value in range(len(_FUZZ_VALUES))]
    codes = []
    for name, path, value in random.Random(17).sample(mutations, 60):
        scen = copy.deepcopy(scenarios[name])
        node = scen
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = _FUZZ_VALUES[value]
        file = tmp_path / "fuzzed.json"
        file.write_text(json.dumps(scen))
        code, text = run(str(file))
        assert code in (0, 2, 3, 4), (name, path, text)
        codes.append(code)
    assert {2, 3} <= set(codes)  # both load errors and command errors


# ---------------------------------------------------------------------------
# assumed facts in every report that relies on them; the remaining commands
# ---------------------------------------------------------------------------

_FACT_LINE = ("assumed-fact: user assertion: xi is not a g-norm (no valuation "
              "or residue proof applies) (NotNorm)")


def _index6_scenario(tmp_path, commands):
    """z6-index6 with S2 (index 2), and S3z (index 3 on the assumed fact)
    carrying a 3-point p3 split over L."""
    scen = json.loads(open(bundled_path("z6-index6")).read())
    xi = scen["surfaces"]["S6"]["xi"]
    scen["surfaces"]["S2"] = {"gtype": "Z6", "tower": "FZ", "xi": "1",
                              "rho": "x1/x2"}
    scen["surfaces"]["S3z"] = {"gtype": "Z6", "tower": "FZ", "xi": xi,
                               "rho": "1"}
    scen["extensions"] = {"L": {"kind": "subfield", "tower": "FZ",
                                "fixing": ["h"]}}
    scen["points"] = {"p3": {"surface": "S3z", "degree": 3, "extension": "L",
                             "lambda1": "-1",
                             "lambda2": "(x1+x2+x3-y)/(x1+x2+x3+y)"}}
    scen["commands"] = commands
    path = tmp_path / "index6.json"
    path.write_text(json.dumps(scen))
    return run(str(path))


def test_birational_and_link_name_their_assumed_facts(tmp_path):
    code, text = _index6_scenario(tmp_path, [
        ["birational", "S6", "S2"], ["birational", "S6", "S6"],
        ["link", "S3z", "p3"], ["birational", "S2", "S2"]])
    assert code == 0
    got = _sections(text)
    assert got["== birational S6 S2"] == "\n".join([
        "birational: No", "case: 0",
        "reason: index 6 vs 2 (a birational invariant)", _FACT_LINE])
    # one line per fact, though both sides rely on it
    assert got["== birational S6 S6"] == "\n".join([
        "birational: Yes", "case: 0", "reason: equal data", _FACT_LINE])
    assert got["== link S3z p3"] == "\n".join([
        "link: chi[p3]", "degree: 3", "kernel-H: <1>", "target: S3z",
        "target-gtype: Z6", "self-link: true", "K': K", "L': L",
        "inverse-point-field: E(ind)", _FACT_LINE])
    assert "assumed-fact" not in got["== birational S2 S2"]


def test_strict_blocks_an_unknown_birationality(tmp_path):
    """Without its fact S6's index is Unknown, and so is the verdict."""
    scen = json.loads(open(bundled_path("z6-index6")).read())
    scen["surfaces"]["S2"] = {"gtype": "Z6", "tower": "FZ", "xi": "1",
                              "rho": "x1/x2"}
    scen["commands"] = [["birational", "S6", "S2"], ["birational", "S2", "S2"]]
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(scen))
    code, text = run(str(path), strict=True)
    assert code == 4
    got = _sections(text)
    assert got["== birational S6 S2"] == (
        "error: birationality verdict is Unknown")
    assert got["== birational S2 S2"] == (
        "birational: Yes\ncase: 0\nreason: equal data\n")


def test_construct_point_and_one_argument_validate(tmp_path):
    code, text = _index6_scenario(tmp_path, [
        ["construct-point", "S3z", 3], ["construct-point", "S2", "2"],
        ["validate", "S6"], ["construct-point", "S6", 2]])
    assert code == 3
    got = _sections(text)
    assert got["== construct-point S3z 3"] == (
        "point-degree: 3\nlambda1: -1\n"
        "lambda2: (x1 + x2 + x3 - y)/(x1 + x2 + x3 + y)\nfield: L")
    assert got["== construct-point S2 2"] == (
        "point-degree: 2\nlambda1: 1\nfield: K")
    assert got["== validate S6"] == "surface: S6\nvalid: true\ngtype: Z6"
    assert got["== construct-point S6 2"] == (
        "error: construct_2point requires index 2, found 6\n")


def test_check_relation_on_a_tour_and_graph_dump(tmp_path):
    scen = json.loads(open(bundled_path("example-main")).read())
    scen["commands"] = [["explore", "S", 2],
                        ["check-relation", "S", "p0 p1 p2 !"],
                        ["check-relation", "S", "p0 p0"]]
    path = tmp_path / "tour.json"
    path.write_text(json.dumps(scen))
    dump_dir = tmp_path / "dumps"
    code, text = run(str(path), dump_dir=str(dump_dir))
    assert code == 3
    got = _sections(text)
    dump = dump_dir / "graph-S.txt"
    assert got["== explore S 2"].startswith("depth: 2\nvertices: 5\n")
    assert got["== explore S 2"].endswith(f"\ngraph-dump: {dump}")
    assert "# vertex S: key " in dump.read_text()
    assert got["== check-relation S p0 p1 p2 !"] == (
        "word: A[chi[p1@chi[p0]]] . A[chi[p2@chi[p1]]] . B[chi[p2]]^-1\n"
        "holds: true\npsi-identity: false")
    assert got["== check-relation S p0 p0"] == (
        "error: no materialized link at p0 from the current vertex; "
        "increase the exploration depth\n")


def test_f_form_point_equals_its_explicit_lambda2(tmp_path):
    """pF's lambda2 1/(t1*s) is f(1/lambda1) / xi."""
    scen = json.loads(open(bundled_path("example-main")).read())
    scen["commands"] = [["validate", "S", "pF"], ["link", "S", "pF"]]
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(scen))
    want = run(str(path))
    del scen["points"]["pF"]["lambda2"]
    scen["points"]["pF"]["lambda2_rule"] = "f-form"
    path = tmp_path / "f-form.json"
    path.write_text(json.dumps(scen))
    assert run(str(path)) == want
    assert load_scenario(scen).points["pF"].lam2 == \
        load_scenario(bundled_path("example-main")).points["pF"].lam2


@pytest.mark.parametrize("certificate,code,report", [
    ("x1", 0, "K-trivial: IsNorm"),
    ("x2*x2", 2, "load-error: fact x1*x2*x3 under g: certificate does not "
                 "have the stated norm\n"),
], ids=["valid", "wrong-norm"])
def test_fact_with_a_certificate(tmp_path, certificate, code, report):
    scen = json.loads(open(bundled_path("z6-index2-hex")).read())
    scen["facts"] = [{"tower": "FZ", "element": "x1*x2*x3", "generator": "g",
                      "certificate": certificate}]
    scen["surfaces"]["Sm"] = {"gtype": "Z6", "tower": "FZ",
                              "xi": "x1*x2*x3", "rho": "1/(x1*x2)"}
    scen["commands"] = [["classify", "Sm"]]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(scen))
    got_code, text = run(str(path))
    assert got_code == code and report in text
    if code == 0:
        scenario = load_scenario(scen)
        xi = scenario.surfaces["Sm"].xi
        fact = scenario.registry.lookup(xi, xi.tower.element_named("g"))
        assert (fact.verdict, fact.provenance, str(fact.witness)) == \
            ("IsNorm", "certificate", "x1")


def _scenario_run(tmp_path, scen, strict=False):
    """(exit code, report sections without their final newline)."""
    path = tmp_path / f"{scen['name']}.json"
    path.write_text(json.dumps(scen))
    code, text = run(str(path), strict=strict)
    return code, {k: v.rstrip("\n") for k, v in _sections(text).items()}


def test_an_assumed_conic_fact_is_named_by_classify(tmp_path):
    """rho = (x1^2 + y^2)/(x2^2 + y^2) has no oracle proof either way under h
    (no term quotient, y-degree 0, residue x1^2 x2^2 a square), so its class
    comes from the assumed fact: with xi = 1 the index is 1 * 2 = 2, and
    without the fact it is Unknown."""
    rho = "(x1^2+y^2)/(x2^2+y^2)"
    scen = json.loads(open(bundled_path("z6-index6")).read())
    scen.update(name="conic-fact", commands=[["classify", "SC"]], facts=[
        {"tower": "FZ", "element": rho, "generator": "h", "verdict": "NotNorm",
         "note": "user assertion: rho is not an h-norm"}])
    scen["surfaces"] = {"SC": {"gtype": "Z6", "tower": "FZ", "xi": "1",
                               "rho": rho}}
    code, got = _scenario_run(tmp_path, scen)
    assert code == 0
    assert got["== classify SC"] == "\n".join([
        "surface: SC", "gtype: Z6", "index: 2", "K-trivial: IsNorm",
        "L-trivial: NotNorm", "Am_K: 0", "Am_L: (Z/2)^2",
        "automorphisms: T1 x <alpha_h>",
        "assumed-fact: user assertion: rho is not an h-norm (NotNorm)"])
    code, got = _scenario_run(tmp_path, scen, strict=True)
    assert code == 4
    assert got["== classify SC"].endswith(
        "error: index is Unknown and --strict forbids assumed facts")


def test_birational_reports_its_chain(tmp_path):
    """A and B have index 2, xi_A = Norm_g(c_A) and xi_B = Norm_g(c_B) by
    certificates, with c = (x1 + a*y)/(x1 - a*y), and rho_B = rho_A * (x1/x2)^2.
    The norm twist by (c_A/c_B) * x1/x2 maps A to B, as h(c) = 1/c; the oracle
    cannot see it (xi_B/xi_A has no proof), so iso is Unknown.  The conic
    classes are equal, and the declared 2-point p of A splits over K, which is
    B's K: case 2 gives Yes with the link at p as the chain."""
    scen = _chain_scenario()
    scen["commands"] = [["iso", "A", "B"], ["birational", "A", "B"]]
    code, got = _scenario_run(tmp_path, scen)
    assert code == 0
    assert got["== iso A B"] == (
        "isomorphic: Unknown\nreason: norm oracle undecided")
    assert got["== birational A B"] == (
        "birational: Yes\ncase: 2\nchain: chi[p]\n"
        "reason: 2-point with splitting field K' found")


def _chain_scenario():
    """The scenario of test_birational_reports_its_chain, without commands."""
    def xi(a):
        return "*".join(f"(x{i}+{a}*y)" for i in (1, 2, 3)) + "/(" + \
            "*".join(f"(x{i}-{a}*y)" for i in (1, 2, 3)) + ")"
    scen = json.loads(open(bundled_path("z6-index2-hex")).read())
    scen["name"] = "chain"
    scen["facts"] = [{"tower": "FZ", "element": xi(a), "generator": "g",
                      "certificate": f"(x1+{a}*y)/(x1-{a}*y)"} for a in (1, 2)]
    scen["surfaces"] = {
        "A": {"gtype": "Z6", "tower": "FZ", "xi": xi(1), "rho": "x1/x2"},
        "B": {"gtype": "Z6", "tower": "FZ", "xi": xi(2), "rho": "x1^3/x2^3"}}
    scen["points"] = {"p": {"surface": "A", "degree": 2, "extension": "K",
                            "lambda1": "(x1-y)/(x1+y)"}}
    return scen


def test_commands_take_only_the_points_of_their_surface(tmp_path):
    """rigid, birational and explore about A get only the points declared on
    A: adding q, a valid 2-point of B that is not a point of A, leaves their
    reports as they are without q."""
    scen = _chain_scenario()
    commands = [["rigid", "A"], ["birational", "A", "B"], ["explore", "A", 1]]
    scen["commands"] = commands
    code, want = _scenario_run(tmp_path, scen)
    assert code == 0
    scen["points"]["q"] = {"surface": "B", "degree": 2, "extension": "K",
                           "lambda1": "(x1-2*y)/(x1+2*y)"}
    scen["commands"] = commands + [["validate", "B", "q"]]
    code, got = _scenario_run(tmp_path, scen)
    assert code == 0
    assert got.pop("== validate B q").startswith("point: q\nvalid: true\n")
    assert got == want


@pytest.mark.parametrize("name", BUNDLED)
def test_a_surface_on_a_duplicate_tower(tmp_path, name):
    """Each bundled surface S against its copy S~ on a copy T~ of its tower T:
    the same field and Galois action, so the identity is an isomorphism, and
    birational S S~ says what birational S S says."""
    scen = json.loads(open(bundled_path(name)).read())
    surfaces = sorted(scen["surfaces"])
    for t in list(scen["towers"]):
        scen["towers"][t + "~"] = scen["towers"][t]
    for s in surfaces:
        node = scen["surfaces"][s]
        scen["surfaces"][s + "~"] = dict(node, tower=node["tower"] + "~")
    scen["commands"] = [[op, s, t] for s in surfaces for op, t in
                        (("iso", s + "~"), ("birational", s + "~"),
                         ("birational", s))]
    code, got = _scenario_run(tmp_path, scen)
    assert code == 0
    for s in surfaces:
        assert got[f"== iso {s} {s}~"].startswith("isomorphic: Yes\n")
        assert got[f"== birational {s} {s}~"] == got[f"== birational {s} {s}"]


def test_surfaces_on_two_presentations_of_one_tower(tmp_path):
    """SA on FZ against SB on FB, a second tower with FZ's generators, reads
    as SA against SC, SB's copy on FZ.  Over K both carry xi (NotNorm by the
    assumed fact); over L, (x1+1)/(x2+1) against each rotation of x1/x2 has a
    residue proof (at y = 0 the residue is not a square), so the conic classes
    differ and case 4 says No.  SD carries xi^2: the invert move leaves
    xi^2 / xi^-1 = xi^3 = Norm_g(xi), xi being fixed by g, and x1/x2 is fixed
    by h, so (x1/x2)^2 = Norm_h(x1/x2) and iso says Yes; the index of SD is
    undecided."""
    scen = json.loads(open(bundled_path("z6-index6")).read())
    xi = scen["surfaces"]["S6"]["xi"]
    scen["name"] = "two-presentations"
    scen["towers"]["FB"] = scen["towers"]["FZ"]
    scen["surfaces"] = {
        "SA": {"gtype": "Z6", "tower": "FZ", "xi": xi, "rho": "x1/x2"},
        "SB": {"gtype": "Z6", "tower": "FB", "xi": xi, "rho": "(x1+1)/(x2+1)"},
        "SC": {"gtype": "Z6", "tower": "FZ", "xi": xi, "rho": "(x1+1)/(x2+1)"},
        "SD": {"gtype": "Z6", "tower": "FB", "xi": f"({xi})^2", "rho": "x1/x2"},
        "SE": {"gtype": "Z6", "tower": "FZ", "xi": f"({xi})^2", "rho": "x1/x2"}}
    scen["commands"] = [[op, "SA", t] for t in ("SB", "SC", "SD", "SE")
                        for op in ("iso", "birational")]
    code, got = _scenario_run(tmp_path, scen)
    assert code == 0
    for fb, fz in (("SB", "SC"), ("SD", "SE")):
        for op in ("iso", "birational"):
            assert got[f"== {op} SA {fb}"] == got[f"== {op} SA {fz}"]
    assert got["== iso SA SB"] == (
        "isomorphic: Unknown\nreason: norm oracle undecided")
    assert got["== iso SA SD"] == "isomorphic: Yes\nmoves: invert, norm-twist"
    assert got["== birational SA SB"] == "\n".join([
        "birational: No", "case: 4", "reason: Amitsur data over K or L differ",
        _FACT_LINE])
    assert got["== birational SA SD"].startswith(
        "birational: Unknown\ncase: 0\nreason: index undecided\n")


def test_a_root_certificate_loads_no_sympy(tmp_path):
    """SA against SE of the test above, alone: the invert move leaves xi^3
    and (x1/x2)^2, which the norm oracle certifies by their roots xi and
    x1/x2.  The roots are found term by term, so the run loads no sympy."""
    scen = json.loads(open(bundled_path("z6-index6")).read())
    xi = scen["surfaces"]["S6"]["xi"]
    scen["name"] = "root-certificate"
    scen["surfaces"] = {
        "SA": {"gtype": "Z6", "tower": "FZ", "xi": xi, "rho": "x1/x2"},
        "SE": {"gtype": "Z6", "tower": "FZ", "xi": f"({xi})^2", "rho": "x1/x2"}}
    scen["commands"] = [["iso", "SA", "SE"]]
    path = tmp_path / "root-certificate.json"
    path.write_text(json.dumps(scen))
    code = (f"import dp6.cli\ncode, text = dp6.cli.run({str(path)!r})\n"
            "assert text.endswith('== iso SA SE\\nisomorphic: Yes\\n"
            "moves: invert, norm-twist\\n'), text\n")
    assert _modules_after(code) == "[]"


def _python_m_dp6(*args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dp6", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_dp6():
    proc = _python_m_dp6("z6-index6", "--strict")
    with open(os.path.join(GOLDEN_DIR, "z6-index6--strict.out"),
              encoding="utf-8", newline="") as fh:
        assert proc.stdout == fh.read()
    assert (proc.returncode, proc.stderr) == (4, "")
    proc = _python_m_dp6("no-such-scenario")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: no scenario file or bundled scenario "
                           "'no-such-scenario'\n")
