"""The example scripts under scripts/, run through their main functions."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_EXAMPLE_HEAD = """\
xi = s: NotNorm over Norm_g (valuation-proof on s)
index: 3
automorphisms: T2
"""
_EXAMPLE_TAIL = """\
psi of a two-target tour: z[39c2cd]^1 * z[9c731d]^1
distinct Z factors: 2
"""


def test_example_main_links_give_distinct_models(capsys):
    """Links at N shifts of example-main give pairwise non-isomorphic
    targets (the script asserts a No for every pair), the model graph grows
    with N, and a two-target tour has two distinct Z factors.  The whole
    report but the timing line is pinned: the psi line names its Z factors
    by hashes of vertex keys, so any change in the link data shows there."""
    main = _script("run_example_main").main
    for count, pairs, vertices in ((3, 3, 4), (6, 15, 7)):
        assert main(["--count", str(count)]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert lines[-1].startswith("done in ")
        assert "".join(lines[:-1]) == (
            _EXAMPLE_HEAD
            + "".join(f"point over E{z}: valid and in general position: True\n"
                      for z in range(count))
            + f"link targets pairwise non-isomorphic: {pairs} pairs checked\n"
            + f"model graph at depth 2: {vertices} vertices\n"
            + _EXAMPLE_TAIL)


def test_relation_zoo_kills_the_six_term_relation(capsys):
    """The six-term relation holds on the data and its psi image is trivial
    once the Geiser pairings are in the graph."""
    assert _script("relation_zoo").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "data-level identity: True" in lines
    assert "psi image (with pairings): id" in lines
