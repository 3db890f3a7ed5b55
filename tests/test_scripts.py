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


def test_example_main_links_give_distinct_models(capsys):
    """Links at N shifts of example-main give pairwise non-isomorphic
    targets (the script asserts a No for every pair), the model graph grows
    with N, and a two-target tour has two distinct Z factors."""
    main = _script("run_example_main").main
    vertices = []
    for count, pairs in ((3, 3), (6, 15)):
        assert main(["--count", str(count)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"link targets pairwise non-isomorphic: {pairs} pairs checked" in lines
        assert "distinct Z factors: 2" in lines
        vertices += [line for line in lines if line.startswith("model graph")]
    assert vertices == ["model graph at depth 2: 4 vertices",
                        "model graph at depth 2: 7 vertices"]


def test_relation_zoo_kills_the_six_term_relation(capsys):
    """The six-term relation holds on the data and its psi image is trivial
    once the Geiser pairings are in the graph."""
    assert _script("relation_zoo").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "data-level identity: True" in lines
    assert "psi image (with pairings): id" in lines
