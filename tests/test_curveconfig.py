"""Lattice enumeration, intersection graphs, and the induced Sigma' actions.

The expected (new group, kernel H) cells below are the full case analysis of
the new-splitting-field propositions and both link tables; the lattice route
must reproduce every cell.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dp6 import hexagon
from dp6.curveconfig import (
    CONTRACTED,
    NEW_HEX,
    SIGMA_PRIME,
    CurveConfig,
    _check_action,
    _lattice_map,
    _propagate,
    _row_rank,
    config,
    hexagon_action,
    induced_sigma_prime_action,
    intersection,
    invariant_picard_rank,
    minus_one_classes,
    propagate_pair,
)
from dp6.sarkisov import classify_perm_group


def test_enumeration_counts():
    assert len(minus_one_classes(3)) == 6
    assert len(minus_one_classes(5)) == 16
    assert len(minus_one_classes(6)) == 27


@pytest.mark.parametrize("n,count,regular", [(3, 6, 2), (5, 16, 5), (6, 27, 10)])
def test_regularity(n, count, regular):
    cfg = CurveConfig.build(n)
    assert len(cfg.labels) == count
    assert set(cfg.neighbor_counts().values()) == {regular}


def test_intersection_values():
    cfg = config(3)
    e1, f1, f3 = cfg.labels["E1"], cfg.labels["F1"], cfg.labels["F3"]
    assert intersection(e1, e1) == -1
    assert intersection(e1, f1) == 0
    assert intersection(e1, f3) == 1  # e1 . l12
    for c in cfg.labels.values():
        assert c.self_intersection() == -1
        assert c.anticanonical_degree() == 1


def test_hexagon_cycle_matches_lattice():
    cfg = config(3)
    for i, lab in enumerate(hexagon.CYCLE):
        nxt = hexagon.CYCLE[(i + 1) % 6]
        assert cfg.adjacent(lab, nxt)


def test_3link_hexagon_corollary():
    cfg = config(6)
    ring = SIGMA_PRIME[3]
    for a in ring:
        assert sum(1 for b in ring if b != a and cfg.adjacent(a, b)) == 2
        for c in ("C1", "C2", "C3"):
            assert not cfg.adjacent(a, c)


def test_new_hexagon_relabelings_are_consistent():
    for d in (2, 3):
        cfg = config(3 + d)
        mapping = NEW_HEX[d]
        base = config(3)
        for a, b in itertools.combinations(hexagon.LABELS, 2):
            assert base.adjacent(a, b) == cfg.adjacent(mapping[a], mapping[b])


def test_hexagon_action_and_ranks(s3_tower, z6_tower):
    act = hexagon_action(s3_tower)
    assert act["g"]["E1"] == "E2" and act["g"]["F3"] == "F1"
    assert act["f"]["E1"] == "F1" and act["f"]["E2"] == "F3"
    actz = hexagon_action(z6_tower)
    assert actz["h"]["E1"] == "F1" and actz["h"]["E2"] == "F2"
    # invariant ranks: trivial -> 4; <g> -> 2; full Z6 -> 1
    assert invariant_picard_rank([]) == 4
    assert invariant_picard_rank([actz["g"]]) == 2
    assert invariant_picard_rank([actz["g"], actz["h"]]) == 1
    assert invariant_picard_rank([act["g"], act["f"]]) == 1


def _rational_rank(rows):
    """Rank by Gauss-Jordan elimination over the rationals."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = [v / rows[rank][col] for v in rows[rank]]
        rows[rank] = pr
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [v - rows[i][col] * w for v, w in zip(rows[i], pr)]
        rank += 1
    return rank


def test_invariant_rank_on_every_d6_subset():
    """Every set of hexagon symmetries holding the identity (2^11 of them):
    4 minus the rational rank of the stacked M - I."""
    perms = sorted(hexagon.d6_elements())
    assert len(perms) == 12 and hexagon.IDENTITY in perms
    # M - I per symmetry, and the symmetry as a label map
    mats = {p: _lattice_map(config(3), p, ()) for p in perms}
    m_minus_i = {p: [[mat[i][j] - (i == j) for j in range(4)] for i in range(4)]
                 for p, mat in mats.items()}
    as_dict = {p: dict(zip(hexagon.LABELS, (hexagon.LABELS[i] for i in p)))
               for p in perms}
    others = [p for p in perms if p != hexagon.IDENTITY]
    ranks = set()
    for k in range(len(others) + 1):
        for subset in itertools.combinations(others, k):
            chosen = (hexagon.IDENTITY,) + subset
            rows = [row for p in chosen for row in m_minus_i[p]]
            as_dicts = [as_dict[p] for p in chosen]
            want = 4 - _rational_rank(rows)
            assert invariant_picard_rank(as_dicts) == want, chosen
            ranks.add(want)
    assert ranks == {1, 2, 3, 4}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_row_rank_matches_rational_rank(nrows, ncols, data):
    """Fraction-free elimination on integer rows with large entries and
    planted dependent rows."""
    entries = st.integers(-10**12, 10**12) | st.integers(-3, 3)
    rows = [data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    assert _row_rank(rows) == _rational_rank(rows)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_edges_are_the_intersection_relation(n):
    cfg = config(n)
    labels = cfg.labels
    assert cfg.edges == {(a, b) for a in labels for b in labels
                         if intersection(labels[a], labels[b]) >= 1}
    assert all(cfg.by_vec[(c.d,) + tuple(-m for m in c.m)] == name
               for name, c in labels.items())


@pytest.mark.parametrize("n,a,b", [(3, "E1", "E2"), (5, "E4", "C"),
                                   (6, "E1", "C1")])
def test_check_action_refuses_a_transposition(n, a, b):
    """Swapping two labels with different neighbours breaks adjacency; the
    identity and the hexagon rotation keep it."""
    cfg = config(n)
    ident = {lab: lab for lab in cfg.labels}
    swap = dict(ident, **{a: b, b: a})
    with pytest.raises(ValueError, match="action of swap does not preserve"):
        _check_action(cfg, {"id": ident, "swap": swap})
    _check_action(cfg, {"id": ident})
    if n == 3:
        rot = {hexagon.LABELS[i]: hexagon.LABELS[hexagon.ROT3[i]] for i in range(6)}
        _check_action(cfg, {"rot": rot})


def test_inconsistent_action_is_an_error():
    # a reflection with a 3-cycle on components breaks incidence
    with pytest.raises(ValueError):
        induced_sigma_prime_action(
            2, [("bad", hexagon.ROT3, (0, 0))]
        )


# ---------------------------------------------------------------------------
# exhaustive case tables
# ---------------------------------------------------------------------------

ID2 = (0, 1)
SW2 = (1, 0)
ID3 = (0, 1, 2)
CY3 = (1, 2, 0)
TR3 = (0, 2, 1)

G = hexagon.ROT3
H = hexagon.CENTRAL
F = hexagon.REFLECT_F
S = hexagon.REFLECT_S
I6 = hexagon.IDENTITY


def _pairs(*items):
    return frozenset(items)


def _group_structure(act):
    perms = set()
    for hp, cp in act.group_pairs:
        perms.add(propagate_pair(act.d, hp, cp)[1])
    return classify_perm_group(perms)


# every case of the 2-point and 3-point splitting-field propositions and of
# the two link tables: (label, d, generators, expected kernel, expected group)
CASES = [
    # --- d = 2, E inside F
    ("Z6 d2 E=K", 2,
     [("g", G, ID2), ("h", H, SW2)],
     _pairs((I6, ID2)), "Z6"),
    ("D6 d2 E=K (f swaps)", 2,
     [("g", G, ID2), ("h", H, SW2), ("f", F, SW2)],
     _pairs((I6, ID2)), "D6"),
    ("D6 d2 E=F^<g,f> (f fixes)", 2,
     [("g", G, ID2), ("h", H, SW2), ("f", F, ID2)],
     _pairs((I6, ID2)), "D6"),
    # --- d = 2, E cap F = k: H = <h>
    ("Z6 d2 independent", 2,
     [("g", G, ID2), ("h", H, ID2), ("t", I6, SW2)],
     _pairs((I6, ID2), (H, ID2)), "Z6"),
    ("D6 d2 independent", 2,
     [("g", G, ID2), ("h", H, ID2), ("f", F, ID2), ("t", I6, SW2)],
     _pairs((I6, ID2), (H, ID2)), "D6"),
    # --- d = 3, E inside F: H = {id}
    ("Z6 d3 E=L", 3,
     [("g", G, CY3), ("h", H, ID3)],
     _pairs((I6, ID3)), "Z6"),
    ("S3 d3 E=F", 3,
     [("g", G, CY3), ("f", F, TR3)],
     _pairs((I6, ID3)), "S3"),
    ("D6 d3 E=F^h", 3,
     [("g", G, CY3), ("h", H, ID3), ("f", F, TR3)],
     _pairs((I6, ID3)), "D6"),
    # --- d = 3, E cap F = k, Gal(E) = Z/3 (table row 1)
    ("Z6 d3 indep Z3", 3,
     [("g", G, ID3), ("h", H, ID3), ("w", I6, CY3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "Z6"),
    ("S3 d3 indep Z3", 3,
     [("g", G, ID3), ("f", F, ID3), ("w", I6, CY3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "Z6"),
    ("D6 d3 indep Z3", 3,
     [("g", G, ID3), ("h", H, ID3), ("f", F, ID3), ("w", I6, CY3)],
     _pairs(*[(p, ID3) for p in
              (I6, G, hexagon.compose(G, G), S, hexagon.compose(G, S),
               hexagon.compose(hexagon.compose(G, G), S))]), "Z6"),
    # --- d = 3, E cap F = k, Gal(E) = S3 (table row 2)
    ("Z6 d3 indep S3", 3,
     [("g", G, ID3), ("h", H, ID3), ("w", I6, CY3), ("t", I6, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "D6"),
    ("S3 d3 indep S3", 3,
     [("g", G, ID3), ("f", F, ID3), ("w", I6, CY3), ("t", I6, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "D6"),
    ("D6 d3 indep S3", 3,
     [("g", G, ID3), ("h", H, ID3), ("f", F, ID3), ("w", I6, CY3),
      ("t", I6, TR3)],
     _pairs(*[(p, ID3) for p in
              (I6, G, hexagon.compose(G, G), S, hexagon.compose(G, S),
               hexagon.compose(hexagon.compose(G, G), S))]), "D6"),
    # --- d = 3, quadratic intersection (the other table): Gal(E) = S3
    ("Z6 d3 quad", 3,
     [("g", G, ID3), ("w", I6, CY3), ("ht", H, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "S3"),
    ("S3 d3 quad", 3,
     [("g", G, ID3), ("w", I6, CY3), ("ft", F, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "S3"),
    ("D6 d3 quad u=h", 3,
     [("g", G, ID3), ("w", I6, CY3), ("h", H, ID3), ("ft", F, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "D6"),
    ("D6 d3 quad u=f", 3,
     [("g", G, ID3), ("w", I6, CY3), ("f", F, ID3), ("ht", H, TR3)],
     _pairs((I6, ID3), (G, ID3), (hexagon.compose(G, G), ID3)), "D6"),
    ("D6 d3 quad u=s", 3,
     [("g", G, ID3), ("w", I6, CY3), ("s", S, ID3), ("ht", H, TR3)],
     _pairs(*[(p, ID3) for p in
              (I6, G, hexagon.compose(G, G), S, hexagon.compose(G, S),
               hexagon.compose(hexagon.compose(G, G), S))]), "S3"),
]


@pytest.mark.parametrize("label,d,gens,kernel,group", CASES,
                         ids=[c[0] for c in CASES])
def test_case_tables(label, d, gens, kernel, group):
    act = induced_sigma_prime_action(d, gens)
    assert act.kernel_pairs == kernel, f"{label}: kernel mismatch"
    assert _group_structure(act) == group, f"{label}: group mismatch"


def test_actions_preserve_relations_and_adjacency():
    gens = [("g", G, CY3), ("h", H, ID3), ("f", F, TR3)]
    act = induced_sigma_prime_action(3, gens)
    cfg = act.config
    for key, perm in act.full_action.items():
        for a, b in itertools.combinations(sorted(cfg.labels), 2):
            assert cfg.adjacent(a, b) == cfg.adjacent(perm[a], perm[b])
    # the relabeled hexagon action also preserves adjacency
    _check_action(config(3), {
        key: {hexagon.LABELS[i]: hexagon.LABELS[perm[i]] for i in range(6)}
        for key, perm in act.new_hexagon_action.items()})


def _outcome(f, *args):
    """f(*args), or the class of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def _direct_pair(d, hp, cp):
    """propagate_pair of one pair from `_propagate` of the pair itself, with
    no composition and no cache."""
    full = _propagate(config(3 + d), hp, cp)
    back = {v: k for k, v in NEW_HEX[d].items()}
    new_hex = tuple(hexagon.INDEX[back[full[NEW_HEX[d][lab]]]]
                    for lab in hexagon.LABELS)
    contracted = CONTRACTED[d]
    inv = tuple(contracted.index(full[c]) for c in contracted)
    return full, new_hex, inv, all(full[a] == a for a in SIGMA_PRIME[d])


@pytest.mark.parametrize("d", [2, 3])
def test_composed_pairs_match_direct_propagation(d):
    """For each of the 12 hexagon symmetries and every component perm, the
    composed and cached propagate_pair equals the lattice route applied to
    the pair itself, or both raise.  None raises, and the kernel flag is set
    on some pairs and not on others.  The two pure
    factors commute, so either order of composition gives the direct map."""
    ident = tuple(range(d))
    pairs = [(hp, cp) for hp in hexagon.d6_elements()
             for cp in itertools.permutations(ident)]
    assert len(pairs) == 12 * len(list(itertools.permutations(ident)))
    flags = []
    for hp, cp in pairs:
        want = _outcome(_direct_pair, d, hp, cp)
        got = _outcome(propagate_pair, d, hp, cp)
        assert got == want, (hp, cp)
        if not isinstance(want, type):
            flags.append(want[3])
            outer = propagate_pair(d, hp, ident)[0]
            inner = propagate_pair(d, hexagon.IDENTITY, cp)[0]
            assert {lab: inner[outer[lab]] for lab in outer} == want[0]
    assert len(flags) == len(pairs) and any(flags) and not all(flags)


def test_dump_format(s3_tower):
    cfg = config(3)
    act = hexagon_action(s3_tower)
    text = cfg.dump(act)
    lines = text.strip().split("\n")
    assert "E1 -- F2" in lines
    assert "# action g: E1 -> E2" in lines
