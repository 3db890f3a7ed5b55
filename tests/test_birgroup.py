"""Graph exploration, generator words, the quotient map, relation checking."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from dp6.birgroup import (
    GraphError,
    QuotientImage,
    Token,
    _canonical_repr,
    _reduce_letters,
    _short,
    _status_match,
    check_relation,
    classify_edge,
    explore_graph,
    hexagonal_graph,
    psi_image,
    same_vertex,
    word_to_generators,
)
from dp6 import hexagon
from dp6._ratfunc import MPQ
from dp6._record import Key, replace
from dp6.fieldtower import ExtensionDescriptor, TowerError, apply
from dp6.points import (
    ClosedPointSpec,
    composite_for,
    construct_2point,
    construct_3point,
    validate_point,
)
from dp6.sarkisov import link
from dp6.surface import is_automorphism, torus_member


@pytest.fixture(scope="module")
def example_graph(s3_example, example_points):
    return explore_graph(s3_example, example_points, depth=2)


def _distinct_edges(graph):
    return list({id(e): e for e in graph.edges.values()}.values())


def test_depth1_vertices(s3_example, example_points):
    g = explore_graph(s3_example, example_points, depth=1)
    assert len(g.vertices) == 5
    assert not g.unknown_merges


def test_depth2_a_edges(example_graph):
    a_edges = [
        e for e in _distinct_edges(example_graph)
        if e.source_key != example_graph.base_key
        and e.target_key != example_graph.base_key and not e.self_loop
    ]
    assert len(a_edges) == 12  # one per ordered pair of distinct targets
    assert len(example_graph.vertices) == 5


@pytest.fixture(scope="module")
def p0_over_mu_squared(s3_tower):
    """example-main's p0, t3/r with r^3 = mu, written over E0 with radicand
    mu^2: there r' = r^2, so t3/r = t3*r'/mu."""
    t1, t2, t3, s = (s3_tower.var(v) for v in ("t1", "t2", "t3", "s"))
    mu = s * t1 * t2 * t3
    E = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=mu * mu, name="E0'")
    cg = composite_for(s3_tower, E)
    lam = t3 * cg.comp.r() / mu
    return ClosedPointSpec(3, E, lam, lam * apply(cg.generators["g"], lam), name="p0'")


def test_one_field_two_radicands_merge(s3_example, example_points,
                                       p0_over_mu_squared):
    """The targets of p0 over E0 written with radicands mu and mu^2 have
    different keys; `same_vertex` finds them one model, so the graph keeps
    one vertex for both."""
    a = link(s3_example, example_points[0]).target
    b = link(s3_example, p0_over_mu_squared).target
    assert a.vertex_key() != b.vertex_key()
    assert same_vertex(a, b) is True
    g = explore_graph(s3_example, [example_points[0], p0_over_mu_squared], depth=1)
    assert len(g.vertices) == 2
    assert not g.unknown_merges


def test_merge_refused_on_the_kernel_alone(s3_example, p0_over_mu_squared):
    """The mu^2 target with one kernel element moved off the identity: the
    fields, the group type and the classes are unchanged, so only the
    kernels tell the two apart."""
    b = link(s3_example, p0_over_mu_squared).target
    moved = next(k for k in b.kernel() if not k[0].is_identity())
    other = next(p for p in hexagon.d6_elements() if p != hexagon.IDENTITY)
    c = replace(b, action={**b.action, moved: other})
    assert same_vertex(b, c) is False


def test_super_rigid_graph(z6_index6):
    g = explore_graph(z6_index6, [], depth=2)
    assert len(g.vertices) == 1
    assert not g.edges


def test_self_loop_graph(z6_hex):
    p = construct_2point(z6_hex)[0]
    g = explore_graph(z6_hex, [p], depth=2)
    assert len(g.vertices) == 1
    edges = _distinct_edges(g)
    assert len(edges) == 1 and edges[0].self_loop


def _a_tour(graph):
    a_edges = [
        e for e in _distinct_edges(graph)
        if e.source_key != graph.base_key and e.target_key != graph.base_key
        and not e.self_loop
    ]
    e = a_edges[0]
    rec = e.records[e.pair_id]
    ref_u = graph.reference_record(rec.source.vertex_key())
    ref_v = graph.reference_record(rec.target.vertex_key())
    return ref_u, rec, ref_v


def test_word_decomposition(example_graph):
    ref_u, rec, ref_v = _a_tour(example_graph)
    word = word_to_generators(example_graph, [ref_u, rec, ref_v.reversed()])
    kinds = [t.kind for t in word.tokens]
    assert "A" in kinds
    img = psi_image(example_graph, word)
    assert not img.is_identity()
    assert len(img.z_factors()) == 1


def test_word_through_two_targets(example_graph):
    ref_u, rec, ref_v = _a_tour(example_graph)
    # continue from rec's target along another A-edge
    nxt = [
        e for e in _distinct_edges(example_graph)
        if e.source_key == rec.target.vertex_key() and not e.self_loop
        and e.target_key not in (example_graph.base_key, rec.source.vertex_key())
    ]
    e2 = nxt[0]
    rec2 = e2.records[e2.pair_id]
    ref_w = example_graph.reference_record(rec2.target.vertex_key())
    word = word_to_generators(
        example_graph, [ref_u, rec, rec2, ref_w.reversed()])
    img = psi_image(example_graph, word)
    assert not img.is_identity()
    assert len(img.z_factors()) == 2


def test_tour_must_close(example_graph):
    ref_u, rec, _ = _a_tour(example_graph)
    with pytest.raises(GraphError, match="not closed"):
        word_to_generators(example_graph, [ref_u, rec])


def test_psi_monoid_property(example_graph):
    ref_u, rec, ref_v = _a_tour(example_graph)
    t1 = [ref_u, rec, ref_v.reversed()]
    t2 = [ref_v, rec.reversed(), ref_u.reversed()]
    w1 = word_to_generators(example_graph, t1)
    w2 = word_to_generators(example_graph, t2)
    w12 = word_to_generators(example_graph, t1 + t2)
    assert psi_image(example_graph, w12).letters == (
        psi_image(example_graph, w1) * psi_image(example_graph, w2)).letters


# ---------------------------------------------------------------------------
# relation templates (index 3)
# ---------------------------------------------------------------------------

def test_relation_type1_automorphisms(example_graph, s3_example):
    tower = s3_example.tower
    psi1 = torus_member(s3_example, tower.omega())
    psi2 = torus_member(s3_example, tower.omega() * tower.omega())
    assert is_automorphism(s3_example, psi1)
    word = word_to_generators(
        example_graph, [("aut", psi1), ("aut", psi2), ("aut", psi1 * psi2)])
    assert psi_image(example_graph, word).is_identity()
    assert check_relation(example_graph, word)


def test_relation_type2_reference_links(example_graph):
    for vkey in example_graph.vertices:
        if vkey == example_graph.base_key:
            continue
        ref = example_graph.reference_record(vkey)
        word = word_to_generators(example_graph, [ref, ref.reversed()])
        assert psi_image(example_graph, word).is_identity()
        assert check_relation(example_graph, word)


def test_relation_type3a(example_graph):
    ref_u, rec, ref_v = _a_tour(example_graph)
    tour = [ref_u, rec, ref_v.reversed(), ref_v, rec.reversed(),
            ref_u.reversed()]
    word = word_to_generators(example_graph, tour)
    assert psi_image(example_graph, word).is_identity()
    assert check_relation(example_graph, word)


def test_relation_type3b_nonreference(s3_example, s3_tower, example_points):
    # a second, inequivalent-looking link to the same target: B then B^-1
    from dp6.points import composite_for

    p0 = example_points[0]
    cg = composite_for(s3_tower, p0.ext)
    om = cg.comp.embed(s3_tower.omega())
    lam = p0.lam1 * om
    lam2 = lam * apply(cg.generators["g"], lam)
    p0b = ClosedPointSpec(3, p0.ext, lam, lam2, name="p0b")
    assert validate_point(s3_example, p0b)
    graph = explore_graph(s3_example, example_points + [p0b], depth=1)
    rec = graph.out[(graph.base_key, ("pt", p0b.key()))]
    edge = graph.edge_of(rec)
    assert not edge.in_RE
    word = word_to_generators(graph, [rec, rec.reversed()])
    assert [t.kind for t in word.tokens].count("B") >= 1
    assert psi_image(graph, word).is_identity()
    assert check_relation(graph, word)


def test_relation_type3c_self_link(s3_example, example_points):
    pF = construct_3point(s3_example)
    graph = explore_graph(s3_example, example_points + [pF], depth=1)
    rec = graph.out[(graph.base_key, ("pt", pF.key()))]
    psi_w = torus_member(s3_example, s3_example.tower.omega())
    classify_edge(graph, rec, [("almost-involution", psi_w)])
    word = word_to_generators(graph, [rec, rec.reversed()])
    assert psi_image(graph, word).is_identity()
    assert check_relation(graph, word)


def test_relation_type3d_vertex_automorphism(example_graph, s3_example):
    ref = example_graph.reference_record(
        [k for k in example_graph.vertices if k != example_graph.base_key][0])
    psi1 = torus_member(s3_example, s3_example.tower.omega())
    tour = [ref, ("aut", psi1), ("aut", psi1.inverse()), ref.reversed()]
    word = word_to_generators(example_graph, tour)
    kinds = [t.kind for t in word.tokens]
    assert kinds.count("D") == 2
    assert psi_image(example_graph, word).is_identity()
    assert check_relation(example_graph, word)


def test_relation_type4b_equivalent_links(s3_example, s3_tower, example_points):
    # chi2 = chi1 composed with the omega torus automorphism: same edge class
    from dp6.points import composite_for

    p0 = example_points[0]
    beta = torus_member(s3_example, s3_tower.omega())
    cg = composite_for(s3_tower, p0.ext)
    om = cg.comp.embed(s3_tower.omega())
    om2 = om * om
    lam = p0.lam1 * om
    lam2 = p0.lam2 * om2
    p0b = ClosedPointSpec(3, p0.ext, lam, lam2, name="p0beta")
    assert validate_point(s3_example, p0b)
    # the witness genuinely moves p0's coordinates onto p0b's
    assert p0.lam1 * om == lam and p0.lam2 * om2 == lam2
    graph = explore_graph(s3_example, example_points + [p0b], depth=1)
    rec1 = graph.out[(graph.base_key, ("pt", p0.key()))]
    rec2 = graph.out[(graph.base_key, ("pt", p0b.key()))]
    graph.merge_edges(rec1, rec2, ("equivalent", rec1, rec2, beta))
    tour = [("aut", beta), rec1, rec2.reversed()]
    word = word_to_generators(graph, tour)
    assert psi_image(graph, word).is_identity()
    assert check_relation(graph, word)


def test_geiser_tokens_index2(z6_hex):
    p = construct_2point(z6_hex)[0]
    graph = explore_graph(z6_hex, [p], depth=1)
    word_obj = word_to_generators(graph, [])
    g1 = Token("C4", ("geiser", "q4"))
    from dp6.birgroup import BirWord

    w = BirWord((g1, g1))
    assert psi_image(graph, w).is_identity()
    w2 = BirWord((g1,))
    assert not psi_image(graph, w2).is_identity()


def test_hexagonal_relation(z6_hex):
    tower = z6_hex.tower
    x1, x2, x3 = (tower.var(v) for v in ("x1", "x2", "x3"))
    from dp6.fieldtower import ExtensionDescriptor

    K = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g"]),
                            name="K")
    p = ClosedPointSpec(2, K, tower.one(), tower.one(), name="p")
    lam = x1 * x2 / (x3 * x3)
    q = ClosedPointSpec(2, K, lam, lam * apply(tower.element_named("g"), lam),
                        name="q")
    graph, recs = hexagonal_graph(z6_hex, p, q)
    word = word_to_generators(graph, recs)
    assert check_relation(graph, word, relation_meta=("hexagonal", recs))
    assert psi_image(graph, word).is_identity()
    # the pairings are essential: without them the sum does not vanish
    g2 = explore_graph(z6_hex, [p, q], depth=1)
    for rec in recs:
        g2.add_edge(rec)
    img = psi_image(g2, word_to_generators(g2, recs))
    assert not img.is_identity()


def test_graph_dump(example_graph):
    text = example_graph.dump()
    assert "# vertex S: key" in text
    assert "S -- S|p0" in text or "S|p0 -- S" in text
    assert "R_E" in text


# -- every vertex is a del Pezzo surface of invariant Picard rank 1 ----------

def _invariant_rank(data):
    """Rank of the Galois-invariant part of Pic over the vertex's hexagon action."""
    from dp6 import curveconfig, hexagon

    perms = [{lab: hexagon.LABELS[p[i]] for i, lab in enumerate(hexagon.LABELS)}
             for p in set(data.action.values())]
    return curveconfig.invariant_picard_rank(perms)


def _explore_all(raw, depth=2):
    from dp6.scenario import load_scenario

    scen = load_scenario(raw)
    points = list(scen.points.values())
    return [explore_graph(spec, points, depth=depth)
            for spec in scen.surfaces.values()]


def _bundled(name):
    import json

    from dp6.cli import bundled_path

    with open(bundled_path(name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["example-main", "z6-index2-hex", "z6-index6",
                                  "d6-swap"])
def test_explored_vertices_have_rank_one(name):
    for graph in _explore_all(_bundled(name)):
        for v in graph.vertices.values():
            assert _invariant_rank(v.data) == 1, v.name


# -- canonical key strings ----------------------------------------------------

def _plain_canonical_repr(obj):
    """The plain recursive canonical string, every subobject printed anew:
    the reference for `_canonical_repr`."""
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(_plain_canonical_repr(x) for x in obj)) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_plain_canonical_repr(x) for x in obj) + ")"
    if isinstance(obj, dict):
        items = sorted((
            _plain_canonical_repr(k) + ":" + _plain_canonical_repr(v)
            for k, v in obj.items()
        ))
        return "{" + ",".join(items) + "}"
    return repr(obj)


def _plain_short(key):
    return hashlib.sha1(_plain_canonical_repr(key).encode()).hexdigest()[:6]


def _graph_keys(graph):
    """Every vertex key, pair id and edge id of the graph."""
    keys = list(graph.vertices)
    for edge in graph.edges.values():
        keys.append(edge.pair_id)
        keys.extend(edge.records)
    return keys


@pytest.mark.parametrize("name", ["example-main", "z6-index2-hex"])
def test_canonical_repr_matches_plain_on_graph_keys(name):
    keys = [k for graph in _explore_all(_bundled(name)) for k in _graph_keys(graph)]
    assert keys
    for key in keys:
        assert _canonical_repr(key) == _plain_canonical_repr(key)
        assert _short(key) == _plain_short(key)


def test_canonical_repr_matches_plain_on_nested_keys():
    """Equal subobjects that print differently (1, True, 1.0, MPQ(1)) are
    printed each as itself, shared ones once; sets and dicts are sorted by
    their members' strings, whatever their iteration order."""
    one = MPQ(1)
    pair = frozenset({(1, "a"), (2, "b")})
    keys = [
        (1, True, 1.0, one, one, MPQ(1)),
        (pair, pair, frozenset({(1, "a"), (2, "b")}), (pair, (pair,))),
        frozenset({10, 2, 33, 4, 17}),
        {"b": (1, True), "a": frozenset({1.0, 3}), 1: {True: one, 2.0: (one,)}},
        (Key((1, one)), (True, MPQ(1)), Key((1, one)), {frozenset({1}), 2}),
        frozenset({(1, frozenset({True})), (True, frozenset({1.0}))}),
    ]
    for key in keys:
        assert _canonical_repr(key) == _plain_canonical_repr(key)
        assert _short(key) == _plain_short(key)
    # the plain reference tells these subobjects apart
    assert _plain_canonical_repr(keys[0]) == "(1,True,1.0,MPQ(1,1),MPQ(1,1),MPQ(1,1))"


def test_graph_keys_keep_their_hash_and_set_order(example_graph):
    """Vertex keys and pair ids are `Key`s with the plain tuples' hashes,
    so a set of them iterates as the set of the plain tuples does."""
    keys = list(example_graph.vertices) + [e.pair_id for e in _distinct_edges(example_graph)]
    assert all(type(k) is Key for k in keys)
    plain = [tuple(k) for k in keys]
    assert [tuple(k) for k in set(keys)] == list(set(plain))
    assert [hash(k) for k in keys] == [hash(t) for t in plain]


def test_point_over_an_adjoined_radical():
    # q splits over E0 like p0 but shares no component with it; at S|p0 the
    # radical of E0 is already adjoined, and q's component action must be read
    # at that radical's zeta
    raw = _bundled("example-main")
    raw["points"]["q"] = {"surface": "S", "degree": 3, "extension": "E0",
                          "lambda1": "t1*t2/(t3*r)"}
    from dp6.points import general_position
    from dp6.scenario import load_scenario

    scen = load_scenario(raw)
    assert general_position(scen.surfaces["S"], scen.points["q"]) is True
    (graph,) = _explore_all(raw)
    assert len(graph.vertices) == 5
    for v in graph.vertices.values():
        assert _invariant_rank(v.data) == 1, v.name


# -- free-product reduction ---------------------------------------------------

_LETTER = st.one_of(
    st.tuples(st.sampled_from([("Z", "a"), ("Z", "b")]), st.integers(-2, 2)),
    st.tuples(st.sampled_from([("Z2", "c"), ("geiser", "d")]),
              st.integers(0, 3)),
    st.tuples(st.just(("E2sum",)), st.frozensets(st.sampled_from("xy"))),
)


@given(st.lists(_LETTER, max_size=12))
def test_one_pass_gives_the_reduced_word(letters):
    word = _reduce_letters(letters)
    assert _reduce_letters(word) == word
    for i, (fac, val) in enumerate(word):
        assert (val % 2 if fac[0] in ("Z2", "geiser") else val), word
        assert i == 0 or word[i - 1][0] != fac, word
    image = QuotientImage(word, "index3")
    assert (image * image.inverse()).is_identity()


@pytest.mark.parametrize("foreign", ["bogus", None, 5, [], "NotNorm "])
@pytest.mark.parametrize("verdict", ["IsNorm", "NotNorm", "Unknown"])
def test_status_match_refuses_a_foreign_verdict(foreign, verdict):
    """Vertex matching compares Amitsur verdicts; a foreign one is neither
    undecided nor a verdict that can match."""
    for pair in ((foreign, verdict), (verdict, foreign)):
        with pytest.raises(TowerError, match="not a norm-class verdict"):
            _status_match(*pair)
