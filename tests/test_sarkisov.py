"""Link execution, data transport, rigidity, and birationality decisions."""

import pytest

from dp6 import curveconfig, hexagon, sarkisov
from dp6._ratfunc import QOmega
from dp6._record import replace
from dp6.fieldtower import (
    ExtensionDescriptor,
    FactRegistry,
    GaloisTower,
    TowerError,
    VarAutomorphism,
    apply,
    norm_class,
)
from dp6.points import ClosedPointSpec, composite_for, construct_2point
from dp6.sarkisov import (
    LinkError,
    _normalize_handle,
    are_birational,
    as_data_surface,
    declared_point_handle,
    fields_d_probe,
    is_birationally_rigid,
    link,
    transport,
)
from dp6.surface import (
    ClassHandle,
    equivalence_move,
    make_surface,
    sb_class_equivalent,
)


@pytest.fixture(scope="module")
def example_links(s3_example, example_points):
    return [link(s3_example, p, name=f"chi{i}")
            for i, p in enumerate(example_points)]


def test_3link_data_transport(s3_example, example_links):
    src = as_data_surface(s3_example)
    for i, rec in enumerate(example_links):
        # d = 3 links keep the SB pair and replace L by E (Y becomes trivial)
        assert rec.target.sb_pair == src.sb_pair
        assert rec.target.K.same_field(src.K) is True
        assert rec.target.L.same_field(rec.point.fld) is True
        assert rec.target.l_trivial == "IsNorm"
        assert rec.target.k_trivial == src.k_trivial
        assert rec.target.gtype == "Z6"
        assert not rec.is_self_link()


def test_targets_pairwise_distinct(example_links):
    from dp6.birgroup import same_vertex

    for i in range(4):
        for j in range(4):
            verdict = same_vertex(example_links[i].target,
                                  example_links[j].target)
            assert verdict is (True if i == j else False)


def test_kernel_cross_check_runs(s3_example, example_points):
    rec = link(s3_example, example_points[0])
    # H = <g> for an S3-surface 3-link with E independent of F
    assert "g" in rec.h_description


def test_degree4_points_have_no_links(z6_hex):
    p = construct_2point(z6_hex)[0]
    q4 = ClosedPointSpec(4, None, None, None, name="q4",
                         general_position_declared=True)
    with pytest.raises(LinkError, match="2- and 3-points only"):
        link(z6_hex, q4)
    rec = link(z6_hex, p)
    assert fields_d_probe(z6_hex, [rec], [p, q4]) == []
    assert is_birationally_rigid(z6_hex, [p, q4]) == \
        is_birationally_rigid(z6_hex, [p])


def test_2link_self(z6_hex):
    p = construct_2point(z6_hex)[0]
    rec = link(z6_hex, p)
    assert rec.is_self_link()
    assert rec.target.spec is z6_hex
    assert rec.target.K.same_field(as_data_surface(z6_hex).K) is True
    # d = 2 links keep the conic class
    assert rec.target.conic == as_data_surface(z6_hex).conic


def test_link_involution_roundtrip(z6_hex):
    p = construct_2point(z6_hex)[0]
    rec = link(z6_hex, p)
    back = link(rec.target, rec.inverse_point)
    assert back.target.vertex_key() == rec.source.vertex_key()


def test_link_index_preserved(s3_example, example_links):
    src_idx = as_data_surface(s3_example).surface_index()
    for rec in example_links:
        assert rec.target.surface_index() == src_idx


def test_link_preconditions(s3_example, z6_hex, example_points):
    p2 = construct_2point(z6_hex)[0]
    with pytest.raises(LinkError, match="index"):
        # a 3-point link on an index-2 surface is refused
        h = declared_point_handle(s3_example, example_points[0])
        link(as_data_surface(z6_hex), h)


def test_d6_embedding_swap_link(d6_index2):
    pts = construct_2point(d6_index2)
    pgf = [p for p in pts if p.ext.name == "F^<g,f>"][0]
    pK = [p for p in pts if p.ext.name == "K"][0]
    rec_swap = link(d6_index2, pgf)
    assert not rec_swap.is_self_link()
    assert rec_swap.target.spec is not None  # reconstructed with swapped roles
    assert rec_swap.target.gtype == "D6"
    rec_self = link(d6_index2, pK)
    assert rec_self.is_self_link()
    # linking the swapped surface over the original K (its new F^<g,f>)
    # comes back to the original surface
    pts2 = construct_2point(rec_swap.target.spec)
    back_pt = [p for p in pts2 if p.ext.name == "F^<g,f>"][0]
    back = link(rec_swap.target.spec, back_pt)
    from dp6.birgroup import same_vertex

    assert same_vertex(back.target, as_data_surface(d6_index2)) is True
    # and its K-point is a self-link
    pk2 = [p for p in pts2 if p.ext.name == "K"][0]
    assert link(rec_swap.target.spec, pk2).is_self_link()


@pytest.fixture(scope="module")
def z6_independent(z6_tower):
    """An index-2 Z6 surface with a 2-point split over a quadratic field E
    independent of F."""
    # E = k(sqrt(y^2 (sum x^2 - sum xx))): the point lambda = y(x1-x2) + r is
    # fixed by the twisted g- and h-actions and swapped by t
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    c1, c2, c3 = x1 - x2, x2 - x3, x3 - x1
    a0 = (x1 ** 2 + x2 ** 2 + x3 ** 2) - (x1 * x2 + x1 * x3 + x2 * x3)
    a = y * y * a0
    rho = -(y * y * c2 * c3)
    xi = (y ** 3 * c1 * c2 * c3).inv()
    reg = FactRegistry()
    norm_class(xi, z6_tower.element_named("g"), cert=(y * c1).inv(),
               registry=reg)
    spec = make_surface("Z6", z6_tower, xi, rho, registry=reg, name="SZm")
    E = ExtensionDescriptor("quadratic", z6_tower, radicand=a, name="Ea")
    cg = composite_for(z6_tower, E)
    lam = cg.comp.embed(y * c1) + cg.comp.r()
    lam2 = lam * apply(cg.generators["g"], lam)
    return spec, ClosedPointSpec(2, E, lam, lam2, name="pa")


def test_z6_independent_2link(z6_independent):
    spec, p = z6_independent
    E = p.ext
    assert as_data_surface(spec).surface_index() == 2
    rec = link(spec, p, name="chiE")
    assert not rec.is_self_link()
    assert "h" in rec.h_description  # H = <h> for the independent quadratic
    assert rec.target.K.same_field(E) is True
    assert rec.target.l_trivial == "NotNorm"
    # the inverse point splits over the old K, per the link corollary
    src = as_data_surface(spec)
    assert rec.inverse_point.fld.same_field(src.K) is True


def test_rigidity_verdicts(s3_example, example_points, z6_hex, z6_index6,
                           d6_index2):
    res = is_birationally_rigid(s3_example, example_points)
    assert res.verdict == "NotRigid"
    res2 = is_birationally_rigid(z6_hex, construct_2point(z6_hex))
    assert res2.verdict == "Conditional"
    assert is_birationally_rigid(z6_index6).verdict == "SuperRigid"
    res3 = is_birationally_rigid(d6_index2)
    assert res3.verdict == "NotRigid"
    assert res3.witness is not None


def test_birational_chain(s3_example, example_links):
    a = example_links[0].target
    b = example_links[1].target
    res = are_birational(a, b, links=example_links)
    assert res.verdict == "Yes"
    assert len(res.chain) == 2  # through the common source


def test_birational_no_and_unknown(s3_example, z6_hex, z6_index6):
    res = are_birational(s3_example, z6_hex)
    assert res.verdict == "No"  # indices 3 vs 2
    triv = make_surface("Z6", z6_hex.tower, z6_hex.tower.one(),
                        z6_hex.tower.one())
    res2 = are_birational(z6_index6, triv)
    assert res2.verdict == "No"
    res3 = are_birational(s3_example, s3_example)
    assert res3.verdict == "Yes" and res3.chain == ()


def test_birational_case2_conic_classes_differ(z6_hex):
    """Two index-2 surfaces whose conic classes differ by proven NotNorms."""
    tower = z6_hex.tower
    x1, x2 = tower.var("x1"), tower.var("x2")
    other = make_surface("Z6", tower, tower.one(), (x1 + 1) / (x2 + 1))
    res = are_birational(z6_hex, other)
    assert (res.verdict, res.case, res.reason) == ("No", 2, "L or Am(S_L) differ")
    assert res.assumed == ()
    a, b = as_data_surface(z6_hex), as_data_surface(other)
    assert sarkisov._class_pair_equivalent(a, b, "L") is False
    # the oracle compares rho with the rotations of the other conic's rho
    g, h = tower.element_named("g"), tower.element_named("h")
    rho = b.conic.element
    facts = [sb_class_equivalent(a.conic.element, c, h)
             for c in (rho, apply(g, rho), apply(g * g, rho))]
    assert [(f.verdict, f.provenance, f.detail) for f in facts] == \
        [("NotNorm", "residue-proof", ("y",))] * 3


# ---------------------------------------------------------------------------
# each return of the rigidity and birationality criteria, with the assumed
# facts its result carries
# ---------------------------------------------------------------------------

def _verdict(res):
    return res.verdict, res.case, res.reason


def _index6(tower):
    """S6 (index 6 on an assumed NotNorm for xi), its norm twist by x1 with
    an assumed NotNorm of its own, and the two facts."""
    x1, x2, x3, y = (tower.var(v) for v in ("x1", "x2", "x3", "y"))
    g = tower.element_named("g")
    xi = (x1 + x2 + x3 + y) / (x1 + x2 + x3 - y)
    reg = FactRegistry()
    fact = reg.assume(xi, g, "NotNorm", note="xi")
    s6 = make_surface("Z6", tower, xi, x1 / x2, registry=reg, name="S6")
    twist_xi = equivalence_move(s6, "twist", x1).xi
    twist_fact = reg.assume(twist_xi, g, "NotNorm", note="twisted xi")
    return s6, equivalence_move(s6, "twist", x1), fact, twist_fact


def test_rigidity_of_every_index(z6_tower, z6_index3, z6_independent,
                                 d6_index2):
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    xi = (x1 + x2 + x3 + y) / (x1 + x2 + x3 - y)
    undecided = make_surface("Z6", z6_tower, xi, x1 / x2)  # no fact for xi
    rational = make_surface("Z6", z6_tower, z6_tower.one(), z6_tower.one())
    spec, p = z6_independent
    # a twist with xi != 1: the 2-point recipe refuses it, so no witness
    d6_tower = d6_index2.tower
    lam = d6_tower.var("x1") * apply(d6_tower.element_named("gf"),
                                     d6_tower.var("x1"))
    d6_twist = equivalence_move(d6_index2, "twist", lam)
    assert not d6_twist.xi.is_one()
    cases = [
        (is_birationally_rigid(d6_twist), "NotRigid",
         "2-points split over F^<g,f> always exist", None),
        (is_birationally_rigid(undecided), "Conditional", "index undecided", None),
        (is_birationally_rigid(rational), "NotRigid",
         "the surface is k-rational", None),
        (is_birationally_rigid(spec, [p]), "NotRigid",
         "declared 2-point pa splits outside K", p),
        (is_birationally_rigid(z6_index3), "Conditional",
         "rigid relative to the declared point universe (every known 3-point "
         "splits over L)", None),
    ]
    for res, verdict, reason, point in cases:
        assert (res.verdict, res.reason) == (verdict, reason)
        assert (res.witness.point if point else res.witness) is point
    assert [res.assumed for res, *_ in cases] == \
        [(), (), (), (), z6_index3.sbdata.assumed_facts]
    assert len(z6_index3.sbdata.assumed_facts) == 1


def test_a_foreign_index_is_refused(monkeypatch, z6_index3, z6_hex):
    """Rigidity and birationality name every index they accept: one outside
    Unknown, 1, 2, 3, 6 raises instead of being read as 3."""
    monkeypatch.setattr(sarkisov, "index_from_flags", lambda *flags: 4)
    msg = "surface index 4 is none of Unknown, 1, 2, 3, 6"
    with pytest.raises(ValueError, match=msg):
        is_birationally_rigid(z6_index3)
    with pytest.raises(ValueError, match=msg):
        are_birational(z6_index3, z6_hex)


def test_a_group_of_picard_rank_above_one_is_refused():
    """A link target has Picard rank 1, so its hexagon group is Z6, S3 or D6;
    a smaller group breaks that invariant and raises instead of being named."""
    assert sarkisov.classify_perm_group([hexagon.ROT3, hexagon.CENTRAL]) == "Z6"
    for perms, n in (([], 1), ([hexagon.CENTRAL], 2), ([hexagon.ROT3], 3),
                     ([hexagon.CENTRAL, hexagon.REFLECT_F], 4)):
        with pytest.raises(LinkError, match=f"hexagon action of order {n}:"):
            sarkisov.classify_perm_group(perms)


def _ref_perm_group_type(elems):
    """Uncached: the type of a subgroup of D6 given as its set of elements."""
    if len(elems) == 12:
        return "D6"
    if len(elems) != 6:
        return None
    abelian = all(hexagon.compose(a, b) == hexagon.compose(b, a)
                  for a in elems for b in elems)
    return "Z6" if abelian else "S3"


def test_classify_perm_group_on_every_subgroup_of_d6():
    d6 = list(hexagon.d6_elements())
    gensets = {}  # subgroup -> the pairs that generate it
    for a in d6:
        for b in d6:
            sub = frozenset(hexagon.closure(hexagon.IDENTITY, {0: a, 1: b},
                                            hexagon.compose, 12))
            gensets.setdefault(sub, []).append([a, b])
    assert len(gensets) == 16
    for sub, pairs in gensets.items():
        want = _ref_perm_group_type(sub)
        for perms in pairs + [sorted(sub)]:
            for _ in range(2):  # a refusal is never cached
                if want is None:
                    with pytest.raises(LinkError, match=f"of order {len(sub)}:"):
                        sarkisov.classify_perm_group(perms)
                else:
                    assert sarkisov.classify_perm_group(perms) == want


def test_birational_undecided_equal_and_rational(z6_tower, z6_hex, z6_index6,
                                                 s3_tower):
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    xi = (x1 + x2 + x3 + y) / (x1 + x2 + x3 - y)
    undecided = make_surface("Z6", z6_tower, xi, x1 / x2)  # no fact for xi
    res = are_birational(undecided, z6_hex)
    assert _verdict(res) == ("Unknown", 0, "index undecided")
    assert res.assumed == ()
    # both surfaces' facts, once each
    (fact,) = z6_index6.sbdata.assumed_facts
    res = are_birational(z6_index6, z6_index6)
    assert _verdict(res) == ("Yes", 0, "equal data")
    assert res.assumed == (fact, fact)
    res = are_birational(z6_index6, z6_hex)
    assert _verdict(res) == ("No", 0, "index 6 vs 2 (a birational invariant)")
    assert res.assumed == (fact,)
    # k-rational surfaces over different towers: not isomorphic, birational
    rational_z6 = make_surface("Z6", z6_tower, z6_tower.one(), z6_tower.one())
    rational_s3 = make_surface("S3", s3_tower, s3_tower.one())
    res = are_birational(rational_z6, rational_s3)
    assert _verdict(res) == ("Yes", 1, "both k-rational")
    assert res.assumed == ()


def test_birational_case4(z6_tower):
    s6, twist, fact, twist_fact = _index6(z6_tower)
    x1, x2 = z6_tower.var("x1"), z6_tower.var("x2")
    a = as_data_surface(s6)
    # the twist as a data-only vertex: no isomorphism test, the oracle
    # matches both classes
    res = are_birational(s6, replace(as_data_surface(twist), spec=None))
    assert _verdict(res) == ("Yes", 4, "equal nontrivial Amitsur data over K "
                                       "and L")
    assert res.assumed == (fact, twist_fact)
    other = make_surface("Z6", z6_tower, s6.xi, (x1 + 1) / (x2 + 1),
                         registry=s6.registry)
    res = are_birational(s6, other)
    assert _verdict(res) == ("No", 4, "Amitsur data over K or L differ")
    assert res.assumed == (fact, fact)
    # an opaque conic class cannot be compared
    opaque = replace(a, conic=ClassHandle(key=("opaque",), status="NotNorm"),
                     spec=None)
    res = are_birational(s6, opaque)
    assert _verdict(res) == ("Unknown", 4, "field or class comparison "
                                           "undecided")
    assert res.assumed == (fact, fact)


def test_birational_case2(z6_independent):
    spec, p = z6_independent
    rec = link(spec, p, name="chiE")
    found = ("Yes", 2, "2-point with splitting field K' found")
    res = are_birational(spec, rec.target, links=[rec])
    assert _verdict(res) == found and res.chain == (rec,)
    res = are_birational(spec, rec.target, declared_points=[p])
    assert _verdict(res) == found
    assert [r.name for r in res.chain] == ["chi[pa]"]
    res = are_birational(spec, rec.target)
    assert _verdict(res) == ("Unknown", 2, "point existence open: need a "
                                           "2-point of S splitting over K'")
    opaque = replace(as_data_surface(spec),
                     conic=ClassHandle(key=("opaque",), status="NotNorm"),
                     spec=None)
    res = are_birational(spec, opaque)
    assert _verdict(res) == ("Unknown", 2, "L-side comparison undecided")
    assert res.assumed == ()


def test_birational_case3(s3_example, example_links):
    s = s3_example.tower.var("s")
    res = are_birational(s3_example, example_links[0].target)
    assert _verdict(res) == ("Unknown", 3, "point existence open: need a "
                                           "3-point of S splitting over L'")
    # (s+1)/s has no valuation proof, s*(s+1) has one
    shifted = make_surface("S3", s3_example.tower, s + 1)
    res = are_birational(s3_example, shifted)
    assert _verdict(res) == ("Unknown", 3, "K-side comparison undecided")
    # two k-variables: the classes of s and u differ by valuation proofs
    one = QOmega.one()
    g = VarAutomorphism([1, 2, 0, 3, 4], [one] * 5)
    f = VarAutomorphism([0, 2, 1, 3, 4], [one] * 5)
    tower = GaloisTower(["t1", "t2", "t3", "s", "u"], {"g": g, "f": f},
                        name="F5")
    res = are_birational(make_surface("S3", tower, tower.var("s")),
                         make_surface("S3", tower, tower.var("u")))
    assert _verdict(res) == ("No", 3, "K or Am(S_K) differ")
    assert res.assumed == ()


def test_fields_probe_empty_and_full(s3_example, example_points, example_links):
    assert fields_d_probe(s3_example, example_links, []) == []
    viol = fields_d_probe(s3_example, example_links, example_points)
    assert viol == []


# ---------------------------------------------------------------------------
# the kernel H read off the element pass, against the lattice route
# ---------------------------------------------------------------------------

def _action_pairs(src, handle):
    """The link's group with its (hexagon, component) action pairs.

    Returns the elements, keyed as in the target's action before radicals
    are dropped, and generators of the group as `link` once passed them to
    `induced_sigma_prime_action`: the source's elements, and the new
    coordinate's roots of unity when E is independent.
    """
    slot = sarkisov._field_slot(handle.fld, src)
    zetas = (0,) if slot is not None else sarkisov._ROOTS[handle.fld.degree]

    def comp(u, zs, z):
        return handle.comp_table[(u, zs[slot] if isinstance(slot, int) else z)]

    elements = {(u, zs if slot is not None else zs + (z,)): (hp, comp(u, zs, z))
                for (u, zs), hp in src.action.items() for z in zetas}
    gens = [((u, zs), hp, comp(u, zs, 0)) for (u, zs), hp in src.action.items()]
    idn = src.tower.element_named("1")
    ones = (0,) * len(src.radicals)
    gens += [((idn, ones + (z,)), hexagon.IDENTITY, comp(idn, ones, z))
             for z in zetas[1:]]
    return elements, gens


def _record_links(monkeypatch):
    """Every LinkRecord `link` returns, through each module that binds it."""
    from dp6 import birgroup, cli

    recs = []

    def recorded(*args, **kwargs):
        rec = link(*args, **kwargs)
        recs.append(rec)
        return rec

    for module in (sarkisov, birgroup, cli):
        monkeypatch.setattr(module, "link", recorded)
    return recs


def test_link_kernel_matches_the_generated_group(monkeypatch, z6_hex):
    """H from link's one pass equals the closure route of
    `induced_sigma_prime_action`, on every link of the bundled scenarios and
    of the hexagonal relation; both equal the pairs of the generated group
    acting trivially on the new hexagon."""
    from dp6.birgroup import hexagonal_relation
    from dp6.cli import bundled_path, run

    recs = _record_links(monkeypatch)
    for name in ("example-main", "z6-index2-hex", "z6-index6", "d6-swap"):
        run(bundled_path(name))
    tower = z6_hex.tower
    x1, x2, x3 = (tower.var(v) for v in ("x1", "x2", "x3"))
    K = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g"]),
                            name="K")
    p = ClosedPointSpec(2, K, tower.one(), tower.one(), name="p")
    lam = x1 * x2 / (x3 * x3)
    q = ClosedPointSpec(2, K, lam, lam * apply(tower.element_named("g"), lam),
                        name="q")
    recs += hexagonal_relation(z6_hex, p, q)

    degrees, independent = set(), 0
    for rec in recs:
        elements, gens = _action_pairs(rec.source, rec.point)
        induced = curveconfig.induced_sigma_prime_action(rec.d, gens)
        new_hex = {pair: curveconfig.propagate_pair(rec.d, *pair)[1]
                   for pair in induced.group_pairs}
        # the pass over the elements meets every pair of the generated group
        assert set(elements.values()) == induced.group_pairs, rec.name
        assert rec.kernel_pairs == induced.kernel_pairs, rec.name
        assert rec.kernel_pairs == {pair for pair, perm in new_hex.items()
                                    if perm == hexagon.IDENTITY}, rec.name
        assert set(rec.target.action.values()) == set(new_hex.values()), rec.name
        in_h = [key for key, pair in elements.items()
                if pair in induced.kernel_pairs]
        assert rec.h_description == sarkisov._describe_kernel(rec.source, in_h)
        degrees.add(rec.d)
        independent += len(gens) > len(rec.source.action)
    # both degrees, and 18 links that adjoin the point's radical
    assert degrees == {2, 3} and independent == 18
    assert len(recs) == 42


@pytest.mark.parametrize("foreign", ["bogus", None, 5, "IsNorm "])
def test_normalized_handle_refuses_a_foreign_status(foreign):
    """Only an IsNorm handle is replaced by the trivial one; a foreign status
    must not pass through as a decided class."""
    with pytest.raises(TowerError, match="not a norm-class verdict"):
        _normalize_handle(ClassHandle(key=("opaque",), status=foreign))
