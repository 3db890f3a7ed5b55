"""Closed-point validation, general position, constructions, twisted orbits."""

import json
import random

import pytest

from dp6 import hexagon, points
from dp6._ratfunc import QOmega
from dp6.cli import bundled_path
from dp6.fieldtower import (
    ExtensionDescriptor,
    GaloisTower,
    RadElement,
    VarAutomorphism,
    apply,
    norm,
)
from dp6.points import (
    ClosedPointSpec,
    PointCaseError,
    PointValidationError,
    component_permutations,
    components,
    composite_for,
    construct_2point,
    construct_3point,
    general_position,
    twisted_apply,
    twisted_orbit,
    validate_point,
)
from dp6.scenario import load_scenario
from dp6.surface import index, make_surface


def test_example_points_validate(s3_example, example_points):
    for p in example_points:
        assert validate_point(s3_example, p)
        assert general_position(s3_example, p)
        comps = components(s3_example, p)
        assert len(comps) == 3


def test_example_point_conditions(s3_example, example_points):
    # lambda in (FE*)^gf with Norm_g(lambda) = xi^-1 = s^-1
    tower = s3_example.tower
    p = example_points[1]
    cg = composite_for(tower, p.ext)
    g = cg.generators["g"]
    f = cg.generators["f"]
    lam = p.lam1
    gf_img = apply(g, apply(f, lam))
    assert gf_img == lam
    assert norm(g, lam) == cg.comp.embed(s3_example.xi.inv())


def test_extension_distinctness(s3_tower, example_points):
    exts = [p.ext for p in example_points]
    for i in range(4):
        assert exts[i].same_field(exts[i]) is True
        for j in range(i + 1, 4):
            assert exts[i].same_field(exts[j]) is False


def test_z6_2point(z6_hex):
    pts = construct_2point(z6_hex)
    assert len(pts) == 1
    p = pts[0]
    assert p.lam1.is_one()
    assert validate_point(z6_hex, p)
    assert general_position(z6_hex, p)
    comps = components(z6_hex, p)
    assert len(comps) == 2
    # the second component is alpha_h h of the first
    h = z6_hex.tower.element_named("h")
    img = twisted_apply(z6_hex, h, comps[0])
    assert img in [tuple(c) for c in comps] or any(
        img[0] == c[0] and img[1] == c[1] for c in comps
    )


def test_s3_has_no_2points(s3_example):
    with pytest.raises(PointCaseError, match="no 2-points"):
        construct_2point(s3_example)
    K = ExtensionDescriptor("subfield", s3_example.tower,
                            fixing=s3_example.tower.subgroup(["g"]), name="K")
    p = ClosedPointSpec(2, K, s3_example.tower.one(), s3_example.tower.one())
    with pytest.raises(PointCaseError):
        validate_point(s3_example, p)


def test_d6_2points(d6_index2):
    pts = construct_2point(d6_index2)
    fields = {p.ext.name for p in pts}
    assert fields == {"F^<g,f>", "K"}
    for p in pts:
        assert validate_point(d6_index2, p)
        assert general_position(d6_index2, p)
    # lambda = g(rho^-1) over K, per the existence recipe
    pk = [p for p in pts if p.ext.name == "K"][0]
    g = d6_index2.tower.element_named("g")
    assert pk.lam1 == apply(g, d6_index2.rho.inv())


def test_d6_no_2point_over_gh(d6_index2):
    tower = d6_index2.tower
    E = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g", "h"]),
                            name="Egh")
    p = ClosedPointSpec(2, E, tower.one(), tower.one())
    with pytest.raises(PointCaseError, match="F\\^<g,h>"):
        validate_point(d6_index2, p)


def test_construct_3point_all_types(s3_example, z6_index3, d6_index3):
    for spec in (s3_example, z6_index3, d6_index3):
        p = construct_3point(spec)
        assert validate_point(spec, p)
        assert general_position(spec, p)


def test_construct_3point_needs_index3(z6_hex, z6_index6):
    with pytest.raises(PointCaseError):
        construct_3point(z6_hex)
    with pytest.raises(PointCaseError):
        construct_3point(z6_index6)


def test_construct_2point_needs_index2(z6_index3, z6_index6):
    with pytest.raises(PointCaseError):
        construct_2point(z6_index3)
    with pytest.raises(PointCaseError):
        construct_2point(z6_index6)


def test_z6_3point_orbit_structure(z6_index3):
    # validated 3-points split over F: orbit size 3 under alpha_g o g and each
    # component fixed by alpha_h o h
    p = construct_3point(z6_index3)
    comps, perms = component_permutations(z6_index3, p)
    assert len(comps) == 3
    tower = z6_index3.tower
    g, h = tower.element_named("g"), tower.element_named("h")
    assert sorted(perms[g]) == [0, 1, 2] and perms[g] != (0, 1, 2)
    assert perms[h] == (0, 1, 2)
    for c in comps:
        img = twisted_apply(z6_index3, h, c)
        assert img[0] == c[0] and img[1] == c[1]


def _explicit_permutations(spec, p, comps):
    """perms[u][j]: index of alpha_u o u (comps[j]) among comps, by applying u."""
    cg = composite_for(spec.tower, p.ext)
    group = spec.tower.elements if cg.intersection == "contained" else cg.elements
    keys = [(c[0].key(), c[1].key()) for c in comps]
    perms = {}
    for u in group:
        imgs = [twisted_apply(spec, u, c) for c in comps]
        perms[u] = tuple(keys.index((i[0].key(), i[1].key())) for i in imgs)
    return perms


def test_group_law_permutations_match_explicit_action(
        z6_hex, d6_index2, z6_index3, s3_example, d6_index3):
    from dp6.cli import bundled_path
    from dp6.scenario import load_scenario

    scen = load_scenario(bundled_path("example-main"))
    cases = [(scen.surfaces["S"], p) for p in scen.points.values()]
    assert sorted(p.name for _, p in cases) == ["p0", "p1", "p2", "p3", "pF"]
    cases += [(spec, p) for spec in (z6_hex, d6_index2)
              for p in construct_2point(spec)]
    cases += [(spec, construct_3point(spec))
              for spec in (z6_index3, s3_example, d6_index3)]
    for spec, p in cases:
        comps, perms = component_permutations(spec, p)
        assert len(comps) == p.degree
        assert perms == _explicit_permutations(spec, p, comps), (spec.name, p.name)


def test_twisted_orbit_generic_size(s3_example):
    tower = s3_example.tower
    t1 = tower.var("t1")
    orb = twisted_orbit(s3_example, (t1, t1 + 1),
                        [tower.element_named(w) for w in ("1", "g", "gg")])
    assert len(orb) == 3


def test_twisted_orbit_rejects_zero(s3_example):
    tower = s3_example.tower
    with pytest.raises(PointValidationError, match="torus chart"):
        twisted_orbit(s3_example, (tower.zero(), tower.one()), tower.elements)


def test_d6_proof_surface_orbit(d6_tower):
    # the rational-point argument's surface: rho0 = Norm_h(delta), xi0 = 1
    x1, x2, x3 = (d6_tower.var(v) for v in ("x1", "x2", "x3"))
    delta = x1 * x2 / (x3 * x3)
    h = d6_tower.element_named("h")
    g = d6_tower.element_named("g")
    rho0 = norm(h, delta)
    s0 = make_surface("D6", d6_tower, d6_tower.one(), rho0)
    orb = twisted_orbit(s0, (d6_tower.one(), d6_tower.one()), d6_tower.elements)
    assert len(orb) == 2
    expected = (norm(h, delta), norm(h, delta * apply(g, delta)))
    keys = {(c[0].key(), c[1].key()) for c in orb}
    assert (expected[0].key(), expected[1].key()) in keys


def test_invalid_s3_point_fails(s3_example):
    tower = s3_example.tower
    t1, t2, t3, s = (tower.var(v) for v in ("t1", "t2", "t3", "s"))
    E = ExtensionDescriptor("kummer-cubic", tower,
                            radicand=s * (t1 + 5) * (t2 + 5) * (t3 + 5))
    cg = composite_for(tower, E)
    bad = cg.comp.r()
    lam2 = bad * apply(cg.generators["g"], bad)
    p = ClosedPointSpec(3, E, bad, lam2)
    with pytest.raises(PointValidationError):
        validate_point(s3_example, p)


def test_general_position_failure_modes(s3_example):
    # lambda in F^gf fails general position for F-split 3-points
    tower = s3_example.tower
    t1, t2, t3, s = (tower.var(v) for v in ("t1", "t2", "t3", "s"))
    gf = tower.element_named("gf")
    f = tower.element_named("f")
    lam = t1 * t2  # fixed by gf = (12)
    assert apply(gf, lam) == lam
    E = ExtensionDescriptor("subfield", tower,
                            fixing=frozenset([tower.element_named("1")]),
                            name="F")
    lam2 = apply(f, lam.inv()) * s3_example.xi.inv()
    p = ClosedPointSpec(3, E, lam, lam2)
    if validate_point(s3_example, p):
        assert not general_position(s3_example, p)


def test_degree4_declared_flag(s3_example):
    p = ClosedPointSpec(4, None, None, None, general_position_declared=True)
    assert validate_point(s3_example, p)
    assert general_position(s3_example, p)
    q = ClosedPointSpec(4, None, None, None)
    with pytest.raises(PointValidationError):
        validate_point(s3_example, q)


# ---------------------------------------------------------------------------
# one twisted pass per surface and point; composite groups on their tower
# ---------------------------------------------------------------------------

def _count_twisted_apply(monkeypatch):
    """Record every twisted_apply call the point pass makes."""
    calls = []
    apply_once = points.twisted_apply

    def counted(spec, u, coords, *monomials):
        calls.append(u)
        return apply_once(spec, u, coords, *monomials)

    monkeypatch.setattr(points, "twisted_apply", counted)
    return calls


def test_example_main_runs_one_pass_per_point(monkeypatch):
    from dp6.cli import bundled_path, run

    calls = _count_twisted_apply(monkeypatch)
    code, _ = run(bundled_path("example-main"))
    assert code == 0
    # four Kummer-cubic points over the 18-element composite group, one call
    # for each of its 6 tower parts (the other two elements of each are
    # twists of that image), and the F-split point pF over the 6-element
    # group of F
    assert len(calls) == 4 * 6 + 6


def _assert_images_match(spec, coords, group):
    got = points._twisted_images(spec, coords, group)
    want = {u: twisted_apply(spec, u, coords) for u in group}
    assert list(got) == list(want)
    for u, img in want.items():
        assert [c.key() for c in got[u]] == [c.key() for c in img], u


def test_twisted_images_twist_one_image_per_tower_part(
        s3_tower, s3_example, example_points, d6_tower, d6_index2):
    """_twisted_images, which applies the twisted action once per tower part
    and twists that image for the other elements, gives every element's
    full twisted_apply in the group's order: example-main's p0-p3, seeded
    shifts of them, and a degree-6 radical meeting F in a quadratic
    subfield, where the first element of a tower part has a nonzero zeta
    exponent."""
    for p in example_points:
        _assert_images_match(s3_example, p.coords(),
                             composite_for(s3_tower, p.ext).elements)
    t1, t2, t3, s = (s3_tower.var(v) for v in ("t1", "t2", "t3", "s"))
    for z in random.Random(24).sample(range(4, 40), 4):
        E = ExtensionDescriptor("kummer-cubic", s3_tower,
                                radicand=s * (t1 + z) * (t2 + z) * (t3 + z))
        cg = composite_for(s3_tower, E)
        lam = (cg.comp.r() / (t3 + z)).inv()
        _assert_images_match(s3_example, (lam, lam * apply(cg.generators["g"], lam)),
                             cg.elements)
    x1, x2, x3, y = (d6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    q = y * (x1 - x2) * (x2 - x3) * (x1 - x3)
    E = ExtensionDescriptor("kummer-cubic-with-conjugation", d6_tower, radicand=q * q)
    cg = composite_for(d6_tower, E)
    assert cg.intersection == "quadratic"
    firsts = {}
    for u in cg.elements:
        firsts.setdefault(u.uf, u)
    assert any(u.zexp for u in firsts.values())
    r = cg.comp.r()
    _assert_images_match(d6_index2, (r + x1, r * r / x2), cg.elements)


def test_example_main_inverts_each_coordinate_once_per_pass(monkeypatch):
    from dp6.cli import bundled_path, run

    passes, inside = [], []
    images_of, rad_inv = points._twisted_images, RadElement.inv

    def counted_images(spec, coords, group):
        passes.append(0)
        inside.append(True)
        try:
            return images_of(spec, coords, group)
        finally:
            inside.pop()

    def counted_inv(x):
        if inside:
            passes[-1] += 1
        return rad_inv(x)

    monkeypatch.setattr(points, "_twisted_images", counted_images)
    monkeypatch.setattr(RadElement, "inv", counted_inv)
    code, _ = run(bundled_path("example-main"))
    assert code == 0
    # the F-split point pF has no radical coordinates; each Kummer-cubic
    # point inverts lambda1 and lambda2 once for its whole pass
    assert sorted(passes) == [0, 2, 2, 2, 2]


def _bundled_points():
    """(scenario name, surface, point) for each bundled 2- or 3-point."""
    from dp6.cli import bundled_path
    from dp6.scenario import load_scenario

    out = []
    for name in ("example-main", "z6-index2-hex", "z6-index6", "d6-swap"):
        scen = load_scenario(bundled_path(name))
        for pname, p in scen.points.items():
            if p.degree != 4:
                surface = scen.raw["points"][pname]["surface"]
                out.append((name, scen.surfaces[surface], p))
    return out


def test_pass_images_match_torus_formula():
    """Each pass image is alpha_u o u computed by the torus action on
    (u(l1), u(l2)), as the matrix rows of alpha_u's symmetry say."""
    seen = set()
    for name, spec, p in _bundled_points():
        images = points._twisted_pass(spec, p)[0]
        for u, img in images.items():
            al = spec.alpha(u.uf if hasattr(u, "uf") else u)
            c1, c2 = apply(u, p.lam1), apply(u, p.lam2)
            want = [c1 ** e * c2 ** f for e, f in hexagon.d6_elements()[al.perm]]
            if isinstance(c1, RadElement):
                want = [c1.comp.embed(al.t1) * want[0], c1.comp.embed(al.t2) * want[1]]
            else:
                want = [al.t1 * want[0], al.t2 * want[1]]
            assert img == tuple(want), (name, p.name, u)
            assert [x.key() for x in img] == [x.key() for x in want]
            seen.add((name, al.perm))
    # every bundled scenario with points (z6-index6 has none), and all
    # twelve symmetries, so every one of the six rows
    assert {name for name, _ in seen} == {"example-main", "z6-index2-hex",
                                          "d6-swap"}
    assert len({perm for _, perm in seen}) == 12


def test_point_pass_keyed_by_content(monkeypatch, z6_tower):
    x1, x2, x3 = (z6_tower.var(v) for v in ("x1", "x2", "x3"))
    spec = make_surface("Z6", z6_tower, z6_tower.one(), x1 / x2, name="SZ")
    g = z6_tower.element_named("g")
    calls = _count_twisted_apply(monkeypatch)

    p = construct_2point(spec)[0]  # validates p
    assert len(calls) == 6
    assert validate_point(spec, p)
    assert general_position(spec, p)
    comps_p, _ = component_permutations(spec, p)
    assert len(calls) == 6  # every reader shares the one pass

    lam = x1 * x2 / (x3 * x3)
    q = ClosedPointSpec(2, p.ext, lam, lam * apply(g, lam), name=p.name)
    assert validate_point(spec, q)
    assert len(calls) == 12  # same name and field, other coordinates
    assert components(spec, q) != comps_p
    assert components(spec, p) == comps_p
    assert len(calls) == 12

    bad = ClosedPointSpec(2, p.ext, x1, x2, name=p.name)
    for n in (18, 24):
        with pytest.raises(PointValidationError):
            validate_point(spec, bad)
        assert len(calls) == n  # a failing point is not kept
    assert set(spec._memo) == {("pass", p.key()), ("pass", q.key())}
    # the component permutations are made once, in the pass
    assert component_permutations(spec, p)[1] is component_permutations(spec, p)[1]


@pytest.mark.parametrize("lambda1,valid", [(None, True), ("t1", False)],
                         ids=["p0", "p0-with-lambda1-t1"])
def test_validation_leaves_the_point_as_given(lambda1, valid):
    """The pass embeds coordinates in F into FE for itself only: the point
    keeps its coordinates, their types and its key, valid or not."""
    import json

    from dp6.cli import bundled_path
    from dp6.scenario import load_scenario

    with open(bundled_path("example-main"), encoding="utf-8") as fh:
        raw = json.load(fh)
    if lambda1 is not None:
        raw["points"]["p0"]["lambda1"] = lambda1
    scen = load_scenario(raw)
    spec, p = scen.surfaces["S"], scen.points["p0"]
    key, types = p.key(), (type(p.lam1), type(p.lam2))
    if valid:
        assert validate_point(spec, p)
    else:
        assert types == (type(spec.tower.one()),) * 2
        with pytest.raises(PointValidationError):
            validate_point(spec, p)
    assert p.key() == key
    assert (type(p.lam1), type(p.lam2)) == types


def _s3_tower():
    one = QOmega.one()
    g = VarAutomorphism([1, 2, 0, 3], [one] * 4)
    f = VarAutomorphism([0, 2, 1, 3], [one] * 4)
    return GaloisTower(["t1", "t2", "t3", "s"], {"g": g, "f": f}, name="F")


def _kummer(tower):
    t1, t2, t3, s = (tower.var(v) for v in ("t1", "t2", "t3", "s"))
    return ExtensionDescriptor("kummer-cubic", tower,
                               radicand=s * (t1 + 1) * (t2 + 1) * (t3 + 1))


def test_composite_groups_belong_to_their_tower():
    a, b = _s3_tower(), _s3_tower()
    assert a.key() == b.key()
    ea, eb = _kummer(a), _kummer(b)
    assert ea.key() == eb.key()
    cga, cgb = composite_for(a, ea), composite_for(b, eb)
    assert cga is not cgb
    assert cga.comp.tower is a and cgb.comp.tower is b
    assert composite_for(a, ea) is cga
    assert composite_for(a, _kummer(a)) is cga
    assert composite_for(b, eb) is cgb


@pytest.mark.parametrize("name", ["example-main", "z6-index2-hex", "z6-index6",
                                  "d6-swap"])
def test_index_divides_the_degree_of_every_valid_point(name):
    """The index is the gcd of the degrees of the closed points, so every
    declared point that validates has a degree the index divides."""
    with open(bundled_path(name), encoding="utf-8") as fh:
        scen = load_scenario(json.load(fh))
    for spec in scen.surfaces.values():
        idx = index(spec)
        assert idx in (1, 2, 3, 6), (name, idx)
        for p in scen.points.values():
            try:
                validate_point(spec, p)
            except (PointValidationError, PointCaseError):
                continue
            assert p.degree % idx == 0, (name, p.name, p.degree, idx)
