"""Surface construction, cocycles, equivalence moves, automorphisms."""

import copy
import random
import re
import types

import pytest

from dp6 import hexagon
from dp6._ratfunc import QOmega
from dp6._record import replace
from dp6.fieldtower import (
    ExtensionDescriptor,
    FactRegistry,
    GaloisTower,
    IS_NORM,
    TowerError,
    UNKNOWN,
    VarAutomorphism,
    apply,
    is_fixed,
    norm,
)
from dp6.surface import (
    ClassHandle,
    SeveriBrauerData,
    SurfaceConditionError,
    TwistedAutomorphism,
    are_cohomologous,
    automorphism_description,
    cocycle_assignments,
    equivalence_move,
    index,
    index_from_flags,
    is_automorphism,
    is_isomorphic,
    k_fixing_subgroup,
    l_fixing_subgroup,
    make_surface,
    sb_class_equivalent,
    severi_brauer_data,
    subfield,
    torus_member,
    verify_cocycle,
)


def rand_monomial(tower, rng, bound=2):
    exps = [rng.randint(-bound, bound) for _ in tower.variables]
    return tower.monomial(exps)


def random_valid_params(gtype, tower, rng):
    """Monomial parameter sets satisfying the displayed conditions."""
    g = tower.element_named("g")
    if gtype == "S3":
        # xi in k*: a norm of a random monomial down to k
        m = rand_monomial(tower, rng)
        xi = tower.one()
        for u in tower.elements:
            xi = xi * apply(u, m)
        return (xi, None) if not xi.is_zero() else (tower.one(), None)
    h = tower.element_named("h")
    mu = rand_monomial(tower, rng)
    xi = norm(g, mu)
    rho = norm(h, mu.inv())
    if gtype == "Z6":
        # extra twists that stay inside the conditions
        c = rand_monomial(tower, rng)
        c_g = tower.one()
        for u in (tower.element_named("1"), g, g * g):
            c_g = c_g * apply(u, c)  # g-invariant monomial
        xi = xi * (c_g / apply(h, c_g))
        return xi, rho
    # D6: norm twists with mu fixed by gf preserve the conditions
    gf = tower.element_named("gf")
    lam = rand_monomial(tower, rng)
    lam = lam * apply(gf, lam)
    return norm(g, lam.inv()), norm(h, lam)


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_cocycle_soundness_random(gtype, s3_tower, z6_tower, d6_tower):
    tower = {"Z6": z6_tower, "S3": s3_tower, "D6": d6_tower}[gtype]
    rng = random.Random(7)
    for _ in range(25):
        xi, rho = random_valid_params(gtype, tower, rng)
        spec = make_surface(gtype, tower, xi, rho)
        assert verify_cocycle(spec)


def _failing_pairs(spec):
    """Reference check: the pairs (u, v) of all |G|^2 at which the table
    breaks alpha_{uv} = alpha_u * u(alpha_v)."""
    a, elements = spec.cocycle, spec.tower.elements
    return [(u, v) for u in elements for v in elements
            if a[u * v] != a[u] * a[v].galois(u)]


def _tampered(spec, changes):
    bad = copy.copy(spec)
    bad.cocycle = {**spec.cocycle, **changes}
    return bad


def _coset_twist(spec, name, c):
    """The table multiplied by x(c) at each x*s, s the generator called name
    and x in the subgroup H of the other generators.  The identity still holds
    for every other generator t (t*x*s is again in H*s, and x(c) is carried
    along), so only the pairs (s, v) can show the change."""
    tower = spec.tower
    s = tower.generators[name]
    others = tower.subgroup([n for n in tower.generators if n != name])
    return _tampered(spec, {x * s: spec.cocycle[x * s] * c.galois(x)
                            for x in others})


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_verify_cocycle_rejects_broken_tables(gtype, z6_hex, s3_example,
                                              d6_index2):
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    tower = spec.tower
    x1 = tower.var(tower.variables[0])
    assert len(spec.cocycle) == len(tower.elements)
    assert verify_cocycle(spec) and not _failing_pairs(spec)
    bad_tables = []
    for w in tower.elements:
        a = spec.cocycle[w]
        bad_tables.append(_tampered(spec, {w: TwistedAutomorphism(
            a.t1 * x1, a.t2, a.perm)}))
        bad_tables.append(_tampered(spec, {w: TwistedAutomorphism(
            a.t1, a.t2, hexagon.compose(a.perm, hexagon.CENTRAL))}))
    for name in tower.generators:
        bad = _coset_twist(spec, name, TwistedAutomorphism.toric(x1, tower.one()))
        failing = _failing_pairs(bad)
        others = {u for n, u in tower.generators.items() if n != name}
        assert not others & {u for u, _ in failing}
        bad_tables.append(bad)
    for bad in bad_tables:
        assert _failing_pairs(bad)
        with pytest.raises(SurfaceConditionError, match="cocycle identity"):
            verify_cocycle(bad)


# For each relator of each presentation, the generator whose value is
# multiplied on the left by a factor (see _break_factors) that breaks this
# relator and keeps every relator checked before it.
_RELATOR_BREAKS = {
    "Z6": {"g^3": ("g", "first"), "h^2": ("h", "last"),
           "gh = hg": ("h", "two")},
    "S3": {"g^3": ("g", "first"), "f^2": ("f", "two"),
           "fgf = gg": ("g", "two")},
    "D6": {"g^3": ("g", "first"), "h^2": ("h", "last"), "f^2": ("f", "two"),
           "gh = hg": ("h", "two"), "hf = fh": ("f", "central"),
           "fgf = gg": ("f", "minus")},
}


def _generator_table(spec):
    """A copy of spec whose cocycle table holds alpha_1 and the generator
    values only, as make_surface hands it to verify_cocycle."""
    tower = spec.tower
    kept = {tower.element_named("1"), *tower.generators.values()}
    out = copy.copy(spec)
    out.cocycle = {u: a for u, a in spec.cocycle.items() if u in kept}
    return out


def _break_factors(tower):
    one = tower.one()
    return {
        "first": TwistedAutomorphism.toric(tower.var(tower.variables[0]), one),
        "last": TwistedAutomorphism.toric(tower.var(tower.variables[-1]), one),
        "two": TwistedAutomorphism.toric(tower.const(QOmega(2)), one),
        "minus": TwistedAutomorphism.toric(-one, -one),
        "central": TwistedAutomorphism(one, one, hexagon.CENTRAL),
    }


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_verify_cocycle_names_each_failing_relator(gtype, z6_hex, s3_example,
                                                   d6_index2):
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    tower = spec.tower
    pres = tower.presentation
    relators = [f"{n}^{k}" for n, k in pres["gens"].items()]
    relators += [f"{lhs} = {rhs}" for lhs, rhs in pres["relations"]]
    assert sorted(relators) == sorted(_RELATOR_BREAKS[gtype])
    factors = _break_factors(tower)
    for relator, (name, factor) in _RELATOR_BREAKS[gtype].items():
        s = tower.generators[name]
        change = {s: factors[factor] * spec.cocycle[s]}
        built = _tampered(spec, change)
        assert _failing_pairs(built)
        fresh = _generator_table(spec)
        fresh.cocycle.update(change)
        for bad in (built, fresh):
            with pytest.raises(SurfaceConditionError, match=(
                    rf"cocycle identity fails at relat(or|ion) "
                    rf"{re.escape(relator)}$")):
                verify_cocycle(bad)


@pytest.mark.parametrize("gtype,bound", [("Z6", 7), ("S3", 6), ("D6", 16)])
def test_verify_cocycle_product_count(gtype, bound, z6_hex, s3_example,
                                      d6_index2, monkeypatch):
    """One twisted product per word suffix of length >= 2 met in the relators
    and the closure words; the generator x element loop took 12, 12, 36."""
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    fresh = _generator_table(spec)
    calls = []
    mul = TwistedAutomorphism.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    # a copy with no snapshot, so the built table is checked in full and not
    # only compared with what make_surface accepted
    built = copy.copy(spec)
    built.verified_table = ()
    monkeypatch.setattr(TwistedAutomorphism, "__mul__", counting)
    for table in (built, fresh):
        calls.clear()
        assert verify_cocycle(table)
        assert len(calls) <= bound
    assert fresh.cocycle == spec.cocycle


def _counting_products(monkeypatch):
    calls = []
    mul = TwistedAutomorphism.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(TwistedAutomorphism, "__mul__", counting)
    return calls


def _rebuilt(spec):
    """A surface of our own with the parameters of a shared fixture."""
    return make_surface(spec.gtype, spec.tower, spec.xi, spec.rho)


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_second_verification_only_compares(gtype, z6_hex, s3_example,
                                           d6_index2, monkeypatch):
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    calls = _counting_products(monkeypatch)
    assert verify_cocycle(spec)
    assert cocycle_assignments(spec)
    assert not calls
    # a spec built anew from the same fields carries no snapshot
    again = replace(spec)
    again.cocycle = dict(spec.cocycle)
    assert verify_cocycle(again)
    assert calls


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_verify_cocycle_sees_an_entry_replaced_in_place(gtype, z6_hex,
                                                        s3_example, d6_index2):
    spec = _rebuilt({"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype])
    tower = spec.tower
    x1 = tower.var(tower.variables[0])
    for w in tower.elements:
        a = spec.cocycle[w]
        for tampered in (TwistedAutomorphism(a.t1 * x1, a.t2, a.perm),
                         TwistedAutomorphism(a.t1, a.t2, hexagon.compose(
                             a.perm, hexagon.CENTRAL))):
            with pytest.raises(SurfaceConditionError) as fresh:
                verify_cocycle(_tampered(spec, {w: tampered}))
            assert verify_cocycle(spec)
            spec.cocycle[w] = tampered
            with pytest.raises(SurfaceConditionError) as in_place:
                verify_cocycle(spec)
            assert str(in_place.value) == str(fresh.value)
            assert str(fresh.value).startswith("cocycle identity fails at ")
            spec.cocycle[w] = a


def test_cocycle_assignments_refuses_a_tampered_table(d6_index2):
    spec = _rebuilt(d6_index2)
    g = spec.tower.generators["g"]
    assert cocycle_assignments(spec)["g"] == spec.cocycle[g]
    spec.cocycle[g] = _break_factors(spec.tower)["first"] * spec.cocycle[g]
    with pytest.raises(SurfaceConditionError, match="relator g\\^3"):
        cocycle_assignments(spec)


def test_make_surface_rejections(z6_tower, s3_tower, d6_tower):
    x1, x2, y = (z6_tower.var(v) for v in ("x1", "x2", "y"))
    with pytest.raises(SurfaceConditionError, match="Norm_h"):
        make_surface("Z6", z6_tower, x1 * x2 * z6_tower.var("x3"), x1 / x2)
    with pytest.raises(SurfaceConditionError, match="xi in F\\^g"):
        make_surface("Z6", z6_tower, x1, z6_tower.one())
    with pytest.raises(SurfaceConditionError, match="rho in F\\^h"):
        make_surface("Z6", z6_tower, z6_tower.one(), y)
    with pytest.raises(SurfaceConditionError, match="xi in k"):
        make_surface("S3", s3_tower, s3_tower.var("t1"))
    X1, X3, Y = (d6_tower.var(v) for v in ("x1", "x3", "y"))
    with pytest.raises(SurfaceConditionError, match="g\\(rho\\)"):
        make_surface("D6", d6_tower, d6_tower.one(), X1 / d6_tower.var("x2"))


def test_cocycle_values(s3_example, z6_hex):
    cm = cocycle_assignments(s3_example)
    xi_inv = s3_example.xi.inv()
    assert cm["g"].t1 == xi_inv and cm["g"].t2 == xi_inv
    assert cm["f"].t1 == xi_inv
    g3 = s3_example.alpha(s3_example.tower.element_named("1"))
    assert g3.is_identity()
    # trivial parameters give the identity-torus cocycle
    triv = make_surface("S3", s3_example.tower, s3_example.tower.one())
    for a in cocycle_assignments(triv).values():
        assert a.t1.is_one() and a.t2.is_one()


def test_alpha_s_formula(d6_index2):
    # alpha_s = alpha_h h(alpha_f) = ((rho h(xi), rho g(rho) h(xi)), eps(hf))
    tower = d6_index2.tower
    g = tower.element_named("g")
    h = tower.element_named("h")
    rho, xi = d6_index2.rho, d6_index2.xi
    als = d6_index2.alpha(tower.element_named("hf"))
    hxi = apply(h, xi)
    assert als.t1 == rho * hxi
    assert als.t2 == rho * apply(g, rho) * hxi
    assert als.perm == hexagon.REFLECT_S


def test_are_cohomologous_examples(z6_hex):
    tower = z6_hex.tower
    g = tower.element_named("g")
    h = tower.element_named("h")
    x1, x3 = tower.var("x1"), tower.var("x3")
    beta = TwistedAutomorphism(tower.one(), tower.one(), tower.embedding["h"])
    inv = equivalence_move(z6_hex, "invert")
    assert are_cohomologous(z6_hex, inv, beta)
    lam = x1 / x3
    beta2 = TwistedAutomorphism(lam, lam * apply(g, lam), hexagon.IDENTITY)
    twisted = equivalence_move(z6_hex, "twist", element=lam)
    assert are_cohomologous(z6_hex, twisted, beta2)
    assert are_cohomologous(z6_hex, z6_hex, TwistedAutomorphism.identity(tower))
    assert not are_cohomologous(z6_hex, twisted, beta)


@pytest.mark.parametrize("gtype,moves", [
    ("Z6", ["invert", "rotate", "twist"]),
    ("S3", ["invert", "twist"]),
    ("D6", ["invert", "twist"]),
])
def test_equivalence_moves_and_invariance(gtype, moves, z6_hex, s3_example,
                                          d6_index2):
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    tower = spec.tower
    rng = random.Random(11)
    for move in moves:
        if move == "twist":
            if gtype == "Z6":
                lam = tower.monomial([1, 0, -1, 2])
            elif gtype == "S3":
                f = tower.element_named("f")
                m = rand_monomial(tower, rng)
                lam = m * apply(f, m)
            else:
                gf = tower.element_named("gf")
                m = rand_monomial(tower, rng)
                lam = m * apply(gf, m)
            moved = equivalence_move(spec, move, element=lam)
        else:
            moved = equivalence_move(spec, move)
        res = is_isomorphic(spec, moved)
        assert res.verdict == "Yes", (gtype, move, res.reason)
        assert res.moves, "one-move witness expected"
        assert index(moved) == index(spec)
        assert moved.sbdata.am_K == spec.sbdata.am_K
        assert moved.sbdata.am_L == spec.sbdata.am_L


def test_iso_reflexive_symmetric(s3_example, z6_hex):
    for spec in (s3_example, z6_hex):
        assert is_isomorphic(spec, spec).verdict == "Yes"
    m = equivalence_move(z6_hex, "rotate")
    assert is_isomorphic(z6_hex, m).verdict == "Yes"
    assert is_isomorphic(m, z6_hex).verdict == "Yes"


def test_iso_distinguishes(s3_example, z6_hex, z6_index6):
    res = is_isomorphic(s3_example, z6_hex)
    assert res.verdict == "No"  # different towers entirely
    # same tower, both classes proven different: 1 vs non-norm xi
    triv = make_surface("Z6", z6_hex.tower, z6_hex.tower.one(),
                        z6_hex.tower.one())
    res2 = is_isomorphic(z6_index6, triv)
    assert res2.verdict in ("No", "Unknown")


def test_iso_is_unknown_when_only_the_conic_class_is_undecided(z6_tower):
    """xi = 1 on both sides, and rho = (x1^2 + y^2)/(x2^2 + y^2) against 1.
    The surfaces are isomorphic exactly when some g^t(rho^(+-1)) is an
    h-norm, and the oracle proves neither way: no term quotient for a
    certificate, y-degree 0 for a valuation proof, and the residue at y = 0
    is x_i^2 x_j^2, a square.  So the verdict is Unknown, not No."""
    x1, x2, y = (z6_tower.var(v) for v in ("x1", "x2", "y"))
    one = z6_tower.one()
    rho = (x1 * x1 + y * y) / (x2 * x2 + y * y)
    s = make_surface("Z6", z6_tower, one, rho, FactRegistry())
    t = make_surface("Z6", z6_tower, one, one, s.registry)
    assert s.sbdata.l_trivial == UNKNOWN
    res = is_isomorphic(s, t)
    assert (res.verdict, res.reason) == ("Unknown", "norm oracle undecided")


def test_severi_brauer_data(s3_example, z6_hex, d6_index2):
    d = severi_brauer_data(s3_example)
    assert d.L is None and d.am_K == "Z/3" and d.am_L == "-"
    dz = z6_hex.sbdata
    assert dz.am_K == "0" and dz.am_L == "(Z/2)^2"
    assert dz.K.degree == 2 and dz.L.degree == 3
    dd = d6_index2.sbdata
    assert dd.K.degree == 2 and dd.L.degree == 6
    assert len(dd.L_i) == 3
    for li in dd.L_i:
        assert li.degree == 3


def test_surfaces_on_one_tower_share_their_fields(z6_hex, z6_index6,
                                                  d6_index2, d6_index3):
    for a, b in ((z6_hex, z6_index6), (d6_index2, d6_index3)):
        tower = a.tower
        assert b.tower is tower
        assert a.sbdata.K is b.sbdata.K and a.sbdata.L is b.sbdata.L
        assert a.sbdata.L_i is b.sbdata.L_i
        assert a.sbdata.K == subfield(tower, k_fixing_subgroup(tower), "K")
        assert a.sbdata.L == subfield(tower, l_fixing_subgroup(tower), "L")
    tower = d6_index2.tower
    assert d6_index2.sbdata.L_i == tuple(
        subfield(tower, tower.subgroup(["h", f]), f"L{i}")
        for i, f in enumerate(("f", "gf", "ggf"), 1))


def test_tower_fields_are_built_once(monkeypatch):
    one, minus = QOmega.one(), -QOmega.one()
    tower = GaloisTower(["x1", "x2", "x3", "y"], {
        "g": VarAutomorphism([1, 2, 0, 3], [one] * 4),
        "f": VarAutomorphism([0, 2, 1, 3], [one] * 4),
        "h": VarAutomorphism([0, 1, 2, 3], [one] * 3 + [minus])}, name="FD")
    built = []
    post_init = ExtensionDescriptor.__post_init__

    def counting(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(ExtensionDescriptor, "__post_init__", counting)
    rng = random.Random(11)
    specs = [make_surface("D6", tower, *random_valid_params("D6", tower, rng))
             for _ in range(10)]
    assert sorted(built) == ["K", "L", "L1", "L2", "L3"]
    assert len({id(s.sbdata.L_i) for s in specs}) == 1


def test_trivial_class_handle_is_shared():
    handle = ClassHandle.trivial()
    assert handle is ClassHandle.trivial()
    assert handle == ClassHandle(key=("trivial",), status=IS_NORM)


def test_conic_triple_coherence(z6_hex):
    # proving one ratio an h-norm makes the whole triple equivalent: data rule
    tower = z6_hex.tower
    g = tower.element_named("g")
    h = tower.element_named("h")
    rho = z6_hex.rho
    fact = sb_class_equivalent(rho, apply(g, rho), h)
    # for rho = x1/x2 the ratio g(rho)/rho = x1 x3 / x2^2... is not obviously
    # a norm; whichever verdict, it must be consistent for both rotations
    fact2 = sb_class_equivalent(rho, apply(g * g, rho), h)
    if fact.verdict == "IsNorm":
        assert fact2.verdict != "NotNorm"


def test_index_values(s3_example, z6_hex, z6_index6, z6_index3, d6_index2):
    assert index(s3_example) == 3
    assert index(z6_hex) == 2
    assert index(z6_index6) == 6
    assert index(z6_index3) == 3
    assert index(d6_index2) == 2
    rational = make_surface("S3", s3_example.tower,
                            norm(s3_example.tower.element_named("g"),
                                 s3_example.tower.var("t1")))
    assert index(rational) == 1


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
@pytest.mark.parametrize("flags", [("bogus", "NotNorm"), ("NotNorm", None),
                                   (5, "IsNorm"), ("IsNorm", "")])
def test_index_refuses_a_foreign_flag(gtype, flags):
    """No flag outside IsNorm, NotNorm and Unknown reads as NotNorm."""
    with pytest.raises(TowerError, match="not a norm-class verdict"):
        index_from_flags(gtype, *flags)


_RATIONAL = "rational: full automorphism group not classified here"
_COND_T1 = "conditional: T1, extended by alpha_h/alpha_g if a class is trivial"
_COND_T3 = "conditional: T3, extended by alpha_h if the SB class is trivial"

#: (gtype, K verdict, L verdict) -> index, Am_K, Am_L, automorphisms
_VERDICT_TABLE = {
    ("Z6", "IsNorm", "IsNorm"): (1, "0", "0", _RATIONAL),
    ("Z6", "IsNorm", "NotNorm"): (2, "0", "(Z/2)^2", "T1 x <alpha_h>"),
    ("Z6", "IsNorm", "Unknown"): ("Unknown", "0", "unknown", "T1 x <alpha_h>"),
    ("Z6", "NotNorm", "IsNorm"): (3, "Z/3", "0", "T1 x <alpha_g>"),
    ("Z6", "NotNorm", "NotNorm"): (6, "Z/3", "(Z/2)^2", "T1"),
    ("Z6", "NotNorm", "Unknown"): ("Unknown", "Z/3", "unknown", _COND_T1),
    ("Z6", "Unknown", "IsNorm"): ("Unknown", "unknown", "0", "T1 x <alpha_g>"),
    ("Z6", "Unknown", "NotNorm"): ("Unknown", "unknown", "(Z/2)^2", _COND_T1),
    ("Z6", "Unknown", "Unknown"): ("Unknown", "unknown", "unknown", _COND_T1),
    ("S3", "IsNorm", "IsNorm"): (1, "0", "-", "T2"),
    ("S3", "IsNorm", "NotNorm"): (1, "0", "-", "T2"),
    ("S3", "IsNorm", "Unknown"): (1, "0", "-", "T2"),
    ("S3", "NotNorm", "IsNorm"): (3, "Z/3", "-", "T2"),
    ("S3", "NotNorm", "NotNorm"): (3, "Z/3", "-", "T2"),
    ("S3", "NotNorm", "Unknown"): (3, "Z/3", "-", "T2"),
    ("S3", "Unknown", "IsNorm"): ("Unknown", "unknown", "-", "T2"),
    ("S3", "Unknown", "NotNorm"): ("Unknown", "unknown", "-", "T2"),
    ("S3", "Unknown", "Unknown"): ("Unknown", "unknown", "-", "T2"),
    ("D6", "IsNorm", "IsNorm"): (1, "0", "0", _RATIONAL),
    ("D6", "IsNorm", "NotNorm"): (2, "0", "(Z/2)^2", "T3 x <alpha_h>"),
    ("D6", "IsNorm", "Unknown"): ("Unknown", "0", "unknown", "T3 x <alpha_h>"),
    ("D6", "NotNorm", "IsNorm"): (3, "Z/3", "0", "T3"),
    ("D6", "NotNorm", "NotNorm"): (6, "Z/3", "(Z/2)^2", "T3"),
    ("D6", "NotNorm", "Unknown"): ("Unknown", "Z/3", "unknown", "T3"),
    ("D6", "Unknown", "IsNorm"): ("Unknown", "unknown", "0", _COND_T3),
    ("D6", "Unknown", "NotNorm"): ("Unknown", "unknown", "(Z/2)^2", _COND_T3),
    ("D6", "Unknown", "Unknown"): ("Unknown", "unknown", "unknown", _COND_T3),
}


def _verdict_spec(gtype, k, l):
    """A stand-in surface with the given verdicts: only gtype and sbdata are
    read, and an S3 surface has no field L."""
    data = SeveriBrauerData(K="K", L=None if gtype == "S3" else "L",
                            k_trivial=k, l_trivial=l)
    return types.SimpleNamespace(gtype=gtype, sbdata=data)


@pytest.mark.parametrize("gtype,k,l", sorted(_VERDICT_TABLE))
def test_verdict_table(gtype, k, l):
    """Index, Amitsur groups and automorphisms of every verdict pair."""
    spec = _verdict_spec(gtype, k, l)
    assert (index_from_flags(gtype, k, l), spec.sbdata.am_K, spec.sbdata.am_L,
            automorphism_description(spec)) == _VERDICT_TABLE[gtype, k, l]


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
@pytest.mark.parametrize("side", ["K", "L"])
@pytest.mark.parametrize("foreign", ["bogus", None, 5, [], "NotNorm "])
@pytest.mark.parametrize("reader", ["amitsur", "automorphisms"])
def test_verdict_readers_refuse_a_foreign_verdict(gtype, side, foreign, reader):
    """A verdict outside IsNorm, NotNorm and Unknown on either side is
    refused by the Amitsur group of that side and by the automorphism
    descriptor (`test_index_refuses_a_foreign_flag` covers the index)."""
    k, l = (foreign, "NotNorm") if side == "K" else ("NotNorm", foreign)
    spec = _verdict_spec(gtype, k, l)
    with pytest.raises(TowerError, match="not a norm-class verdict"):
        if reader == "automorphisms":
            automorphism_description(spec)
        elif side == "K":
            spec.sbdata.am_K
        else:
            spec.sbdata.am_L


@pytest.mark.parametrize("foreign", ["bogus", None, 5, [], "NotNorm "])
@pytest.mark.parametrize("build", ["new", "replace"])
@pytest.mark.parametrize("reader", ["is_trivial", "same_class"])
def test_class_handle_refuses_a_foreign_status(foreign, build, reader):
    """A handle whose status is no verdict is never read: `is_trivial` would
    call it not trivial and `same_class` a decided class."""
    with pytest.raises(TowerError, match="not a norm-class verdict"):
        h = (ClassHandle(key=("opaque",), status=foreign) if build == "new"
             else replace(ClassHandle.trivial(), status=foreign))
        if reader == "is_trivial":
            h.is_trivial()
        else:
            h.same_class(ClassHandle.trivial())


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def t1_member(tower, rng):
    g = tower.element_named("g")
    h = tower.element_named("h")
    v = rand_monomial(tower, rng)
    w = v / apply(g, v)
    return w / apply(h, w)


def t23_member(tower, rng):
    g = tower.element_named("g")
    gf = tower.element_named("gf")
    c = rand_monomial(tower, rng)
    if "h" in tower.generators:
        h = tower.element_named("h")
        c = c / apply(h, c)
    w = c / apply(g, c)
    return w * apply(gf, w)


@pytest.mark.parametrize("gtype", ["Z6", "S3", "D6"])
def test_torus_membership(gtype, z6_hex, s3_example, d6_index2):
    spec = {"Z6": z6_hex, "S3": s3_example, "D6": d6_index2}[gtype]
    tower = spec.tower
    g = tower.element_named("g")
    rng = random.Random(3)
    for _ in range(20):
        if gtype == "Z6":
            lam = t1_member(tower, rng)
            h = tower.element_named("h")
            assert norm(g, lam).is_one() and norm(h, lam).is_one()
        else:
            lam = t23_member(tower, rng)
            assert norm(g, lam).is_one()
            assert is_fixed(lam, [tower.element_named("gf")])
        psi = torus_member(spec, lam)
        assert is_automorphism(spec, psi)
    for _ in range(20):
        lam = rand_monomial(tower, rng)
        if norm(g, lam).is_one():
            continue
        psi = torus_member(spec, lam)
        assert not is_automorphism(spec, psi)


def test_alpha_h_cases(z6_hex, z6_index6, d6_index2, d6_index3):
    # alpha_h is an automorphism exactly when xi is trivial
    for spec, expect in ((z6_hex, True), (z6_index6, False),
                         (d6_index2, True), (d6_index3, False)):
        ah = spec.alpha(spec.tower.element_named("h"))
        assert is_automorphism(spec, ah) is expect


def test_alpha_g_case_z6_rho_trivial(z6_index3):
    ag = z6_index3.alpha(z6_index3.tower.element_named("g"))
    assert is_automorphism(z6_index3, ag)


def test_automorphism_closure(z6_hex):
    rng = random.Random(5)
    tower = z6_hex.tower
    for _ in range(10):
        a = torus_member(z6_hex, t1_member(tower, rng))
        b = torus_member(z6_hex, t1_member(tower, rng))
        assert is_automorphism(z6_hex, a * b)


def test_descriptors(z6_hex, z6_index6, z6_index3, s3_example, d6_index2,
                     d6_index3):
    assert automorphism_description(z6_hex) == "T1 x <alpha_h>"
    assert automorphism_description(z6_index6) == "T1"
    assert automorphism_description(z6_index3) == "T1 x <alpha_g>"
    assert automorphism_description(s3_example) == "T2"
    assert automorphism_description(d6_index2) == "T3 x <alpha_h>"
    assert automorphism_description(d6_index3) == "T3"
