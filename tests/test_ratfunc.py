"""Canonical forms and power detection in the polynomial layer."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from dp6 import _ratfunc, fieldtower, surface
from dp6._ratfunc import (
    MPQ,
    CPoly,
    QOmega,
    cancel_pair,
    monic_pair,
    poly_nth_root,
    power,
    qomega_nth_roots,
    rational_ring,
    strip_monomial_content,
    term_pair,
    term_ratio,
)
from dp6.fieldtower import apply
from dp6.surface import make_surface

R = rational_ring(("x", "y", "z"))


def _x(i):
    return CPoly.variable(R, i)


def test_evaluate_takes_one_coordinate_per_variable():
    x, y, z = _x(0), _x(1), _x(2)
    w = CPoly.const(R, QOmega.omega())
    p = x * x * y + w * z - CPoly.const(R, QOmega(MPQ(1, 2)))
    assert p.evaluate((2, 3, 5)) == QOmega(MPQ(23, 2), 5)
    for point in ((2, 3), (2, 3, 5, 7)):
        with pytest.raises(ValueError, match="coordinates"):
            p.evaluate(point)


def test_cancel_basic():
    x, y = _x(0), _x(1)
    num = (x + y) * (x - y)
    den = (x + y) * x
    n, d = cancel_pair(num, den)
    assert n == x - y and d == x


def test_cancel_monomial_content():
    x, y = _x(0), _x(1)
    n, d = cancel_pair(x * x * y, x * y * y)
    assert n == x and d == y


def test_denominator_normalized_monic():
    x, y = _x(0), _x(1)
    three = CPoly.const(R, QOmega(3))
    n, d = cancel_pair(y, three * x)
    _, lc = d.leading()
    assert lc.is_one()


def test_cancel_single_term_skips_gcd():
    x, y, z = _x(0), _x(1), _x(2)
    c = lambda a, b=0: CPoly.const(R, QOmega(a, b))
    # shared monomial content: x^2 y / (x y + x^2 z) = x y / (y + x z)
    n, d = cancel_pair(x * x * y, x * y + x * x * z)
    assert n == x * y and d == y + x * z
    # no shared content: only the denominator's leading coefficient moves
    n, d = cancel_pair(c(3) * x * y * y, c(2) * z + c(4) * x)
    assert n == c(MPQ(3, 4)) * x * y * y and d == x + c(MPQ(1, 2)) * z
    # a single term with a mixed coefficient, on either side
    assert (c(1, 1) * x).is_term() and not (x + c(0, 1) * y).is_term()
    n, d = cancel_pair(c(1, 1) * x, x + y)
    assert n == c(1, 1) * x and d == x + y
    n, d = cancel_pair(x + y, c(1, 1) * x)  # (1 + w)^-1 = -w
    assert n == c(0, -1) * (x + y) and d == x


def _heuristic_gives_up_pair():
    """A coprime pair on which sympy's sparse heuristic gcd gives up."""
    S = rational_ring(("t1", "t2", "t3", "s"))
    t1, t2, t3, s = (CPoly.variable(S, i) for i in range(4))
    one, third = CPoly.one(S), CPoly.const(S, QOmega(MPQ(1, 3)))
    num = CPoly.const(S, QOmega(MPQ(4, 9))) * t3**10 * s**6 * (t3 + one)**2
    den = t1**8 * t2**8 * (t1 + third) * (t2 + third)
    return num, den


def test_cancel_where_the_heuristic_gcd_gives_up(monkeypatch):
    """A coprime pair on which sympy's heuristic gcd gives up keeps its form,
    by the heuristic gcd and by the PRS gcd it falls back to."""
    num, den = _heuristic_gives_up_pair()
    assert cancel_pair(num, den) == (num, den)
    monkeypatch.setattr(_ratfunc, "_heugcd", lambda f, g: None)
    assert cancel_pair(num, den) == (num, den)


def test_cancel_with_omega_scalar():
    x, y = _x(0), _x(1)
    w = CPoly.const(R, QOmega.omega())
    num = w * (x + y) * x
    den = (x + y) * y
    n, d = cancel_pair(num, den)
    assert n * den == num * d  # cross-multiplication equality


def test_cancel_genuinely_algebraic():
    # x^2 + x + 1 = (x - w)(x - w^2): the fraction must reduce over Q(w)
    x = _x(0)
    w = CPoly.const(R, QOmega.omega())
    num = x - w
    den = x * x + x + CPoly.one(R)
    n, d = cancel_pair(num, den)
    assert d.degree_in(0) == 1
    assert n * den == num * d


def _gcd_route(num, den):
    """cancel_pair of a rational pair by the rational gcd alone."""
    num, den = strip_monomial_content(num, den)
    _, qn, qd = _ratfunc._rational_gcd(num.pa, den.pa)
    return monic_pair(CPoly(num.ring, qn), CPoly(num.ring, qd))


def _key(pair):
    return pair[0].key(), pair[1].key()


_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@seed(14)
@settings(max_examples=120, deadline=None)
@given(st.dictionaries(_EXPS, st.fractions(-9, 9, max_denominator=5).filter(bool),
                       min_size=1, max_size=4),
       st.fractions(-9, 9, max_denominator=5).filter(bool), _EXPS, _EXPS)
def test_term_multiple_matches_gcd_route(g_terms, q, a, b):
    """(q*x^a*g) / (x^b*g) for g without monomial content is the pair the
    gcd route gives, and the term-multiple rule decides it.  a and b are
    drawn apart, so the shift a - b has mixed signs."""
    g = CPoly.from_terms(R, {m: QOmega(c) for m, c in g_terms.items()})
    g = g.shift_down(g.min_degrees())
    num = CPoly.from_terms(R, {a: QOmega(q)}) * g
    den = CPoly.monomial(R, b) * g
    assert _key(cancel_pair(num, den)) == _key(_gcd_route(num, den))
    if not g.is_term():
        assert term_ratio(*strip_monomial_content(num, den)) is not None


def _count_gcds(monkeypatch):
    calls = []
    gcd = _ratfunc._rational_gcd

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(_ratfunc, "_rational_gcd", counted)
    return calls


def test_same_support_without_one_ratio_takes_the_gcd(monkeypatch):
    """Equal supports with different coefficient ratios are no term
    multiple: x^2 + 3xy + 2y^2 = (x + y)(x + 2y) over
    x^2 + 4xy + 3y^2 = (x + y)(x + 3y) reaches the rational gcd."""
    x, y = _x(0), _x(1)
    two, three = CPoly.const(R, QOmega(2)), CPoly.const(R, QOmega(3))
    num, den = (x + y) * (x + two * y), (x + y) * (x + three * y)
    assert term_ratio(num, den) is None
    calls = _count_gcds(monkeypatch)
    n, d = cancel_pair(num, den)
    assert len(calls) == 1
    assert n == x + two * y and d == x + three * y


def _near_misses():
    x, y, z = _x(0), _x(1), _x(2)
    w = CPoly.const(R, QOmega.omega())
    two = CPoly.const(R, QOmega(2))
    return {
        "one-ratio": (x + two * y, x + y),
        "subset": (x + y, x + y + z),
        "superset": (x * y + y * y + y * z, x + y),
        "w-part": (x + y + w * x, x + y),
        "shifted-apart": (x * x + y, x + y * y),
    }


@pytest.mark.parametrize("case", sorted(_near_misses()))
def test_term_quotient_refuses_near_misses(case):
    """Pairs that agree with a term multiple in all but one condition."""
    num, den = strip_monomial_content(*_near_misses()[case])
    assert term_ratio(num, den) is None
    n, d = cancel_pair(num, den)
    assert n * den == num * d


def test_cocycle_poly_surface_takes_no_gcd(monkeypatch, z6_tower, d6_tower):
    """Valid Z6 and D6 surfaces with xi = c/h(c), c a g-orbit sum (for D6 a
    <g, f>-orbit sum): every relator of the cocycle check ends in a term
    multiple, so the Z6 surface takes no gcd, and each general product of
    verify_cocycle is read off its cross pairs, with no cancel_pair."""
    def xi_of(tower, words):
        x1, x2, y = (tower.var(v) for v in ("x1", "x2", "y"))
        base = x1 * y * 2 + x2 * 3
        c = tower.zero()
        for word in words:
            c = c + apply(tower.element_named(word), base)
        return c / apply(tower.element_named("h"), c)

    z6_xi = xi_of(z6_tower, ("1", "g", "gg"))
    d6_xi = xi_of(d6_tower, ("1", "g", "gg", "f", "gf", "ggf"))
    x1, x2, x3 = (d6_tower.var(v) for v in ("x1", "x2", "x3"))
    verified, cancels = [], []  # cancels: the count of the open check
    verify, cancel = surface.verify_cocycle, fieldtower.cancel_pair

    def counted_verify(spec):
        cancels.append(0)
        try:
            return verify(spec)
        finally:
            verified.append((spec.gtype, cancels.pop()))

    def counted_cancel(num, den):
        if cancels:
            cancels[-1] += 1
        return cancel(num, den)

    monkeypatch.setattr(surface, "verify_cocycle", counted_verify)
    monkeypatch.setattr(fieldtower, "cancel_pair", counted_cancel)
    calls = _count_gcds(monkeypatch)
    make_surface("Z6", z6_tower, z6_xi, z6_tower.var("x1") / z6_tower.var("x2"))
    assert calls == []
    make_surface("D6", d6_tower, d6_xi, x1 * x2 / (x3 * x3))
    assert verified == [("Z6", 0), ("D6", 0)]


# the two sides of the slow mixed pair of ROADMAP item 1
_S = rational_ring(("x1", "x2", "x3", "y"))
_MIXED_NUM = CPoly.from_terms(_S, {(1, 2, 0, 2): QOmega(MPQ(10, 7), MPQ(2, 7)),
                                   (0, 2, 0, 3): QOmega(-1, -1)})
_MIXED_DEN = CPoly.from_terms(_S, {(4, 0, 4, 0): QOmega(1),
                                   (3, 0, 3, 0): QOmega(MPQ(-10, 7), MPQ(-2, 7))})


@pytest.mark.parametrize("f", [_MIXED_NUM, _MIXED_DEN, _MIXED_NUM * _MIXED_DEN],
                         ids=["num", "den", "product"])
def test_mixed_term_multiple_skips_the_algebraic_gcd(monkeypatch, f):
    """f*t1 / (f*t2) with mixed Q(w) coefficients cancels to t1/t2 without
    the Q(w) gcd."""
    t1 = CPoly.from_terms(_S, {(0, 1, 0, 2): QOmega(3, 1)})
    t2 = CPoly.from_terms(_S, {(2, 0, 1, 0): QOmega(-2, 5)})
    want = cancel_pair(t1, t2)

    def refuse(num, den):
        raise AssertionError("Q(w) gcd reached")

    monkeypatch.setattr(_ratfunc, "_algebraic_cancel", refuse)
    assert _key(cancel_pair(f * t1, f * t2)) == _key(want)


def _modules_after(code, packages=("sympy",)):
    """The modules of `packages` loaded once `code` has run in a fresh
    interpreter, as the printed sorted list."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += (f"\nimport sys\npackages = {tuple(packages)!r}\n"
             "print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in packages))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.splitlines()[-1]


_BUNDLED_RUNS = """
import dp6.cli
for name in ("example-main", "z6-index2-hex", "z6-index6", "d6-swap"):
    for strict in (False, True):
        dp6.cli.run(dp6.cli.bundled_path(name), strict=strict)
"""


def test_import_does_not_build_the_algebraic_domain():
    """Importing dp6 loads no sympy module at all: the polynomial layer is
    dp6's own, and sympy is imported only where a Q(w) gcd or the PRS gcd
    is needed."""
    assert _modules_after("import dp6, dp6.cli") == "[]"


def test_bundled_runs_load_no_sympy():
    """Every bundled scenario runs, plain and --strict, without sympy."""
    assert _modules_after(_BUNDLED_RUNS) == "[]"


#: start-up costs dp6 no longer pays: the `@dataclass` machinery (which also
#: loads inspect) and rational numbers (which load decimal)
_SLOW_TO_IMPORT = ("dataclasses", "inspect", "fractions", "decimal")


@pytest.mark.parametrize("code", ["import dp6.cli", _BUNDLED_RUNS],
                         ids=["import", "bundled-runs"])
def test_no_dataclasses_or_fractions_are_loaded(code):
    """Records come from `dp6._record` and ranks use integer elimination, so
    neither the import nor the bundled runs load these modules."""
    assert _modules_after(code, _SLOW_TO_IMPORT) == "[]"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_poly_nth_root_roundtrip(n, data):
    exps = data.draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                min_size=len(exps), max_size=len(exps)))
    base = CPoly.from_terms(R, {m: QOmega(c) for m, c in zip(exps, coeffs)})
    if base.is_zero():
        return
    power = base ** n
    root = poly_nth_root(power, n)
    assert root is not None
    assert root ** n == power


_SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), _SMALL_POLYS, st.integers(-3, 3).filter(bool),
       st.integers(0, 2), st.integers(1, 2))
def test_poly_nth_root_of_scaled_power(n, terms, d, var, k):
    """c*q^n with c = d^n has a root; one more factor (1 + x_var^k) with
    k < n makes var's degree prime to n, and the degree test refuses it."""
    q = CPoly.from_terms(R, {m: QOmega(c) for m, c in terms.items()})
    p = q ** n * CPoly.const(R, QOmega(d) ** n)
    root = poly_nth_root(p, n)
    assert root is not None and root ** n == p
    k = min(k, n - 1)
    bump = CPoly.one(R) + CPoly.from_terms(R, {tuple(
        k if i == var else 0 for i in range(3)): QOmega.one()})
    assert poly_nth_root(p * bump, n) is None


_MIXED = st.builds(lambda a, b, d: QOmega(MPQ(a, d), MPQ(b, d)), st.integers(-6, 6),
                   st.integers(-6, 6).filter(bool), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_MIXED, _MIXED, st.sampled_from([2, 3]), st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=2, unique=True))
def test_mixed_roots_roundtrip(c, c2, k, monoms):
    """Roots with a w-part: the cube root of c^3 for c = a + b*w, b != 0 (the
    rational roots of a cubic), and the k-th root of p^k for p of one or two
    terms with such coefficients."""
    cube = c ** 3
    r = qomega_nth_roots(cube, 3)
    assert r is not None and r ** 3 == cube
    p = CPoly.from_terms(R, dict(zip(monoms, (c, c2))))
    root = poly_nth_root(p ** k, k)
    assert root is not None and root ** k == p ** k


def test_poly_nth_root_degree_test_comes_first(monkeypatch):
    """A polynomial with a degree or a min degree that n does not divide is
    refused before the root of its leading coefficient is sought or any
    product is formed, over Q or over Q(w)."""
    x, y = _x(0), _x(1)
    w = CPoly.const(R, QOmega.omega())
    rational = (x + y) ** 2 * (x + CPoly.one(R))   # x-degree 3
    mixed = (x + w * y) ** 2 * (y + w)             # y-degree 3
    content = x * x * y ** 3                       # min y-degree 3
    shifted = x * x * (x * x + w * x)              # min x-degree 3, degree 4
    assert poly_nth_root(rational, 2) is None
    assert poly_nth_root(mixed, 2) is None

    def refused(*_):
        raise AssertionError("degree tests passed")

    monkeypatch.setattr(_ratfunc, "qomega_nth_roots", refused)
    monkeypatch.setattr(CPoly, "__mul__", refused)
    assert poly_nth_root(rational, 2) is None
    assert poly_nth_root(mixed, 2) is None
    assert poly_nth_root(content, 2) is None
    assert poly_nth_root(content, 3) is None
    assert poly_nth_root(shifted, 2) is None


def test_poly_nth_root_negative_cases():
    x, y = _x(0), _x(1)
    assert poly_nth_root(x * y, 2) is None
    assert poly_nth_root(x * x * y, 2) is None
    two = CPoly.const(R, QOmega(2))
    assert poly_nth_root(two * x * x, 2) is None  # 2 is not a square in Q(w)
    minus3 = CPoly.const(R, QOmega(-3))
    assert poly_nth_root(minus3 * x * x, 2) is not None  # -3 = (1+2w)^2


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_qomega_field_axioms(a1, b1, a2, b2):
    u, v = QOmega(a1, b1), QOmega(a2, b2)
    assert u * v == v * u
    assert (u + v) * u == u * u + v * u
    if not v.is_zero():
        assert (u * v) * v.inv() == u


_Q = st.fractions(-9, 9, max_denominator=7).map(MPQ)


@seed(15)
@settings(max_examples=150, deadline=None)
@given(_Q, _Q, _Q, st.one_of(st.just(MPQ(0)), _Q))
def test_qomega_rational_case_matches_general_formula(a1, a2, b1, b2):
    """The b = 0 products and inverses equal (a1 + b1 w)(a2 + b2 w) with
    w^2 = -1 - w and the conjugate over the norm, in value and in type;
    the draws cover rational times rational, rational times mixed and
    mixed times mixed."""
    def same(got, a, b):
        assert (got.a, got.b) == (a, b)
        assert type(got.a) is type(got.b) is MPQ

    for u, v in [(QOmega(a1), QOmega(a2)), (QOmega(a1), QOmega(b1, b2)),
                 (QOmega(b1, b2), QOmega(a2)), (QOmega(a1, b1), QOmega(a2, b2))]:
        same(u * v, u.a * v.a - u.b * v.b, u.a * v.b + u.b * v.a - u.b * v.b)
        if not u.is_zero():
            n = u.a * u.a - u.a * u.b + u.b * u.b
            same(u.inv(), (u.a - u.b) / n, -u.b / n)


_TERM_E = st.tuples(*[st.integers(-4, 4)] * 3)


@seed(15)
@settings(max_examples=100, deadline=None)
@given(_TERM_E, _Q.filter(bool), st.one_of(st.just(MPQ(0)), _Q),
       _Q.filter(bool), st.tuples(*[st.integers(0, 2)] * 3))
def test_term_pair_matches_cancel_pair(e, a, b, d, s):
    """term_pair(c, e) is the pair cancel_pair makes of c*d*x^(e+ + s) over
    d*x^(e- + s)."""
    c = QOmega(a, b)
    num = CPoly.from_terms(R, {tuple(max(v, 0) + t for v, t in zip(e, s)): c * QOmega(d)})
    den = CPoly.from_terms(R, {tuple(max(-v, 0) + t for v, t in zip(e, s)): QOmega(d)})
    assert _key(term_pair(R, c, e)) == _key(cancel_pair(num, den))


@pytest.mark.parametrize("k", range(9))
def test_power_forms_no_extra_products(k):
    products = []

    class Counted:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            products.append((self.v, other.v))
            return Counted(self.v * other.v)

    one = Counted(1)
    out = power(Counted(3), k, one)
    assert out.v == 3**k
    assert (out is one) == (k == 0)
    # squarings up to the top bit of k, one product per further set bit,
    # and never a product with `one`
    assert len(products) == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
    assert all(1 not in pair for pair in products)


# ---------------------------------------------------------------------------
# the polynomial layer against sympy, which serves only as the reference here
# ---------------------------------------------------------------------------

def _sympy_poly(ring_, p):
    """The rational polynomial dict p as an element of sympy's QQ ring."""
    from sympy import QQ
    from sympy.polys.rings import ring

    R = ring(list(ring_.names), QQ)[0]
    return R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in p.items()})


_RATIONALS = st.builds(MPQ, st.integers(-30, 30).filter(bool), st.integers(1, 12))


@st.composite
def _rational_polys(draw, ring_, max_terms=4, max_degree=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_degree)] * ring_.ngens), _RATIONALS,
        min_size=1, max_size=max_terms))
    return CPoly.from_terms(ring_, {m: QOmega(c) for m, c in terms.items()})


_RINGS = [rational_ring(("x1", "x2", "x3", "y")[:n]) for n in range(1, 5)]


def _monic(p):
    lc = p[max(p)]
    return {m: c / lc for m, c in p.items()}


def _check_gcd_against_sympy(ring_, f, g):
    h, cf, cg = _ratfunc._rational_gcd(f.pa, g.pa)
    assert CPoly(ring_, h) * CPoly(ring_, cf) == f
    assert CPoly(ring_, h) * CPoly(ring_, cg) == g
    sf, sg = _sympy_poly(ring_, f.pa), _sympy_poly(ring_, g.pa)
    want = sf.ring.dmp_inner_gcd(sf, sg)[0]  # heuristic, then PRS
    assert _monic(h) == {m: MPQ(c) for m, c in want.monic().items()}


@seed(18)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_RINGS), st.sampled_from(["rational", "repeated", "absent"]),
       st.data())
def test_rational_gcd_matches_sympy(ring_, planted, data):
    """The heuristic gcd over Z, with denominators cleared, against sympy's gcd
    in one to four variables: a planted rational common factor, the same
    factor squared on one side and cubed on the other, or none."""
    f, g = (data.draw(_rational_polys(ring_)) for _ in range(2))
    if planted != "absent":
        h = data.draw(_rational_polys(ring_, max_terms=3, max_degree=2))
        f, g = (f * h, g * h) if planted == "rational" else (f * h**2, g * h**3)
    _check_gcd_against_sympy(ring_, f, g)


def test_rational_gcd_where_sympy_gives_up(monkeypatch):
    """The pair on which sympy's heuristic gcd gives up, times a planted
    factor, by the heuristic gcd and by the PRS fallback."""
    num, den = _heuristic_gives_up_pair()
    ring_ = num.ring
    h = CPoly.variable(ring_, 0) + CPoly.variable(ring_, 3) * CPoly.const(
        ring_, QOmega(MPQ(2, 5)))
    for f, g in [(num, den), (num * h, den * h)]:
        _check_gcd_against_sympy(ring_, f, g)
    monkeypatch.setattr(_ratfunc, "_heugcd", lambda f, g: None)
    _check_gcd_against_sympy(ring_, num * h, den * h)


def _sqf_nth_root(p, n):
    """The n-th root of p by sympy's squarefree split: with p = x^m * core and
    core = c * prod f^k, the f lex-monic, the root is x^(m/n) * c^(1/n) *
    prod f^(k/n), kept when its n-th power is p."""
    ring_ = p.ring
    mins = p.min_degrees()
    if any(e % n for e in mins):
        return None
    core = p.shift_down(mins)
    root = CPoly.one(ring_)
    if not core.is_ground():
        split = _ratfunc._to_sympy(ring_.ngens, core.pa, core.pb).sqf_list()[1]
        for f, k in split:
            if k % n:
                return None
            root = root * CPoly(ring_, *_ratfunc._from_sympy(f)) ** (k // n)
    mon, lc = (root ** n).leading()
    c = QOmega(*(dict(part).get(mon, 0) for part in core.key()))
    c = None if c.is_zero() else qomega_nth_roots(c * lc.inv(), n)
    if c is None:
        return None
    root = root.mul_scalar(c) * CPoly.monomial(ring_, [e // n for e in mins])
    return root if root ** n == p else None


def _nth_root_cases(rng, count):
    """(n, p): powers q^n, also with monomial content or a constant factor
    that is or is not an n-th power, near-powers q^n + t with t inside the
    degree box, and non-powers q^n * f; half with mixed Q(w) coefficients."""
    def coeff(mixed):
        c = QOmega(MPQ(rng.randint(-4, 4), rng.randint(1, 3)),
                   MPQ(rng.randint(-4, 4), rng.randint(1, 3)) if mixed else 0)
        return c if not c.is_zero() else QOmega.one()

    def poly(terms, mixed, top=2, step=1):
        return CPoly.from_terms(R, {tuple(step * rng.randint(0, top) for _ in range(3)):
                                    coeff(mixed) for _ in range(terms)})

    for _ in range(count):
        n = rng.choice([1, 2, 3, 6])
        mixed = rng.random() < 0.5
        p = poly(rng.randint(1, 2 if mixed or n == 6 else 3), mixed) ** n
        kind = rng.choice(["power", "content", "scaled", "near", "non"])
        if kind == "content":
            p = p * CPoly.monomial(R, [rng.randint(0, n) for _ in range(3)])
        elif kind == "scaled":
            c = coeff(mixed)
            p = p.mul_scalar(c ** n if rng.random() < 0.5 else c)
        elif kind == "near":
            p = p + poly(1, mixed, step=n)
        elif kind == "non":
            p = p * poly(2, mixed)
        yield n, p


def test_poly_nth_root_matches_the_squarefree_split():
    """The term-by-term root against the root from sympy's squarefree split,
    on seeded powers and non-powers for n in 1, 2, 3 and 6: the same
    refusals, and found roots literally equal."""
    found = refused = 0
    for n, p in _nth_root_cases(random.Random(25), 200):
        root, want = poly_nth_root(p, n), _sqf_nth_root(p, n)
        if want is None:
            assert root is None, (n, p)
            refused += 1
        else:
            assert root is not None and root.key() == want.key(), (n, p)
            assert repr(root) == repr(want)
            found += 1
    assert found > 50 and refused > 50


@seed(18)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_RINGS[1:]), st.data())
def test_polynomial_printing_matches_sympy(ring_, data):
    """A rational CPoly prints as sympy prints the same polynomial."""
    p = data.draw(_rational_polys(ring_, max_terms=5))
    assert repr(p) == str(_sympy_poly(ring_, p.pa))
    assert repr(CPoly.zero(ring_)) == "0"


_INTS = st.integers(-10**6, 10**6)


@seed(18)
@settings(max_examples=300, deadline=None)
@given(_INTS, st.integers(1, 10**4).flatmap(lambda d: st.sampled_from([d, -d])),
       _INTS, st.integers(1, 10**4), st.integers(-50, 50))
def test_mpq_behaves_as_sympys_python_mpq(p1, q1, p2, q2, k):
    """str, repr, hash, order and arithmetic, with MPQs and with ints, and
    pickling."""
    from sympy.external.pythonmpq import PythonMPQ

    a, b, ra, rb = MPQ(p1, q1), MPQ(p2, q2), PythonMPQ(p1, q1), PythonMPQ(p2, q2)
    for mine, ref in [(a, ra), (b, rb), (-a, -ra), (a + b, ra + rb),
                      (a - b, ra - rb), (a * b, ra * rb), (a + k, ra + k),
                      (k - a, k - ra), (a * k, ra * k), (k * a, k * ra),
                      (a - k, ra - k)] + ([(a / b, ra / rb)] if p2 else []) + (
                          [(a / k, ra / k)] if k else []):
        assert (mine.numerator, mine.denominator) == (ref.numerator, ref.denominator)
        assert (str(mine), repr(mine), hash(mine)) == (str(ref), repr(ref), hash(ref))
        assert bool(mine) == bool(ref)
    assert (a == b, a < b, b < a, a == k, a < k) == (
        ra == rb, ra < rb, rb < ra, ra == k, ra < k)
    assert MPQ(ra) == a and MPQ(k) == k
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


def _cubic_with_roots(roots, rest, scale):
    """scale * prod (t - root) * rest, highest degree first, as MPQs."""
    coeffs = [MPQ(1)]
    for factor in [[MPQ(1), -r] for r in roots] + [rest]:
        out = [MPQ(0)] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, d in enumerate(factor):
                out[i + j] += c * d
        coeffs = out
    return [c * scale for c in coeffs]


_SMALL_Q = st.builds(MPQ, st.integers(-40, 40), st.integers(1, 9))


@seed(18)
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.lists(_SMALL_Q, min_size=k, max_size=k)),
       st.lists(st.integers(-60, 60), min_size=4, max_size=4),
       _RATIONALS)
def test_rational_roots_match_sympy(roots, rest, scale):
    """The rational roots of a cubic, in the order of sympy's ground_roots:
    cubics with 0-3 planted rational roots (repeats included), times a
    random factor for the remaining degree."""
    from sympy import Poly, QQ, Symbol

    coeffs = _cubic_with_roots(roots, [MPQ(c) for c in rest[:4 - len(roots)]], scale)
    if not coeffs[0]:
        coeffs[0] = MPQ(1)
    got = _ratfunc._rational_roots(coeffs)
    poly = Poly([QQ(c.numerator, c.denominator) for c in coeffs], Symbol("t"), domain=QQ)
    assert got == [MPQ(r.p, r.q) for r in poly.ground_roots()]


def test_integer_roots_of_small_cubics():
    """Every monic cubic with coefficients in [-8, 8], against a search of
    all integers within Cauchy's bound: double and triple roots sit on a
    critical point, at the end of a monotone run."""
    box = range(-8, 9)
    for p in box:
        for q in box:
            for r in box:
                bound = 1 + max(abs(p), abs(q), abs(r))
                want = {u for u in range(-bound, bound + 1)
                        if u ** 3 + p * u * u + q * u + r == 0}
                assert _ratfunc._integer_roots(p, q, r) == want, (p, q, r)


@seed(18)
@settings(max_examples=120, deadline=None)
@given(st.builds(lambda a, b, d, e: QOmega(MPQ(a, d), MPQ(b, e)),
                 st.integers(-500, 500), st.integers(-500, 500),
                 st.integers(1, 30), st.integers(1, 30)).filter(
                     lambda z: not z.is_zero()))
def test_cube_and_sixth_roots_of_powers(z):
    """A cube root of z^3, and a sixth root of z^6, for z in Q(w)."""
    for n in (3, 6):
        r = qomega_nth_roots(z ** n, n)
        assert r is not None and r ** n == z ** n
