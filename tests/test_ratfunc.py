"""Canonical forms and power detection in the polynomial layer."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st
from sympy.polys.domains import QQ

from dp6 import _ratfunc
from dp6._ratfunc import (
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
)
from dp6.fieldtower import apply
from dp6.surface import make_surface

R = rational_ring(("x", "y", "z"))


def _x(i):
    return CPoly.variable(R, i)


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
    assert n == c(QQ(3, 4)) * x * y * y and d == x + c(QQ(1, 2)) * z
    # a single term with a mixed coefficient, on either side
    assert (c(1, 1) * x).is_term() and not (x + c(0, 1) * y).is_term()
    n, d = cancel_pair(c(1, 1) * x, x + y)
    assert n == c(1, 1) * x and d == x + y
    n, d = cancel_pair(x + y, c(1, 1) * x)  # (1 + w)^-1 = -w
    assert n == c(0, -1) * (x + y) and d == x


def test_cancel_where_the_heuristic_gcd_gives_up():
    """sympy's sparse heuristic gcd raises HeuristicGCDFailed on this coprime
    pair; cancel_pair falls back to the PRS gcd and keeps the pair."""
    S = rational_ring(("t1", "t2", "t3", "s"))
    t1, t2, t3, s = S.gens
    num = CPoly(S, QQ(4, 9) * t3**10 * s**6 * (t3 + 1)**2)
    den = CPoly(S, t1**8 * t2**8 * (t1 + QQ(1, 3)) * (t2 + QQ(1, 3)))
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
    g = _ratfunc._rational_gcd(num.pa, den.pa)
    return monic_pair(CPoly(num.ring, num.pa.quo(g)), CPoly(num.ring, den.pa.quo(g)))


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
    g = CPoly.from_terms(R, {m: QOmega(QQ(c.numerator, c.denominator))
                             for m, c in g_terms.items()})
    g = g.shift_down(g.min_degrees())
    num = CPoly.from_terms(R, {a: QOmega(QQ(q.numerator, q.denominator))}) * g
    den = CPoly.monomial(R, b) * g
    assert _key(cancel_pair(num, den)) == _key(_gcd_route(num, den))
    if len(g.pa) > 1:
        assert _ratfunc._term_quotient(*strip_monomial_content(num, den)) is not None


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
    assert _ratfunc._term_quotient(num, den) is None
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
    assert _ratfunc._term_quotient(num, den) is None
    n, d = cancel_pair(num, den)
    assert n * den == num * d


def test_cocycle_poly_surface_takes_no_gcd(monkeypatch, z6_tower):
    """A valid Z6 surface with xi = c/h(c), c a g-orbit sum: every relator
    of the cocycle check ends in a term multiple, so no gcd is taken."""
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    g, h = z6_tower.element_named("g"), z6_tower.element_named("h")
    base = x1 * y * 2 + x2 * 3
    c = base + apply(g, base) + apply(g * g, base)
    xi = c / apply(h, c)
    calls = _count_gcds(monkeypatch)
    make_surface("Z6", z6_tower, xi, x1 / x2)
    assert calls == []


# the two sides of the slow mixed pair of ROADMAP item 1, as pa + w*pb
_S = rational_ring(("x1", "x2", "x3", "y"))
_s1, _s2, _s3, _sy = _S.gens
_MIXED_NUM = CPoly(_S, QQ(10, 7) * _s1 * _s2**2 * _sy**2 - _s2**2 * _sy**3,
                   QQ(2, 7) * _s1 * _s2**2 * _sy**2 - _s2**2 * _sy**3)
_MIXED_DEN = CPoly(_S, _s1**4 * _s3**4 - QQ(10, 7) * _s1**3 * _s3**3,
                   -QQ(2, 7) * _s1**3 * _s3**3)


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


def test_import_does_not_build_the_algebraic_domain():
    """The Q(w) domain of the mixed gcds is built on first use: evaluating
    its expression at import would load sympy's tensor modules."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, dp6, dp6.cli; print('sympy.tensor.tensor' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout == "False\n"


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
    k < n makes var's degree in the core prime to n, and the degree test
    refuses it before any squarefree split."""
    q = CPoly.from_terms(R, {m: QOmega(c) for m, c in terms.items()})
    p = q ** n * CPoly.const(R, QOmega(d) ** n)
    root = poly_nth_root(p, n)
    assert root is not None and root ** n == p
    k = min(k, n - 1)
    bump = CPoly.one(R) + CPoly.from_terms(R, {tuple(
        k if i == var else 0 for i in range(3)): QOmega.one()})
    assert poly_nth_root(p * bump, n) is None


_MIXED = st.builds(lambda a, b, d: QOmega(QQ(a, d), QQ(b, d)), st.integers(-6, 6),
                   st.integers(-6, 6).filter(bool), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_MIXED, _MIXED, st.sampled_from([2, 3]), st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=2, unique=True))
def test_mixed_roots_roundtrip(c, c2, k, monoms):
    """Roots with a w-part: the cube root of c^3 for c = a + b*w, b != 0 (the
    rational roots of a cubic), and the k-th root of p^k for p of one or two
    terms with such coefficients (a squarefree split over Q(w) when p has
    two terms)."""
    cube = c ** 3
    r = qomega_nth_roots(cube, 3)
    assert r is not None and r ** 3 == cube
    p = CPoly.from_terms(R, dict(zip(monoms, (c, c2))))
    root = poly_nth_root(p ** k, k)
    assert root is not None and root ** k == p ** k


def test_poly_nth_root_degree_test_comes_first(monkeypatch):
    """A core whose degree in some variable is prime to n never reaches the
    squarefree split, over Q or over Q(w)."""
    x, y = _x(0), _x(1)
    w = CPoly.const(R, QOmega.omega())
    rational = (x + y) ** 2 * (x + CPoly.one(R))   # x-degree 3
    mixed = (x + w * y) ** 2 * (y + w)             # y-degree 3
    assert poly_nth_root(rational, 2) is None
    assert poly_nth_root(mixed, 2) is None

    def refused(*_):
        raise AssertionError("squarefree split reached")

    monkeypatch.setattr(type(rational.pa), "sqf_list", refused)
    monkeypatch.setattr(CPoly, "to_algebraic", refused)
    assert poly_nth_root(rational, 2) is None
    assert poly_nth_root(mixed, 2) is None
    assert poly_nth_root(x * x * y ** 3, 3) is None  # min degrees, as before


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


_Q = st.fractions(-9, 9, max_denominator=7).map(lambda f: QQ(f.numerator, f.denominator))


@seed(15)
@settings(max_examples=150, deadline=None)
@given(_Q, _Q, _Q, st.one_of(st.just(QQ.zero), _Q))
def test_qomega_rational_case_matches_general_formula(a1, a2, b1, b2):
    """The b = 0 products and inverses equal (a1 + b1 w)(a2 + b2 w) with
    w^2 = -1 - w and the conjugate over the norm, in value and in type;
    the draws cover rational times rational, rational times mixed and
    mixed times mixed."""
    def same(got, a, b):
        assert (got.a, got.b) == (a, b)
        assert type(got.a) is type(got.b) is QQ.dtype

    for u, v in [(QOmega(a1), QOmega(a2)), (QOmega(a1), QOmega(b1, b2)),
                 (QOmega(b1, b2), QOmega(a2)), (QOmega(a1, b1), QOmega(a2, b2))]:
        same(u * v, u.a * v.a - u.b * v.b, u.a * v.b + u.b * v.a - u.b * v.b)
        if not u.is_zero():
            n = u.a * u.a - u.a * u.b + u.b * u.b
            same(u.inv(), (u.a - u.b) / n, -u.b / n)


_TERM_E = st.tuples(*[st.integers(-4, 4)] * 3)


@seed(15)
@settings(max_examples=100, deadline=None)
@given(_TERM_E, _Q.filter(bool), st.one_of(st.just(QQ.zero), _Q),
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
