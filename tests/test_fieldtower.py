"""Tower arithmetic, Galois actions, composites, and the norm-class oracle."""

import importlib.util
import math
import pathlib
import random

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from dp6 import fieldtower, hexagon
from dp6._record import replace
from dp6._ratfunc import (
    MPQ,
    UNITS,
    ZETA_POWERS,
    CPoly,
    QOmega,
    poly_nth_root,
    qomega_nth_roots,
    term_pair,
)
from dp6.fieldtower import (
    CertificateError,
    ExtensionDescriptor,
    FactRegistry,
    FieldElement,
    GaloisTower,
    RadElement,
    TowerError,
    UnsupportedCompositeError,
    VarAutomorphism,
    _root_in_base,
    apply,
    composite_group,
    hilbert90_witness,
    is_fixed,
    norm,
    norm_class,
    represent,
)
from dp6.cli import bundled_path
from dp6.points import composite_for
from dp6.scenario import load_scenario


def vars_of(tower, *names):
    return tuple(tower.var(n) for n in names)


# ---------------------------------------------------------------------------
# coefficient field
# ---------------------------------------------------------------------------

def test_omega_relation():
    w = QOmega.omega()
    assert (w * w + w + QOmega.one()).is_zero()
    assert (w ** 3).is_one()


@given(a=st.integers(-30, 30), b=st.integers(-30, 30))
def test_qomega_inverse(a, b):
    c = QOmega(a, b)
    if c.is_zero():
        return
    assert (c * c.inv()).is_one()


def test_qomega_roots():
    w = QOmega.omega()
    # -3 = (1 + 2w)^2
    r = qomega_nth_roots(QOmega(-3), 2)
    assert r is not None and r * r == QOmega(-3)
    assert qomega_nth_roots(QOmega(2), 2) is None
    r = qomega_nth_roots(w, 2)  # w = (w^2)^2
    assert r is not None and r * r == w
    assert qomega_nth_roots(QOmega(8), 3) == QOmega(2)
    assert qomega_nth_roots(w, 3) is None  # no cube root of w in Q(w)
    r6 = qomega_nth_roots(QOmega(64), 6)
    assert r6 is not None and r6 ** 6 == QOmega(64)


# ---------------------------------------------------------------------------
# apply / norm / fixed
# ---------------------------------------------------------------------------

def test_apply_examples(s3_tower, z6_tower):
    g = s3_tower.element_named("g")
    t1, t2 = vars_of(s3_tower, "t1", "t2")
    assert apply(g, t1) == t2
    h = z6_tower.element_named("h")
    y = z6_tower.var("y")
    assert apply(h, y * y) == y * y
    assert apply(h, y) == -y


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_composition_on_monomials(s3_tower, data):
    names = ["1", "g", "gg", "f", "gf", "fg"]
    u = s3_tower.element_named(data.draw(st.sampled_from(names)))
    v = s3_tower.element_named(data.draw(st.sampled_from(names)))
    exps = data.draw(
        st.tuples(*[st.integers(-2, 2) for _ in range(4)])
    )
    x = s3_tower.monomial(exps)
    assert apply(u, apply(v, x)) == apply(u * v, x)


def _substituted(u, p):
    """u(p) by plain substitution x_i -> zeta^zexp[i] * x_perm[i], no shortcuts."""
    ring = p.ring
    images = [CPoly.variable(ring, u.perm[i]).mul_scalar(ZETA_POWERS[u.zexp[i]])
              for i in range(ring.ngens)]
    out = CPoly.zero(ring)
    # key() lists the rational part's terms, then the w part's
    for part, unit in zip(p.key(), (QOmega.one(), QOmega.omega())):
        for mon, c in part:
            term = CPoly.const(ring, QOmega(c) * unit)
            for img, e in zip(images, mon):
                term = term * img**e
            out = out + term
    return out


#: nonzero coefficients: mixed a + b*w, or rational
_MIXED = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(any).map(
    lambda ab: QOmega(*ab))
_RATIONAL = st.integers(-3, 3).filter(bool).map(QOmega)


@st.composite
def _polys(draw, ring, coeffs=_MIXED):
    """A monomial of degree up to 7 in each variable times a nonzero polynomial
    of 1-2 terms (larger mixed polynomials make the reference gcds of their
    cubes take minutes)."""
    mons = draw(st.lists(st.tuples(*[st.integers(0, 1)] * ring.ngens),
                         min_size=1, max_size=2, unique=True))
    shift = draw(st.tuples(*[st.integers(0, 7)] * ring.ngens))
    terms = {tuple(e + s for e, s in zip(m, shift)): draw(coeffs) for m in mons}
    return CPoly.from_terms(ring, terms)


@st.composite
def _elements(draw, tower, coeffs=_MIXED):
    """A nonzero quotient of two `_polys`."""
    ring = tower.ring
    return FieldElement(tower, draw(_polys(ring, coeffs)),
                        draw(_polys(ring, coeffs)))


@st.composite
def _term_quotients(draw, tower, coeffs=_MIXED):
    """c/d with c and d single terms of degree up to 3 in each variable."""
    ring = tower.ring
    c, d = (CPoly.from_terms(ring, {
        draw(st.tuples(*[st.integers(0, 3)] * ring.ngens)): draw(coeffs)})
        for _ in range(2))
    return FieldElement(tower, c, d)


def _factors(tower):
    """1, a nonzero Q(w) constant, a term quotient, or 0."""
    return st.one_of(
        st.just(tower.one()),
        _MIXED.map(tower.const),
        _term_quotients(tower),
        st.just(tower.zero()),
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_is_field_hom(z6_tower, s3_tower, d6_tower, data):
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    u = data.draw(st.sampled_from(tower.elements))
    x = data.draw(_elements(tower))
    # a term quotient y takes the gcd-free product on both sides
    y = data.draw(st.one_of(_elements(tower), _term_quotients(tower)))
    assert apply(u, x + y) == apply(u, x) + apply(u, y)
    assert apply(u, x * y) == apply(u, x) * apply(u, y)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_norm_is_multiplicative(z6_tower, s3_tower, d6_tower, data):
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    u = data.draw(st.sampled_from(tower.elements))
    x = data.draw(_elements(tower))
    y = data.draw(st.one_of(_elements(tower), _term_quotients(tower)))
    assert norm(u, x * y) == norm(u, x) * norm(u, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_free_paths_match_cancel_pair(z6_tower, s3_tower, d6_tower, data):
    x1, x2 = vars_of(z6_tower, "x1", "x2")
    # the monomial content of a product with a term quotient cancels ...
    assert ((x1 + 1) / x2) * x2 == x1 + 1
    assert x2 / (x2 / (x1 + 1)) == x1 + 1
    # ... and a general product keeps the full gcd
    assert ((x1 + 1) / x2) * (x2 / (x1 + 1)) == 1
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    x = data.draw(_elements(tower))
    u = data.draw(st.one_of(
        st.sampled_from(tower.elements),
        st.builds(VarAutomorphism, st.permutations(range(4)),
                  st.lists(st.sampled_from(UNITS), min_size=4, max_size=4)),
    ))
    full = FieldElement(tower, _substituted(u, x.num), _substituted(u, x.den))
    assert apply(u, x).key() == full.key()
    assert x.inv().key() == FieldElement(tower, x.den, x.num).key()
    k = data.draw(st.integers(-3, 3))
    num, den = (x.num, x.den) if k >= 0 else (x.den, x.num)
    assert (x**k).key() == FieldElement(tower, num**abs(k), den**abs(k)).key()

    def cancelled(num, den):
        return FieldElement(tower, num, den).key()

    m = data.draw(_factors(tower))
    assert (x * m).key() == cancelled(x.num * m.num, x.den * m.den)
    assert (m * x).key() == cancelled(m.num * x.num, m.den * x.den)
    assert (m / x).key() == cancelled(m.num * x.den, m.den * x.num)
    if not m.is_zero():
        assert (x / m).key() == cancelled(x.num * m.den, x.den * m.num)


#: a nonzero rational q, q*w, or (1 + w)*q
_TERM_COEFFS = st.tuples(
    st.fractions(-9, 9, max_denominator=5).filter(bool),
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
).map(lambda qab: QOmega(qab[1][0] * qab[0], qab[1][1] * qab[0]))
_TERM_EXPS = st.tuples(*[st.integers(-4, 4)] * 4)


@st.composite
def _term_by_cancel_pair(draw, tower, e):
    """c*x^e built through cancel_pair: both sides carry a drawn monomial
    content and the denominator a drawn coefficient."""
    ring = tower.ring
    c, d = draw(_TERM_COEFFS), draw(_TERM_COEFFS)
    s = draw(st.tuples(*[st.integers(0, 2)] * 4))
    num = {tuple(max(v, 0) + t for v, t in zip(e, s)): c * d}
    den = {tuple(max(-v, 0) + t for v, t in zip(e, s)): d}
    return FieldElement(tower, CPoly.from_terms(ring, num), CPoly.from_terms(ring, den))


@seed(15)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_term_quotient_arithmetic_matches_cancel_pair(z6_tower, s3_tower, d6_tower, data):
    """Products, quotients and images of term quotients c*x^e, read off
    their exponent vectors, and their inverses and powers equal the general
    route."""
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    e = data.draw(_TERM_EXPS)
    x = data.draw(_term_by_cancel_pair(tower, e))
    # y has the opposite exponents half the time, so that x*y is a constant
    f = data.draw(st.one_of(_TERM_EXPS, st.just(tuple(-v for v in e))))
    y = data.draw(_term_by_cancel_pair(tower, f))

    def cancelled(num, den):
        return FieldElement(tower, num, den).key()

    assert (x * y).key() == cancelled(x.num * y.num, x.den * y.den)
    assert (x / y).key() == cancelled(x.num * y.den, x.den * y.num)
    assert x.inv().key() == cancelled(x.den, x.num)
    assert x * x.inv() == tower.one() and x / x == tower.one()
    k = data.draw(st.integers(-3, 3))
    num, den = (x.num, x.den) if k >= 0 else (x.den, x.num)
    assert (x**k).key() == cancelled(num**abs(k), den**abs(k))
    u = data.draw(st.one_of(
        st.sampled_from(tower.elements),
        st.builds(VarAutomorphism, st.permutations(range(4)),
                  st.lists(st.sampled_from(UNITS), min_size=4, max_size=4)),
    ))
    assert apply(u, x).key() == cancelled(_substituted(u, x.num), _substituted(u, x.den))


@st.composite
def _binomials(draw, ring):
    """A rational polynomial of two or three terms, of degree up to 2 in each
    variable, with no monomial content."""
    mons = draw(st.lists(st.tuples(*[st.integers(0, 2)] * ring.ngens),
                         min_size=2, max_size=3, unique=True))
    p = CPoly.from_terms(ring, {m: draw(_RATIONAL) for m in mons})
    return p.shift_down(p.min_degrees())


@seed(23)
@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["planted", "one-pair", "two-ratios"]))
def test_cross_pairs_match_cancel_pair(z6_tower, s3_tower, d6_tower, data, case):
    """x = t1*d/b times y = t2*b/d, and x over 1/y, is the term t1*t2: the
    product is read off the cross pairs (x.num, y.den) and (y.num, x.den), as
    a term view, and equals the pair cancel_pair gives.  Near misses take the
    product route and give its pair: y's numerator a term multiple of another
    polynomial than b, or of b with one coefficient changed (equal supports,
    two ratios).  A factor 1 gives the other factor, and 1/x the inverse.
    The terms t1, t2 have Q(w) coefficients and exponents of both signs; b
    and d are rational, so that every gcd of the product route is rational."""
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    ring = tower.ring
    b, d = data.draw(_binomials(ring)), data.draw(_binomials(ring))
    t1, t2 = (tower.monomial(data.draw(_TERM_EXPS), data.draw(_TERM_COEFFS))
              for _ in range(2))
    c = t2.num * b
    if case == "one-pair":
        c = t2.num * data.draw(_binomials(ring))
    elif case == "two-ratios":
        m, v = b.leading()
        c = t2.num * (b + CPoly.from_terms(ring, {m: v}))
    x = FieldElement(tower, t1.num * d, t1.den * b)
    y = FieldElement(tower, c, t2.den * d)
    z = FieldElement(tower, y.den, y.num)
    assume(x._term() is None and y._term() is None)
    for got, (num, den) in ((x * y, (x.num * y.num, x.den * y.den)),
                            (y * x, (y.num * x.num, y.den * x.den)),
                            (x / z, (x.num * z.den, x.den * z.num))):
        want = FieldElement(tower, num, den)
        assert type(got._t) is tuple or want._term() is None
        assert got.key() == want.key()
        if case == "planted":
            assert type(got._t) is tuple
        elif case == "two-ratios":
            assert want._term() is None
    one = tower.one()
    for got in (x * one, one * x, x / one):
        assert got.key() == x.key()
    assert (one / x).key() == FieldElement(tower, x.den, x.num).key()


def test_cross_pairs_with_a_w_part_take_the_product_route(z6_tower):
    """A cross pair that would be a term multiple but for w times one term
    on one side: the product is no term and is the pair cancel_pair gives.
    The polynomials are linear, as the Q(w) gcd of larger ones is slow."""
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    w = z6_tower.omega()
    b, d = x1 + 2 * x2, x3 - y
    t1 = z6_tower.monomial((1, -1, 0, 2), QOmega(1, 1))
    t2 = z6_tower.monomial((-2, 0, 1, 0), QOmega(3))
    planted = (t1 * d / b, t2 * b / d)
    for x, y in ((planted[0], t2 * (b + w * x1) / d),
                 (t1 * (d + w * x3) / b, planted[1])):
        got, want = x * y, FieldElement(z6_tower, x.num * y.num, x.den * y.den)
        assert type(got._t) is not tuple and want._term() is None
        assert got.key() == want.key()
    assert type((planted[0] * planted[1])._t) is tuple


def test_term_products_form_no_polynomial_product(monkeypatch, z6_tower, d6_tower):
    """Term quotient times and over a term quotient is read off exponent
    vectors: no CPoly product is formed."""
    w = QOmega.omega()
    cases = [(z6_tower.monomial((2, -1, 0, 3), QOmega(3)),
              z6_tower.monomial((-2, 1, 4, 0), QOmega(1, 1))),
             (d6_tower.monomial((0, 0, -3, 1), w),
              d6_tower.monomial((1, 0, -3, 1), QOmega(-2)))]
    want = [((x * y).key(), (x / y).key()) for x, y in cases]

    def refuse(self, other):
        raise AssertionError("CPoly product formed")

    monkeypatch.setattr(CPoly, "__mul__", refuse)
    assert [((x * y).key(), (x / y).key()) for x, y in cases] == want


def _seeded_terms(tower, rng, count):
    """(c, e) pairs: c a nonzero a + b*w, e in [-3, 3]^n."""
    out = []
    while len(out) < count:
        c = QOmega(MPQ(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
        if not c.is_zero():
            out.append((c, tuple(rng.randint(-3, 3) for _ in tower.variables)))
    return out


def _by_cancel_pair(tower, c, e, rng):
    """c*x^e through cancel_pair, with a random common content s*d on both
    sides, so nothing of the term view is involved."""
    d = QOmega(rng.randint(1, 3), rng.randint(-1, 1))
    s = [rng.randint(0, 2) for _ in e]
    num = {tuple(max(v, 0) + t for v, t in zip(e, s)): c * d}
    den = {tuple(max(-v, 0) + t for v, t in zip(e, s)): d}
    ring = tower.ring
    return FieldElement(tower, CPoly.from_terms(ring, num), CPoly.from_terms(ring, den))


def _random_automorphisms(tower, rng, count):
    """The tower's group and `count` random variable permutations with unit
    scalars, so that apply's zeta factor is exercised."""
    n = len(tower.variables)
    return list(tower.elements) + [
        VarAutomorphism(rng.sample(range(n), n), [rng.choice(UNITS) for _ in range(n)])
        for _ in range(count)]


def test_term_rules_call_neither_pair_term_nor_term_pair(monkeypatch, z6_tower,
                                                         s3_tower, d6_tower):
    """monomial, and *, /, inv, **, apply and == of terms built from their
    view, work on (c, e) alone: neither pair_term nor term_pair is called."""
    rng = random.Random(21)
    towers = (z6_tower, s3_tower, d6_tower)
    data = [(t, _seeded_terms(t, rng, 4), _random_automorphisms(t, rng, 2))
            for t in towers]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("pair_term", "term_pair"):
        monkeypatch.setattr(fieldtower, name, counted(name, getattr(fieldtower, name)))
    results, equal, want_equal = [], [], []
    for tower, terms, autos in data:
        xs = [tower.monomial(e, c) for c, e in terms]
        for x, (c, e) in zip(xs, terms):
            results += [x.inv(), -x] + [x**k for k in range(-2, 4)]
            results += [apply(u, x) for u in autos]
            equal += [x == tower.monomial(e, c), x == -x, x * x.inv() == x / x]
            want_equal += [True, False, True]
            for y, term in zip(xs, terms):
                results += [x * y, x / y]
                equal.append(x == y)
                want_equal.append((c, e) == term)
    assert equal == want_equal and False in equal
    assert calls == []
    assert not any(r.is_zero() for r in results) and calls == []
    # the pairs are filled on first read, through term_pair
    assert all(r.key() for r in results) and set(calls) == {"term_pair"}


@pytest.mark.parametrize("tower_name", ["z6_tower", "s3_tower", "d6_tower"])
def test_term_view_results_equal_the_cancel_pair_route(request, tower_name):
    """Each term-rule result is ==, and has the key and the hash of, the
    element FieldElement(tower, num, den) builds through cancel_pair from
    polynomial arithmetic on the operands' pairs."""
    tower = request.getfixturevalue(tower_name)
    rng = random.Random(tower_name)
    terms = _seeded_terms(tower, rng, 6)
    autos = _random_automorphisms(tower, rng, 4)
    views = [tower.monomial(e, c) for c, e in terms]
    pairs = [_by_cancel_pair(tower, c, e, rng) for c, e in terms]

    def check(got, num, den):
        want = FieldElement(tower, num, den)
        assert got == want and want == got
        assert got.key() == want.key() and hash(got) == hash(want)

    for x, px in zip(views, pairs):
        check(x, px.num, px.den)
        check(-x, -px.num, px.den)
        check(x.inv(), px.den, px.num)
        for k in range(-2, 4):
            num, den = (px.num, px.den) if k >= 0 else (px.den, px.num)
            check(x**k, num**abs(k), den**abs(k))
        for u in autos:
            check(apply(u, x), _substituted(u, px.num), _substituted(u, px.den))
        for y, py in zip(views, pairs):
            check(x * y, px.num * py.num, px.den * py.den)
            check(x / y, px.num * py.den, px.den * py.num)
        assert x.is_one() == (px == tower.one())
        assert (x * x.inv()).is_one() and not (x * x.inv()).is_zero()


def test_term_pair_is_filled_on_first_read(z6_tower, d6_tower):
    """A term built by monomial leaves num/den unset until read; is_zero,
    is_one and negation read the view only; the filled pair is term_pair's."""
    unset = object()

    def slot(x, name):
        try:
            return getattr(FieldElement, name).__get__(x, FieldElement)
        except AttributeError:
            return unset

    cases = [(z6_tower, QOmega(-3, 2), (2, -1, 0, 3)),
             (d6_tower, QOmega(0, MPQ(1, 2)), (0, -2, 1, 0)),
             (d6_tower, QOmega(1), (0, 0, 0, 0)),
             (z6_tower, QOmega(1), (0, 1, 0, -1))]
    for tower, c, e in cases:
        x = tower.monomial(e, c)
        assert not x.is_zero() and x.is_one() == (not any(e) and c.is_one())
        neg = -x
        assert all(slot(y, n) is unset for y in (x, neg) for n in ("num", "den"))
        num, den = term_pair(tower.ring, c, e)
        assert (x.num, x.den) == (num, den) and x.key() == (num.key(), den.key())
        assert slot(x, "num") is x.num and slot(x, "den") is x.den
        assert neg.key() == ((-num).key(), den.key())
    with pytest.raises(AttributeError, match="digits"):
        z6_tower.monomial((1, 0, 0, 0)).digits


def test_non_unit_scalar_refused():
    one, two = QOmega(1), QOmega(2)
    with pytest.raises(TowerError, match="scalar 2 "):
        VarAutomorphism([1, 2, 0, 3], [two, one, two.inv(), one])
    # with unit scalars the same permutation builds an S3 tower
    f = VarAutomorphism([0, 2, 1, 3], [one] * 4)
    g = VarAutomorphism([1, 2, 0, 3], [one] * 4)
    assert GaloisTower(["x1", "x2", "x3", "y"], {"g": g, "f": f}).gtype == "S3"


def test_norm_examples(s3_tower):
    g = s3_tower.element_named("g")
    h = s3_tower.element_named("f")  # any order-2 element fixes the pattern
    t1, t2, t3, s = vars_of(s3_tower, "t1", "t2", "t3", "s")
    assert norm(g, t1) == t1 * t2 * t3
    c = s3_tower.const(QOmega(5))
    assert norm(h, c) == s3_tower.const(QOmega(25))
    # multiplicativity and invariance
    x, y = t1 / t2, (t2 + s) / t3
    assert norm(g, x * y) == norm(g, x) * norm(g, y)
    assert apply(g, norm(g, x)) == norm(g, x)


def test_norm_of_lambda_z_is_s(s3_tower):
    t1, t2, t3, s = vars_of(s3_tower, "t1", "t2", "t3", "s")
    mu = s * (t1 + 1) * (t2 + 1) * (t3 + 1)
    E = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=mu)
    cg = composite_group(s3_tower, E)
    lam = cg.comp.r() / cg.comp.embed(t3 + 1)
    assert norm(cg.generators["g"], lam) == cg.comp.embed(s)


def test_is_fixed(s3_tower):
    g = s3_tower.element_named("g")
    f = s3_tower.element_named("f")
    gf = s3_tower.element_named("gf")
    t1, t2, s = vars_of(s3_tower, "t1", "t2", "s")
    assert is_fixed(s, [g, f])
    assert not is_fixed(t1, [g])
    assert is_fixed(t1 / t2 + t2 / t1, [gf])


# ---------------------------------------------------------------------------
# the tower's memo of group structure
# ---------------------------------------------------------------------------

BENCH_WORKLOADS = (pathlib.Path(__file__).resolve().parent.parent
                   / "bench" / "workloads.py")


def _fresh_towers(source):
    """New tower objects, so each memo starts empty: those of a bundled
    scenario, or the three tower shapes of the benchmark's workloads."""
    if source != "bench":
        return list(load_scenario(bundled_path(source)).towers.values())
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(workloads.build_towers(load_scenario).values())


def _ref_element(tower, word):
    u = VarAutomorphism.identity(len(tower.variables))
    for ch in ("hf" if word == "s" else word).replace("1", ""):
        u = u * tower.generators[ch]
    return u


def _ref_closure(tower, gens):
    """The group generated by gens, grown from the identity to a fixed point."""
    group = {VarAutomorphism.identity(len(tower.variables))}
    while True:
        grown = group | {a * b for a in group for b in gens}
        if grown == group:
            return frozenset(group)
        group = grown


def _ref_verdict(tower, fixing):
    return fixing <= set(tower.elements) and all(
        a * b in fixing for a in fixing for b in fixing)


MEMO_WORDS = ("1", "g", "s", "gf", "ggf", "hg", "gf", "s", "x")


@pytest.mark.parametrize("source", ["example-main", "z6-index2-hex",
                                    "z6-index6", "d6-swap", "bench"])
def test_tower_memo_matches_fresh_computation(source):
    for tower in _fresh_towers(source):
        known = [w for w in MEMO_WORDS
                 if set("hf" if w == "s" else w) <= set(tower.generators) | {"1"}]
        for word in MEMO_WORDS:
            if word in known:
                assert tower.element_named(word) == _ref_element(tower, word)
                assert tower.subgroup([word]) == _ref_closure(
                    tower, [_ref_element(tower, word)])
            else:
                for _ in range(2):  # a raise is never kept as a value
                    with pytest.raises(TowerError, match="unknown generator"):
                        tower.element_named(word)
                    with pytest.raises(TowerError, match="unknown generator"):
                        tower.subgroup(["g", word])
        assert tower.subgroup(known) == _ref_closure(
            tower, [_ref_element(tower, w) for w in known])
        idn = VarAutomorphism.identity(len(tower.variables))
        assert tower.subgroup([]) == frozenset([idn])
        # every subgroup (each is generated by two elements), each with one
        # element added and one taken away: subgroups and non-subgroups in turn
        subgroups = {_ref_closure(tower, [a, b])
                     for a in tower.elements for b in tower.elements}
        for sub in sorted(subgroups, key=len):
            others = [u for u in tower.elements if u not in sub]
            for fixing in [sub] + [sub | {u} for u in others] + [
                    sub - {u} for u in sub if u != idn]:
                want = _ref_verdict(tower, fixing)
                for _ in range(2):
                    if want:
                        ExtensionDescriptor("subfield", tower, fixing=fixing)
                    else:
                        with pytest.raises(TowerError, match="not a subgroup"):
                            ExtensionDescriptor("subfield", tower, fixing=fixing)
                if want:  # the verdict is kept, under the set's own key
                    assert tower.memo(("subgroup?", fixing),
                                      lambda: pytest.fail("not memoised"))


def test_subfield_check_raises_on_every_build(s3_tower):
    ones = [QOmega.one()] * 4
    g = VarAutomorphism([1, 2, 0, 3], ones)
    h = VarAutomorphism([0, 1, 2, 3], ones[:3] + [-QOmega.one()])
    tower = GaloisTower(["x1", "x2", "x3", "y"], {"g": g, "h": h}, name="FZ")
    idn = tower.element_named("1")
    for _ in range(2):
        with pytest.raises(TowerError, match="fixing set is not a subgroup"):
            ExtensionDescriptor("subfield", tower, fixing=frozenset([idn, g]))
    K = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g"]))
    assert K.degree == 2
    for _ in range(2):
        with pytest.raises(TowerError, match="fixing set is not a subgroup"):
            ExtensionDescriptor("subfield", tower, fixing=frozenset([idn, g]))
    # the transposition (t2 t3) of the S3 tower is no element of this Z6
    f = s3_tower.element_named("f")
    for _ in range(2):
        with pytest.raises(TowerError, match="not inside the tower group"):
            ExtensionDescriptor("subfield", tower, fixing=frozenset([idn, f]))


# ---------------------------------------------------------------------------
# composite groups
# ---------------------------------------------------------------------------

def test_composite_orders(s3_tower):
    t1, t2, t3, s = vars_of(s3_tower, "t1", "t2", "t3", "s")
    mu = s * t1 * t2 * t3
    E = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=mu)
    cg = composite_group(s3_tower, E)
    assert cg.order == 6 * 3 and cg.intersection == "k"
    # E inside F: x3-free symmetric radicand that is a cube in F
    cube = (t1 * t2 * t3) ** 3
    E2 = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=cube)
    with pytest.raises(UnsupportedCompositeError):
        composite_group(s3_tower, E2)  # collapses: radicand is a cube in k
    sub = ExtensionDescriptor("subfield", s3_tower,
                              fixing=s3_tower.subgroup(["g"]))
    cg3 = composite_group(s3_tower, sub)
    assert cg3.intersection == "contained" and cg3.order == 6


def test_composite_quadratic_intersection(z6_tower):
    # degree-6 radical whose square root lies in F: r^6 = (x1 x2 x3)^2 * y^2
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    a = (x1 * x2 * x3 * y) ** 2
    E = ExtensionDescriptor("kummer-cubic-with-conjugation", z6_tower,
                            radicand=a)
    cg = composite_group(z6_tower, E)
    assert cg.intersection == "quadratic"
    assert cg.order == 6 * 6 // 2
    # generator list per the composite remark: (g,id), (id,w), (h,t)
    assert cg.generators["g"].zexp == 0
    assert cg.generators["w"].uf.is_identity()
    assert cg.generators["h"].zexp == 3  # h moves the square root


def test_composite_rejects_cubic_intersection(z6_tower):
    x1, x2, x3 = vars_of(z6_tower, "x1", "x2", "x3")
    a = (x1 * x2 * x3) ** 3  # cube root in F (even in k), no square root
    y = z6_tower.var("y")
    a = (x1 + x2 + x3) ** 3 * (y ** 2 + 1) ** 3 / ((x1 * x2 + x1 * x3 + x2 * x3) ** 3)
    E = ExtensionDescriptor("kummer-cubic-with-conjugation", z6_tower, radicand=a)
    with pytest.raises(UnsupportedCompositeError):
        composite_group(z6_tower, E)


def test_same_field_subfield_against_radical(z6_tower):
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    K = ExtensionDescriptor("subfield", z6_tower,
                            fixing=z6_tower.subgroup(["g"]), name="K")
    L = ExtensionDescriptor("subfield", z6_tower,
                            fixing=z6_tower.subgroup(["h"]), name="L")
    # the root y of y^2 lies in F and is fixed by <g>: the field is K
    inside = ExtensionDescriptor("quadratic", z6_tower, radicand=y * y,
                                 name="Ey")
    assert inside.same_field(K) is True and K.same_field(inside) is True
    assert inside.same_field(L) is False and L.same_field(inside) is False
    # a genuine radical is not a subfield of F
    genuine = ExtensionDescriptor("quadratic", z6_tower, radicand=x1 + x2 + x3,
                                  name="Es")
    assert genuine.same_field(K) is False and K.same_field(genuine) is False
    # the label is not part of the field
    assert K.field_id() == ExtensionDescriptor(
        "subfield", z6_tower, fixing=z6_tower.subgroup(["g"]), name="K'").field_id()


def _kummer_verdict(E, F):
    """same_field's answer from Kummer theory alone: a/b^j is an n-th power
    in k for some j prime to n, tested for every such j."""
    n = E.degree
    return any(math.gcd(j, n) == 1
               and _root_in_base(E.tower, E.radicand / F.radicand**j, n)
               for j in range(1, n))


def test_same_field_valuation_test_is_exact(z6_tower, s3_tower, monkeypatch):
    """The valuation and test-point filters in same_field refuse only
    exponents j that the n-th root test refuses too: seeded radicand pairs,
    with a factor that vanishes at the test point (2, 3, 5, 7) among them,
    and planted equal fields a*c^n and a^j*c^n against a, get the
    Kummer-theory verdict.  example-main's distinct radicals, at its own and
    at seeded shifts, are told apart with no cancel_pair."""
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    s1, s3 = x1 + x2 + x3, x1 * x2 * x3
    assert fieldtower._radicand_invariants(s1 - 10)[1] is None
    # elements of k = F^<g,h>, with and without monomial parts
    base = [s1, x1 * x2 + x2 * x3 + x3 * x1, s3, y * y, s1 + 1, s3 + 2,
            s1 * s1 + y * y, s1 - 10, z6_tower.const(QOmega(2)),
            z6_tower.const(QOmega(-3))]
    for kind in ("quadratic", "kummer-cubic"):
        for p, q in [(s1, s1 - 10), (s1 - 10, s1), (s1, 1 / (s1 - 10)),
                     (s1 * (s1 - 10) ** 6, s1)]:
            E = ExtensionDescriptor(kind, z6_tower, radicand=p)
            F = ExtensionDescriptor(kind, z6_tower, radicand=q)
            assert E.same_field(F) is _kummer_verdict(E, F), (kind, p, q)
    rng = random.Random(12)

    def draw(factors, exponents):
        out = z6_tower.one()
        for _ in range(factors):
            out = out * rng.choice(base) ** rng.choice(exponents)
        return out

    verdicts = []
    for kind in ("quadratic", "kummer-cubic", "kummer-cubic-with-conjugation"):
        for _ in range(10):
            a, b = draw(2, (-1, 1)), draw(2, (-1, 1))
            n = ExtensionDescriptor(kind, z6_tower, radicand=a).degree
            c = draw(1, (-1, 1))
            j = rng.choice([j for j in range(1, n) if math.gcd(j, n) == 1])
            for k, (p, q) in enumerate([(a, b), (a * c**n, a), (a**j * c**n, a)]):
                E = ExtensionDescriptor(kind, z6_tower, radicand=p)
                F = ExtensionDescriptor(kind, z6_tower, radicand=q)
                want = _kummer_verdict(E, F)
                assert E.same_field(F) is want, (kind, k, p, q)
                verdicts.append((k, want))
    assert all(want for k, want in verdicts if k)
    assert any(not want for _, want in verdicts)

    t1, t2, t3, s = vars_of(s3_tower, "t1", "t2", "t3", "s")
    shifts = [0, 1, 2, 3] + random.Random(24).sample(range(4, 40), 8)
    exts = [ExtensionDescriptor("kummer-cubic", s3_tower,
                                radicand=s * (t1 + z) * (t2 + z) * (t3 + z))
            for z in shifts]
    calls = []
    counted = fieldtower.cancel_pair
    monkeypatch.setattr(fieldtower, "cancel_pair",
                        lambda *a: calls.append(0) or counted(*a))
    for E in exts:
        for F in exts:
            if E is not F:
                assert E.same_field(F) is False
    assert not calls


def test_same_field_reads_stored_invariants(z6_tower, monkeypatch):
    """Verdicts from the radicand invariants kept in the tower's memo equal
    those of Kummer theory on seeded radicand pairs (planted equal fields
    a*c^n against a, and a^2*c^3 against a for cubics, among them), on
    renamed copies and across two towers declared alike.  Each kept entry
    equals a fresh `_radicand_invariants` of its radicand.  A renamed copy is
    checked again, by a memo lookup that adds no entry.  A descriptor reads
    both sides' invariants on its own tower, so entries of the other tower,
    even corrupted ones, leave its verdict as it was."""
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    s1, s3 = x1 + x2 + x3, x1 * x2 * x3
    base = [s1, x1 * x2 + x2 * x3 + x3 * x1, s3, y * y, s1 + 1, s3 + 2,
            s1 - 10, z6_tower.const(QOmega(2))]
    alike = GaloisTower(z6_tower.variables, dict(z6_tower.generators),
                        name="FZ'")
    assert alike is not z6_tower and alike.field_key() == z6_tower.field_key()
    rng = random.Random(26)

    def draw(factors=2):
        out = z6_tower.one()
        for _ in range(factors):
            out = out * rng.choice(base) ** rng.choice((-1, 1))
        return out

    def fresh(kind, a, tower=z6_tower):
        return ExtensionDescriptor(kind, tower, radicand=represent(a, tower))

    cases = []
    for kind in ("quadratic", "kummer-cubic", "kummer-cubic-with-conjugation"):
        n = fresh(kind, s1).degree
        for _ in range(4):
            a, c = draw(), draw()
            cases += [(kind, a, draw()), (kind, a * c**n, a)]
            if n == 3:  # j = 2 is the one exponent the filters must pass
                p = draw(1)
                cases.append((kind, p * p * draw(1) ** 3, p))

    def kept(tower, a):
        return tower.memo(("invariants", a.key()),
                          lambda: pytest.fail("invariants not kept"))

    verdicts = []
    for _ in range(2):  # the second round reads only kept invariants
        for kind, a, b in cases:
            E, F = fresh(kind, a), fresh(kind, b)
            want = _kummer_verdict(E, F)
            E2 = replace(F, name="E(ind)")
            F2 = fresh(kind, b, alike)
            for x, y_ in ((E, F), (F, E), (E, E2), (E2, E), (E, F2), (F2, E)):
                assert x.same_field(y_) is want, (kind, a, b, x.name, y_.name)
            for tower in (z6_tower, alike):
                for r in (a, b):
                    r = represent(r, tower)
                    assert kept(tower, r) == fieldtower._radicand_invariants(r)
            verdicts.append(want)
    assert any(verdicts) and not all(verdicts)

    E = fresh("quadratic", s1 * s3)
    E.same_field(E)
    entries = dict(z6_tower._memo)
    monkeypatch.setattr(GaloisTower, "in_base_field",
                        lambda *_: pytest.fail("a renamed copy was checked anew"))
    monkeypatch.setattr(fieldtower, "_radicand_invariants",
                        lambda *_: pytest.fail("invariants computed anew"))
    E2 = replace(E, name="E(ind)")
    assert E2.name == "E(ind)" and replace(E2, name=E.name) == E
    assert E2.same_field(E) is True and E.same_field(E2) is True
    assert z6_tower._memo == entries
    monkeypatch.undo()

    # corrupted invariants on the alike tower: a verdict True by Kummer
    # theory would turn False if they were read
    F = fresh("quadratic", s1 * s3 * (s3 + 2) ** 2, alike)
    vals, at = fieldtower._radicand_invariants(F.radicand)
    alike._memo[("invariants", F.radicand.key())] = ([v + 1 for v in vals], at)
    assert E.same_field(F) is True


def test_radicand_check_raises_on_every_build(z6_tower):
    """The verdict of the radicand check is kept in the tower's memo, a
    False one too, so a radicand outside k raises on every build."""
    x1, x2 = vars_of(z6_tower, "x1", "x2")
    tower = GaloisTower(z6_tower.variables, dict(z6_tower.generators))
    for a, ok in ((x1, False), (x1 + x2, False), (tower.const(QOmega(5)), True)):
        a = represent(a, tower)
        for _ in range(2):
            if ok:
                ExtensionDescriptor("quadratic", tower, radicand=a)
            else:
                with pytest.raises(TowerError, match="not fixed by the tower"):
                    ExtensionDescriptor("quadratic", tower, radicand=a)
        assert tower.memo(("in k", a.key()), lambda: pytest.fail("not kept")) is ok


def test_same_field_refuses_by_valuation_first(z6_tower, monkeypatch):
    """Radicands whose quotient has an odd degree, or an odd order at 0, in
    x1 are refused with no n-th root test."""
    from dp6 import fieldtower

    def no_root_test(*_):
        raise AssertionError("the valuation test should have refused")

    monkeypatch.setattr(fieldtower, "_root_in_base", no_root_test)
    x1, x2, x3, _ = vars_of(z6_tower, "x1", "x2", "x3", "y")
    s1 = x1 + x2 + x3
    pairs = [(s1 + 1, s1 * s1 + 1),     # degrees 1 and 2, orders 0
             (x1 * x2 * x3, s1)]        # degrees 1, orders 1 and 0
    for a, b in pairs:
        E, F = (ExtensionDescriptor("quadratic", z6_tower, radicand=c) for c in (a, b))
        assert E.same_field(F) is False and F.same_field(E) is False


def _six_unit_root_in_base(tower, a, n):
    """The root test as it was: some unit multiple of a's n-th root is
    fixed by the tower group."""
    root = a.nth_root(n)
    return root is not None and any(
        is_fixed(root * tower.const(unit), tower.generators.values())
        for unit in UNITS)


@pytest.mark.parametrize("tower_name", ["z6_tower", "s3_tower", "d6_tower"])
def test_root_in_base_tests_one_root(request, tower_name):
    """_root_in_base, which tests one root, agrees with the test of all six
    unit multiples of it, on seeded a = k*(unit*y)^n: y a term plus a
    constant, which the group moves, or the group's trace of a term, which
    it fixes, and k a constant that is or is not an n-th power."""
    tower = request.getfixturevalue(tower_name)
    rng = random.Random(f"root:{tower_name}")
    verdicts = []
    for c, e in _seeded_terms(tower, rng, 12):
        z = tower.monomial(e, c)
        trace = tower.zero()
        for u in tower.elements:
            trace = trace + apply(u, z)
        for y in (z + 1, trace):
            if y.is_zero():
                continue
            n = rng.choice((2, 3) if y is trace else (2, 3, 6))
            k = tower.const(QOmega(rng.choice((1, 2, -3, 4, 8, 64))))
            a = k * (y * tower.const(rng.choice(UNITS))) ** n
            want = _six_unit_root_in_base(tower, a, n)
            assert _root_in_base(tower, a, n) is want, (a, n)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_d6_composite_generator_pairs(d6_tower):
    # degree-6 E with E cap F = F^<g,h>: generators (g,id),(id,w),(h,id),(f,t)
    x1, x2, x3, y = vars_of(d6_tower, "x1", "x2", "x3", "y")
    q = x1 * x2 * x3  # fixed by g and h, moved by... f fixes it too; use y^2-free
    q = y * (x1 - x2) * (x2 - x3) * (x1 - x3)  # h- and f-odd, g-invariant
    assert apply(d6_tower.element_named("g"), q) == q
    assert apply(d6_tower.element_named("h"), q) == -q
    assert apply(d6_tower.element_named("f"), q) == -q
    # q is fixed by s = hf, so k(q) = F^<g,s>... the paper's case u = s
    a = q * q
    E = ExtensionDescriptor("kummer-cubic-with-conjugation", d6_tower, radicand=a)
    cg = composite_group(d6_tower, E)
    assert cg.intersection == "quadratic"
    assert cg.order == 12 * 6 // 2
    assert cg.generators["g"].zexp == 0
    assert cg.generators["h"].zexp == 3
    assert cg.generators["f"].zexp == 3
    assert cg.generators["w"].uf.is_identity()


_RADICAL_CASES = {
    "quadratic": ("quadratic", lambda x1, x2, x3, y: x1 + x2 + x3),
    "kummer-cubic": ("kummer-cubic", lambda x1, x2, x3, y: x1 + x2 + x3),
    "degree-6": ("kummer-cubic-with-conjugation", lambda x1, x2, x3, y: x1 + x2 + x3),
    "quadratic-intersection": ("kummer-cubic-with-conjugation",
                               lambda x1, x2, x3, y: (x1 * x2 * x3 * y) ** 2),
    # the h- and f-odd radicand of test_d6_composite_generator_pairs, squared
    "d6-odd-square": ("kummer-cubic-with-conjugation",
                      lambda x1, x2, x3, y: (y * (x1 - x2) * (x2 - x3) * (x1 - x3)) ** 2),
}


def _radical_composite(tower, case):
    kind, radicand = _RADICAL_CASES[case]
    E = ExtensionDescriptor(kind, tower, radicand=radicand(*vars_of(tower, "x1", "x2", "x3", "y")))
    return composite_group(tower, E)


_COMPOSITE_CASES = [(t, c) for t in ("z6_tower", "d6_tower")
                    for c in ("quadratic", "kummer-cubic", "degree-6", "quadratic-intersection")]
_COMPOSITE_CASES.append(("d6_tower", "d6-odd-square"))


@pytest.mark.parametrize("tower_name,case", _COMPOSITE_CASES)
def test_composite_group_invariants(request, tower_name, case):
    tower = request.getfixturevalue(tower_name)
    cg = _radical_composite(tower, case)
    comp = cg.comp
    # (a) each element sends r to a root of r^m = reduction, compatibly with its F-part
    r = comp.r()
    for u in cg.elements:
        assert apply(u, r) ** comp.rdeg == comp.embed(apply(u.uf, comp.reduction))
    # (b) the generators generate exactly the element list
    idn = cg.elements[0]
    assert idn.is_identity()
    closed = hexagon.closure(idn, cg.generators, type(idn).__mul__, 100)
    assert set(closed) == set(cg.elements)
    assert len(set(cg.elements)) == len(cg.elements) == cg.order


@pytest.mark.parametrize("tower_name,case", _COMPOSITE_CASES)
def test_composite_apply_scales_digits(request, tower_name, case):
    """apply(u, x) scales digit i of u.uf(x) by zeta^(i*zexp): the same keys
    as the product with the constant zeta^(i*zexp), for every element u."""
    tower = request.getfixturevalue(tower_name)
    cg = _radical_composite(tower, case)
    comp = cg.comp
    x1, x2, x3, y = vars_of(tower, "x1", "x2", "x3", "y")
    w = tower.omega()
    # numerators with a zero w-part, a zero rational part, and both parts
    digits = [x1 + 1, w * x2, (x3 + w) / (x1 + x2), y / x1, x2 * x3 - 2,
              (w + 1) * x3 + y][:comp.rdeg]
    xs = [RadElement(comp, digits),
          RadElement(comp, [digits[0], tower.zero()] + digits[2:])]
    for u in cg.elements:
        for x in xs:
            want = [apply(u.uf, d) * tower.const(ZETA_POWERS[i * u.zexp % 6])
                    for i, d in enumerate(x.digits)]
            assert apply(u, x).key() == RadElement(comp, want).key(), u


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["quadratic", "kummer-cubic", "quadratic-intersection"]),
       st.data())
def test_field_times_rad_matches_embedded_product(z6_tower, case, data):
    """c * x for c in F multiplies x digit by digit: the same keys as the
    product with embed(c), on both sides and in quotients."""
    comp = _radical_composite(z6_tower, case).comp
    terms = st.one_of(st.just(z6_tower.zero()), _term_quotients(z6_tower, _RATIONAL))
    x = RadElement(comp, [data.draw(st.one_of(terms, _elements(z6_tower, _RATIONAL)))
                          for _ in range(comp.rdeg)])
    c = data.draw(st.one_of(_factors(z6_tower), _elements(z6_tower, _RATIONAL)))
    e = comp.embed(c)
    assert (c * x).key() == (e * x).key()
    assert (x * c).key() == (x * e).key()
    if not c.is_zero():
        assert (x / c).key() == (x / e).key()
    # term-quotient digits keep the conjugate-product inverse of y small
    y = RadElement(comp, [data.draw(terms) for _ in range(comp.rdeg)])
    if not y.is_zero():
        assert (c / y).key() == (e / y).key()


#: keys of the six roots of unity in Q(w), printed as (rational part, w part)
_ZK = {"1": ("1", "0"), "w": ("0", "1"), "w2": ("-1", "-1"),
       "-1": ("-1", "0"), "-w": ("0", "-1"), "-w2": ("1", "1")}


def _pinned(rows):
    return [(word, _ZK[z]) for word, zs in rows for z in zs.split()]


_PINNED_ELEMENTS = {
    "degree-6": _pinned([(word, "1 w w2 -1 -w -w2")
                         for word in ("1", "g", "h", "gh", "ggh", "hggh")]),
    "quadratic-intersection": _pinned([
        ("1", "1 w w2"), ("g", "1 w w2"), ("h", "-1 -w -w2"), ("gh", "-1 -w -w2"),
        ("ggh", "-1 -w -w2"), ("hggh", "1 w w2"),
    ]),
}


@pytest.mark.parametrize("case", sorted(_PINNED_ELEMENTS))
def test_composite_element_order_pinned(z6_tower, case):
    cg = _radical_composite(z6_tower, case)
    got = [("".join(z6_tower.words[u.uf]) or "1", u.key()[1]) for u in cg.elements]
    assert got == _PINNED_ELEMENTS[case]


def test_group_element_keys_pinned(z6_tower):
    ones = (("1", "0"),) * 3
    h = z6_tower.element_named("h")
    assert h.key() == ((0, 1, 2, 3), ones + (("-1", "0"),))
    idn_key = ((0, 1, 2, 3), ones + (("1", "0"),))
    deg6 = _radical_composite(z6_tower, "degree-6")
    zeta = deg6.comp.element(z6_tower.element_named("1"), 1)  # r -> -w^2 * r
    assert zeta in deg6.elements and zeta.key() == (idn_key, ("1", "1"))
    quad = _radical_composite(z6_tower, "quadratic-intersection")
    assert quad.generators["h"].key() == (h.key(), ("-1", "0"))


@pytest.mark.parametrize("case", ["degree-6", "quadratic-intersection"])
def test_group_element_eq_matches_key(d6_tower, case):
    elements = _radical_composite(d6_tower, case).elements
    # rebuilt copies, so equality is not object identity
    copies = [e * elements[0] for e in elements]
    for u in elements:
        for v in copies:
            assert (u == v) == (u.key() == v.key())
            if u == v:
                assert hash(u) == hash(v)
    tower_elements = d6_tower.elements
    for u in tower_elements:
        for v in (w * d6_tower.element_named("1") for w in tower_elements):
            assert (u == v) == (u.key() == v.key())
            if u == v:
                assert hash(u) == hash(v)


def _assert_eq_matches_key(values):
    for a in values:
        for b in values:
            assert (a == b) == (a.key() == b.key())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_element_eq_matches_key(z6_tower, s3_tower, d6_tower, data):
    """Equal values reached by different routes have one key, and unequal
    values different keys: equality compares canonical forms literally."""
    tower = data.draw(st.sampled_from([z6_tower, s3_tower, d6_tower]))
    u = data.draw(st.sampled_from(tower.elements))
    x = data.draw(_elements(tower, _RATIONAL))
    y = data.draw(st.one_of(_elements(tower, _RATIONAL),
                            _term_quotients(tower, _RATIONAL)))
    routes = [x, x * y / y, (x + y) - y, (x.inv() * y).inv() * y,
              (x.inv() * y / y).inv(), apply(u.inverse(), apply(u, x))]
    assert all(r == x for r in routes)
    _assert_eq_matches_key(routes + [y, x + 1, x * 2, apply(u, x)])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["quadratic", "kummer-cubic", "quadratic-intersection"]),
       st.data())
def test_rad_element_eq_matches_key(z6_tower, case, data):
    cg = _radical_composite(z6_tower, case)
    comp = cg.comp
    u = data.draw(st.sampled_from(cg.elements))
    digits = st.one_of(st.just(z6_tower.zero()),
                       _term_quotients(z6_tower, _RATIONAL))
    x, y = (RadElement(comp, [data.draw(digits) for _ in range(comp.rdeg)])
            for _ in range(2))
    routes = [x, (x + y) - y, apply(u.inverse(), apply(u, x))]
    if not y.is_zero():
        routes.append(x * y / y)
    assert all(r == x for r in routes)
    _assert_eq_matches_key(routes + [y, x + 1, x * comp.r(), apply(u, x)])


@pytest.mark.parametrize("case,intersection,rdeg", [
    ("quadratic", "k", 2),
    ("kummer-cubic", "k", 3),
    ("degree-6", "k", 6),
    ("quadratic-intersection", "quadratic", 3),
], ids=["quadratic", "kummer-cubic", "degree-6", "quadratic-intersection"])
def test_rad_inverse_multi_digit(z6_tower, case, intersection, rdeg):
    xs = vars_of(z6_tower, "x1", "x2", "x3", "y")
    cg = _radical_composite(z6_tower, case)
    comp = cg.comp
    assert (cg.intersection, comp.rdeg) == (intersection, rdeg)
    # more than one nonzero digit, so the conjugate-product branch runs
    x = RadElement(comp, [xs[0], z6_tower.one(), xs[3]][:rdeg])
    assert x * x.inv() == comp.one()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["quadratic", "kummer-cubic", "quadratic-intersection"]),
       st.data())
def test_rad_product_matches_digitwise_sum(z6_tower, case, data):
    """The product over one denominator per side equals the sum of the digit
    products, r^m reduced to red, in FieldElement arithmetic."""
    comp = _radical_composite(z6_tower, case).comp
    m = comp.rdeg
    digits = st.one_of(st.just(z6_tower.zero()), _term_quotients(z6_tower),
                       _elements(z6_tower))
    x, y = (RadElement(comp, [data.draw(digits) for _ in range(m)])
            for _ in range(2))
    want = [z6_tower.zero()] * m
    for i, a in enumerate(x.digits):
        for j, b in enumerate(y.digits):
            t = a * b
            if i + j >= m:
                t = t * comp.reduction
            want[(i + j) % m] = want[(i + j) % m] + t
    assert (x * y).digits == tuple(want)


def test_rad_product_cancels_large_digits(z6_tower):
    """x * x^-1 on the degree-6 composite: x^-1 has digits of up to 172 terms
    over one denominator, which divides the digit sums exactly."""
    x1, x2, x3, _ = vars_of(z6_tower, "x1", "x2", "x3", "y")
    comp = _radical_composite(z6_tower, "degree-6").comp
    x = RadElement(comp, [x1, x2 + 1, x3 + 2, x1 + 3, x2 + 4, x3 + 5])
    assert x * x.inv() == comp.one()


@pytest.mark.parametrize("tower_name,case", _COMPOSITE_CASES)
def test_rad_inverse_of_general_digits(request, tower_name, case):
    """x * x^-1 = 1 for seeded random x whose nonzero digits are quotients
    of linear polynomials with rational coefficients, some denominators
    times a monomial, on every composite kind.  Mixed coefficients would
    reach the slow Q(w) gcd.  On the
    degree-6 composites two of the six digits are nonzero: the conjugate
    products of more general digits run for minutes."""
    tower = request.getfixturevalue(tower_name)
    comp = _radical_composite(tower, case).comp
    rng = random.Random(f"{tower_name}:{case}")
    xs = [tower.var(v) for v in tower.variables]

    def linear():
        a, b = (tower.const(QOmega(MPQ(rng.choice([-3, -2, -1, 1, 2, 3]),
                                       rng.randint(1, 3)))) for _ in range(2))
        return a + b * rng.choice(xs)

    for _ in range(3):
        digits = [tower.zero()] * comp.rdeg
        for i in rng.sample(range(comp.rdeg), 2 if comp.rdeg == 6 else comp.rdeg):
            digits[i] = linear() / (linear() * rng.choice(xs) ** rng.randint(0, 2))
        x = RadElement(comp, digits)
        assert x * x.inv() == comp.one()


def test_power_is_repeated_product(z6_tower):
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    w = z6_tower.omega()
    E = ExtensionDescriptor("kummer-cubic", z6_tower, radicand=x1 + x2 + x3)
    comp = composite_group(z6_tower, E).comp
    cases = [
        (QOmega(2, -3), QOmega.one()),
        ((x1 + w * y).num, CPoly.one(z6_tower.ring)),
        ((x1 + w) / (y - 1), z6_tower.one()),
        (comp.embed(x1) + comp.r() * y, comp.one()),
    ]
    for x, one in cases:
        prod = one
        for k in range(7):
            assert (x**k).key() == prod.key(), (type(x).__name__, k)
            prod = prod * x


# ---------------------------------------------------------------------------
# the norm-class oracle
# ---------------------------------------------------------------------------

def test_s_is_not_a_g_norm(s3_tower):
    g = s3_tower.element_named("g")
    fact = norm_class(s3_tower.var("s"), g)
    assert fact.verdict == "NotNorm"
    assert fact.provenance == "valuation-proof"
    assert fact.detail[0] == "s"


def test_orbit_product_is_norm(z6_tower):
    g = z6_tower.element_named("g")
    x1, x2, x3 = vars_of(z6_tower, "x1", "x2", "x3")
    fact = norm_class(x1 * x2 * x3, g, cert=x1)
    assert fact.verdict == "IsNorm"
    fact2 = norm_class(x1 * x2 * x3, g)  # found without a certificate
    assert fact2.verdict == "IsNorm"


def test_power_of_a_fixed_element_is_its_norm(z6_tower):
    """x = y^n with u(y) = y is Norm_u(y), for a non-term y too; a y that u
    moves gives no such certificate."""
    g, h = z6_tower.element_named("g"), z6_tower.element_named("h")
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    for u, n, root in ((g, 3, x1 + x2 + x3 + 1), (h, 2, x1 + 1), (h, 2, x1 / (x2 + 3))):
        fact = norm_class(root**n, u)
        assert (fact.verdict, fact.provenance) == ("IsNorm", "certificate")
        assert fact.witness == root and norm(u, fact.witness) == root**n
    assert norm_class((x1 + 1) ** 3, g).verdict == "Unknown"


def test_residue_proof(z6_tower):
    # independent square detection first: x1*x2 is squarefree of degree 2,
    # hence not a square in the residue polynomial ring
    x1, x2 = vars_of(z6_tower, "x1", "x2")
    assert poly_nth_root((x1 * x2).num, 2) is None
    assert poly_nth_root(((x1 * x2) ** 2).num, 2) is not None
    h = z6_tower.element_named("h")
    fact = norm_class(x1 / x2, h)
    assert fact.verdict == "NotNorm"
    assert fact.provenance == "residue-proof"
    # sanity: actual h-norms pass through to Unknown or IsNorm, never NotNorm
    y = z6_tower.var("y")
    val = norm(h, x1 + y)
    fact2 = norm_class(val, h, cert=x1 + y)
    assert fact2.verdict == "IsNorm"
    fact3 = norm_class(val, h)
    assert fact3.verdict in ("IsNorm", "Unknown")


def test_bad_certificate_is_an_error(z6_tower):
    g = z6_tower.element_named("g")
    x1 = z6_tower.var("x1")
    with pytest.raises(CertificateError):
        norm_class(x1 * x1, g, cert=x1)


def test_registry_consistency(z6_tower):
    g = z6_tower.element_named("g")
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    reg = FactRegistry()
    fact = norm_class(y, g, registry=reg)  # deg_y = 1 not divisible by 3
    assert fact.verdict == "NotNorm"
    # an assumed fact never overrides a proven one
    reg.assume(y, g, "IsNorm", note="wrong")
    again = norm_class(y, g, registry=reg)
    assert again.verdict == "NotNorm" and not again.assumed


def test_a_second_certificate_keeps_the_first_fact(z6_tower):
    """x1*x2*x3 is the g-norm of x1 and of x2 alike; the registry keeps the
    first proven fact, so its witness stays x1."""
    g = z6_tower.element_named("g")
    x1, x2, x3 = vars_of(z6_tower, "x1", "x2", "x3")
    reg = FactRegistry()
    first = norm_class(x1 * x2 * x3, g, cert=x1, registry=reg)
    second = norm_class(x1 * x2 * x3, g, cert=x2, registry=reg)
    assert second is first and second.witness == x1
    assert reg.lookup(x1 * x2 * x3, g) is first


def test_assumed_fact_upgrades_unknown(z6_tower):
    h = z6_tower.element_named("h")
    x1, x2, x3, y = vars_of(z6_tower, "x1", "x2", "x3", "y")
    subtle = (x1 + x2 + y) / (x1 + x2 - y)
    reg = FactRegistry()
    plain = norm_class(subtle, h, registry=reg)
    assert plain.verdict == "Unknown"
    reg.assume(subtle, h, "NotNorm", note="assertion")
    upgraded = norm_class(subtle, h, registry=reg)
    assert upgraded.verdict == "NotNorm" and upgraded.assumed


@pytest.mark.parametrize("verdict", ["bogus", None, 5, [], "NotNorm "])
def test_fact_refuses_a_foreign_verdict(z6_tower, verdict):
    g = z6_tower.element_named("g")
    with pytest.raises(TowerError, match="not a norm-class verdict"):
        FactRegistry().assume(z6_tower.var("y"), g, verdict)


@pytest.mark.parametrize("names,gtype", [
    (("g", "h"), "Z6"), (("g", "f"), "S3"), (("g", "h", "f"), "D6")])
def test_generator_set_gives_group_type(d6_tower, names, gtype):
    gens = {n: d6_tower.generators[n] for n in names}
    tower = GaloisTower(d6_tower.variables, gens)
    assert tower.gtype == gtype
    assert set(tower.presentation["gens"]) == set(names)


def test_unsupported_generator_set(d6_tower):
    gens = {n: d6_tower.generators[n] for n in ("h", "f")}
    with pytest.raises(TowerError, match=r"unsupported generator set \['f', 'h'\]"):
        GaloisTower(d6_tower.variables, gens)


@pytest.mark.parametrize("perm", [(1, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, -1),
                                  (1, 2)])
def test_automorphism_perm_must_be_a_permutation(perm):
    """A perm that is not a bijection of the variables is refused when the
    automorphism is made, not later by the order bound."""
    with pytest.raises(TowerError, match="is not a permutation of the variables"):
        VarAutomorphism(perm, [QOmega.one()] * len(perm))
    assert VarAutomorphism((1, 2, 0, 3), [QOmega.one()] * 4).perm == (1, 2, 0, 3)


@pytest.mark.parametrize("tower_name", ["z6_tower", "s3_tower", "d6_tower"])
def test_tower_key_is_derived_once(request, tower_name):
    """The key built with the tower equals the formula on its generators:
    variables, sorted generator keys, and each generator's image in D6."""
    tower = request.getfixturevalue(tower_name)
    emb = tuple(sorted((n, tower.embed_map[tower.element_named(n)])
                       for n in tower.generators))
    gens = tuple(sorted((n, u.key()) for n, u in tower.generators.items()))
    assert tower.key() == (tower.variables, gens, emb)
    assert tower.key() is tower.key()


def test_var_and_const_are_canonical(monkeypatch, z6_tower):
    """x/1 and c/1 are built as they are: the same keys as through
    cancel_pair, and no call to it."""
    ring = z6_tower.ring
    consts = [QOmega(0), QOmega(1), QOmega(-1), QOmega.omega()]
    want = [FieldElement(z6_tower, CPoly.const(ring, c), CPoly.one(ring)).key()
            for c in consts]
    want += [FieldElement(z6_tower, CPoly.variable(ring, i), CPoly.one(ring)).key()
             for i in range(len(z6_tower.variables))]

    def refuse(num, den):
        raise AssertionError("cancel_pair called")

    monkeypatch.setattr(fieldtower, "cancel_pair", refuse)
    got = [z6_tower.const(c).key() for c in consts]
    got += [z6_tower.var(v).key() for v in z6_tower.variables]
    assert got == want
    for x in (z6_tower.zero(), z6_tower.one(), z6_tower.omega()):
        assert x.key() in want


# ---------------------------------------------------------------------------
# Hilbert 90
# ---------------------------------------------------------------------------

def test_hilbert90_basic(z6_tower):
    g = z6_tower.element_named("g")
    x1, x2, x3 = vars_of(z6_tower, "x1", "x2", "x3")
    mu = hilbert90_witness(x1 / x2, g)
    assert mu is not None and mu / apply(g, mu) == x1 / x2
    one = z6_tower.one()
    assert hilbert90_witness(one, g) is not None
    assert hilbert90_witness((x1 + x2) / (x2 + x3), g) is None
    with pytest.raises(TowerError):
        hilbert90_witness(x1, g)  # norm is not 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hilbert90_property(z6_tower, data):
    g = z6_tower.element_named("g")
    exps = data.draw(st.tuples(*[st.integers(-2, 2) for _ in range(4)]))
    mu0 = z6_tower.monomial(exps)
    lam = mu0 / apply(g, mu0)
    found = hilbert90_witness(lam, g)
    assert found is not None
    assert found / apply(g, found) == lam


def test_d6_composite_u_is_h(d6_tower):
    # E cap F = F^<g,h>: generator pairs (g,id), (id,w), (h,id), (f,t)
    x1, x2, x3 = (d6_tower.var(v) for v in ("x1", "x2", "x3"))
    q = (x1 - x2) * (x2 - x3) * (x1 - x3)
    assert apply(d6_tower.element_named("g"), q) == q
    assert apply(d6_tower.element_named("h"), q) == q
    assert apply(d6_tower.element_named("f"), q) == -q
    E = ExtensionDescriptor("kummer-cubic-with-conjugation", d6_tower,
                            radicand=q * q)
    cg = composite_group(d6_tower, E)
    assert cg.intersection == "quadratic" and cg.order == 36
    assert cg.generators["g"].zexp == 0
    assert cg.generators["h"].zexp == 0
    assert cg.generators["f"].zexp == 3
    assert cg.generators["w"].uf.is_identity()
