"""Exact arithmetic helpers: the coefficient field Q(w) and sparse polynomials.

The coefficient field is Q adjoined a primitive cube root of unity w, with
w^2 = -1 - w.  Polynomials over it are stored as a pair of sympy sparse
polynomials over QQ (the "1" part and the "w" part); almost all data in
practice has a zero w-part, which keeps gcd and multiplication in the fast
rational path.  The algebraic-field ring is only consulted for gcds and
squarefree splits of genuinely mixed polynomials.

`cancel_pair` makes a fraction canonical by its gcd; `term_pair` builds the
canonical pair of a term quotient c*x^e straight from c and the exponent
vector e, with no product and no gcd, and `pair_term` reads c and e back.

This is the only module that knows how a polynomial is stored and the only
one that imports sympy; each sympy algorithm sits behind one function here.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from sympy.polys.domains import QQ
from sympy.polys.euclidtools import dmp_ff_prs_gcd
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import ring as _sympy_ring

_QQ_TYPE = QQ.dtype


def power(x, k, one):
    """x**k for an integer k >= 0 by square-and-multiply.

    `one` is the result at k = 0.  Otherwise no product with `one` is formed
    and x is squared only up to the top bit of k, so x**1 is x itself.
    """
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


class QOmega:
    """Element a + b*w of Q(w), with a, b rational (sympy QQ ground type)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        # arithmetic hands over QQ values already; only convert other types
        self.a = a if type(a) is _QQ_TYPE else QQ.convert(a)
        if b is None:
            self.b = QQ.zero
        else:
            self.b = b if type(b) is _QQ_TYPE else QQ.convert(b)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def omega():
        return _OMEGA

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return not self.a and not self.b

    def is_one(self):
        return self.a == QQ.one and not self.b

    def is_rational(self):
        return not self.b

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return QOmega(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return QOmega(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QOmega(-self.a, -self.b)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1 and not b2:
            return QOmega(a1 * a2)
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        return QOmega(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def conj(self):
        # w -> w^2 = -1 - w
        return QOmega(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inv(self):
        if not self.b and self.a:
            return QOmega(QQ.one / self.a)
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return QOmega(c.a / n, c.b / n)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, _ONE)

    def __eq__(self, other):
        return isinstance(other, QOmega) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*w" if self.b != QQ.one else "w"
        return f"{self.a}+{self.b}*w"

    def key(self):
        return (str(self.a), str(self.b))


_ZERO = QOmega(0)
_ONE = QOmega(1)
_OMEGA = QOmega(0, 1)

#: the six roots of unity of Q(w): (+/-1) * w^j
UNITS = tuple(
    QOmega(s, 0) * _OMEGA**j for s in (1, -1) for j in range(3)
)

#: zeta = -w^2 = 1 + w generates the six roots of unity of Q(w)
ZETA_POWERS = tuple((-_OMEGA ** 2) ** t for t in range(6))
ZETA_EXPONENT = {z: t for t, z in enumerate(ZETA_POWERS)}
#: the key printed for zeta^t
ZETA_KEYS = tuple(z.key() for z in ZETA_POWERS)
#: the exponents of UNITS, in UNITS order
UNIT_EXPONENTS = tuple(ZETA_EXPONENT[z] for z in UNITS)


def monomial_image(perm, zexp, e):
    """(e', t): x^e maps to zeta^t * x^e' under x_i -> zeta^zexp[i] * x_perm[i].

    e' is e permuted, e'[perm[i]] = e[i], and t = sum of zexp[i] * e[i] mod 6,
    for negative e[i] too.
    """
    img = [0] * len(e)
    t = 0
    for i, v in enumerate(e):
        img[perm[i]] = v
        t += zexp[i] * v
    return tuple(img), t % 6


def unit_from_str(text):
    """Parse unit strings used in tower descriptions: 1, -1, w, w^2, -w, -w^2."""
    t = text.strip().replace(" ", "")
    table = {
        "1": _ONE, "-1": -_ONE,
        "w": _OMEGA, "-w": -_OMEGA,
        "w^2": _OMEGA * _OMEGA, "-w^2": -(_OMEGA * _OMEGA),
        "w2": _OMEGA * _OMEGA, "-w2": -(_OMEGA * _OMEGA),
    }
    if t not in table:
        raise ValueError(f"not a recognized root-of-unity scale: {text!r}")
    return table[t]


@lru_cache(maxsize=None)
def rational_ring(names):
    """The shared sparse QQ-ring on the given variable names."""
    R = _sympy_ring(" ".join(names), QQ)[0]
    return R


@lru_cache(maxsize=None)
def algebraic_ring(names):
    """Companion ring over QQ(w), used only for mixed-coefficient gcds.

    The expression for w is built here, not at import: evaluating it loads
    sympy's tensor and combinatorics modules, which nothing else needs.
    """
    from sympy import I, Rational, sqrt
    dom = QQ.algebraic_field(Rational(-1, 2) + sqrt(3) * I / 2)
    R = _sympy_ring(" ".join(names), dom)[0]
    return R


class CPoly:
    """Polynomial over Q(w): pair (pa, pb) of QQ-ring polynomials, pa + w*pb."""

    __slots__ = ("ring", "pa", "pb")

    def __init__(self, ring_, pa, pb=None):
        self.ring = ring_
        self.pa = pa
        self.pb = pb if (pb is not None and pb) else None

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, ring_):
        return cls(ring_, ring_.zero)

    @classmethod
    def one(cls, ring_):
        return cls(ring_, ring_.one)

    @classmethod
    def const(cls, ring_, c: QOmega):
        pa = ring_.ground_new(c.a) if c.a else ring_.zero
        pb = ring_.ground_new(c.b) if c.b else None
        return cls(ring_, pa, pb)

    @classmethod
    def variable(cls, ring_, index):
        return cls(ring_, ring_.gens[index])

    @classmethod
    def monomial(cls, ring_, exps):
        """The monomial with exponent vector exps, coefficient 1."""
        return cls(ring_, ring_.dtype({tuple(exps): QQ.one}))

    @classmethod
    def from_terms(cls, ring_, terms):
        da, db = {}, {}
        for mon, c in terms.items():
            if c.a:
                da[mon] = da.get(mon, QQ.zero) + c.a
            if c.b:
                db[mon] = db.get(mon, QQ.zero) + c.b
        pa = ring_.from_dict({m: v for m, v in da.items() if v})
        db = {m: v for m, v in db.items() if v}
        pb = ring_.from_dict(db) if db else None
        return cls(ring_, pa, pb)

    def terms(self):
        out = {}
        for mon, c in self.pa.terms():
            out[mon] = QOmega(c)
        if self.pb is not None:
            for mon, c in self.pb.terms():
                prev = out.get(mon, _ZERO)
                out[mon] = QOmega(prev.a, prev.b + c)
        return out

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return (not self.pa) and self.pb is None

    def is_rational(self):
        return self.pb is None

    def is_ground(self):
        ok_a = (not self.pa) or self.pa.is_ground
        ok_b = self.pb is None or self.pb.is_ground
        return ok_a and ok_b

    def is_monomial(self):
        """A single term whose coefficient is rational or a rational times w."""
        return self.is_term() and (self.pb is None or not self.pa)

    def is_term(self):
        """Exactly one monomial, with any nonzero Q(w) coefficient."""
        if self.pb is None:
            return len(self.pa) == 1
        if not self.pa:
            return len(self.pb) == 1
        return len(self.pa) == 1 and self.pa.keys() == self.pb.keys()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        pb = None
        if self.pb is not None or other.pb is not None:
            pb = (self.pb or self.ring.zero) + (other.pb or self.ring.zero)
        return CPoly(self.ring, self.pa + other.pa, pb)

    def __sub__(self, other):
        pb = None
        if self.pb is not None or other.pb is not None:
            pb = (self.pb or self.ring.zero) - (other.pb or self.ring.zero)
        return CPoly(self.ring, self.pa - other.pa, pb)

    def __neg__(self):
        return CPoly(self.ring, -self.pa, -self.pb if self.pb is not None else None)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.pa, self.pb, other.pa, other.pb
        if b1 is None and b2 is None:
            return CPoly(self.ring, a1 * a2)
        z = self.ring.zero
        b1 = b1 if b1 is not None else z
        b2 = b2 if b2 is not None else z
        return CPoly(self.ring, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def mul_scalar(self, c: QOmega):
        """c * self, one ground multiplication per part and no product."""
        a, b, pa, pb = c.a, c.b, self.pa, self.pb
        if pb is None:
            return _with_scalar(self.ring, c, pa)
        # (pa + w pb)(a + b w) = (a pa - b pb) + w (b pa + (a - b) pb)
        return CPoly(self.ring, pa.mul_ground(a) - pb.mul_ground(b),
                     pa.mul_ground(b) + pb.mul_ground(a - b))

    def exquo_rational(self, q: CPoly):
        """self / q when the rational polynomial q divides self, else None.

        One division by a single polynomial: its remainder is zero exactly
        when q divides, so no gcd is taken.
        """
        qa, ra = self.pa.div(q.pa)
        if ra:
            return None
        qb = None
        if self.pb is not None:
            qb, rb = self.pb.div(q.pa)
            if rb:
                return None
        return CPoly(self.ring, qa, qb)

    def __pow__(self, k):
        return power(self, k, CPoly.one(self.ring))

    def __eq__(self, other):
        return (
            isinstance(other, CPoly)
            and self.pa == other.pa
            and (self.pb or self.ring.zero) == (other.pb or self.ring.zero)
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (
            tuple(sorted(self.pa.terms())) if self.pa else (),
            tuple(sorted(self.pb.terms())) if self.pb is not None else (),
        )

    # -- structure -------------------------------------------------------
    def degree_in(self, index):
        """Maximal exponent of variable `index` (0 for the zero polynomial)."""
        d = 0
        for mon in self.pa.monoms():
            d = max(d, mon[index])
        if self.pb is not None:
            for mon in self.pb.monoms():
                d = max(d, mon[index])
        return d

    def min_degrees(self):
        monoms = list(self.pa.itermonoms())
        if self.pb is not None:
            monoms.extend(self.pb.itermonoms())
        return tuple(map(min, zip(*monoms))) if monoms else (0,) * self.ring.ngens

    def shift_down(self, shifts):
        """Divide by the monomial with the given exponent vector (must divide)."""
        def move(p):
            if p is None:
                return None
            return self.ring.dtype(
                {tuple(map(sub, mon, shifts)): c for mon, c in p.items()})
        return CPoly(self.ring, move(self.pa) or self.ring.zero, move(self.pb))

    def leading(self):
        """(monomial, QOmega coefficient) for the lex-leading monomial."""
        if self.is_zero():
            raise ValueError("leading term of zero")
        order = self.ring.order
        best = None
        for p in (self.pa, self.pb):
            if p is None or not p:
                continue
            m = p.LM
            if best is None or order(m) > order(best):
                best = m
        ca = self.pa.get(best, QQ.zero) if self.pa else QQ.zero
        cb = self.pb.get(best, QQ.zero) if self.pb is not None else QQ.zero
        return best, QOmega(ca, cb)

    def subs_zero(self, index):
        """Substitute 0 for the variable at `index`."""
        def cut(p):
            if p is None:
                return None
            d = {m: c for m, c in p.terms() if m[index] == 0}
            return self.ring.from_dict(d) if d else self.ring.zero
        pa = cut(self.pa)
        pb = cut(self.pb)
        return CPoly(self.ring, pa if pa is not None else self.ring.zero,
                     pb if (pb is not None and pb) else None)

    def to_algebraic(self):
        RW = algebraic_ring(tuple(self.ring.symbols[i].name for i in range(self.ring.ngens)))
        dom = RW.domain
        one_anp = dom.one
        mod = one_anp.mod
        from sympy.polys.polyclasses import ANP
        d = {}
        for mon, c in self.terms().items():
            d[mon] = ANP([c.b, c.a], mod, QQ)
        return RW.from_dict(d)

    @classmethod
    def from_algebraic(cls, ring_, poly):
        terms = {}
        for mon, c in poly.terms():
            lst = c.to_list()
            if len(lst) == 0:
                continue
            if len(lst) == 1:
                terms[mon] = QOmega(lst[0], 0)
            else:
                terms[mon] = QOmega(lst[1], lst[0])
        return cls.from_terms(ring_, terms)

    def substitute(self, perm, zexp):
        """The image under x_i -> zeta^zexp[i] * x_perm[i], term by term.

        A term c*x^e of pa goes to c * zeta^t * x^e' and a term c*w*x^e of pb
        to c * zeta^t * w * x^e', with (e', t) from `monomial_image`.  As
        zeta^t = (-1)^t * w^(2t), no Q(w) multiplication is needed.
        """
        da, db = {}, {}
        for part, shift in ((self.pa, 0), (self.pb, 1)):
            if not part:
                continue
            for mon, c in part.items():
                key, t = monomial_image(perm, zexp, mon)
                if t & 1:
                    c = -c
                j = (2 * t + shift) % 3
                if j != 1:  # c*w^j has 1-part c (j = 0) or -c (w^2 = -1 - w)
                    a = c if j == 0 else -c
                    da[key] = da[key] + a if key in da else a
                if j != 0:  # and w-part c (j = 1) or -c (j = 2)
                    b = c if j == 1 else -c
                    db[key] = db[key] + b if key in db else b
        new = self.ring.dtype
        da = {m: c for m, c in da.items() if c}
        db = {m: c for m, c in db.items() if c}
        return CPoly(self.ring, new(da), new(db) if db else None)

    def __repr__(self):
        if self.pb is None:
            return str(self.pa)
        return f"({self.pa}) + w*({self.pb})"


def cancel_pair(num: CPoly, den: CPoly):
    """Reduce num/den to canonical form: coprime, monic denominator (lex LC 1).

    The decisions, in order:

    1. content strip: divide both sides by their common monomial content;
    2. single term: a single term divides the other side only through
       monomial content, which is gone now, so the gcd is 1;
    3. term multiple: num = c*x^a*h and den = x^b*h (`_term_quotient`),
       so the pair is c*x^a / x^b;
    4. rational gcd, when each side is a Q(w) scalar times a rational
       polynomial;
    5. Q(w) gcd otherwise.

    `monic_pair` then scales the denominator to lex-leading coefficient 1.

    The term-multiple rule is exact.  There a and b are the min degrees of
    num and den, so h has no monomial content, and after step 1 no variable
    divides both x^a and x^b.  So gcd(c*x^a*h, x^b*h) = h*gcd(x^a, x^b) = h,
    and num/h, den/h is the coprime pair c*x^a, x^b.  The canonical form is
    unique, so the pair equals the one the gcd route gives.
    """
    ring_ = num.ring
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    num, den = strip_monomial_content(num, den)
    if num.is_term() or den.is_term():
        return monic_pair(num, den)
    quotient = _term_quotient(num, den)
    if quotient is not None:
        return monic_pair(*quotient)
    cn = _scalar_core(num)
    cd = _scalar_core(den)
    if cn is not None and cd is not None:
        g = _rational_gcd(cn[1], cd[1])
        if not g.is_ground:
            num = _with_scalar(ring_, cn[0], cn[1].quo(g))
            den = _with_scalar(ring_, cd[0], cd[1].quo(g))
    else:
        num, den = _algebraic_cancel(num, den)
    return monic_pair(num, den)


def strip_monomial_content(num: CPoly, den: CPoly):
    """Divide num and den by their common monomial content; 0/den is 0/1.

    The first step of `cancel_pair`.  den must be nonzero.
    """
    if num.is_zero():
        return CPoly.zero(num.ring), CPoly.one(num.ring)
    mn, md = num.min_degrees(), den.min_degrees()
    common = tuple(min(a, b) for a, b in zip(mn, md))
    if any(common):
        num = num.shift_down(common)
        den = den.shift_down(common)
    return num, den


def monic_pair(num: CPoly, den: CPoly):
    """Scale a coprime pair so that den has lex-leading coefficient 1.

    This is the last step of `cancel_pair`; callers that know num and den to
    be coprime (images and powers of canonical pairs) skip the gcd and call it
    directly.

    A product or quotient with a term quotient c/d (c and d single terms) is
    coprime up to monomial content, so `strip_monomial_content` is its whole
    gcd: let a/b be coprime and p an irreducible factor, not a monomial, of
    both a*c and b*d.  p divides no single term, so p divides a and b, which
    are coprime.  So gcd(a*c, b*d) is a monomial, the common monomial
    content, and likewise for a*d / (b*c).
    """
    _, lc = den.leading()
    if not lc.is_one():
        inv = lc.inv()
        num = num.mul_scalar(inv)
        den = den.mul_scalar(inv)
    return num, den


def term_pair(ring_, c: QOmega, e):
    """The canonical pair c*x^(e+) / x^(e-) of the term quotient c*x^e.

    c is nonzero and e an integer vector; e+ and e- are its positive and
    negative parts, e = e+ - e-.  Their supports are disjoint, so the pair is
    coprime, and its denominator is monic.  The pair is built directly from
    zero-free dicts: no product, no gcd, no coefficient conversion.
    """
    pos = tuple(v if v > 0 else 0 for v in e)
    neg = tuple(-v if v < 0 else 0 for v in e)
    new = ring_.dtype
    num = CPoly(ring_, new({pos: c.a}) if c.a else ring_.zero,
                new({pos: c.b}) if c.b else None)
    return num, CPoly(ring_, new({neg: QQ.one}))


def pair_term(num: CPoly, den: CPoly):
    """(c, e) when the canonical pair num/den is the term quotient c*x^e, else None.

    The inverse of `term_pair`: the monic denominator's one term has
    coefficient 1, so c is the numerator's coefficient.
    """
    if not (num.is_term() and den.is_term()):
        return None
    pa, pb = num.pa, num.pb
    (a,) = pa or pb
    c = QOmega(pa[a] if pa else QQ.zero, QQ.zero if pb is None else pb[a])
    (b,) = den.pa
    return c, tuple(map(sub, a, b))


def _term_quotient(num: CPoly, den: CPoly):
    """The pair (c*x^a, x^b) when num = c*x^a*h and den = x^b*h, else None.

    a and b are the min degrees of num and den, and c in Q(w) is the ratio of
    their lex-leading coefficients: a monomial factor keeps the lex order of
    terms.  The test is O(terms): each part of num (the 1 and the w part) has
    as many terms as that part of c*den, and its term at m is the term of
    c*den at m - a + b.  It runs after `strip_monomial_content`, so no
    variable divides both x^a and x^b and the pair is `term_pair` of c and
    a - b.
    """
    a, b = num.min_degrees(), den.min_degrees()
    shift = tuple(map(sub, b, a))
    c = num.leading()[1] * den.leading()[1].inv()
    scaled = den.mul_scalar(c)
    for p, q in ((num.pa, scaled.pa), (num.pb, scaled.pb)):
        p, q = p or {}, q or {}
        if len(p) != len(q):
            return None
        for mon, v in p.items():
            if q.get(tuple(map(add, mon, shift))) != v:
                return None
    return term_pair(num.ring, c, tuple(map(sub, a, b)))


def _scalar_core(p: CPoly):
    """Write p = c * q with c in Q(w) and q rational, when possible.

    Covers the common case of rational polynomials twisted by a root of unity,
    keeping gcds in the fast rational path.
    """
    if p.pb is None:
        return (QOmega.one(), p.pa)
    if not p.pa:
        return (QOmega.omega(), p.pb)
    ta = dict(p.pa.terms())
    tb = dict(p.pb.terms())
    if set(ta) != set(tb):
        return None
    mon0 = next(iter(ta))
    q = tb[mon0] / ta[mon0]
    for mon, ca in ta.items():
        if tb[mon] != q * ca:
            return None
    return (QOmega(1, q), p.pa)


def _rational_gcd(f, g):
    """gcd of two QQ-ring polynomials.

    The sparse ring's gcd is the heuristic gcd alone, which gives up on some
    inputs with `HeuristicGCDFailed`; those take the subresultant PRS gcd.
    """
    try:
        return f.gcd(g)
    except HeuristicGCDFailed:
        ring_ = f.ring
        h = dmp_ff_prs_gcd(f.to_dense(), g.to_dense(), ring_.ngens - 1, ring_.domain)[0]
        return ring_.from_dense(h)


def _with_scalar(ring_, c: QOmega, q):
    return CPoly(ring_, q.mul_ground(c.a) if c.a else ring_.zero,
                 q.mul_ground(c.b) if c.b else None)


def _algebraic_cancel(num: CPoly, den: CPoly):
    ring_ = num.ring
    an, ad = num.to_algebraic(), den.to_algebraic()
    g = an.gcd(ad)
    if g.is_ground:
        return num, den
    return (
        CPoly.from_algebraic(ring_, an.quo(g)),
        CPoly.from_algebraic(ring_, ad.quo(g)),
    )


# ---------------------------------------------------------------------------
# n-th power detection
# ---------------------------------------------------------------------------

def _rational_nth_root(q, n):
    """Exact n-th root of a QQ element, or None."""
    if not q:
        return QQ.zero
    num, den = QQ.numer(q), QQ.denom(q)
    neg = num < 0
    if neg and n % 2 == 0:
        return None
    rn = _int_nth_root(abs(int(num)), n)
    rd = _int_nth_root(int(den), n)
    if rn is None or rd is None:
        return None
    r = QQ(rn, rd)
    return -r if neg else r


def _int_nth_root(m, n):
    if m == 0:
        return 0
    lo, hi = 0, 1
    while hi**n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def qomega_nth_roots(c: QOmega, n):
    """One n-th root of c in Q(w), or None if none exists (n in 1, 2, 3, 6)."""
    if n == 1:
        return c
    if c.is_zero():
        return _ZERO
    if n == 2:
        return _qomega_sqrt(c)
    if n == 3:
        return _qomega_cbrt(c)
    if n == 6:
        s = _qomega_sqrt(c)
        if s is None:
            return None
        r = _qomega_cbrt(s)
        if r is not None:
            return r
        return _qomega_cbrt(-s)
    raise ValueError(f"unsupported root order {n}")


def _qomega_sqrt(c: QOmega):
    a, b = c.a, c.b
    if not b:
        r = _rational_nth_root(a, 2)
        if r is not None:
            return QOmega(r, 0)
        # (x + yw)^2 with y = 2x: -3x^2 = a
        r = _rational_nth_root(a / QQ(-3), 2)
        if r is not None:
            return QOmega(r, 2 * r)
        return None
    # 3 y^4 + (4a - 2b) y^2 - b^2 = 0
    A, B, C = QQ(3), 4 * a - 2 * b, -b * b
    disc = B * B - 4 * A * C
    sd = _rational_nth_root(disc, 2)
    if sd is None:
        return None
    for sgn in (1, -1):
        t = (-B + sgn * sd) / (2 * A)  # candidate y^2
        if t < 0:
            continue
        y = _rational_nth_root(t, 2)
        if y is None or not y:
            continue
        x = (b + y * y) / (2 * y)
        cand = QOmega(x, y)
        if cand * cand == c:
            return cand
    return None


def _qomega_cbrt(c: QOmega):
    a, b = c.a, c.b
    if not b:
        # rational-target candidates: y=0 (x^3=a); x=y gives (x+xw)^3 = -x^3
        r = _rational_nth_root(a, 3)
        if r is not None:
            return QOmega(r, 0)
        r = _rational_nth_root(-a, 3)
        if r is not None:
            return QOmega(r, r)
        return None
    # b != 0: y = t x with b t^3 + (3a - 3b) t^2 - 3a t + b = 0
    for tq in _rational_roots([b, 3 * a - 3 * b, -3 * a, b]):
        den = 3 * tq * (QQ.one - tq)
        if not den:
            continue
        x3 = b / den
        x = _rational_nth_root(x3, 3)
        if x is None:
            continue
        cand = QOmega(x, tq * x)
        if cand * cand * cand == c:
            return cand
    # x = 0 branch: (yw)^3 = y^3 -> b must be 0; handled above
    return None


def _rational_roots(coeffs):
    """The rational roots of the polynomial with QQ coefficients `coeffs`,
    highest degree first (sympy's `ground_roots`)."""
    from sympy import Poly, Symbol
    poly = Poly(coeffs, Symbol("t"), domain="QQ")
    return [QQ.convert(root) for root in poly.ground_roots()]


def poly_nth_root(p: CPoly, n):
    """An n-th root of p in Q(w)[vars], or None.

    If p = c*q^n, then p's least and greatest degree in each variable are n
    times q's, so the min degrees of p and the degrees of its core (p with
    its monomial content stripped) are all divisible by n; a p that fails
    either test is refused before any squarefree split.  Otherwise uses
    squarefree multiplicities (valid over any characteristic-0 field) and an
    exact constant root in Q(w).
    """
    if p.is_zero():
        return CPoly.zero(p.ring)
    mins = p.min_degrees()
    if any(e % n for e in mins):
        return None
    core = p.shift_down(mins)
    if any(core.degree_in(i) % n for i in range(p.ring.ngens)):
        return None
    root_cp = CPoly.one(p.ring)
    for f, m in _squarefree_factors(core):
        if m % n:
            return None
        root_cp = root_cp * f ** (m // n)
    c_rel = _ground_ratio(core, root_cp**n)
    if c_rel is None:
        return None
    root_c = qomega_nth_roots(c_rel, n)
    if root_c is None:
        return None
    cand = root_cp.mul_scalar(root_c)
    if any(mins):
        cand = cand * CPoly.from_terms(p.ring, {tuple(e // n for e in mins): _ONE})
    return cand if cand**n == p else None


def _squarefree_factors(p: CPoly):
    """[(f, m)]: p is a constant times the product of the f^m, the f squarefree
    and pairwise coprime (sympy's `sqf_list`, over Q or Q(w))."""
    if p.is_ground():
        return []
    if p.is_rational():
        return [(CPoly(p.ring, f), m) for f, m in p.pa.sqf_list()[1]]
    return [(CPoly.from_algebraic(p.ring, f), m)
            for f, m in p.to_algebraic().sqf_list()[1]]


def _ground_ratio(p: CPoly, q: CPoly):
    """Constant c with p = c*q, or None (assumes p, q proportional candidates)."""
    m, cq = q.leading()
    terms = p.terms()
    if m not in terms:
        return None
    return terms[m] * cq.inv()
