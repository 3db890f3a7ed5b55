"""Exact arithmetic helpers: the coefficient field Q(w) and sparse polynomials.

The coefficient field is Q adjoined a primitive cube root of unity w, with
w^2 = -1 - w.  Its rationals are `MPQ`s, and a polynomial over Q is a plain
dict from exponent tuples to nonzero `MPQ`s, in the lex order of tuples.  A
polynomial over Q(w) is a pair of them (the "1" part and the "w" part);
almost all data in practice has a zero w-part, which keeps gcd and
multiplication in the fast rational path.

`cancel_pair` makes a fraction canonical by its gcd; `term_ratio`, the one
test for a term multiple p = c*x^e*q, spares it and `FieldElement` products
the gcd where it finds one.  `term_pair` builds the canonical pair of a
term quotient c*x^e straight from c and the exponent vector e, with no
product and no gcd, and `pair_term` reads c and e back.
A `fieldtower.FieldElement` keeps (c, e) as its term view: a term built
from its view gets its pair from `term_pair` on first read; hashing and
keys read that pair, and equality does unless both views are known.
The rational gcd is the heuristic gcd over Z (`_heugcd`).  The gcd over
Q(w), `_gcd`, is the subresultant PRS with exact divisions (`CPoly.exquo`);
it decides pairs with a w-part whose norms share a factor, and rational
pairs on which the heuristic gives up.

This is the only module that knows how a polynomial is stored.  It uses no
library beyond Python's own: sympy is the tests' reference only.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, isqrt, lcm
from operator import add, neg, sub
from typing import NamedTuple

_new = object.__new__


class MPQ:
    """A rational number p/q on Python ints, in lowest terms with q > 0.

    It behaves as sympy's pure-Python `PythonMPQ` does: the same `str` ("p/q",
    or "p" when q = 1), the same `repr` ("MPQ(p,q)") and the same numeric
    hash, so keys, hashes and digests built from it read as before.  Sums and
    products of integers (q = 1) take no gcd.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, p, q=1):
        if not isinstance(p, int):  # a Fraction, an MPQ or sympy's PythonMPQ
            p, q = p.numerator * q, p.denominator
        if not q:
            raise ZeroDivisionError(f"rational {p}/0")
        g = gcd(p, q)
        if q < 0:
            g = -g
        return _mpq(p // g, q // g)

    def __reduce__(self):  # for pickle and copy
        return MPQ, (self.numerator, self.denominator)

    def __bool__(self):
        return bool(self.numerator)

    def __eq__(self, other):
        if type(other) is MPQ:
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        if isinstance(other, int):
            return self.denominator == 1 and self.numerator == other
        return NotImplemented

    def __hash__(self):
        p, q = self.numerator, self.denominator
        if q == 1:
            return hash(p)
        # the hash of Fraction(p, q), as PythonMPQ computes it
        try:
            h = hash(hash(abs(p)) * pow(q, -1, _HASH_MODULUS))
        except ValueError:  # q is a multiple of the modulus
            h = sys.hash_info.inf
        h = h if p >= 0 else -h
        return -2 if h == -1 else h

    def __lt__(self, other):
        other = _as_mpq(other)
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __str__(self):
        if self.denominator != 1:
            return f"{self.numerator}/{self.denominator}"
        return f"{self.numerator}"

    def __repr__(self):
        return f"MPQ({self.numerator},{self.denominator})"

    def __neg__(self):
        return _mpq(-self.numerator, self.denominator)

    def __add__(self, other):
        if type(other) is not MPQ:
            if not isinstance(other, int):
                return NotImplemented
            return _mpq(self.numerator + self.denominator * other, self.denominator)
        ap, aq = self.numerator, self.denominator
        bp, bq = other.numerator, other.denominator
        if aq == 1 and bq == 1:
            return _mpq(ap + bp, 1)
        g = gcd(aq, bq)
        if g == 1:
            return _mpq(ap * bq + aq * bp, aq * bq)
        q1, q2 = aq // g, bq // g
        p = ap * q2 + bp * q1
        g2 = gcd(p, g)
        return _mpq(p // g2, q1 * q2 * (g // g2))

    def __sub__(self, other):
        if type(other) is not MPQ:
            if not isinstance(other, int):
                return NotImplemented
            return _mpq(self.numerator - self.denominator * other, self.denominator)
        return self + _mpq(-other.numerator, other.denominator)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not MPQ:
            if not isinstance(other, int):
                return NotImplemented
            other = _mpq(other, 1)
        ap, aq = self.numerator, self.denominator
        bp, bq = other.numerator, other.denominator
        if aq == 1 and bq == 1:
            return _mpq(ap * bp, 1)
        x1, x2 = gcd(ap, bq), gcd(bp, aq)
        return _mpq((ap // x1) * (bp // x2), (aq // x2) * (bq // x1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_mpq(other)
        if not other.numerator:
            raise ZeroDivisionError("division by zero rational")
        bp, bq = other.numerator, other.denominator
        if bp < 0:
            bp, bq = -bp, -bq
        return self * _mpq(bq, bp)


def _mpq(p, q):
    """The MPQ p/q of a p/q already in lowest terms with q > 0 (no checks)."""
    x = _new(MPQ)
    x.numerator = p
    x.denominator = q
    return x


def _as_mpq(x):
    return x if type(x) is MPQ else MPQ(x)


_HASH_MODULUS = sys.hash_info.modulus
_Q0 = _mpq(0, 1)
_Q1 = _mpq(1, 1)


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
    """Element a + b*w of Q(w), with a, b rational (`MPQ`)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        # arithmetic hands over MPQ values already; only convert other types
        self.a = a if type(a) is MPQ else MPQ(a)
        if b is None:
            self.b = _Q0
        else:
            self.b = b if type(b) is MPQ else MPQ(b)

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
        return self.a == _Q1 and not self.b

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
            return QOmega(_Q1 / self.a)
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
            return f"{self.b}*w" if self.b != _Q1 else "w"
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


# ---------------------------------------------------------------------------
# sparse polynomials over Q: dicts from exponent tuples to nonzero coefficients
# ---------------------------------------------------------------------------

class Ring(NamedTuple):
    """The variables of a polynomial: their names and their count."""

    names: tuple
    ngens: int


def rational_ring(names):
    """The ring of polynomials in the given variable names."""
    return Ring(tuple(names), len(names))


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = dict(p)
    for m, c in q.items():
        if m in out:
            c = out[m] + c
            if c:
                out[m] = c
            else:
                del out[m]
        else:
            out[m] = c
    return out


def _pneg(p):
    return {m: -c for m, c in p.items()}


def _psub(p, q):
    return _padd(p, _pneg(q))


def _pmul(p, q):
    if not p or not q:
        return {}
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            if m in out:
                out[m] = out[m] + c1 * c2
            else:
                out[m] = c1 * c2
    return {m: c for m, c in out.items() if c}


def _pscale(p, c):
    """c * p for a nonzero scalar c."""
    return {m: v * c for m, v in p.items()}


def _pexquo(p, q, divide):
    """p / q when q divides p exactly, else None (q nonzero).

    Long division by lex-leading terms: the leading term of p must be a term
    multiple of that of q, whose coefficient ratio `divide` gives (None when
    it is not in the coefficient ring).  The remainder's monomials wait in a
    heap, negated so that the lex-largest comes first; a monomial that has
    cancelled is skipped when it comes up.
    """
    lm = max(q)
    lc = q[lm]
    rest = dict(p)
    heap = [tuple(map(neg, m)) for m in rest]
    heapify(heap)
    out = {}
    while rest:
        m = tuple(map(neg, heappop(heap)))
        if m not in rest:
            continue
        e = tuple(map(sub, m, lm))
        if min(e, default=0) < 0:
            return None
        c = divide(rest[m], lc)
        if c is None:
            return None
        out[e] = c
        for mq, cq in q.items():
            k = tuple(map(add, e, mq))
            if k in rest:
                v = rest[k] - c * cq
                if v:
                    rest[k] = v
                else:
                    del rest[k]
            else:
                rest[k] = -(c * cq)
                heappush(heap, tuple(map(neg, k)))
    return out


def _qdiv(a, b):
    return a / b


def _zdiv(a, b):
    c, r = divmod(a, b)
    return None if r else c


def _pstr(p, names):
    """p printed as sympy prints a polynomial: "3/2*x**2*y - z + 1"."""
    if not p:
        return "0"
    parts = []
    for mon, c in sorted(p.items(), reverse=True):
        parts.append(" - " if c < 0 else " + ")
        if c < 0:
            c = -c
        factors = [v if e == 1 else f"{v}**{e}" for v, e in zip(names, mon) if e]
        if not factors or c != 1:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return ("-" if parts[0] == " - " else "") + "".join(parts[1:])


class CPoly:
    """Polynomial over Q(w): pair (pa, pb) of rational polynomials, pa + w*pb.

    pa is a dict from exponent tuples to nonzero `MPQ`s (empty for zero), and
    pb is one too, or None when the polynomial is rational.  Only `__init__`
    sets them, and no dict is changed once it is handed over, so `key` is
    made once per polynomial.
    """

    __slots__ = ("ring", "pa", "pb", "_key")

    def __init__(self, ring_, pa, pb=None):
        self.ring = ring_
        self.pa = pa
        self.pb = pb or None
        self._key = None

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, ring_):
        return cls(ring_, {})

    @classmethod
    def one(cls, ring_):
        return cls(ring_, {(0,) * ring_.ngens: _Q1})

    @classmethod
    def const(cls, ring_, c: QOmega):
        m = (0,) * ring_.ngens
        return cls(ring_, {m: c.a} if c.a else {}, {m: c.b} if c.b else None)

    @classmethod
    def variable(cls, ring_, index):
        return cls.monomial(ring_, [int(i == index) for i in range(ring_.ngens)])

    @classmethod
    def monomial(cls, ring_, exps):
        """The monomial with exponent vector exps, coefficient 1."""
        return cls(ring_, {tuple(exps): _Q1})

    @classmethod
    def from_terms(cls, ring_, terms):
        da, db = {}, {}
        for mon, c in terms.items():
            if c.a:
                da[mon] = da.get(mon, _Q0) + c.a
            if c.b:
                db[mon] = db.get(mon, _Q0) + c.b
        return cls(ring_, {m: v for m, v in da.items() if v},
                   {m: v for m, v in db.items() if v})

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return not self.pa and self.pb is None

    def is_rational(self):
        return self.pb is None

    def is_ground(self):
        return not any(chain.from_iterable(chain(self.pa, self.pb or ())))

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

    def shape(self):
        """(terms, degree, variables): the number of monomials, their highest
        total degree, and the number of variables that occur in them."""
        monoms = set(chain(self.pa, self.pb or ()))
        return (len(monoms), max(map(sum, monoms), default=0),
                sum(map(any, zip(*monoms))))

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        pb = None
        if self.pb is not None or other.pb is not None:
            pb = _padd(self.pb or {}, other.pb or {})
        return CPoly(self.ring, _padd(self.pa, other.pa), pb)

    def __sub__(self, other):
        pb = None
        if self.pb is not None or other.pb is not None:
            pb = _psub(self.pb or {}, other.pb or {})
        return CPoly(self.ring, _psub(self.pa, other.pa), pb)

    def __neg__(self):
        return CPoly(self.ring, _pneg(self.pa),
                     _pneg(self.pb) if self.pb is not None else None)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.pa, self.pb, other.pa, other.pb
        if b1 is None and b2 is None:
            return CPoly(self.ring, _pmul(a1, a2))
        b1 = b1 or {}
        b2 = b2 or {}
        bb = _pmul(b1, b2)
        return CPoly(self.ring, _psub(_pmul(a1, a2), bb),
                     _psub(_padd(_pmul(a1, b2), _pmul(b1, a2)), bb))

    def mul_scalar(self, c: QOmega):
        """c * self, one ground multiplication per part and no product."""
        a, b, pa, pb = c.a, c.b, self.pa, self.pb
        if pb is None:
            return CPoly(self.ring, _pscale(pa, a) if a else {},
                         _pscale(pa, b) if b else None)
        # (pa + w pb)(a + b w) = (a pa - b pb) + w (b pa + (a - b) pb)
        return CPoly(self.ring, _psub(_pscale(pa, a) if a else {},
                                      _pscale(pb, b) if b else {}),
                     _padd(_pscale(pa, b) if b else {},
                           _pscale(pb, a - b) if a != b else {}))

    def exquo(self, q: CPoly):
        """self / q when q divides self, else None (q nonzero).

        One long division by a rational polynomial: its remainder is zero
        exactly when it divides, so no gcd is taken.  A q with a w-part
        divides self exactly when its norm N(q) = q * conj(q), a rational
        polynomial, divides self * conj(q), and the quotients are equal.
        """
        p = self
        if q.pb is not None:
            p = self * CPoly(self.ring, _psub(q.pa, q.pb), _pneg(q.pb))
            q = CPoly(self.ring, _qnorm(q))
        qa = _pexquo(p.pa, q.pa, _qdiv)
        if qa is None:
            return None
        qb = None
        if p.pb is not None:
            qb = _pexquo(p.pb, q.pa, _qdiv)
            if qb is None:
                return None
        return CPoly(self.ring, qa, qb)

    def __pow__(self, k):
        return power(self, k, CPoly.one(self.ring))

    def __eq__(self, other):
        return (
            isinstance(other, CPoly)
            and self.pa == other.pa
            and self.pb == other.pb
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        k = self._key
        if k is None:
            k = self._key = (
                tuple(sorted(self.pa.items())),
                tuple(sorted(self.pb.items())) if self.pb is not None else (),
            )
        return k

    # -- structure -------------------------------------------------------
    def degree_in(self, index):
        """Maximal exponent of variable `index` (0 for the zero polynomial)."""
        return max((mon[index] for mon in chain(self.pa, self.pb or ())), default=0)

    def min_degrees(self):
        monoms = list(chain(self.pa, self.pb or ()))
        return tuple(map(min, zip(*monoms))) if monoms else (0,) * self.ring.ngens

    def shift_down(self, shifts):
        """Divide by the monomial with the given exponent vector (must divide)."""
        def move(p):
            return {tuple(map(sub, mon, shifts)): c for mon, c in p.items()}
        return CPoly(self.ring, move(self.pa), move(self.pb or {}))

    def leading(self):
        """(monomial, QOmega coefficient) for the lex-leading monomial."""
        if self.is_zero():
            raise ValueError("leading term of zero")
        best = max(chain(self.pa, self.pb or ()))
        return best, QOmega(self.pa.get(best, _Q0),
                            _Q0 if self.pb is None else self.pb.get(best, _Q0))

    def evaluate(self, point):
        """The value in Q(w) at a point of integers, one per variable."""
        if len(point) != self.ring.ngens:
            raise ValueError(f"point has {len(point)} coordinates, "
                             f"ring has {self.ring.ngens} variables")

        def value(p):
            total = _Q0
            for mon, c in p.items():
                v = 1
                for x, e in zip(point, mon):
                    if e:
                        v *= x ** e
                total = total + c * v
            return total
        return QOmega(value(self.pa), value(self.pb) if self.pb is not None else _Q0)

    def subs_zero(self, index):
        """Substitute 0 for the variable at `index`."""
        def cut(p):
            return {m: c for m, c in p.items() if m[index] == 0}
        return CPoly(self.ring, cut(self.pa), cut(self.pb or {}))

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
        return CPoly(self.ring, {m: c for m, c in da.items() if c},
                     {m: c for m, c in db.items() if c})

    def __repr__(self):
        names = self.ring.names
        if self.pb is None:
            return _pstr(self.pa, names)
        return f"({_pstr(self.pa, names)}) + w*({_pstr(self.pb, names)})"


def cancel_pair(num: CPoly, den: CPoly):
    """Reduce num/den to canonical form: coprime, monic denominator (lex LC 1).

    The decisions, in order:

    1. content strip: divide both sides by their common monomial content;
    2. single term: a single term divides the other side only through
       monomial content, which is gone now, so the gcd is 1;
    3. term multiple: num = c*x^e*den (`term_ratio`), so the pair is
       `term_pair` of c and e;
    4. rational gcd, when both sides are rational (`_rational_gcd`);
    5. norm filter: the sides are coprime when their norms are (`_qnorm`);
    6. Q(w) gcd otherwise: both sides divided by h = `_gcd(num, _gcd(den, d))`,
       d the gcd of the norms.

    `monic_pair` then scales the denominator to lex-leading coefficient 1.

    The term-multiple rule is exact.  Write den = x^b*h, b the min degrees
    of den; then num = c*x^a*h with a = b + e, and after step 1 a = e+ and
    b = e-.  h has no monomial content, so gcd(num, den) = h, and the
    coprime pair is c*x^(e+), x^(e-).  The canonical form is unique, so it
    equals the one the gcd route gives.
    """
    ring_ = num.ring
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    num, den = strip_monomial_content(num, den)
    if num.is_term() or den.is_term():
        return monic_pair(num, den)
    ratio = term_ratio(num, den)
    if ratio is not None:
        return term_pair(ring_, *ratio)
    if num.pb is None and den.pb is None:
        _, qn, qd = _rational_gcd(num.pa, den.pa)
        num, den = CPoly(ring_, qn), CPoly(ring_, qd)
    else:
        d = CPoly(ring_, _rational_gcd(_qnorm(num), _qnorm(den))[0])
        if not d.is_ground():  # num and den may share a factor, which divides d
            h = _gcd(num, _gcd(den, d))
            num, den = num.exquo(h), den.exquo(h)
    return monic_pair(num, den)


def _qnorm(p: CPoly):
    """N(p) = pa^2 - pa*pb + pb^2, the product of p = pa + w*pb and its
    conjugate pa + w^2*pb: a nonzero rational polynomial for nonzero p.

    N is multiplicative, so a common factor e of num and den over Q(w) that
    is not constant puts the nonconstant N(e) in both N(num) and N(den).  A
    constant rational gcd d of the two norms therefore proves num and den
    coprime, with no gcd over Q(w).  Otherwise h = gcd(num, den) has
    N(h) = h * conj(h) dividing d, so h divides d and h = gcd(num, gcd(den,
    d)): the Q(w) gcds run against a divisor of d, often far smaller than
    num and den."""
    pa, pb = p.pa, p.pb or {}
    return _psub(_padd(_pmul(pa, pa), _pmul(pb, pb)), _pmul(pa, pb))


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
    num = CPoly(ring_, {pos: c.a} if c.a else {}, {pos: c.b} if c.b else None)
    return num, CPoly(ring_, {neg: _Q1})


def pair_term(num: CPoly, den: CPoly):
    """(c, e) when the canonical pair num/den is the term quotient c*x^e, else None.

    The inverse of `term_pair`: the monic denominator's one term has
    coefficient 1, so c is the numerator's coefficient.
    """
    if not (num.is_term() and den.is_term()):
        return None
    pa, pb = num.pa, num.pb
    (a,) = pa or pb
    c = QOmega(pa[a] if pa else _Q0, _Q0 if pb is None else pb[a])
    (b,) = den.pa
    return c, tuple(map(sub, a, b))


def term_ratio(p: CPoly, q: CPoly):
    """(c, e) when p = c*x^e*q with c in Q(w) and e in Z^n, else None.

    q is nonzero.  A monomial factor keeps the lex order of terms, so c and e
    are the ratio of the lex-leading terms.  The test is O(terms): p must have
    as many monomials as q, and each part of p (the 1 and the w part) its
    term at m + e equal to the term of c*q at m.  Two rational sides are
    compared term by term, with no scaled copy of q.
    """
    if _monomial_count(p) != _monomial_count(q):
        return None
    (mp, cp), (mq, cq) = p.leading(), q.leading()
    c = cp * cq.inv()
    e = tuple(map(sub, mp, mq))
    if p.pb is None and q.pb is None:
        parts, ca = ((p.pa, q.pa),), c.a
    else:
        s = q.mul_scalar(c)
        parts, ca = ((p.pa, s.pa), (p.pb or {}, s.pb or {})), _Q1
    for pp, qq in parts:
        if len(pp) != len(qq):
            return None
        for mon, v in qq.items():
            if pp.get(tuple(map(add, mon, e))) != v * ca:
                return None
    return c, e


def _monomial_count(p: CPoly):
    return len(p.pa) if p.pb is None else len(p.pa.keys() | p.pb.keys())


# ---------------------------------------------------------------------------
# the gcd over Q: heuristic gcd over Z, checked by exact division
# ---------------------------------------------------------------------------

#: evaluation points the heuristic gcd tries before it gives up
_HEU_GCD_MAX = 6


def _rational_gcd(f, g):
    """(h, f/h, g/h) for h a gcd of two nonzero rational polynomials.

    Denominators are cleared, so f = F/cf and g = G/cg with F and G over Z;
    then h = gcd(F, G) and f/h = (F/h)/cf.  When the heuristic gcd gives up,
    `_gcd` decides: a rational pair is its case with no w-part.
    """
    F, cf = _clear_denominators(f)
    G, cg = _clear_denominators(g)
    found = _heugcd(F, G)
    if found is None:
        ring_ = rational_ring(range(len(next(iter(f)))))
        f, g = CPoly(ring_, f), CPoly(ring_, g)
        h = _gcd(f, g)
        return h.pa, f.exquo(h).pa, g.exquo(h).pa
    h, cff, cfg = found
    return ({m: _mpq(c, 1) for m, c in h.items()},
            {m: MPQ(c, cf) for m, c in cff.items()},
            {m: MPQ(c, cg) for m, c in cfg.items()})


def _clear_denominators(f):
    """(F, c): F = c*f has integer coefficients, c the lcm of f's denominators."""
    c = lcm(*(v.denominator for v in f.values()))
    return {m: v.numerator * (c // v.denominator) for m, v in f.items()}, c


def _heugcd(f, g):
    """(h, f/h, g/h) for h = gcd(f, g) over Z, or None when the heuristic gives up.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symb. Comp. 1989), as
    sympy's `heugcd` runs it: evaluate the first variable at an integer x,
    take the gcd of the images (recursively, down to integers), recover a
    candidate from the image by its balanced x-adic digits, and keep it when
    it divides f and g exactly.  f and g are nonzero, with integer
    coefficients, over the same variables.
    """
    if not next(iter(f)):  # no variables left: integers
        a, b = f[()], g[()]
        h = gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    content = gcd(*f.values(), *g.values())
    f = {m: c // content for m, c in f.items()}
    g = {m: c // content for m, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate_first(f, x), _evaluate_first(g, x)
        if ff and gg:
            images = _heugcd(ff, gg)
            if images is None:
                return None
            h_img, cff_img, cfg_img = images
            h = _primitive(_interpolate(h_img, x))
            cff, cfg = _pexquo(f, h, _zdiv), _pexquo(g, h, _zdiv)
            if cff is not None and cfg is not None:
                return _pscale(h, content), cff, cfg
            cff = _interpolate(cff_img, x)
            h = _pexquo(f, cff, _zdiv)
            cfg = h and _pexquo(g, h, _zdiv)
            if cfg is not None:
                return _pscale(h, content), cff, cfg
            cfg = _interpolate(cfg_img, x)
            h = _pexquo(g, cfg, _zdiv)
            cff = h and _pexquo(f, h, _zdiv)
            if cff is not None:
                return _pscale(h, content), cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _evaluate_first(f, x):
    """f with its first variable set to the integer x, over the others."""
    out, powers = {}, {}
    for m, c in f.items():
        e, rest = m[0], m[1:]
        if e not in powers:
            powers[e] = x ** e
        out[rest] = out.get(rest, 0) + c * powers[e]
    return {m: c for m, c in out.items() if c}


def _interpolate(h, x):
    """The polynomial with coefficients in (-x/2, x/2] that is h at x0 = x,
    x0 its new first variable, negated if need be to a positive leading
    coefficient."""
    out = {}
    i = 0
    while h:
        digit = {}
        for m, c in h.items():
            c %= x
            if c > x // 2:
                c -= x
            if c:
                digit[m] = c
                out[(i,) + m] = c
        h = {m: (c - digit.get(m, 0)) // x for m, c in h.items()}
        h = {m: c for m, c in h.items() if c}
        i += 1
    return _pneg(out) if out[max(out)] < 0 else out


def _primitive(f):
    """f divided by the gcd of its (integer) coefficients."""
    c = gcd(*f.values())
    return {m: v // c for m, v in f.items()}


# ---------------------------------------------------------------------------
# the gcd over Q(w): the subresultant PRS, with exact divisions only
# ---------------------------------------------------------------------------

def _gcd(f: CPoly, g: CPoly):
    """The gcd of two nonzero polynomials over Q(w), lex-leading coefficient 1.

    In the first variable x that occurs in f or g, the gcd is c, the gcd of
    all the coefficients of f and g in x (taken recursively), times the
    primitive part of the last nonzero remainder of the subresultant PRS of
    f/c and g/c (Collins 1967, Brown and Traub 1971; Cohen's Algorithm
    3.3.1).  That primitive part is the gcd of the primitive parts of f and
    g, so neither side's own content is needed.  Each pseudo-remainder is
    divided by s*t^d, which divides it exactly, so the coefficients stay in
    Q(w)[other variables].  A pair with no w-part stays rational throughout.
    """
    ring_ = f.ring
    i = next((i for i in range(ring_.ngens) if f.degree_in(i) or g.degree_in(i)), None)
    if i is None:
        return CPoly.one(ring_)
    c = _content([*_coefficients(f, i).values(), *_coefficients(g, i).values()])
    f, g = f.exquo(c), g.exquo(c)
    if f.degree_in(i) < g.degree_in(i):
        f, g = g, f
    s = t = CPoly.one(ring_)
    while g.degree_in(i):
        d = f.degree_in(i) - g.degree_in(i)
        r = _prem(f, g, i)
        if r.is_zero():
            return _monic(c * g.exquo(_content(_coefficients(g, i).values())))
        f, g = g, r.exquo(s * t ** d)
        s = _coefficients(f, i)[f.degree_in(i)]
        if d:
            t = (s ** d).exquo(t ** (d - 1))
    return c  # a remainder of degree 0: the primitive parts are coprime


def _coefficients(p: CPoly, i):
    """p as a polynomial in x_i: {k: the coefficient of x_i^k}, each a
    polynomial in the other variables."""
    parts = {}
    for j, part in enumerate((p.pa, p.pb or {})):
        for m, c in part.items():
            parts.setdefault(m[i], ({}, {}))[j][m[:i] + (0,) + m[i + 1:]] = c
    return {k: CPoly(p.ring, a, b) for k, (a, b) in parts.items()}


def _content(polys):
    """The gcd of nonzero polynomials, lex-leading coefficient 1.  The
    smallest come first, and the gcd stops at the first constant."""
    c = None
    for q in sorted(polys, key=_monomial_count):
        c = _monic(q) if c is None else _gcd(c, q)
        if c.is_ground():
            break
    return c


def _prem(f: CPoly, g: CPoly, i):
    """The pseudo-remainder of f by g in x_i: the remainder of
    lc(g)^(deg f - deg g + 1) * f, which needs no division."""
    n = g.degree_in(i)
    lc = _coefficients(g, i)[n]
    k = f.degree_in(i) - n + 1
    while not f.is_zero() and (m := f.degree_in(i)) >= n:
        shift = [0] * f.ring.ngens
        shift[i] = m - n
        f = lc * f - _coefficients(f, i)[m] * CPoly.monomial(f.ring, shift) * g
        k -= 1
    return f * lc ** k


def _monic(p: CPoly):
    """p scaled to lex-leading coefficient 1."""
    return p.mul_scalar(p.leading()[1].inv())


# ---------------------------------------------------------------------------
# n-th power detection
# ---------------------------------------------------------------------------

def _rational_nth_root(q, n):
    """Exact n-th root of a rational (`MPQ`), or None."""
    if not q:
        return _Q0
    num, den = q.numerator, q.denominator
    neg = num < 0
    if neg and n % 2 == 0:
        return None
    rn = _int_nth_root(abs(num), n)
    rd = _int_nth_root(den, n)
    if rn is None or rd is None:
        return None
    return _mpq(-rn if neg else rn, rd)


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
        r = _rational_nth_root(a / -3, 2)
        if r is not None:
            return QOmega(r, 2 * r)
        return None
    # 3 y^4 + (4a - 2b) y^2 - b^2 = 0
    A, B, C = 3, 4 * a - 2 * b, -b * b
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
        den = 3 * tq * (1 - tq)
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
    """The rational roots of the cubic with rational coefficients `coeffs`,
    highest degree first and the first nonzero, in the order of sympy's
    `ground_roots`: by multiplicity, then by the primitive linear factor
    q*t - p of the root p/q.

    With integer coefficients a3 t^3 + a2 t^2 + a1 t + a0, u = a3*t is a
    root of the monic integer cubic u^3 + a2 u^2 + a1 a3 u + a0 a3^2, and by
    the rational-root theorem its rational roots are integers.
    """
    scaled, _ = _clear_denominators(dict(enumerate(map(_as_mpq, coeffs))))
    a3, a2, a1, a0 = (scaled.get(i, 0) for i in range(4))
    roots = [MPQ(u, a3) for u in _integer_roots(a2, a1 * a3, a0 * a3 * a3)]

    def multiplicity(t):
        slope = (3 * a3 * t + 2 * a2) * t + a1
        return 1 if slope else 2 if 3 * a3 * t + a2 else 3

    return sorted(roots, key=lambda t: (multiplicity(t), t.denominator, -t.numerator))


def _integer_roots(p, q, r):
    """The distinct integer roots of u^3 + p u^2 + q u + r (p, q, r integers).

    Every root lies in (-bound, bound) (Cauchy's bound).  The cubic is
    monotone below, between and above its critical points
    (-p -/+ sqrt(p^2 - 3q)) / 3.  With s = isqrt(p^2 - 3q), these lie in
    ((-p-s-1)/3, (-p-s)/3] and [(-p+s)/3, (-p+s+1)/3), so the integers up
    to floor((-p-s-1)/3), from ceil((-p-s)/3) to floor((-p+s)/3), and from
    ceil((-p+s+1)/3) on are three monotone runs.  For any integer a,
    floor((a-1)/3) + 1 >= ceil(a/3), so the runs leave no integer out.  Each
    run is searched by bisection.
    """
    def f(u):
        return ((u + p) * u + q) * u + r

    bound = 1 + max(abs(p), abs(q), abs(r))
    d = p * p - 3 * q
    if d <= 0:  # f' >= 0: monotone throughout
        runs = [(-bound, bound)]
    else:
        s = isqrt(d)
        runs = [(-bound, (-p - s - 1) // 3), (-((p + s) // 3), (-p + s) // 3),
                (-((p - s - 1) // 3), bound)]
    found = set()
    for lo, hi in runs:
        if lo > hi:
            continue
        rising = f(hi) >= f(lo)
        while lo < hi:  # the first u with f(u) >= 0 (rising) or <= 0
            mid = (lo + hi) // 2
            v = f(mid)
            if v < 0 if rising else v > 0:
                lo = mid + 1
            else:
                hi = mid
        if not f(lo):
            found.add(lo)
    return found


def poly_nth_root(p: CPoly, n):
    """An n-th root of p in Q(w)[vars], or None.

    If p = y^n, then p's least and greatest degree in each variable are n
    times y's, so a p with a min degree or a degree that n does not divide
    is refused before any power is formed.  Otherwise y is found term by
    term in lex order.  Its leading term is the n-th root of p's, the
    coefficient from `qomega_nth_roots`.  While r = p - y^n is nonzero, the
    next term is LT(r) / (n*LT(y)^(n-1)), and one outside the degree box
    [min/n, deg/n] refuses p.  LT(r) falls strictly and the box is finite,
    so the loop ends.  The powers y^j move by the binomial theorem,
    (y + t)^j = sum of C(j, i)*y^(j-i)*t^i, so a step multiplies by terms
    only.

    The n-th roots of p differ by n-th roots of unity, and the leading
    coefficient picks one: the root whose lex-leading coefficient is
    `qomega_nth_roots` of p's.
    """
    if p.is_zero():
        return CPoly.zero(p.ring)
    lo = p.min_degrees()
    if any(e % n for e in lo):
        return None
    hi = tuple(map(p.degree_in, range(p.ring.ngens)))
    if any(e % n for e in hi):
        return None
    mon, c = p.leading()
    c = qomega_nth_roots(c, n)
    if c is None:
        return None
    ring_ = p.ring

    def term(k, e, coeff):  # coeff*x^(k*e)
        return CPoly.from_terms(ring_, {tuple(k * v for v in e): coeff})

    lead = tuple(e // n for e in mon)
    ys = [term(j, lead, c ** j) for j in range(n + 1)]  # y^j
    step = (c ** (n - 1) * QOmega(n)).inv()  # 1 / LC(n*LT(y)^(n-1))
    r = p - ys[n]
    while not r.is_zero():
        mon, cr = r.leading()
        e = tuple(a - (n - 1) * b for a, b in zip(mon, lead))
        if any(n * v < a or n * v > b for v, a, b in zip(e, lo, hi)):
            return None
        ct = cr * step
        for j in range(n, 0, -1):  # downwards, so each y^(j-i) read is the old one
            for i in range(1, j + 1):
                ys[j] = ys[j] + ys[j - i] * term(i, e, ct ** i * QOmega(comb(j, i)))
        r = p - ys[n]
    return ys[1]
