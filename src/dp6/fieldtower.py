"""Rational-function field towers with explicit finite Galois actions.

A tower is F = Q(w)(x_1, ..., x_n) together with a finite group of
automorphisms, each acting by a variable permutation composed with scaling
by roots of unity.  The base field k is the fixed field of the group.
Radical extensions E = k(r) (r^n = a, a in k*) are supported, with composite
Galois groups realized as pairs (action on F, action r -> zeta*r).

Every root of unity in a group element, a variable scalar or the zeta of a
composite pair, is stored as its exponent t of zeta_6 = -w^2, an int mod 6,
so products and inverses are integer arithmetic.  Keys and reports print the
Q(w) value zeta_6^t.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from operator import add, neg, sub

from . import hexagon
from ._ratfunc import (
    UNIT_EXPONENTS,
    ZETA_EXPONENT,
    ZETA_KEYS,
    ZETA_POWERS,
    CPoly,
    QOmega,
    cancel_pair,
    monic_pair,
    monomial_image,
    pair_term,
    poly_nth_root,
    power,
    qomega_nth_roots,
    rational_ring,
    strip_monomial_content,
    term_pair,
    term_ratio,
)
from ._record import Record, field, memo


class DomainMismatchError(ValueError):
    """Element and automorphism (or two elements) live in different fields."""


class TowerError(ValueError):
    pass


class UnsupportedCompositeError(ValueError):
    """E/F intersection pattern outside {k, quadratic subfield, E inside F}."""


class CertificateError(ValueError):
    """A supplied norm certificate failed exact verification."""


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Canonical fraction num/den of Q(w)-polynomials in a tower's variables.

    A term c*x^e also carries its view (c, e) in `_t`: None for a non-term,
    `_UNREAD` until read.  A term built from its view fills num/den by
    `term_pair` on first read; hashing and `key()` read the pair, and so
    does equality unless both views are known.
    """

    __slots__ = ("tower", "num", "den", "_t")

    def __init__(self, tower, num: CPoly, den: CPoly, _canonical=False):
        self.tower = tower
        self._t = _UNREAD
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = cancel_pair(num, den)

    def __getattr__(self, name):
        # reached only for an unset slot: num and den of an element built by
        # _from_term; a set slot is read without this call
        if name != "num" and name != "den":
            raise AttributeError(f"'FieldElement' object has no attribute {name!r}")
        c, e = self._t
        self.num, self.den = term_pair(self.tower.ring, c, e)
        return self.num if name == "num" else self.den

    # -- helpers ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower:
                raise DomainMismatchError("elements of different towers")
            return other
        if isinstance(other, int):
            return self.tower.const(QOmega(other))
        if hasattr(other, "digits"):
            return None  # radical element: let its reflected operator handle it
        raise DomainMismatchError(f"cannot coerce {other!r}")

    def is_zero(self):
        # a term is never zero
        return type(self._t) is not tuple and self.num.is_zero()

    def is_one(self):
        t = self._t
        if type(t) is tuple:
            return t[0].is_one() and not any(t[1])
        return self.num == self.den

    def is_constant(self):
        return self.num.is_ground() and self.den.is_ground()

    def is_monomial_quotient(self):
        return self.num.is_monomial() and self.den.is_monomial()

    def _term(self):
        """(c, e) when self is the term quotient c*x^e with e in Z^n, else None.

        Canonical, it is c*x^(e+) / x^(e-): the denominator is monic, so its
        one term has coefficient 1.  Read from the pair once, then cached.
        """
        t = self._t
        if t is _UNREAD:
            t = self._t = pair_term(self.num, self.den)
        return t

    def _product(self, o, divide=False):
        """self * o, or self / o when `divide`, made canonical.

        The cases, in order:

        1. term x term: self = c1*x^e1 and o = c2*x^e2 give the term quotient
           c1*c2 * x^(e1+e2), or c1/c2 * x^(e1-e2), with no polynomial
           product;
        2. one term side: the common monomial content is the whole gcd (see
           `monic_pair`); a factor 1, the term (1, 0), gives the other factor
           (1/o is o.inv());
        3. cross pairs: write the product as a/b * c/d (for a quotient,
           a/b * d/c).  When a = t1*d and c = t2*b for terms t1 and t2
           (`term_ratio`), it is the term t1*t2: no product, no gcd;
        4. general: `cancel_pair`.

        The term rules are exact.  `term_pair` writes c*x^e as c*x^(e+) over
        x^(e-).  The supports of e+ and e- are disjoint, so the pair is
        coprime, and x^(e-) is monic.  The canonical form is unique, so the
        pair equals the one the gcd route gives, here of a*c / (b*d) = t1*t2
        in case 3.  That is the term case of Henrici's gcd(a*c, b*d) =
        gcd(a, d) * gcd(c, b) for coprime a/b and c/d.
        """
        s, t = self._term(), o._term()
        if s is not None and t is not None:
            (c1, e1), (c2, e2) = s, t
            if divide:
                return _from_term(self.tower, c1 * c2.inv(), tuple(map(sub, e1, e2)))
            return _from_term(self.tower, c1 * c2, tuple(map(add, e1, e2)))
        if t is not None and o.is_one():
            return self
        if s is not None and self.is_one():
            return o.inv() if divide else o
        c, d = (o.den, o.num) if divide else (o.num, o.den)
        if s is None and t is None:
            t1 = term_ratio(self.num, d)
            t2 = term_ratio(c, self.den) if t1 else None
            if t2:
                return _from_term(self.tower, t1[0] * t2[0], tuple(map(add, t1[1], t2[1])))
        num, den = self.num * c, self.den * d
        if s is not None or t is not None:
            num, den = monic_pair(*strip_monomial_content(num, den))
            return FieldElement(self.tower, num, den, _canonical=True)
        return FieldElement(self.tower, num, den)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        t = self._t
        if type(t) is tuple:
            return _from_term(self.tower, -t[0], t[1])
        return FieldElement(self.tower, -self.num, self.den, _canonical=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._product(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError
        return self._product(o, divide=True)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inv(self):
        t = self._term()
        if t is not None:
            # (c*x^e)^-1 = c^-1 * x^-e
            c, e = t
            return _from_term(self.tower, c.inv(), tuple(map(neg, e)))
        if self.is_zero():
            raise ZeroDivisionError
        # swapping a coprime pair keeps it coprime: only the scale moves
        return FieldElement(self.tower, *monic_pair(self.den, self.num), _canonical=True)

    def __pow__(self, k):
        t = self._term()
        if t is not None:
            # (c*x^e)^k = c^k * x^(k*e), for negative k too
            c, e = t
            return _from_term(self.tower, c**k, tuple(map(k.__mul__, e)))
        if k < 0:
            return self.inv() ** (-k)
        # powers of a coprime pair are coprime, and of a monic den monic
        return FieldElement(self.tower, self.num**k, self.den**k, _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, int):
                other = self.tower.const(QOmega(other))
            else:
                return NotImplemented
        # two term views, or a term and a non-term, compare without the pairs;
        # otherwise the canonical pairs make the comparison literal
        t, u = self._t, other._t
        if type(t) is tuple:
            if type(u) is tuple or u is None:
                return t == u
        elif t is None and type(u) is tuple:
            return False
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.key(), self.den.key()))

    def key(self):
        return (self.num.key(), self.den.key())

    def nth_root(self, n):
        """Exact n-th root in F, or None."""
        rn = poly_nth_root(self.num, n)
        if rn is None:
            return None
        rd = poly_nth_root(self.den, n)
        if rd is None:
            return None
        # roots of a coprime pair are coprime, and of a monic den monic
        return FieldElement(self.tower, rn, rd, _canonical=True)

    def __repr__(self):
        if self.den == CPoly.one(self.tower.ring):
            return f"{self.num}"
        return f"({self.num})/({self.den})"


_UNREAD = object()  # FieldElement._t before the term view is first read
_new = object.__new__


def _from_term(tower, c, e):
    """The term element c*x^e from its view: c nonzero, e a tuple of ints.

    Its pair is left unset; `FieldElement.__getattr__` fills it on first read.
    """
    x = _new(FieldElement)
    x.tower = tower
    x._t = (c, e)
    return x


def represent(x: FieldElement, tower) -> FieldElement:
    """x as an element of `tower`, a presentation of the same field as x's
    tower (equal `field_key()`): the same canonical pair over the same
    variables, so keys and hashes are unchanged."""
    if x.tower is tower:
        return x
    return FieldElement(tower, x.num, x.den, _canonical=True)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class VarAutomorphism:
    """x_i -> zeta^zexp[i] * x_{perm[i]}, with zeta = -w^2.

    The constructor takes the scalars as roots of unity in Q(w) and keeps
    their exponents, so products, inverses and the Galois action reduce
    scalar powers mod 6.  Any other scalar, or a perm that is not a
    permutation of range(n), raises TowerError.  `_from_zexp` makes only
    identities, products and inverses, which are permutations already.
    """

    __slots__ = ("perm", "zexp", "_hash", "_key")

    def __init__(self, perm, scal):
        self._hash = self._key = None
        self.perm = tuple(perm)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise TowerError(f"{list(self.perm)} is not a permutation of the variables")
        scal = tuple(scal)
        if len(self.perm) != len(scal):
            raise ValueError("perm/scal length mismatch")
        zexp = []
        for s in scal:
            t = ZETA_EXPONENT.get(s)
            if t is None:
                raise TowerError(f"scalar {s!r} is not a root of unity of Q(w)")
            zexp.append(t)
        self.zexp = tuple(zexp)

    @classmethod
    def _from_zexp(cls, perm, zexp):
        u = cls.__new__(cls)
        u.perm, u.zexp, u._hash, u._key = tuple(perm), tuple(zexp), None, None
        return u

    @classmethod
    def identity(cls, n):
        return cls._from_zexp(range(n), (0,) * n)

    def is_identity(self):
        return all(p == i for i, p in enumerate(self.perm)) and not any(self.zexp)

    def __mul__(self, other):
        """(self*other)(x) = self(other(x))."""
        n = len(self.perm)
        perm = [0] * n
        zexp = [0] * n
        for i in range(n):
            j = other.perm[i]
            perm[i] = self.perm[j]
            zexp[i] = (other.zexp[i] + self.zexp[j]) % 6
        return VarAutomorphism._from_zexp(perm, zexp)

    def inverse(self):
        n = len(self.perm)
        perm = [0] * n
        zexp = [0] * n
        for i in range(n):
            perm[self.perm[i]] = i
            zexp[self.perm[i]] = -self.zexp[i] % 6
        return VarAutomorphism._from_zexp(perm, zexp)

    def __eq__(self, other):
        return (
            isinstance(other, VarAutomorphism)
            and self.perm == other.perm
            and self.zexp == other.zexp
        )

    def __hash__(self):
        # perm and zexp are set once, by the constructors, so the hash and
        # the key are computed once per object
        h = self._hash
        if h is None:
            h = self._hash = hash((self.perm, self.zexp))
        return h

    def key(self):
        k = self._key
        if k is None:
            k = self._key = (self.perm, tuple(ZETA_KEYS[t] for t in self.zexp))
        return k

    def __repr__(self):
        return f"VarAut(perm={self.perm}, scal={[str(ZETA_POWERS[t]) for t in self.zexp]})"


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

_PRESENTATIONS = {
    "Z6": {"gens": {"g": 3, "h": 2}, "relations": [("gh", "hg")]},
    "S3": {"gens": {"g": 3, "f": 2}, "relations": [("fgf", "gg")]},
    "D6": {
        "gens": {"g": 3, "h": 2, "f": 2},
        "relations": [("gh", "hg"), ("hf", "fh"), ("fgf", "gg")],
    },
}

DEFAULT_EMBEDDING = {
    "g": hexagon.ROT3,
    "h": hexagon.CENTRAL,
    "f": hexagon.REFLECT_F,
}


class GaloisTower:
    """Q(w)(x_1..x_n) with a finite group of monomial automorphisms.

    Generators are named g, h, f (a subset, per the group type); the embedding
    into the hexagon symmetry group D6 is stored explicitly and never inferred.

    `memo(key, build)` keeps values that depend only on the key and on the
    group data that `__init__` alone assigns (`variables`, `generators`,
    `elements`, `embed_map`), so callers with equal keys share them:
      ("element", word)         element_named(word);
      ("subgroup", words)       subgroup(words), a frozenset;
      ("subgroup?", fixing)     True: the frozenset passed _check_subgroup;
      ("in k", a.key())         whether a is fixed by the whole group;
      ("invariants", a.key())   _radicand_invariants(a) for same_field;
      ("composite", ext.key())  the CompositeGroup of points.composite_for;
      ("sb-fields",)            (K, L, L_i) of surface._tower_fields.
    No caller changes a value.  A build that raises stores nothing, so an
    unknown generator or a set that is not a subgroup raises on every call.
    """

    def __init__(self, variables, generators, embedding=None, name=None):
        self.variables = tuple(variables)
        self.name = name or "F"
        self.ring = rational_ring(self.variables)
        self.generators = dict(generators)
        for gname, u in self.generators.items():
            if len(u.perm) != len(self.variables):
                raise TowerError(f"generator {gname} has wrong arity")
        self.embedding = dict(embedding) if embedding else {
            n: DEFAULT_EMBEDDING[n] for n in self.generators
        }
        self._memo = {}
        # the entry of _PRESENTATIONS the generators satisfy; verify_cocycle
        # checks a surface's cocycle on the same relations
        self.gtype = self._check_presentation()
        self.presentation = _PRESENTATIONS[self.gtype]
        idn = VarAutomorphism.identity(len(self.variables))
        self.words = hexagon.closure(idn, self.generators, VarAutomorphism.__mul__, 12)
        self.elements = list(self.words)
        self.embed_map = self._extend_embedding()
        self._field_key = (self.variables,
                           tuple(sorted(u.key() for u in self.elements)))
        self._key = (
            self.variables,
            tuple(sorted((n, u.key()) for n, u in self.generators.items())),
            tuple(sorted((n, self.embed_map[u]) for n, u in self.generators.items())))

    def memo(self, key, build):
        """build() for key, computed on the first call and kept on the tower."""
        return memo(self._memo, key, build)

    # -- group structure ---------------------------------------------------
    def _check_presentation(self):
        """The group type whose presentation the generators satisfy."""
        gens = self.generators
        names = set(gens)
        gtype = next((t for t, pres in _PRESENTATIONS.items()
                      if set(pres["gens"]) == names), None)
        if gtype is None:
            raise TowerError(f"unsupported generator set {sorted(names)}")
        pres = _PRESENTATIONS[gtype]
        for gname, order in pres["gens"].items():
            u = gens[gname]
            if u.is_identity() or element_order(u) != order:
                raise TowerError(f"generator {gname} must have order {order}")
        for lhs, rhs in pres["relations"]:
            if self.element_named(lhs) != self.element_named(rhs):
                raise TowerError(f"presentation relation {lhs} = {rhs} fails")
        return gtype

    def _extend_embedding(self):
        out = {}
        for u, word in self.words.items():
            p = hexagon.IDENTITY
            for gname in word:
                p = hexagon.compose(p, self.embedding[gname])
            out[u] = p
        if len(set(out.values())) != len(out):
            raise TowerError("embedding into D6 is not injective")
        return out

    def element_named(self, word):
        """Group element for a word like "g", "gh", "gf", "s"."""
        return self.memo(("element", word), lambda: self._word_product(word))

    def _word_product(self, word):
        if word == "s":
            word = "hf"
        u = VarAutomorphism.identity(len(self.variables))
        for ch in word:
            if ch == "1":
                continue
            if ch not in self.generators:
                raise TowerError(f"unknown generator {ch!r} in {word!r}")
            u = u * self.generators[ch]
        return u

    def subgroup(self, words):
        """Subgroup generated by the given words, as a frozenset of elements."""
        words = tuple(words)
        return self.memo(("subgroup", words), lambda: self._closure(words))

    def _closure(self, words):
        gens = {i: self.element_named(w) for i, w in enumerate(words)}
        idn = VarAutomorphism.identity(len(self.variables))
        return frozenset(hexagon.closure(idn, gens, VarAutomorphism.__mul__, 12))

    def _check_subgroup(self, fixing):
        """True if `fixing` lies inside the group and is closed under
        products; raises TowerError otherwise."""
        if not fixing <= set(self.elements):
            raise TowerError("fixing set is not inside the tower group")
        for a, b in itertools.product(fixing, repeat=2):
            if a * b not in fixing:
                raise TowerError("fixing set is not a subgroup")
        return True

    # -- elements ----------------------------------------------------------
    def var_index(self, name):
        return self.variables.index(name)

    # x/1 and c/1 are already canonical: coprime, with a monic denominator
    def var(self, name):
        return FieldElement(self, CPoly.variable(self.ring, self.var_index(name)),
                            CPoly.one(self.ring), _canonical=True)

    def const(self, c: QOmega):
        return FieldElement(self, CPoly.const(self.ring, c), CPoly.one(self.ring),
                            _canonical=True)

    def one(self):
        return self.const(QOmega.one())

    def zero(self):
        return self.const(QOmega.zero())

    def omega(self):
        return self.const(QOmega.omega())

    def monomial(self, exponents, coeff=None):
        """The Laurent monomial coeff * x^exponents; exponents may be negative."""
        c = coeff if coeff is not None else QOmega.one()
        if c.is_zero():
            return self.zero()
        return _from_term(self, c, tuple(exponents))

    def in_base_field(self, x):
        """True iff x is fixed by the whole group (x in k)."""
        return is_fixed(x, self.generators.values())

    def key(self):
        """Identity of the tower with its presentation: variables, generators
        and their images in D6."""
        return self._key

    def field_key(self):
        """Presentation-independent identity of (F, Gal(F/k)) as a field pair."""
        return self._field_key

    def __repr__(self):
        return f"GaloisTower({self.name}: {self.gtype} on {self.variables})"


# ---------------------------------------------------------------------------
# apply / norm / fixedness
# ---------------------------------------------------------------------------

def apply(u, x):
    """Galois action u(x); a field homomorphism.

    u may be a VarAutomorphism (acting on tower elements) or a
    CompositeElement (acting on radical-extension elements or, by restriction,
    on tower elements).
    """
    if isinstance(u, CompositeElement):
        if isinstance(x, RadElement):
            if x.comp is not u.comp:
                raise DomainMismatchError("element of a different composite field")
            return twist(RadElement(x.comp, [apply(u.uf, d) for d in x.digits]), u.zexp)
        if isinstance(x, FieldElement):
            return apply(u.uf, x)
        raise DomainMismatchError(f"cannot apply composite element to {x!r}")
    if isinstance(u, VarAutomorphism):
        if isinstance(x, FieldElement):
            if len(u.perm) != len(x.tower.variables):
                raise DomainMismatchError("automorphism arity mismatch")
            t = x._term()
            if t is not None:
                # u(c*x^e) = c * zeta^s * x^e', the rule `substitute` applies
                # to each term of a polynomial
                c, e = t
                img, s = monomial_image(u.perm, u.zexp, e)
                return _from_term(x.tower, c * ZETA_POWERS[s] if s else c, img)
            # a ring automorphism keeps a coprime pair coprime: no gcd needed
            num, den = monic_pair(x.num.substitute(u.perm, u.zexp),
                                  x.den.substitute(u.perm, u.zexp))
            return FieldElement(x.tower, num, den, _canonical=True)
        raise DomainMismatchError(f"cannot apply tower automorphism to {x!r}")
    raise DomainMismatchError(f"not an automorphism: {u!r}")


def twist(x, t):
    """x with digit i multiplied by zeta^(i*t): the image of x under r -> zeta^t*r.

    A unit times a canonical numerator over the same monic denominator is
    canonical, so no digit is cancelled again.
    """
    digits = []
    for i, d in enumerate(x.digits):
        s = i * t % 6
        if s and not d.is_zero():
            d = FieldElement(d.tower, d.num.mul_scalar(ZETA_POWERS[s]), d.den,
                             _canonical=True)
        digits.append(d)
    return RadElement(x.comp, digits)


def element_order(u):
    """The order of a VarAutomorphism or CompositeElement.

    A group of at most 12 elements has no element of larger order.
    """
    v, n = u, 1
    while not v.is_identity():
        if n == 12:
            raise TowerError("automorphism order exceeds 12")
        v, n = v * u, n + 1
    return n


def norm(u, x):
    """Norm of x under the cyclic group generated by u: prod of u^k(x)."""
    return _norm_n(u, x, element_order(u))


def is_fixed(x, autos):
    return all(apply(u, x) == x for u in autos)


# ---------------------------------------------------------------------------
# radical extensions and composites
# ---------------------------------------------------------------------------

class ExtensionDescriptor(Record, frozen=True):
    """One of: subfield-of-F, kummer-cubic, quadratic, kummer-cubic-with-conjugation.

    The radical kinds adjoin r with r^n = a, a in k*; the Galois generators act
    by w: r -> w*r and t: r -> -r (Kummer convention).
    """

    kind: str
    tower: GaloisTower
    radicand: FieldElement | None = None
    fixing: frozenset | None = None
    name: str = "E"

    KINDS = ("subfield", "kummer-cubic", "quadratic", "kummer-cubic-with-conjugation")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise TowerError(f"unknown extension kind {self.kind!r}")
        if self.kind == "subfield":
            if self.fixing is None:
                raise TowerError("subfield extension needs a fixing subgroup")
            fixing = frozenset(self.fixing)
            self.tower.memo(("subgroup?", fixing),
                            lambda: self.tower._check_subgroup(fixing))
        else:
            a = self.radicand
            if a is None or a.is_zero():
                raise TowerError("radical extension needs a nonzero radicand")
            tower = self.tower
            if not tower.memo(("in k", a.key()), lambda: tower.in_base_field(a)):
                raise TowerError("radicand is not fixed by the tower group")

    @property
    def degree(self):
        if self.kind == "subfield":
            return len(self.tower.elements) // len(self.fixing)
        return {"kummer-cubic": 3, "quadratic": 2, "kummer-cubic-with-conjugation": 6}[
            self.kind
        ]

    def genuineness_errors(self):
        """Reasons the extension would collapse to a smaller degree."""
        errs = []
        if self.kind == "kummer-cubic" and _root_in_base(self.tower, self.radicand, 3):
            errs.append("radicand is a cube in k")
        if self.kind == "quadratic" and _root_in_base(self.tower, self.radicand, 2):
            errs.append("radicand is a square in k")
        if self.kind == "kummer-cubic-with-conjugation":
            if _root_in_base(self.tower, self.radicand, 2):
                errs.append("radicand is a square in k")
            if _root_in_base(self.tower, self.radicand, 3):
                errs.append("radicand is a cube in k")
        return errs

    def fixing_subgroup_in_F(self):
        """For E inside F: the subgroup of Gal(F/k) fixing E pointwise, or None."""
        if self.kind == "subfield":
            return self.fixing
        root = self.radicand.nth_root(self.degree)
        if root is None:
            return None
        return frozenset(u for u in self.tower.elements if apply(u, root) == root)

    def same_field(self, other):
        """Tri-valued field equality with another descriptor (True/False/None).

        Radicand comparisons use Kummer theory: k(a^(1/n)) = k(b^(1/n)) iff
        a/b^j is an n-th power in k for some j coprime to n.  Root detection in
        the ambient rational-function field is exact, so radical-vs-radical
        comparisons always decide.  The degree and the order at 0 in each
        variable are homomorphisms v: F* -> Z, and v(c^n) = n*v(c), so a j
        with v(a) - j*v(b) not divisible by n is refused before a/b^j is
        formed.  So is a j with a(P)/b(P)^j not an n-th power in Q(w), P the
        `_test_point`, when no numerator or denominator of a or b vanishes
        at P: evaluation at P is a homomorphism onto Q(w)* from the
        functions regular and nonzero at P, and the n-th powers among them
        stay n-th powers.  Neither test implies the other: at P = (2, 3, 5,
        7), s*t1*t2*t3 / (s*(t1+3)*(t2+3)*(t3+3)) is 1/8, a cube, while its
        order at 0 in t1 is 1.  A subfield of F equals a radical exactly
        when the radical's root lies in F with the same fixing group.
        """
        if self.tower is not other.tower:
            if self.tower.field_key() != other.tower.field_key():
                return None
        if self.kind != other.kind:
            if "subfield" in (self.kind, other.kind):
                sub, rad = (self, other) if self.kind == "subfield" else (other, self)
                return rad.fixing_subgroup_in_F() == sub.fixing
            if self.degree != other.degree:
                return False
            return None
        if self.kind == "subfield":
            return self.fixing == other.fixing
        n, tower = self.degree, self.tower
        a, b = self.radicand, represent(other.radicand, tower)
        va, at = tower.memo(("invariants", a.key()), lambda: _radicand_invariants(a))
        vb, bt = tower.memo(("invariants", b.key()), lambda: _radicand_invariants(b))
        return any(gcd(j, n) == 1
                   and all((x - j * y) % n == 0 for x, y in zip(va, vb))
                   and (at is None or bt is None
                        or qomega_nth_roots(at * bt**-j, n) is not None)
                   and _root_in_base(tower, a / b**j, n)
                   for j in range(1, n))

    def key(self):
        if self.kind == "subfield":
            return ("sub", self.tower.key(), tuple(sorted(u.key() for u in self.fixing)))
        return (self.kind, self.tower.key(), self.radicand.key())

    def field_id(self):
        """Identity of the field alone: independent of its label and of the
        presentation of the tower."""
        if self.kind == "subfield":
            return ("sub", self.tower.field_key(),
                    tuple(sorted(u.key() for u in self.fixing)))
        return ("rad", self.kind, self.tower.field_key(), self.radicand.key())


@lru_cache(maxsize=4)
def _test_point(n):
    """The first n primes: the point at which same_field evaluates radicands."""
    primes = []
    p = 2
    while len(primes) < n:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    return tuple(primes)


def _radicand_invariants(x: FieldElement):
    """What same_field compares of a radicand x: the degree and the order at 0
    of x in each variable, and x at `_test_point` (None when its numerator or
    denominator vanishes there)."""
    num, den = x.num, x.den
    vals = ([num.degree_in(i) - den.degree_in(i) for i in range(len(x.tower.variables))]
            + [a - b for a, b in zip(num.min_degrees(), den.min_degrees())])
    point = _test_point(len(x.tower.variables))
    num, den = num.evaluate(point), den.evaluate(point)
    return vals, None if num.is_zero() or den.is_zero() else num * den.inv()


def _root_in_base(tower, a, n):
    """a has an n-th root fixed by the tower group.  The n-th roots of a are
    zeta*y for one root y, and every tower automorphism fixes Q(w), so
    u(zeta*y) = zeta*u(y): zeta*y is fixed exactly when y is."""
    root = a.nth_root(n)
    return root is not None and is_fixed(root, tower.generators.values())


class CompositeElement:
    """Element of Gal(FE/k): a pair (tower automorphism, r -> zeta^zexp * r)."""

    __slots__ = ("comp", "uf", "zexp")

    def __init__(self, comp, uf: VarAutomorphism, zexp: int):
        self.comp = comp
        self.uf = uf
        self.zexp = zexp

    def __mul__(self, other):
        return CompositeElement(self.comp, self.uf * other.uf, (self.zexp + other.zexp) % 6)

    def is_identity(self):
        return self.uf.is_identity() and not self.zexp

    def inverse(self):
        return CompositeElement(self.comp, self.uf.inverse(), -self.zexp % 6)

    def __eq__(self, other):
        return (
            isinstance(other, CompositeElement)
            and self.uf == other.uf
            and self.zexp == other.zexp
        )

    def __hash__(self):
        return hash((self.uf, self.zexp))

    def key(self):
        return (self.uf.key(), ZETA_KEYS[self.zexp])

    def __repr__(self):
        return f"CompositeElement({self.uf!r}, r->{ZETA_POWERS[self.zexp]}*r)"


class RadElement:
    """Element of FE = F[r]/(r^m - red), as a digit vector over F."""

    __slots__ = ("comp", "digits")

    def __init__(self, comp, digits):
        self.comp = comp
        digits = list(digits)
        while len(digits) < comp.rdeg:
            digits.append(comp.tower.zero())
        if len(digits) != comp.rdeg:
            raise DomainMismatchError("digit vector has wrong length")
        self.digits = tuple(digits)

    def is_zero(self):
        return all(d.is_zero() for d in self.digits)

    def _coerce(self, other):
        if isinstance(other, RadElement):
            if other.comp is not self.comp:
                raise DomainMismatchError("different composite fields")
            return other
        if isinstance(other, FieldElement):
            return self.comp.embed(other)
        if isinstance(other, int):
            return self.comp.embed(self.comp.tower.const(QOmega(other)))
        raise DomainMismatchError(f"cannot coerce {other!r}")

    def __add__(self, other):
        o = self._coerce(other)
        return RadElement(self.comp, [a + b for a, b in zip(self.digits, o.digits)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return RadElement(self.comp, [a - b for a, b in zip(self.digits, o.digits)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RadElement(self.comp, [-a for a in self.digits])

    def _over_common_den(self):
        """(nums, exps, factors): digit i is nums[i] / (x^exps * prod(factors)).

        The denominator is the lcm of the digits' monomial contents times
        each distinct non-monomial rest; nums[i] is None for a zero digit.
        """
        ring = self.comp.tower.ring
        shifts = [d.den.min_degrees() for d in self.digits]
        rests = [d.den.shift_down(s) if any(s) else d.den
                 for d, s in zip(self.digits, shifts)]
        exps = tuple(max(e) for e in zip(*shifts))
        factors = []
        for q in rests:
            if not q.is_ground() and q not in factors:
                factors.append(q)
        nums = []
        for d, s, q in zip(self.digits, shifts, rests):
            if d.is_zero():
                nums.append(None)
                continue
            a = d.num
            if s != exps:
                a = a * CPoly.monomial(ring, [e - f for e, f in zip(exps, s)])
            for f in factors:
                if f != q:
                    a = a * f
            nums.append(a)
        return nums, exps, factors

    def __mul__(self, other):
        """Digit polynomials over one denominator, one cancel per digit.

        Each side is sum A_i r^i / D (`_over_common_den`); digit k of the
        product is C_k / (D_self * D_other * den(red)), C_k the sum of A_i B_j
        with i + j = k, times num(red) where i + j wraps past m (r^m = red)
        and den(red) where it does not.  The known rational factors of that
        denominator are divided out of C_k where they divide it before
        `cancel_pair` takes the gcd of what is left, so a product that cancels
        back to small digits, such as (x*y) * y^-1, needs no large gcd.
        An element of F multiplies each digit.
        """
        comp = self.comp
        if isinstance(other, int):
            other = comp.tower.const(QOmega(other))
        if isinstance(other, FieldElement):
            if other.tower is not comp.tower:
                raise DomainMismatchError("element of a different tower")
            return RadElement(comp, [d if d.is_zero() else d * other for d in self.digits])
        o = self._coerce(other)
        m = comp.rdeg
        ring = comp.tower.ring
        red = comp.reduction
        a_nums, a_exps, a_factors = self._over_common_den()
        b_nums, b_exps, b_factors = o._over_common_den()
        low = [CPoly.zero(ring)] * m
        high = [CPoly.zero(ring)] * m
        for i, a in enumerate(a_nums):
            if a is None:
                continue
            for j, b in enumerate(b_nums):
                if b is None:
                    continue
                if i + j < m:
                    low[i + j] = low[i + j] + a * b
                else:
                    high[i + j - m] = high[i + j - m] + a * b
        factors = a_factors + b_factors
        if not red.den.is_ground():
            factors.append(red.den)
        mono = CPoly.monomial(ring, [e + f for e, f in zip(a_exps, b_exps)])
        out = []
        for lo, hi in zip(low, high):
            c = lo * red.den + hi * red.num
            den = mono
            for f in factors:
                q = c.exquo_rational(f) if f.is_rational() else None
                if q is None:
                    den = den * f
                else:
                    c = q
            out.append(FieldElement(comp.tower, c, den))
        return RadElement(comp, out)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError
        m = self.comp.rdeg
        nz = [i for i, d in enumerate(self.digits) if not d.is_zero()]
        if len(nz) == 1:
            i = nz[0]
            c = self.digits[i]
            if i == 0:
                return self.comp.embed(c.inv())
            # (c r^i)^-1 = r^(m-i) / (c * red)
            digits = [self.comp.tower.zero()] * m
            digits[m - i] = (c * self.comp.reduction).inv()
            return RadElement(self.comp, digits)
        # general: x^-1 = prod_{j>0} s_j(x) / N(x), where s_j fixes F and
        # sends r to zeta_m^j * r; the norm N(x) = x * prod_{j>0} s_j(x) is
        # fixed by every s_j, so it lies in F (digit 0)
        idn = VarAutomorphism.identity(len(self.comp.tower.variables))
        conj = None
        for j in range(1, m):
            s_j = CompositeElement(self.comp, idn, j * 6 // m)
            y = apply(s_j, self)
            conj = y if conj is None else conj * y
        return conj * (self * conj).digits[0].inv()

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inv()
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, self.comp.one())

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except DomainMismatchError:
            return NotImplemented
        return self.digits == o.digits

    def __hash__(self):
        return hash(tuple(d.key() for d in self.digits))

    def key(self):
        return tuple(d.key() for d in self.digits)

    def __repr__(self):
        parts = []
        for i, d in enumerate(self.digits):
            if d.is_zero():
                continue
            parts.append(f"({d})" + ("" if i == 0 else f"*r^{i}" if i > 1 else "*r"))
        return " + ".join(parts) if parts else "0"


class CompositeField:
    """FE for a tower F and a radical extension E (E not inside F)."""

    def __init__(self, tower, ext, rdeg, reduction, intersection):
        self.tower = tower
        self.ext = ext
        self.rdeg = rdeg  # [FE : F]
        self.reduction = reduction  # r^rdeg = reduction, an element of F
        self.intersection = intersection  # "k" or "quadratic"

    def embed(self, x: FieldElement):
        if x.tower is not self.tower:
            raise DomainMismatchError("element of a different tower")
        return RadElement(self, [x] + [self.tower.zero()] * (self.rdeg - 1))

    def r(self):
        digits = [self.tower.zero()] * self.rdeg
        digits[1] = self.tower.one()
        return RadElement(self, digits)

    def one(self):
        return self.embed(self.tower.one())

    def element(self, uf, zexp):
        return CompositeElement(self, uf, zexp)


class CompositeGroup(Record):
    """Gal(FE/k) presented by named generator pairs, per the composite lemma."""

    tower: GaloisTower
    ext: ExtensionDescriptor
    comp: CompositeField | None  # None when E is inside F
    generators: dict
    elements: list
    intersection: str  # "k", "quadratic", or "contained"

    @property
    def order(self):
        return len(self.elements)


def composite_group(tower: GaloisTower, ext: ExtensionDescriptor) -> CompositeGroup:
    """Galois group of the composite FE over k.

    Supported intersection patterns: E inside F, E meet F = k, and E meet F a
    quadratic subfield of F (only for the degree-6 radical kind).
    """
    if ext.tower is not tower:
        raise DomainMismatchError("extension over a different tower")
    errs = ext.genuineness_errors()
    if errs:
        raise UnsupportedCompositeError("; ".join(errs))

    if ext.kind == "subfield" or ext.radicand.nth_root(ext.degree) is not None:
        # E embeds into F: the composite is F itself
        return CompositeGroup(tower, ext, None, dict(tower.generators),
                              list(tower.elements), "contained")

    # the elements are the pairs (u, t) with t * m = shift[u] mod 6, where
    # zeta^shift[u] = u(q)/q in the quadratic-intersection case, else 0
    a, m = ext.radicand, ext.degree
    q = a.nth_root(2) if m == 6 else None
    if m == 6 and q is None and a.nth_root(3) is not None:
        raise UnsupportedCompositeError(
            "E meet F would be a cubic subfield; not supported"
        )
    if q is None:
        intersection, reduction = "k", a
        shift = dict.fromkeys(tower.elements, 0)
    else:
        # quadratic intersection: identify r^3 with the square root q of a in F
        intersection, reduction, m = "quadratic", q, 3
        shift = {u: ZETA_EXPONENT[_as_qomega(apply(u, q) / q)] for u in tower.elements}
    comp = CompositeField(tower, ext, m, reduction, intersection)
    elements = [comp.element(u, t) for u in tower.elements
                for t in UNIT_EXPONENTS if t * m % 6 == shift[u]]
    gens = {gname: comp.element(u, shift[u]) for gname, u in tower.generators.items()}
    idv = VarAutomorphism.identity(len(tower.variables))
    if m % 3 == 0:
        gens["w"] = comp.element(idv, 2)
    if m % 2 == 0:
        gens["t"] = comp.element(idv, 3)
    return CompositeGroup(tower, ext, comp, gens, elements, intersection)


def _as_qomega(x: FieldElement) -> QOmega:
    """The value of a nonzero constant x; its canonical denominator is 1."""
    if not x.is_constant():
        raise TowerError("expected a constant")
    return x.num.leading()[1]


# ---------------------------------------------------------------------------
# the three-valued norm-class oracle
# ---------------------------------------------------------------------------

IS_NORM = "IsNorm"
NOT_NORM = "NotNorm"
UNKNOWN = "Unknown"
VERDICTS = (IS_NORM, NOT_NORM, UNKNOWN)


def check_verdict(verdict):
    """verdict if it is one of VERDICTS; a foreign value is refused."""
    if verdict not in VERDICTS:
        raise TowerError(f"not a norm-class verdict: {verdict!r}")
    return verdict


class ClassFact(Record, frozen=True):
    """Verdict on `subject in Norm_u`, with machine-checkable provenance."""

    subject_key: tuple
    generator_key: tuple
    verdict: str
    provenance: str
    detail: tuple = ()
    witness: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        check_verdict(self.verdict)

    @property
    def assumed(self):
        return self.provenance == "assumed"


class FactRegistry:
    """Per-session store of norm-class facts; proven facts are never overridden."""

    def __init__(self):
        self._facts = {}
        self.used_assumed = []

    @staticmethod
    def _key(x, u):
        return (x.key(), u.key())

    def record(self, x, u, fact: ClassFact):
        key = self._key(x, u)
        prior = self._facts.get(key)
        if prior is not None and not prior.assumed:
            if fact.assumed:
                return prior
            if prior.verdict != fact.verdict:
                raise TowerError(
                    f"contradictory norm-class verdicts for {key}: "
                    f"{prior.verdict} vs {fact.verdict}"
                )
            return prior
        self._facts[key] = fact
        return fact

    def lookup(self, x, u):
        return self._facts.get(self._key(x, u))

    def assume(self, x, u, verdict, note=""):
        fact = ClassFact(x.key(), u.key(), verdict, "assumed", (note,))
        return self.record(x, u, fact)

    def note_assumed_use(self, fact):
        if fact.assumed and fact not in self.used_assumed:
            self.used_assumed.append(fact)


def _norm_n(uf, x, n):
    """Product of uf^k(x) for k < n (n need not be the order of uf)."""
    out = x
    y = x
    for _ in range(n - 1):
        y = apply(uf, y)
        out = out * y
    return out


def norm_class(x: FieldElement, u, cert=None, registry: FactRegistry | None = None):
    """Three-valued membership of x in Norm_u(F*), u a tower automorphism.

    IsNorm requires an exact certificate (supplied, or found for monomial
    data); NotNorm requires a valuation or quadratic-residue proof; otherwise
    Unknown, possibly upgraded by a user-assumed fact (flagged).
    """
    if x.is_zero():
        raise TowerError("norm class of zero is undefined")
    n = element_order(u)

    def settle(fact):
        return registry.record(x, u, fact) if registry else fact

    def certified(witness):
        return settle(ClassFact(x.key(), u.key(), IS_NORM, "certificate",
                                (str(witness),), witness=witness))

    if cert is not None:
        if norm(u, cert) != x:
            raise CertificateError("certificate does not have the stated norm")
        return certified(cert)

    if registry is not None:
        prior = registry.lookup(x, u)
        if prior is not None and not prior.assumed:
            return prior

    if x.is_one():
        return certified(x.tower.one())

    # monomial certificate search
    found = _monomial_norm_preimage(x, u, n)
    if found is not None:
        return certified(found)

    # valuation proof on a distinguished variable
    tower = x.tower
    group = list(tower.elements)
    for i, vname in enumerate(tower.variables):
        if not _degree_preserved(group, i):
            continue
        d = x.num.degree_in(i) - x.den.degree_in(i)
        if d % n != 0:
            return settle(ClassFact(x.key(), u.key(), NOT_NORM, "valuation-proof",
                                    (vname, d % n)))

    # quadratic residue proof
    if n == 2:
        for i in range(len(tower.variables)):
            if not _flips_only(u, i):
                continue
            verdict = _residue_test(x, i)
            if verdict is False:
                return settle(ClassFact(x.key(), u.key(), NOT_NORM, "residue-proof",
                                        (tower.variables[i],)))

    # x = y^n with u(y) = y is the norm of y: its n conjugates are all y
    root = x.nth_root(n)
    if root is not None and apply(u, root) == root:
        return certified(root)

    if registry is not None:
        prior = registry.lookup(x, u)
        if prior is not None:
            registry.note_assumed_use(prior)
            return prior
    return ClassFact(x.key(), u.key(), UNKNOWN, "none")


def _degree_preserved(group, index):
    return all(g.perm[index] == index for g in group)


def _flips_only(uf: VarAutomorphism, index):
    """u(v) = -v for this variable and u fixes every other variable."""
    if uf.perm[index] != index or uf.zexp[index] != 3:
        return False
    for j, (p, t) in enumerate(zip(uf.perm, uf.zexp)):
        if j == index:
            continue
        if p != j or t:
            return False
    return True


def _residue_test(x: FieldElement, index):
    """False if x cannot be a Norm_u for the order-2 flip at `index`."""
    d1, d2 = x.num.min_degrees()[index], x.den.min_degrees()[index]
    m = d1 - d2
    if m % 2 != 0:
        return False
    shift_n = [0] * len(x.tower.variables)
    shift_n[index] = d1
    shift_d = list(shift_n)
    shift_d[index] = d2
    num0 = x.num.shift_down(tuple(shift_n)).subs_zero(index)
    den0 = x.den.shift_down(tuple(shift_d)).subs_zero(index)
    # required square: (-1)^(m/2) * num0/den0
    target = num0 * den0
    if (m // 2) % 2 != 0:
        target = -target
    return poly_nth_root(target, 2) is not None


def _monomial_norm_preimage(x: FieldElement, u, n):
    """A monomial mu with Norm_u(mu) == x, when x is a monomial; else None."""
    if not x.is_monomial_quotient():
        return None
    tower = x.tower
    nvars = len(tower.variables)
    _, e = x._term()
    orbits = _perm_orbits(u.perm, nvars)
    totals = []
    for orb in orbits:
        if len({e[i] for i in orb}) != 1:
            return None
        total = e[orb[0]] * len(orb)
        if total % n:
            return None
        totals.append(total // n)
    # concentrate each orbit's exponent at each position in turn; within-orbit
    # redistribution only changes the norm by a root of unity
    positions = [list(range(len(orb))) for orb in orbits]
    seen = set()
    for placement in itertools.product(*positions):
        d = [0] * nvars
        for orb, pos, tot in zip(orbits, placement, totals):
            d[orb[pos]] = tot
        d = tuple(d)
        if d in seen:
            continue
        seen.add(d)
        mu = tower.monomial(d)
        nm = _norm_n(u, mu, n)
        ratio = x / nm
        if not ratio.is_constant():
            continue
        c = _as_qomega(ratio)
        k = qomega_nth_roots(c, n)
        if k is None:
            continue
        cand = mu * tower.const(k)
        if norm(u, cand) == x:
            return cand
    return None


def _perm_orbits(perm, n):
    seen = set()
    orbits = []
    for i in range(n):
        if i in seen:
            continue
        orb = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            orb.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(orb)
    return orbits


# ---------------------------------------------------------------------------
# Hilbert 90 witnesses for monomial data
# ---------------------------------------------------------------------------

def hilbert90_witness(lam: FieldElement, u):
    """mu with lam = mu / u(mu), for monomial-quotient lam of u-norm 1.

    Returns None (Unknown) for non-monomial input; raises if the norm-1
    precondition fails.
    """
    if not norm(u, lam).is_one():
        raise TowerError("hilbert90_witness requires norm 1")
    if not lam.is_monomial_quotient():
        return None
    tower = lam.tower
    nvars = len(tower.variables)
    _, e = lam._term()
    orbits = _perm_orbits(u.perm, nvars)
    d = [0] * nvars
    for orb in orbits:
        # walk the orbit: d_i - d_{perm^-1(i)} = e_i
        if sum(e[i] for i in orb) != 0:
            return None
        acc = 0
        for i in orb[1:]:  # _perm_orbits lists each orbit in cycle order
            acc += e[i]
            d[i] = acc
    n_ord = element_order(u)
    # adjust constants by shifting whole orbits (changes the quotient by a unit);
    # start from the shift that clears negative exponents
    base_shifts = [max(0, -min(d[i] for i in orb)) for orb in orbits]
    shift_sets = [[b + k for k in range(n_ord)] for b in base_shifts]
    for shifts in itertools.product(*shift_sets):
        dd = list(d)
        for orb, sh in zip(orbits, shifts):
            for i in orb:
                dd[i] += sh
        mu = tower.monomial(dd)
        if mu / apply(u, mu) == lam:
            return mu
    return None
