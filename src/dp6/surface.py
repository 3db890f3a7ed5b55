"""Sextic del Pezzo surfaces of Picard rank 1 as twisted toric data.

A surface is a tower together with twist parameters (xi and, for the Z6/D6
types, rho) satisfying the displayed coefficient conditions; the cocycle
sending each Galois generator to a twisted automorphism is materialized and
verified on construction.
"""

from __future__ import annotations

from . import hexagon
from ._record import Record, field, memo
from .fieldtower import (
    ExtensionDescriptor,
    FactRegistry,
    FieldElement,
    GaloisTower,
    IS_NORM,
    NOT_NORM,
    TowerError,
    UNKNOWN,
    apply,
    check_verdict,
    is_fixed,
    norm,
    norm_class,
    represent,
)


class SurfaceConditionError(ValueError):
    """A twist-parameter condition fails; the message names the identity."""


class TwistedAutomorphism:
    """Automorphism ((l1, l2), delta) of the split surface, delta in D6."""

    __slots__ = ("t1", "t2", "perm")

    def __init__(self, t1: FieldElement, t2: FieldElement, perm):
        self.t1 = t1
        self.t2 = t2
        self.perm = tuple(perm)

    @classmethod
    def identity(cls, tower):
        one = tower.one()
        return cls(one, one, hexagon.IDENTITY)

    @classmethod
    def toric(cls, t1, t2):
        return cls(t1, t2, hexagon.IDENTITY)

    def is_identity(self):
        return self.t1.is_one() and self.t2.is_one() and self.perm == hexagon.IDENTITY

    def __mul__(self, other):
        u1, u2 = hexagon.torus_act(self.perm, other.t1, other.t2)
        return TwistedAutomorphism(
            self.t1 * u1, self.t2 * u2, hexagon.compose(self.perm, other.perm)
        )

    def inverse(self):
        pinv = hexagon.invert(self.perm)
        a, b = hexagon.torus_act(pinv, self.t1, self.t2)
        return TwistedAutomorphism(a.inv(), b.inv(), pinv)

    def galois(self, u):
        return TwistedAutomorphism(apply(u, self.t1), apply(u, self.t2), self.perm)

    def __eq__(self, other):
        return (
            isinstance(other, TwistedAutomorphism)
            and self.perm == other.perm
            and self.t1 == other.t1
            and self.t2 == other.t2
        )

    def __hash__(self):
        return hash((self.t1, self.t2, self.perm))

    def __repr__(self):
        return f"(({self.t1}, {self.t2}), {hexagon.perm_name(self.perm)})"


# ---------------------------------------------------------------------------
# class handles and Severi-Brauer data
# ---------------------------------------------------------------------------

class ClassHandle(Record, frozen=True):
    """A Severi-Brauer or conic class, carried as data.

    Either an explicit field element with its norm-generator word, or an
    opaque transported class identified only by its key.  The status is a
    norm-class verdict; a foreign one is refused when the handle is built.
    """

    key: tuple
    element: FieldElement | None = None
    gen_word: str = ""
    status: str = UNKNOWN
    assumed: bool = False

    def __post_init__(self):
        check_verdict(self.status)

    @staticmethod
    def trivial():
        """The trivial class; one shared handle, as handles are frozen."""
        return _TRIVIAL

    @classmethod
    def explicit(cls, element, gen_word, fact):
        return cls(
            key=("elt", element.key(), gen_word),
            element=element,
            gen_word=gen_word,
            status=fact.verdict,
            assumed=fact.assumed,
        )

    def is_trivial(self):
        return self.status == IS_NORM

    def same_class(self, other):
        """Tri-valued data-level equality of classes."""
        if self.key == other.key:
            return True
        if self.is_trivial() and other.is_trivial():
            return True
        if self.is_trivial() != other.is_trivial() and UNKNOWN not in (
            self.status, other.status
        ):
            return False
        return None


_TRIVIAL = ClassHandle(key=("trivial",), status=IS_NORM)

#: per side of the surface, each norm-class verdict's Amitsur group and index
#: factor (None: undecided); the K side is the class of xi, the L side the
#: conic class of rho
_K_SIDE = {IS_NORM: ("0", 1), NOT_NORM: ("Z/3", 3), UNKNOWN: ("unknown", None)}
_L_SIDE = {IS_NORM: ("0", 1), NOT_NORM: ("(Z/2)^2", 2),
           UNKNOWN: ("unknown", None)}


def _side(table, verdict):
    """The entry of a side table for a verdict; a foreign verdict is refused."""
    return table[check_verdict(verdict)]


class SeveriBrauerData(Record):
    """Derived classification payload: fields, class pair, conic triple, flags."""

    K: ExtensionDescriptor
    L: ExtensionDescriptor | None
    L_i: tuple = ()
    sb_pair: tuple = ()          # (ClassHandle, ClassHandle) for {xi, xi^-1}
    conic: ClassHandle | None = None
    k_trivial: str = UNKNOWN     # IS_NORM / NOT_NORM / UNKNOWN of xi
    l_trivial: str = UNKNOWN
    assumed_facts: tuple = ()

    @property
    def am_K(self):
        return _side(_K_SIDE, self.k_trivial)[0]

    @property
    def am_L(self):
        am = _side(_L_SIDE, self.l_trivial)[0]
        return "-" if self.L is None else am


# ---------------------------------------------------------------------------
# the surface spec
# ---------------------------------------------------------------------------

class SurfaceSpec(Record):
    """A surface as make_surface builds it.  `memo(key, build)` keeps what
    depends only on the key and the twist data make_surface sets once:
    ("pass", p.key()) -> points._twisted_pass(p).  A raise stores nothing."""

    gtype: str
    tower: GaloisTower
    xi: FieldElement
    rho: FieldElement | None
    registry: FactRegistry = field(default_factory=FactRegistry)
    name: str = "S"
    cocycle: dict = field(default_factory=dict)
    sbdata: SeveriBrauerData | None = None
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)
    # (tower, copy of cocycle) as verify_cocycle last accepted them, () before;
    # a later call on the same tower object and an equal table only compares
    verified_table: tuple = field(default=(), init=False, compare=False,
                                  repr=False)

    def memo(self, key, build):
        return memo(self._memo, key, build)

    def alpha(self, u):
        """Cocycle value on a group element (the table verify_cocycle built)."""
        return self.cocycle[u]

    def key(self):
        return (self.gtype, self.tower.key(), self.xi.key(),
                self.rho.key() if self.rho is not None else None)


def make_surface(gtype, tower, xi, rho=None, registry=None, name="S"):
    """Validate the twist parameters exactly and materialize the cocycle."""
    if tower.gtype != gtype:
        raise SurfaceConditionError(
            f"tower group is {tower.gtype}, surface type is {gtype}"
        )
    if xi.is_zero() or (rho is not None and rho.is_zero()):
        raise SurfaceConditionError("twist parameters must be nonzero")
    g = tower.element_named("g")
    if gtype == "Z6":
        if rho is None:
            raise SurfaceConditionError("Z6 surfaces need the parameter rho")
        h = tower.element_named("h")
        if not is_fixed(xi, [g]):
            raise SurfaceConditionError("condition fails: xi in F^g")
        if not is_fixed(rho, [h]):
            raise SurfaceConditionError("condition fails: rho in F^h")
        if not (norm(h, xi) * norm(g, rho)).is_one():
            raise SurfaceConditionError(
                "condition fails: Norm_h(xi) * Norm_g(rho) = 1"
            )
    elif gtype == "S3":
        if rho is not None:
            raise SurfaceConditionError("S3 surfaces carry no parameter rho")
        if not tower.in_base_field(xi):
            raise SurfaceConditionError("condition fails: xi in k*")
    elif gtype == "D6":
        if rho is None:
            raise SurfaceConditionError("D6 surfaces need the parameter rho")
        h = tower.element_named("h")
        f = tower.element_named("f")
        if not is_fixed(xi, [g, f]):
            raise SurfaceConditionError("condition fails: xi in F^<g,f>")
        if not is_fixed(rho, [h]):
            raise SurfaceConditionError("condition fails: rho in F^h")
        if not (norm(h, xi) * norm(g, rho)).is_one():
            raise SurfaceConditionError(
                "condition fails: Norm_h(xi) * Norm_g(rho) = 1"
            )
        if not (apply(g, rho) * norm(f, rho) * norm(h, xi)).is_one():
            raise SurfaceConditionError(
                "condition fails: g(rho) * Norm_f(rho) * Norm_h(xi) = 1"
            )
    else:
        raise SurfaceConditionError(f"unknown surface type {gtype!r}")

    spec = SurfaceSpec(gtype, tower, xi, rho, registry or FactRegistry(), name)
    spec.cocycle = _base_cocycle(spec)
    verify_cocycle(spec)
    spec.sbdata = severi_brauer_data(spec)
    return spec


def _base_cocycle(spec):
    tower = spec.tower
    xi_inv = spec.xi.inv()
    emb = {n: tower.embedding[n] for n in tower.generators}
    out = {tower.element_named("1"): TwistedAutomorphism.identity(tower)}
    g = tower.generators["g"]
    out[g] = TwistedAutomorphism(xi_inv, xi_inv, emb["g"])
    if spec.gtype in ("Z6", "D6"):
        h = tower.generators["h"]
        rho = spec.rho
        out[h] = TwistedAutomorphism(rho, rho * apply(g, rho), emb["h"])
    if spec.gtype in ("S3", "D6"):
        f = tower.generators["f"]
        out[f] = TwistedAutomorphism(xi_inv, xi_inv, emb["f"])
    return out


def cocycle_assignments(spec: SurfaceSpec):
    """Generator -> twisted automorphism, after `verify_cocycle` accepts the
    table: a comparison with its snapshot when the table is unchanged since
    it was last accepted, the full check otherwise."""
    verify_cocycle(spec)
    return {name: spec.alpha(u) for name, u in spec.tower.generators.items()}


def _word_value(tower, table, values, word):
    """alpha(word) = alpha_s * s(alpha(rest)) for word = s + rest, memoised in
    `values`.  A module function: a closure that called itself would hold a
    reference cycle, and the memo would live until the cyclic gc ran."""
    a = values.get(word)
    if a is None:
        s = tower.generators[word[0]]
        a = (table[s] if len(word) == 1
             else table[s] * _word_value(tower, table, values, word[1:]).galois(s))
        values[word] = a
    return a


def verify_cocycle(spec: SurfaceSpec):
    """Check that the generator values of the cocycle table extend to a
    cocycle, on the relators of the tower's presentation, and fill in or
    compare the value of every group element.

    Let F be the free group on the generators, acting through F -> G.  The
    generator values extend to exactly one crossed homomorphism alpha on F,
    by alpha(s*w) = alpha_s * s(alpha(w)).  The kernel N of F -> G acts
    trivially, so on N alpha is a homomorphism, and K = {n in N : alpha(n)
    = 1} is a subgroup.  K is normal in F: for n in K and w in F,

        alpha(w n w^-1) = alpha(w) * w(alpha(n)) * (wn)(alpha(w^-1))
                        = alpha(w) * w(alpha(w^-1)) = alpha(w w^-1) = 1,

    using that the torus action is monomial, so u(A * B) = u(A) * u(B).
    `GaloisTower._check_presentation` makes G a quotient of the presented
    group, and both have 6, 6 or 12 elements (g of order 3, an involution
    outside <g>, and for D6 the central h outside the centreless <g, f>), so
    N is the normal closure of the relators: s^n for a generator s of order
    n, and lhs * rhs^-1 for a relation lhs = rhs, whose value is
    alpha(lhs) * alpha(rhs)^-1 because lhs and rhs act alike.  If every
    relator lies in K, then K = N, alpha(wn) = alpha(w) for n in N, and
    alpha is a cocycle on G.

    The value of a word is computed once per suffix, in a memo that lives
    for this call; the closure words `tower.words` are suffix-closed, so
    the relator words share their products.  A missing table entry alpha_v
    is set to the value of the word of v; a present one, alpha_1 and the
    generator values included, is compared with it.

    An accepted table is kept on the spec with its tower, in
    `spec.verified_table`.  A later call whose tower is the same object and
    whose table equals that copy entry by entry under `==` returns True
    without a twisted product: canonical forms make `==` exact, so the
    verdict depends only on what is compared.  Any other table, such as a
    new dict, one with an entry replaced, or the generator values alone, is
    checked in full as above, and a failing one is not kept.
    """
    tower = spec.tower
    table = spec.cocycle
    memo = spec.verified_table
    if memo and memo[0] is tower and memo[1] == table:
        return True
    values = {(): TwistedAutomorphism.identity(tower)}

    def alpha(word):
        return _word_value(tower, table, values, word)

    pres = tower.presentation
    for name, order in pres["gens"].items():
        if not alpha((name,) * order).is_identity():
            raise SurfaceConditionError(
                f"cocycle identity fails at relator {name}^{order}"
            )
    for lhs, rhs in pres["relations"]:
        if alpha(tuple(lhs)) != alpha(tuple(rhs)):
            raise SurfaceConditionError(
                f"cocycle identity fails at relation {lhs} = {rhs}"
            )
    for v, word in tower.words.items():
        av = alpha(word)
        if v not in table:
            table[v] = av
        elif table[v] != av:
            raise SurfaceConditionError(
                f"cocycle identity fails at element {''.join(word) or '1'}"
            )
    spec.verified_table = (tower, dict(table))
    return True


def are_cohomologous(s1: SurfaceSpec, s2: SurfaceSpec, beta: TwistedAutomorphism):
    """Whether beta realizes alpha'_u = beta * alpha_u * u(beta^-1) on generators."""
    if s1.tower is not s2.tower or s1.gtype != s2.gtype:
        return False
    for u in s1.tower.generators.values():
        lhs = s2.alpha(u)
        rhs = beta * s1.alpha(u) * beta.inverse().galois(u)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Severi-Brauer data extraction
# ---------------------------------------------------------------------------

def subfield(tower, fixing, name):
    """The subfield of F fixed by the subgroup `fixing`, labelled `name`."""
    return ExtensionDescriptor("subfield", tower, fixing=frozenset(fixing), name=name)


def k_fixing_subgroup(tower):
    """Elements whose hexagon action preserves the triple {E1,E2,E3} setwise."""
    return frozenset(
        u for u in tower.elements
        if {tower.embed_map[u][i] for i in (0, 1, 2)} == {0, 1, 2}
    )


def central_element(tower):
    """The preimage of the central symmetry of the hexagon, if present."""
    for u in tower.elements:
        if tower.embed_map[u] == hexagon.CENTRAL:
            return u
    return None


def l_fixing_subgroup(tower):
    h = central_element(tower)
    if h is None:
        return None
    idn = tower.element_named("1")
    return frozenset([idn, h])


def _tower_fields(tower):
    """(K, L, L_i) of every surface on `tower`: subfields of F that depend on
    the tower alone (L is None for S3, L_i empty unless D6).  They are built
    on the first call and kept in the tower's memo; make_surface checks that
    the tower's type equals the surface's, and the descriptors are frozen,
    so surfaces share them.
    """
    return tower.memo(("sb-fields",), lambda: _build_tower_fields(tower))


def _build_tower_fields(tower):
    K = subfield(tower, k_fixing_subgroup(tower), "K")
    L = None
    L_i = ()
    if tower.gtype in ("Z6", "D6"):
        L = subfield(tower, l_fixing_subgroup(tower), "L")
    if tower.gtype == "D6":
        h = central_element(tower)
        idn = tower.element_named("1")
        kleins = []
        for u in tower.elements:
            perm = tower.embed_map[u]
            # triple-swapping reflections f_i: involutions, not central
            if u == h or u == idn:
                continue
            if (u * u) == idn and {perm[i] for i in (0, 1, 2)} == {3, 4, 5}:
                kleins.append(frozenset([idn, h, u, h * u]))
        L_i = tuple(subfield(tower, v, f"L{i+1}")
                    for i, v in enumerate(dict.fromkeys(kleins)))
    return (K, L, L_i)


def severi_brauer_data(spec: SurfaceSpec) -> SeveriBrauerData:
    tower = spec.tower
    g = tower.element_named("g")
    xi_fact = norm_class(spec.xi, g, registry=spec.registry)
    spec.registry.note_assumed_use(xi_fact)
    xi_inv_handle = ClassHandle.explicit(spec.xi.inv(), "g", xi_fact)
    xi_handle = ClassHandle.explicit(spec.xi, "g", xi_fact)
    K, L, L_i = _tower_fields(tower)

    conic = None
    l_trivial = IS_NORM  # no involution-surface side for S3
    assumed = []
    if spec.gtype in ("Z6", "D6"):
        h = tower.element_named("h")
        conic_fact = norm_class(spec.rho, h, registry=spec.registry)
        spec.registry.note_assumed_use(conic_fact)
        conic = ClassHandle.explicit(spec.rho, "h", conic_fact)
        l_trivial = conic_fact.verdict
        if conic_fact.assumed:
            assumed.append(conic_fact)

    if xi_fact.assumed:
        assumed.append(xi_fact)

    return SeveriBrauerData(
        K=K,
        L=L,
        L_i=L_i,
        sb_pair=(xi_handle, xi_inv_handle),
        conic=conic,
        k_trivial=xi_fact.verdict,
        l_trivial=l_trivial,
        assumed_facts=tuple(assumed),
    )


def sb_class_equivalent(a: FieldElement, b: FieldElement, u, registry=None):
    """Tri-valued: are the classes of a and b equal modulo Norm_u."""
    if a.is_zero() or b.is_zero():
        raise TowerError("classes of zero are undefined")
    return norm_class(b / a, u, registry=registry)


# ---------------------------------------------------------------------------
# index and isomorphism
# ---------------------------------------------------------------------------

def index(spec: SurfaceSpec):
    """{1,2,3,6,Unknown}: gcd of closed-point degrees, from triviality flags."""
    return index_from_flags(spec.gtype, spec.sbdata.k_trivial, spec.sbdata.l_trivial)


def index_from_flags(gtype, k, l):
    """The index of a surface of type gtype whose classes over K and L have
    the triviality verdicts k and l: the product of the two sides' factors
    (the K side alone for S3), Unknown when a factor is undecided."""
    factor_k = _side(_K_SIDE, k)[1]
    factor_l = _side(_L_SIDE, l)[1]
    if gtype == "S3":
        factor_l = 1
    return UNKNOWN if None in (factor_k, factor_l) else factor_k * factor_l


class IsoResult(Record):
    verdict: str  # "Yes" / "No" / "Unknown"
    moves: tuple = ()
    witnesses: tuple = ()
    reason: str = ""

    def __bool__(self):
        return self.verdict == "Yes"


def is_isomorphic(s1: SurfaceSpec, s2: SurfaceSpec) -> IsoResult:
    """Decide isomorphism via the equivalence moves and the norm oracle.

    Equal tower keys mean equal generators, so an equal type (make_surface
    builds a surface of its tower's type only); s2's parameters are read in
    s1's tower, which may be another presentation of the same field."""
    if s1.tower.key() != s2.tower.key():
        return IsoResult("No", reason="different splitting field or embedding")
    tower = s1.tower
    g = tower.element_named("g")
    rotations = (0,) if s1.gtype == "S3" else (0, 1, 2)
    xi2 = represent(s2.xi, tower)
    if s1.gtype != "S3":
        h = tower.element_named("h")
        rho2 = represent(s2.rho, tower)

    saw_unknown = False
    first_no = None
    for eps in (1, -1):
        xi_c = s1.xi if eps == 1 else s1.xi.inv()
        fact_xi = sb_class_equivalent(xi_c, xi2, g, registry=s1.registry)
        if fact_xi.verdict == UNKNOWN:
            saw_unknown = True
        for t in rotations:
            moves = []
            if eps == -1:
                moves.append("invert")
            if t:
                moves.append(f"rotate-rho^{t}")
            if s1.gtype == "S3":
                if fact_xi.verdict == IS_NORM:
                    return IsoResult(
                        "Yes", tuple(moves + ["norm-twist"]), (fact_xi,)
                    )
                if fact_xi.verdict == NOT_NORM:
                    first_no = first_no or "SB classes differ over K"
                continue
            rho_c = s1.rho if eps == 1 else s1.rho.inv()
            for _ in range(t):
                rho_c = apply(g, rho_c)
            fact_rho = sb_class_equivalent(rho_c, rho2, h, registry=s1.registry)
            if fact_xi.verdict == IS_NORM and fact_rho.verdict == IS_NORM:
                return IsoResult(
                    "Yes", tuple(moves + ["norm-twist"]), (fact_xi, fact_rho)
                )
            if fact_rho.verdict == UNKNOWN:
                saw_unknown = True
            if fact_xi.verdict == NOT_NORM:
                first_no = first_no or "SB classes differ over K"
            elif fact_rho.verdict == NOT_NORM:
                first_no = first_no or "conic classes differ over L"
    if saw_unknown:
        return IsoResult("Unknown", reason="norm oracle undecided")
    return IsoResult("No", reason=first_no or "Severi-Brauer data differ")


def equivalence_move(spec: SurfaceSpec, move, element=None):
    """Apply one generator move of the equivalence relation; returns a new spec."""
    tower = spec.tower
    g = tower.element_named("g")
    if move == "invert":
        xi = spec.xi.inv()
        rho = spec.rho.inv() if spec.rho is not None else None
        return make_surface(spec.gtype, tower, xi, rho, spec.registry,
                            name=spec.name + "'")
    if move == "rotate":
        if spec.gtype != "Z6":
            raise SurfaceConditionError("rho-rotation is a Z6 move")
        return make_surface(spec.gtype, tower, spec.xi, apply(g, spec.rho),
                            spec.registry, name=spec.name + "'")
    if move == "twist":
        lam = element
        if lam is None or lam.is_zero():
            raise SurfaceConditionError("norm twist needs a nonzero element")
        if spec.gtype == "Z6":
            h = tower.element_named("h")
            xi = spec.xi * norm(g, lam.inv())
            rho = spec.rho * norm(h, lam)
            return make_surface("Z6", tower, xi, rho, spec.registry,
                                name=spec.name + "'")
        if spec.gtype == "S3":
            f = tower.element_named("f")
            if not is_fixed(lam, [f]):
                raise SurfaceConditionError("S3 twist element must lie in F^f")
            return make_surface("S3", tower, spec.xi * norm(g, lam), None,
                                spec.registry, name=spec.name + "'")
        gf = tower.element_named("gf")
        if not is_fixed(lam, [gf]):
            raise SurfaceConditionError("D6 twist element must lie in F^gf")
        h = tower.element_named("h")
        xi = spec.xi * norm(g, lam.inv())
        rho = spec.rho * norm(h, lam)
        return make_surface("D6", tower, xi, rho, spec.registry,
                            name=spec.name + "'")
    raise SurfaceConditionError(f"unknown move {move!r}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def is_automorphism(spec: SurfaceSpec, psi: TwistedAutomorphism):
    """Exact membership test: u(psi) = alpha_u^-1 * psi * alpha_u for all u."""
    for u in spec.tower.generators.values():
        au = spec.alpha(u)
        if psi.galois(u) != au.inverse() * psi * au:
            return False
    return True


def automorphism_description(spec: SurfaceSpec):
    """Structural descriptor of Aut_k(S) per the membership theorem."""
    k, l = spec.sbdata.k_trivial, spec.sbdata.l_trivial
    _side(_K_SIDE, k), _side(_L_SIDE, l)  # refuse a foreign verdict
    if spec.gtype == "S3":
        return "T2"
    if k == l == IS_NORM:
        return "rational: full automorphism group not classified here"
    if spec.gtype == "Z6":
        if k == IS_NORM:
            return "T1 x <alpha_h>"
        if l == IS_NORM:
            return "T1 x <alpha_g>"
        if UNKNOWN in (k, l):
            return "conditional: T1, extended by alpha_h/alpha_g if a class is trivial"
        return "T1"
    if k == IS_NORM:
        return "T3 x <alpha_h>"
    if k == UNKNOWN:
        return "conditional: T3, extended by alpha_h if the SB class is trivial"
    return "T3"


def torus_member(spec: SurfaceSpec, lam: FieldElement):
    """The toric automorphism with first coordinate lam, per the gtype shape."""
    tower = spec.tower
    g = tower.element_named("g")
    if spec.gtype == "Z6":
        return TwistedAutomorphism.toric(lam, lam * apply(g, lam))
    f = tower.element_named("f")
    return TwistedAutomorphism.toric(lam, apply(f, lam.inv()))
