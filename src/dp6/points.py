"""Closed points of degree 2 and 3 via lambda-coordinates and twisted orbits.

A point is given by a splitting-extension descriptor and coordinates on the
torus chart; validation computes the orbit of the first component under the
twisted Galois action and checks it has exactly d components, each fixed by
the subgroup acting trivially on the splitting field.
"""

from __future__ import annotations

import itertools

from . import hexagon
from ._record import Key, Record, field
from .fieldtower import (
    CompositeElement,
    CompositeGroup,
    ExtensionDescriptor,
    FieldElement,
    _monomial_norm_preimage,
    apply,
    composite_group,
    is_fixed,
    twist,
)
from .surface import SurfaceSpec, index


class PointCaseError(ValueError):
    """Unsupported (degree, splitting field, group type) combination."""


class PointValidationError(ValueError):
    pass


class ClosedPointSpec(Record):
    degree: int
    ext: ExtensionDescriptor
    lam1: object  # FieldElement or RadElement; None for declared degree-4 points
    lam2: object
    name: str = "p"
    general_position_declared: bool | None = None  # degree-4 points only
    # the scenario surface the point is declared on; not part of key()
    surface: object = field(default=None, compare=False, repr=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lk = (self.lam1.key(), self.lam2.key()) if self.lam1 is not None else None
        self._key = Key((self.degree, self.ext.key() if self.ext is not None else None,
                         lk))

    def coords(self):
        return (self.lam1, self.lam2)

    def key(self):
        """Content key: degree, splitting field and coordinates.  It is
        derived once, when the point is built; `name` and `surface` are not
        part of it."""
        return self._key


def composite_for(tower, ext) -> CompositeGroup:
    """The composite group of ext, built once per tower object.

    The group lives in the tower's memo, not in a table keyed by content
    alone: composite elements check that they belong to the very same tower
    object.
    """
    return tower.memo(("composite", ext.key()), lambda: composite_group(tower, ext))


# ---------------------------------------------------------------------------
# the twisted action on the torus chart
# ---------------------------------------------------------------------------

def twisted_apply(spec: SurfaceSpec, u, coords, monomials=None):
    """alpha_u o u applied to a torus point (l1, l2).

    u is a tower automorphism or a composite element; the cocycle is inflated
    through restriction to F.  The symmetry of alpha_u acts by the monomials
    l1^e * l2^f of its matrix rows (e, f), and u commutes with them:
    u(l1)^e * u(l2)^f = u(l1^e * l2^f), because a field automorphism is a
    ring homomorphism and so also sends inverses to inverses.  So the
    monomials are taken of the original coordinates and then moved by u.
    `monomials` memoises them by row (see hexagon.torus_act): one dict
    passed for every u over the same coords builds each monomial once.
    """
    uf = u.uf if isinstance(u, CompositeElement) else u
    al = spec.alpha(uf)
    m1, m2 = hexagon.torus_act(al.perm, coords[0], coords[1], monomials)
    return (al.t1 * apply(u, m1), al.t2 * apply(u, m2))


def _twisted_images(spec: SurfaceSpec, coords, group):
    """alpha_u o u applied to coords, for every u in group.

    The torus monomials of coords are shared by the whole group.  Raises if
    a coordinate leaves the torus chart (some lambda_i = 0).

    In a composite group, the elements (uf, t) with one tower part uf differ
    only by the twist r -> zeta^t * r: alpha_u depends on uf alone, and
    scaling digit i by a unit commutes with multiplying every digit by an
    element of F.  So the first such element gets the full twisted_apply,
    and each later one the `twist` of that image by the difference of the
    zeta exponents.
    """
    for c in coords:
        if c.is_zero():
            raise PointValidationError("coordinate leaves the torus chart")
    monomials, first, images = {}, {}, {}
    for u in group:
        v = first.setdefault(u.uf, u) if isinstance(u, CompositeElement) else u
        if v is u:
            images[u] = twisted_apply(spec, u, coords, monomials)
        else:
            images[u] = tuple(twist(c, (u.zexp - v.zexp) % 6) for c in images[v])
    return images


def _number_components(images):
    """Number the distinct images in order of first appearance.

    Returns (comp_of, reps): comp_of[u] is the number of the image of u, and
    reps[j] the first group element whose image is component j.
    """
    comp_of, reps, number = {}, [], {}
    for u, img in images.items():
        k = Key((img[0].key(), img[1].key()))
        if k not in number:
            number[k] = len(reps)
            reps.append(u)
        comp_of[u] = number[k]
    return comp_of, reps


def twisted_orbit(spec: SurfaceSpec, coords, group):
    """Orbit of coords under u -> alpha_u o u over the given group elements.

    Raises if a coordinate leaves the torus chart (some lambda_i = 0).
    """
    images = _twisted_images(spec, coords, group)
    _, reps = _number_components(images)
    return [images[u] for u in reps]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_EXCLUSIONS = {
    ("S3", 2): "S3-surfaces have no 2-points (index is 1 or 3)",
    ("D6", 2, "gh"): "no 2-points split over F^<g,h>",
}


def _allowed_subfield_cases(spec, degree, fixing):
    tower = spec.tower
    sub = lambda words: tower.subgroup(words)  # noqa: E731
    if degree == 2:
        if spec.gtype == "Z6":
            if fixing == sub(["g"]):
                return "K"
            raise PointCaseError("Z6 2-points inside F split over K = F^g only")
        if spec.gtype == "D6":
            if fixing == sub(["g", "s"]):
                return "K"
            if fixing == sub(["g", "f"]):
                return "Fgf"
            if fixing == sub(["g", "h"]):
                raise PointCaseError(_EXCLUSIONS[("D6", 2, "gh")])
            raise PointCaseError("unrecognized quadratic subfield for a 2-point")
    if degree == 3:
        if spec.gtype == "Z6" and fixing == sub(["h"]):
            return "L"
        if spec.gtype == "S3" and fixing == frozenset([tower.element_named("1")]):
            return "F"
        if spec.gtype == "D6" and fixing == sub(["h"]):
            return "L"
        raise PointCaseError(
            f"3-points of {spec.gtype}-surfaces inside F split over "
            + ("F itself" if spec.gtype == "S3" else "F^h")
            + " only"
        )
    raise PointCaseError(f"unsupported degree {degree}")


def _twisted_pass(spec: SurfaceSpec, p: ClosedPointSpec):
    """Validate a 2- or 3-point with one pass of twisted images over its group.

    Returns (images, reps, perms, gp) over the point's group: images and reps
    as in _twisted_images and _number_components, perms[u] the permutation
    of the component list that u induces, and gp the general-position
    verdict.  Validation, general position, the component list and the
    component permutations all read this one pass.  It is kept in the
    surface's memo under the point's content, so it runs once per surface
    and point; a point that fails is not kept and raises on every call.  The
    key holds the tower's content, not the tower object, so the point's
    tower is compared with the surface's on every call.
    """
    if p.ext is not None and p.ext.tower is not spec.tower:
        raise PointCaseError(
            f"point {p.name} splits over tower {p.ext.tower.name}, but surface "
            f"{spec.name} is over tower {spec.tower.name}")
    return spec.memo(("pass", p.key()), lambda: _build_pass(spec, p))


def _build_pass(spec, p):
    if p.degree not in (2, 3):
        raise PointCaseError(f"unsupported degree {p.degree}")
    if spec.gtype == "S3" and p.degree == 2:
        raise PointCaseError(_EXCLUSIONS[("S3", 2)])

    cg = composite_for(spec.tower, p.ext)
    contained = cg.intersection == "contained"
    if contained:
        fixing = p.ext.fixing_subgroup_in_F()
        _allowed_subfield_cases(spec, p.degree, fixing)
    if p.ext.degree not in _expected_degrees(p.degree):
        raise PointCaseError(
            f"splitting field degree {p.ext.degree} cannot split a "
            f"{p.degree}-point"
        )
    coords = p.coords()
    if contained:
        if not all(isinstance(c, FieldElement) for c in coords):
            raise PointValidationError("coordinates must lie in F")
        group = list(spec.tower.elements)
        fixes = lambda u: u in fixing  # noqa: E731
    else:
        # the point is left as given: coordinates in F are embedded here only
        coords = tuple(cg.comp.embed(c) if isinstance(c, FieldElement) else c
                       for c in coords)
        group = cg.elements
        # E = k(r), so (u, t) is the identity on E exactly when it fixes r
        fixes = lambda u: not u.zexp  # noqa: E731

    images = _twisted_images(spec, coords, group)
    # every element acting trivially on E must fix the first component
    for u in group:
        if fixes(u) and (images[u][0] != coords[0] or images[u][1] != coords[1]):
            raise PointValidationError(
                "a Galois element fixing the splitting field moves the point"
            )
    comp_of, reps = _number_components(images)
    if len(reps) != p.degree:
        raise PointValidationError(
            f"twisted orbit has {len(reps)} components, expected {p.degree}"
        )
    # 2-points, and 3-points not split over F, are always in general position
    gp = p.degree == 2 or not contained or _general_position_conditions(spec, p)
    # u sends the component v(p) to (u*v)(p)
    perms = {u: tuple(comp_of[u * v] for v in reps) for u in comp_of}
    return images, reps, perms, gp


def validate_point(spec: SurfaceSpec, p: ClosedPointSpec):
    """Exact case-by-case validation via twisted-orbit computation."""
    if p.degree == 4:
        if p.general_position_declared is None:
            raise PointValidationError(
                "degree-4 points carry a declared general-position flag"
            )
        return True
    _twisted_pass(spec, p)
    return True


def _expected_degrees(d):
    return {2: (2,), 3: (3, 6)}[d]


def components(spec: SurfaceSpec, p: ClosedPointSpec):
    images, reps, _, _ = _twisted_pass(spec, p)
    return [images[u] for u in reps]


def component_permutations(spec: SurfaceSpec, p: ClosedPointSpec):
    """For each group element: the induced permutation of the component list.

    u sends the component v(p) to (u*v)(p): u -> alpha_u o u is a group
    action because alpha is a cocycle, which make_surface checks with
    verify_cocycle.
    """
    images, reps, perms, _ = _twisted_pass(spec, p)
    return [images[u] for u in reps], perms


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------

def general_position(spec: SurfaceSpec, p: ClosedPointSpec):
    """Validate p and decide whether it lies in general position."""
    if p.degree == 4:
        validate_point(spec, p)
        return bool(p.general_position_declared)
    return _twisted_pass(spec, p)[3]


def _general_position_conditions(spec: SurfaceSpec, p: ClosedPointSpec):
    """General position of a valid 3-point split inside F."""
    tower = spec.tower
    g = tower.element_named("g")
    lam1, lam2 = p.lam1, p.lam2
    if spec.gtype == "Z6":
        return not (lam2 == lam1 * apply(g, lam1)
                    or lam1 == spec.xi * lam2 * apply(g * g, lam2)
                    or (spec.xi * apply(g, lam1) * apply(g * g, lam2)).is_one())
    f = tower.element_named("f")
    gf = tower.element_named("gf")
    return not ((spec.xi * lam1 * apply(g, lam1) * apply(f, lam1)).is_one()
                or apply(gf, lam1) == lam1)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _monomials_of_bounded_degree(tower, bound=2):
    n = len(tower.variables)
    for total in range(1, bound + 1):
        for exps in itertools.product(range(-total, total + 1), repeat=n):
            if sum(abs(e) for e in exps) != total:
                continue
            yield tower.monomial(exps)


def _scan_candidates(tower):
    """Monomials, then small binomials m + m' (the recipes may need sums)."""
    monos = list(_monomials_of_bounded_degree(tower))
    yield from monos
    small = [tower.one()] + list(_monomials_of_bounded_degree(tower, 1))
    for a, b in itertools.combinations(small, 2):
        yield a + b


def construct_3point(spec: SurfaceSpec):
    """A 3-point in general position split inside F, per the existence recipes.

    Each surface type streams its candidate coordinates (lambda1, lambda2);
    the first candidate in general position is the point.
    """
    idx = index(spec)
    if idx != 3:
        raise PointCaseError(f"construct_3point requires index 3, found {idx}")
    tower = spec.tower
    g = tower.element_named("g")
    xi_inv = spec.xi.inv()
    if spec.gtype == "S3":
        ext = ExtensionDescriptor("subfield", tower, fixing=frozenset(
            [tower.element_named("1")]), name="F")
        lams = _monomials_of_bounded_degree(tower)
    else:
        h = tower.element_named("h")
        if spec.rho is None or not spec.rho.is_one():
            raise PointValidationError(
                "the 3-point recipe needs the normalized parametrization rho = 1; "
                "apply a norm twist with a certificate for rho first"
            )
        ext = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["h"]),
                                  name="L")
    if spec.gtype == "Z6":
        hint = ("for non-monomial xi supply the Hilbert-90 element a with "
                "a/h(a) = xi^-1 as scenario data")
        lams = (b / apply(h, b) for b in _monomials_of_bounded_degree(tower)
                if is_fixed(b, [g]))
        # lambda1 = 1 means b in F^h
        pairs = ((lam, xi_inv) for lam in lams
                 if not lam.is_one() and lam != xi_inv and lam * lam != xi_inv)
    else:  # S3 and D6: lambda1 outside F^gf, lambda2 = f(lambda1)^-1 * xi^-1
        hint = "supply coordinates explicitly"
        f, gf = tower.element_named("f"), tower.element_named("gf")
        if spec.gtype == "D6":  # lambda1 = a/h(a), a outside F^h and F^gf
            lams = (a / apply(h, a) for a in _scan_candidates(tower)
                    if apply(h, a) != a and apply(gf, a) != a)
        pairs = ((lam, apply(f, lam.inv()) * xi_inv) for lam in lams
                 if apply(gf, lam) != lam)
    for lam1, lam2 in pairs:
        p = ClosedPointSpec(3, ext, lam1, lam2, name="p3")
        try:
            if general_position(spec, p):
                return p
        except (PointValidationError, PointCaseError):
            continue
    raise PointValidationError("monomial scan found no 3-point; " + hint)


def construct_2point(spec: SurfaceSpec):
    """The 2-points of the existence recipes (a list: two fields for D6)."""
    idx = index(spec)
    if spec.gtype == "S3":
        raise PointCaseError(_EXCLUSIONS[("S3", 2)])
    if idx != 2:
        raise PointCaseError(f"construct_2point requires index 2, found {idx}")
    tower = spec.tower
    g = tower.element_named("g")
    out = []
    if spec.gtype == "Z6":
        lam = _solve_g_norm(spec, spec.xi.inv())
        ext = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g"]),
                                  name="K")
        lam2 = lam * apply(g, lam)
        p = ClosedPointSpec(2, ext, lam, lam2, name="p2")
        validate_point(spec, p)
        out.append(p)
        return out
    # D6
    if not spec.xi.is_one():
        raise PointValidationError(
            "the 2-point recipes need the normalized parametrization xi = 1"
        )
    ext_gf = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g", "f"]),
                                 name="F^<g,f>")
    one = tower.one()
    p1 = ClosedPointSpec(2, ext_gf, one, one, name="p2gf")
    validate_point(spec, p1)
    out.append(p1)
    ext_K = ExtensionDescriptor("subfield", tower, fixing=tower.subgroup(["g", "s"]),
                                name="K")
    lam = apply(g, spec.rho.inv())
    p2 = ClosedPointSpec(2, ext_K, lam, lam * apply(g, lam), name="p2K")
    validate_point(spec, p2)
    out.append(p2)
    return out


def _solve_g_norm(spec, target):
    """lambda with Norm_g(lambda) = target, via 1 or a monomial certificate."""
    tower = spec.tower
    g = tower.element_named("g")
    if target.is_one():
        return tower.one()
    cand = _monomial_norm_preimage(target, g, 3)
    if cand is not None:
        return cand
    raise PointValidationError(
        "no certificate found for Norm_g(lambda) = xi^-1; normalize xi or "
        "supply lambda explicitly"
    )
