"""Sarkisov links of type II at degree-2/3 points, as data transformations.

A link never constructs the birational map itself: it transports the
Severi-Brauer data per the link corollaries (d=2 replaces K by the splitting
field and trivializes the SB pair; d=3 replaces L and trivializes the conic
triple), computes the new splitting field (FE)^H through the curve
configuration, and records the inverse base point.  Targets are reconstructed
as full surfaces only when the fixed field is again a supported tower.
"""

from __future__ import annotations

from functools import cache

from . import curveconfig, hexagon
from ._ratfunc import ZETA_KEYS
from ._record import Key, Record, field, replace
from .fieldtower import (
    CompositeElement,
    ExtensionDescriptor,
    GaloisTower,
    IS_NORM,
    NOT_NORM,
    UNKNOWN,
    apply,
    represent,
)
from .points import (
    ClosedPointSpec,
    PointCaseError,
    PointValidationError,
    component_permutations,
    composite_for,
    construct_2point,
    general_position,
)
from .surface import (
    ClassHandle,
    SurfaceSpec,
    index_from_flags,
    is_isomorphic,
    make_surface,
    sb_class_equivalent,
    subfield,
)


class LinkError(ValueError):
    pass


#: by degree: the roots of unity acting on the radical of an independent
#: field, as exponents of zeta = -w^2 (1, -1 and 1, w, w^2)
_ROOTS = {2: (0, 3), 3: (0, 2, 4)}


# ---------------------------------------------------------------------------
# point handles and data surfaces
# ---------------------------------------------------------------------------

class PointHandle(Record):
    """A 2-/3-point known at data level, with its component Galois action.

    `fld` is the splitting field E of the point.  `comp_table` maps (u, t)
    to the permutation of the components, where u is an element of Gal(F/k)
    and zeta^t the root of unity by which the element acts on the radical of
    E (t = 0 when E lies in F).  One table serves every vertex the point is
    carried to: the components are defined over E, so an element of the
    vertex group Gal(F(E_1, ..., E_m)/k) permutes them through its image in
    Gal(F(E)/k), and that image is fixed by the pair (u, t): its
    restriction to F and its action on the radical of E.
    """

    name: str
    degree: int
    fld: ExtensionDescriptor
    comp_table: dict
    origin: str               # declared | transported | inverse
    point: ClosedPointSpec | None = None
    chain: tuple = ()
    gp: bool = True
    root_id: tuple = ()

    def identity_key(self):
        if self.point is not None:
            return ("pt", self.point.key())
        return ("handle", self.name, self.fld.field_id(), self.chain)


class DataSurface(Record):
    """A vertex payload: surface known by Severi-Brauer data (+ spec if any)."""

    name: str
    tower: object
    radicals: tuple                  # independent radical extensions over k
    action: dict                     # (u, zeta exponents on the radicals) -> hexagon perm
    gtype: str                       # structure of the image group on Sigma
    K: ExtensionDescriptor
    L: ExtensionDescriptor | None
    sb_pair: tuple
    conic: ClassHandle | None
    k_trivial: str
    l_trivial: str
    assumed: tuple = ()
    spec: SurfaceSpec | None = None
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sb = frozenset(h.key + (h.status,) for h in self.sb_pair)
        conic = (self.conic.key, self.conic.status) if self.conic else None
        rads = tuple(r.key() for r in self.radicals)
        kernel = frozenset((u.key(), tuple(ZETA_KEYS[t] for t in zs))
                           for u, zs in self.kernel())
        self._key = Key((self.tower.field_key(), rads, kernel, self.gtype,
                         self.K.field_id(), sb,
                         self.L.field_id() if self.L else None, conic))

    def vertex_key(self):
        """Canonical key: F' (tower + radicals + kernel), K', classes, L', conic.

        The hexagon action enters only through its kernel (which pins the
        splitting field) and through K: the embedding is unique up to
        conjugacy once the Severi-Brauer data is known.  The key is derived
        once, when the surface is built; only `spec` and `name` are set
        later, and the key reads neither.
        """
        return self._key

    def surface_index(self):
        return index_from_flags(self.gtype, self.k_trivial, self.l_trivial)

    def kernel(self):
        return [k for k, p in self.action.items() if p == hexagon.IDENTITY]


def classify_perm_group(perms):
    """The type, Z6, S3 or D6, of the subgroup of D6 generated by hexagon
    permutations.  A surface of Picard rank 1, such as a link target, has one
    of these three; any other subgroup is refused."""
    return _perm_group_type(frozenset(perms))


# keyed by the generating set, a subset of D6's 12 symmetries: the group it
# generates does not depend on the order of the generators, and a refusal
# raises, so it is never cached
@cache
def _perm_group_type(perms):
    elems = hexagon.closure(hexagon.IDENTITY, dict(enumerate(perms)),
                            hexagon.compose, 12)
    n = len(elems)
    if n == 12:
        return "D6"
    if n != 6:
        raise LinkError(f"hexagon action of order {n}: a surface of Picard "
                        "rank 1 has a group of order 6 or 12")
    abelian = all(
        hexagon.compose(a, b) == hexagon.compose(b, a)
        for a in elems for b in elems
    )
    return "Z6" if abelian else "S3"


def _normalize_handle(h):
    if h is None:
        return None
    return ClassHandle.trivial() if h.status == IS_NORM else h


def as_data_surface(source) -> DataSurface:
    """The vertex payload of a surface; a DataSurface is returned unchanged."""
    if isinstance(source, DataSurface):
        return source
    tower = source.tower
    data = source.sbdata
    return DataSurface(
        name=source.name,
        tower=tower,
        radicals=(),
        action={(u, ()): tower.embed_map[u] for u in tower.elements},
        gtype=source.gtype,
        K=data.K,
        L=data.L,
        sb_pair=tuple(_normalize_handle(h) for h in data.sb_pair),
        conic=_normalize_handle(data.conic),
        k_trivial=data.k_trivial,
        l_trivial=data.l_trivial,
        assumed=data.assumed_facts,
        spec=source,
    )


def declared_point_handle(spec: SurfaceSpec, p: ClosedPointSpec) -> PointHandle:
    if p.degree == 4:
        raise LinkError("links exist at 2- and 3-points only")
    _, perms = component_permutations(spec, p)
    gp = general_position(spec, p)
    table = {(u.uf, u.zexp) if isinstance(u, CompositeElement) else (u, 0): perm
             for u, perm in perms.items()}
    if composite_for(spec.tower, p.ext).intersection == "contained":
        fld = subfield(spec.tower, p.ext.fixing_subgroup_in_F(), p.ext.name)
    else:
        fld = p.ext
    return PointHandle(
        name=p.name, degree=p.degree, fld=fld, comp_table=table,
        origin="declared", point=p, gp=gp, root_id=("pt", p.key()),
    )


def point_handles(spec: SurfaceSpec | None, points):
    """Handles of the points that can carry a link.

    PointHandles pass through; declared points get a handle when their
    surface is known.  Degree-4 points have no links and are left out.
    """
    return [
        declared_point_handle(spec, p) if isinstance(p, ClosedPointSpec) else p
        for p in points
        if not isinstance(p, ClosedPointSpec) or (spec is not None and p.degree != 4)
    ]


def transport(handle: PointHandle, rec: "LinkRecord") -> PointHandle:
    """The image of a point under a link it is not involved in.

    Splitting field and component action are preserved (links are defined
    over k and are local isomorphisms away from the exceptional locus).
    """
    return replace(
        handle,
        name=f"{handle.name}@{rec.name}",
        origin="transported",
        chain=handle.chain + (rec.edge_id,),
    )


# ---------------------------------------------------------------------------
# the link engine
# ---------------------------------------------------------------------------

def pair_of(edge_id):
    """The id of the edge pair {chi, chi^-1}: chi's own id, for either record."""
    if isinstance(edge_id, tuple) and len(edge_id) == 2 and edge_id[0] == "inv":
        return edge_id[1]
    return edge_id


class LinkRecord(Record):
    name: str
    d: int
    source: DataSurface
    target: DataSurface
    point: PointHandle
    inverse_point: PointHandle
    kernel_pairs: frozenset
    h_description: str
    edge_id: tuple

    def reversed(self):
        name = self.name[:-3] if self.name.endswith("^-1") else self.name + "^-1"
        pid = pair_of(self.edge_id)
        return LinkRecord(
            name=name,
            d=self.d,
            source=self.target,
            target=self.source,
            point=self.inverse_point,
            inverse_point=self.point,
            kernel_pairs=self.kernel_pairs,
            h_description=self.h_description,
            edge_id=("inv", pid) if pid == self.edge_id else pid,
        )

    def is_self_link(self):
        return self.source.vertex_key() == self.target.vertex_key()


def link(source, p, name=None):
    """Execute a Sarkisov link of type II at a validated point.

    `source` is a SurfaceSpec or DataSurface; `p` a ClosedPointSpec (on a
    full spec) or PointHandle.
    """
    src = as_data_surface(source)
    if isinstance(p, ClosedPointSpec):
        if src.spec is None:
            raise LinkError("coordinate points need a fully reconstructed source")
        handle = declared_point_handle(src.spec, p)
    else:
        handle = p

    d = handle.degree
    if d not in (2, 3):
        raise LinkError("links exist at 2- and 3-points only")
    if not handle.gp:
        raise LinkError("base point is not in general position")
    idx = src.surface_index()
    if idx != d:
        raise LinkError(f"a {d}-link needs index {d}; surface has index {idx}")

    # zeta exponent of the point's table: zs[slot] when E is the source's
    # radical `slot`, else z, the new coordinate (always 0 when E is contained)
    slot = _field_slot(handle.fld, src)
    contained = slot is not None
    if contained:
        zetas = (0,)
    elif handle.fld.kind == "subfield":
        raise LinkError("independent splitting fields must be radical extensions")
    elif handle.fld.degree not in _ROOTS:
        raise LinkError("degree-6 splitting fields: link not supported at "
                        "data level")
    else:
        zetas = _ROOTS[handle.fld.degree]
    table = handle.comp_table

    def comp(u, zs, z):
        return table[(u, zs[slot] if isinstance(slot, int) else z)]

    # one pass over the new group (the source's elements, times the new
    # coordinate when E is independent of every current radical, as decided
    # in _field_slot): new hexagon action, inverse-point components and the
    # kernel H of the action on Sigma'
    new_action = {}
    inv_comp = {}
    kernel, kernel_pairs = [], set()
    for (u, zs), hp in src.action.items():
        for z in zetas:
            cp = comp(u, zs, z)
            new_key = (u, zs if contained else zs + (z,))
            _, new_action[new_key], inv_comp[new_key], fixes = \
                curveconfig.propagate_pair(d, hp, cp)
            if fixes:
                kernel.append(new_key)
                kernel_pairs.add((hp, cp))

    radicals_full = src.radicals if contained else src.radicals + (handle.fld,)
    inv_field, inv_slot = _stabilizer_field(src, radicals_full, inv_comp, d)
    new_action, new_radicals = _drop_killed_radicals(new_action, radicals_full)
    # the inverse point's table: (u, zeta exponent on its field's radical
    # inv_slot), or (u, 0) when it splits inside F
    inv_table = _project(inv_comp, lambda zs: 0 if inv_slot is None else zs[inv_slot],
                         "inverse-point transport data is inconsistent")
    new_gtype = classify_perm_group(set(new_action.values()))

    # Severi-Brauer data transport per the link corollaries
    if d == 2:
        K_new = handle.fld
        sb_new = (ClassHandle.trivial(), ClassHandle.trivial())
        L_new = src.L
        conic_new = src.conic
        k_triv, l_triv = IS_NORM, src.l_trivial
    else:
        K_new = src.K
        sb_new = src.sb_pair
        L_new = handle.fld
        conic_new = ClassHandle.trivial()
        k_triv, l_triv = src.k_trivial, IS_NORM
        if new_gtype == "S3":
            L_new = None   # F' = E; no involution-surface side
            conic_new = None

    target = DataSurface(
        name=f"{src.name}|{handle.name}",
        tower=src.tower,
        radicals=new_radicals,
        action=new_action,
        gtype=new_gtype,
        K=K_new,
        L=L_new,
        sb_pair=sb_new,
        conic=conic_new,
        k_trivial=k_triv,
        l_trivial=l_triv,
        assumed=src.assumed,
        spec=None,
    )
    target.spec = _reconstruct_target(src, handle, target, d)
    if target.spec is not None:
        target.name = target.spec.name

    edge_id = Key((src.vertex_key(), target.vertex_key(), handle.identity_key()))
    inv_handle = PointHandle(
        name=f"ind({name or 'chi'})^-1",
        degree=d,
        fld=inv_field,
        comp_table=inv_table,
        origin="inverse",
        gp=True,
        root_id=("ind", edge_id),
    )

    rec = LinkRecord(
        name=name or f"chi[{handle.name}]",
        d=d,
        source=src,
        target=target,
        point=handle,
        inverse_point=inv_handle,
        kernel_pairs=frozenset(kernel_pairs),
        h_description=_describe_kernel(src, kernel),
        edge_id=edge_id,
    )
    _cross_check_kernel(src, handle, rec, contained)
    return rec


def _field_slot(fld: ExtensionDescriptor, src: DataSurface):
    """Where the splitting field E sits over the source's splitting field.

    "F" when E lies in F and in the source's splitting field, i when E is
    the source's radical i, None when E is independent of it.
    """
    fixing = fld.fixing_subgroup_in_F()
    if fixing is not None:
        if all(u in fixing and not any(zs) for u, zs in src.kernel()):
            return "F"
        return None
    for i, rad in enumerate(src.radicals):
        if fld.same_field(rad):
            return i
    return None


def _pure_factor_trivial(action, i):
    """Whether the i-th radical factor acts trivially on the new hexagon."""
    return all(
        perm == hexagon.IDENTITY or not zs[i]
        for (u, zs), perm in action.items()
        if u.is_identity() and not any(zs[:i] + zs[i + 1:])
    )


def _drop_killed_radicals(action, radicals):
    """Canonical form: remove radical factors acting trivially on the new hexagon."""
    keep = [i for i in range(len(radicals)) if not _pure_factor_trivial(action, i)]
    if len(keep) == len(radicals):
        return action, radicals
    return (_project(action, lambda zs: tuple(zs[i] for i in keep),
                     "radical drop produced an inconsistent action"),
            tuple(radicals[i] for i in keep))


def _project(table, project, error):
    """The table re-keyed from (u, zs) to (u, project(zs)); a table that is not
    constant on the fibres of the projection is refused with `error`."""
    out = {}
    for (u, zs), value in table.items():
        if out.setdefault((u, project(zs)), value) != value:
            raise LinkError(error)
    return out


def _stabilizer_field(src, radicals, inv_comp, d):
    """Splitting field of the inverse base point, from component stabilizers.

    Returns the field and the index of its radical in `radicals` (None for a
    subfield of F).
    """
    triv = tuple(range(d))
    fixers = {k for k, p in inv_comp.items() if p == triv}
    # subfield-of-F shape: fixers = everything over a subgroup of G
    moved = {u for (u, _), p in inv_comp.items() if p != triv}
    sub = frozenset(u for u in src.tower.elements if u not in moved)
    if fixers == {k for k in inv_comp if k[0] in sub}:
        return subfield(src.tower, sub, "E(ind)"), None
    # pure radical shape: fixers = everything with trivial i-th zeta
    for i, rad in enumerate(radicals):
        if fixers == {k for k in inv_comp if not k[1][i]}:
            return replace(rad, name="E(ind)"), i
    raise LinkError("inverse-point splitting field has no supported descriptor")


def _describe_kernel(src, kernel):
    names = {("".join(src.tower.words[u]) or "1") + ("*rad" if any(zs) else "")
             for u, zs in kernel}
    return "<" + ", ".join(sorted(names)) + ">"


def _reconstruct_target(src: DataSurface, handle: PointHandle,
                        target: DataSurface, d):
    """A full SurfaceSpec for the target, in the supported tower shapes."""
    if src.spec is None:
        return None
    spec = src.spec
    tower = spec.tower
    if target.vertex_key() == src.vertex_key():
        return spec  # self-link: the data determines the surface
    if (d == 2 and handle.fld.kind == "subfield" and spec.gtype == "D6"
            and handle.fld.fixing == tower.subgroup(["g", "f"])
            and spec.xi.is_one()):
        # re-present the same field with the reflection roles exchanged:
        # the generator named f becomes the automorphism h*f, so that the
        # new s = h*(h*f) is the old f.  h is central, so g, h*f, h satisfy
        # the D6 presentation, and h*f(rho) = f(rho) for rho in F^h: the
        # tower and the surface conditions hold as they do for the source
        gens = dict(tower.generators)
        gens["f"] = tower.generators["h"] * tower.generators["f"]
        tower2 = GaloisTower(tower.variables, gens, name=tower.name + "~")
        return make_surface("D6", tower2, tower2.one(),
                            represent(spec.rho, tower2), spec.registry,
                            name=spec.name + "~")
    return None


#: F-parts of H per the new-splitting-field propositions, as generator words
_EXPECTED_H = {
    ("Z6", 2, "contained"): ("1",),
    ("D6", 2, "contained"): ("1",),
    ("Z6", 2, "independent"): ("1", "h"),
    ("D6", 2, "independent"): ("1", "h"),
    ("Z6", 3, "contained"): ("1",),
    ("S3", 3, "contained"): ("1",),
    ("D6", 3, "contained"): ("1",),
    ("Z6", 3, "independent"): ("1", "g", "gg"),
    ("S3", 3, "independent"): ("1", "g", "gg"),
    ("D6", 3, "independent"): ("1", "g", "gg", "hf", "ghf", "gghf"),
}


def _cross_check_kernel(src, handle, rec: LinkRecord, contained):
    """Compare the combinatorial kernel with the proposition case tables."""
    if src.spec is None or src.radicals:
        return  # table lookup applies to first links from full specs
    pattern = "contained" if contained else "independent"
    # S3 surfaces have index 1 or 3, so every key a link reaches is present
    expected = _EXPECTED_H[(src.gtype, rec.d, pattern)]
    tower = src.tower
    exp_elems = {tower.element_named(w) for w in expected}
    comp_trivial = tuple(range(rec.d))
    got = {
        u for u in tower.elements
        if (tower.embed_map[u], comp_trivial) in rec.kernel_pairs
    }
    if exp_elems != got or len(rec.kernel_pairs) != len(expected):
        raise LinkError(
            f"kernel {sorted(''.join(tower.words[u]) or '1' for u in got)} "
            f"does not match the case table {sorted(expected)}"
        )


# ---------------------------------------------------------------------------
# rigidity and birationality
# ---------------------------------------------------------------------------

class RigidityResult(Record):
    verdict: str  # SuperRigid / Rigid / NotRigid / Conditional
    witness: object = None
    reason: str = ""
    assumed: tuple = ()


def _foreign_index(idx):
    return f"surface index {idx!r} is none of Unknown, 1, 2, 3, 6 (index_from_flags)"


def is_birationally_rigid(source, declared_points=()):
    """Rigidity per the splitting-field criterion, relative to known points;
    the result carries the surface's assumed facts."""
    src = as_data_surface(source)
    return replace(_rigidity(src, declared_points), assumed=src.assumed)


def _rigidity(src: DataSurface, declared_points):
    idx = src.surface_index()
    if idx == UNKNOWN:
        return RigidityResult("Conditional", reason="index undecided")
    if idx == 1:
        return RigidityResult("NotRigid", reason="the surface is k-rational")
    if idx == 6:
        return RigidityResult("SuperRigid")
    if idx != 2 and idx != 3:
        raise ValueError(_foreign_index(idx))
    handles = point_handles(src.spec, declared_points)
    if idx == 2:
        if src.gtype == "D6":
            witness = None
            if src.spec is not None:
                gf_fix = src.spec.tower.subgroup(["g", "f"])
                try:
                    witness = next((q for q in construct_2point(src.spec)
                                    if q.ext.fixing == gf_fix), None)
                except (PointValidationError, PointCaseError):
                    pass
            return RigidityResult(
                "NotRigid", witness=witness,
                reason="2-points split over F^<g,f> always exist")
        for h in handles:
            if h.degree == 2 and h.fld.same_field(src.K) is False:
                return RigidityResult(
                    "NotRigid", witness=h,
                    reason=f"declared 2-point {h.name} splits outside K")
        return RigidityResult(
            "Conditional",
            reason="rigid relative to the declared point universe "
                   "(every known 2-point splits over K)")
    # index 3: the known 3-points must split over L (over F for S3)
    if src.gtype == "S3":
        ok_name = "F"
        ok_field = subfield(src.tower, [src.tower.element_named("1")], "F")
    else:
        ok_name, ok_field = "L", src.L
    for h in handles:
        if h.degree == 3 and h.fld.same_field(ok_field) is False:
            return RigidityResult(
                "NotRigid", witness=h,
                reason=f"declared 3-point {h.name} splits outside {ok_name}")
    return RigidityResult(
        "Conditional",
        reason="rigid relative to the declared point universe "
               f"(every known 3-point splits over {ok_name})")


class BirationalResult(Record):
    verdict: str  # Yes / No / Unknown
    chain: tuple = ()
    reason: str = ""
    case: int = 0
    assumed: tuple = ()


def _class_pair_equivalent(a: DataSurface, b: DataSurface, side):
    """Tri-valued equality of the Amitsur data over K (side='K') or L.

    On the K side the subgroup is generated by either member of the pair
    {xi, xi^-1}; on the L side the conic triple {rho, g(rho), g^2(rho)}
    generates, so the comparison runs over the rotations.
    """
    if side == "K":
        ha, hb, gen_word = a.sb_pair, b.sb_pair, "g"
    else:
        ha, hb, gen_word = (a.conic,), (b.conic,), "h"
    results = []
    for x in ha:
        for y in hb:
            results.append(x.same_class(y))
    if True in results:
        return True
    g = a.tower.element_named("g")
    u = a.tower.element_named(gen_word)
    reg = a.spec.registry if a.spec else None
    oracle = []
    for x in ha:
        for y in hb:
            if x.element is None or y.element is None:
                continue
            if y.element.tower.field_key() != x.element.tower.field_key():
                continue
            ye = represent(y.element, x.element.tower)
            candidates = [ye]
            if side == "L":
                candidates = [ye, apply(g, ye), apply(g * g, ye)]
            for cand in candidates:
                fact = sb_class_equivalent(x.element, cand, u, registry=reg)
                oracle.append(fact.verdict)
                if fact.verdict == IS_NORM:
                    return True
    if oracle and all(v == NOT_NORM for v in oracle):
        return False
    if all(r is False for r in results):
        return False
    return None


def are_birational(a_src, b_src, declared_points=(), links=()):
    """The four-case birationality criterion, with explicit chains when known.

    `links` may contain LinkRecords from a common neighbour; they are used to
    produce chains for data-only vertices.  The result carries the assumed
    facts of both surfaces.
    """
    a, b = as_data_surface(a_src), as_data_surface(b_src)
    return replace(_birationality(a, b, declared_points, links),
                   assumed=tuple(a.assumed) + tuple(b.assumed))


def _birationality(a: DataSurface, b: DataSurface, declared_points, links):
    ia, ib = a.surface_index(), b.surface_index()
    if UNKNOWN in (ia, ib):
        return BirationalResult("Unknown", reason="index undecided")
    if a.vertex_key() == b.vertex_key():
        return BirationalResult("Yes", reason="equal data")
    if a.spec is not None and b.spec is not None:
        if is_isomorphic(a.spec, b.spec).verdict == "Yes":
            return BirationalResult("Yes", reason="isomorphic surfaces")
    if ia != ib:
        return BirationalResult(
            "No", reason=f"index {ia} vs {ib} (a birational invariant)")
    idx = ia
    if idx == 1:
        return BirationalResult("Yes", reason="both k-rational", case=1)
    if idx == 6:
        same_k = a.K.same_field(b.K)
        same_l = (a.L.same_field(b.L) if a.L is not None and b.L is not None
                  else None)
        am_k = _class_pair_equivalent(a, b, "K")
        am_l = _class_pair_equivalent(a, b, "L")
        if same_k and same_l and am_k and am_l:
            return BirationalResult("Yes", case=4, reason="equal nontrivial "
                                    "Amitsur data over K and L")
        if False in (same_k, same_l, am_k, am_l):
            return BirationalResult("No", case=4,
                                    reason="Amitsur data over K or L differ")
        return BirationalResult("Unknown", case=4,
                                reason="field or class comparison undecided")
    if idx == 2:
        same_l = a.L.same_field(b.L) if (a.L and b.L) else None
        am_l = _class_pair_equivalent(a, b, "L")
        if same_l is False or am_l is False:
            return BirationalResult("No", case=2, reason="L or Am(S_L) differ")
        if same_l is None or am_l is None:
            return BirationalResult("Unknown", case=2,
                                    reason="L-side comparison undecided")
        chain, wit = _point_chain(a, b, 2, declared_points, links)
        if wit:
            return BirationalResult("Yes", chain=chain, case=2,
                                    reason="2-point with splitting field K' found")
        return BirationalResult(
            "Unknown", case=2,
            reason="point existence open: need a 2-point of S splitting over K'")
    if idx != 3:
        raise ValueError(_foreign_index(idx))
    same_k = a.K.same_field(b.K)
    am_k = _class_pair_equivalent(a, b, "K")
    if same_k is False or am_k is False:
        return BirationalResult("No", case=3, reason="K or Am(S_K) differ")
    if same_k is None or am_k is None:
        return BirationalResult("Unknown", case=3,
                                reason="K-side comparison undecided")
    chain, wit = _point_chain(a, b, 3, declared_points, links)
    if wit:
        return BirationalResult("Yes", chain=chain, case=3,
                                reason="3-point with splitting field L' found")
    return BirationalResult(
        "Unknown", case=3,
        reason="point existence open: need a 3-point of S splitting over L'")


def _target_field(b: DataSurface, d):
    if d == 2:
        return b.K
    if b.L is not None:
        return b.L
    # S3-type targets: the splitting field of the hexagon itself
    if b.radicals:
        return b.radicals[0]
    return subfield(b.tower, [b.tower.element_named("1")], "F'")


def _point_chain(a: DataSurface, b: DataSurface, d, declared_points, links):
    """A link chain a -> b through a witnessed point, if one is available."""
    want = _target_field(b, d)
    for rec in links:
        if rec.source.vertex_key() == a.vertex_key() and \
                rec.target.vertex_key() == b.vertex_key():
            return (rec,), True
    for h in point_handles(a.spec, declared_points):
        if h.degree != d or not h.gp:
            continue
        if h.fld.same_field(want) is True:
            try:
                rec = link(a, h)
            except LinkError:
                continue
            return (rec,), True
    # two-step chain through a common source recorded in `links`
    for r1 in links:
        if r1.target.vertex_key() != a.vertex_key():
            continue
        for r2 in links:
            if r2.source.vertex_key() == r1.source.vertex_key() and \
                    r2.target.vertex_key() == b.vertex_key():
                return (r1.reversed(), r2), True
    return (), False


def fields_d_probe(source, links, candidate_points=()):
    """Check Fields_d invariance across the given links (a test hook).

    For every candidate splitting field attested on the source, a matching
    attestation must exist on each link target, via the K'/L'/F' bookkeeping
    or transported points.  Returns a list of violations (must stay empty).
    """
    src = as_data_surface(source)
    violations = []
    handles = point_handles(src.spec, candidate_points)
    for rec in links:
        if rec.source.vertex_key() != src.vertex_key():
            raise LinkError("fields_d_probe: link does not emanate from S")
        for h in handles:
            attested = False
            # transported points keep their splitting fields
            if h.identity_key() != rec.point.identity_key():
                attested = True
            else:
                # the base point itself: its field is the new K'/L'/F'
                tgt_field = _target_field(rec.target, h.degree)
                attested = h.fld.same_field(tgt_field) is True
            if not attested:
                violations.append((h.name, rec.name))
    return violations
