"""Sarkisov links of type II at degree-2/3 points, as data transformations.

A link never constructs the birational map itself: it transports the
Severi-Brauer data per the link corollaries (d=2 replaces K by the splitting
field and trivializes the SB pair; d=3 replaces L and trivializes the conic
triple), computes the new splitting field (FE)^H through the curve
configuration, and records the inverse base point.  Targets are reconstructed
as full surfaces only when the fixed field is again a supported tower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import curveconfig, hexagon
from ._ratfunc import QOmega
from .fieldtower import (
    CompositeElement,
    ExtensionDescriptor,
    FieldElement,
    GaloisTower,
    IS_NORM,
    NOT_NORM,
    TowerError,
    UNKNOWN,
    apply,
    norm,
)
from .points import (
    ClosedPointSpec,
    PointCaseError,
    PointValidationError,
    component_permutations,
    composite_for,
    general_position,
)
from .surface import (
    ClassHandle,
    SurfaceConditionError,
    SurfaceSpec,
    index_from_flags,
    is_isomorphic,
    k_fixing_subgroup,
    l_fixing_subgroup,
    make_surface,
)


class LinkError(ValueError):
    pass


# ---------------------------------------------------------------------------
# field references (descriptors usable for transported data)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldRef:
    """A field between k and some composite FE: a subfield of F or a radical E."""

    kind: str  # "sub" | "rad"
    tower: object
    fixing: frozenset | None = None
    ext: ExtensionDescriptor | None = None
    label: str = ""

    @classmethod
    def subfield(cls, tower, fixing, label):
        return cls("sub", tower, fixing=frozenset(fixing), label=label)

    @classmethod
    def radical(cls, ext, label=None):
        return cls("rad", ext.tower, ext=ext, label=label or ext.name)

    def degree(self):
        if self.kind == "sub":
            return len(self.tower.elements) // len(self.fixing)
        return self.ext.degree

    def key(self):
        if self.kind == "sub":
            return ("sub", self.tower.field_key(),
                    tuple(sorted(u.key() for u in self.fixing)))
        return ("rad", self.ext.kind, self.tower.field_key(),
                self.ext.radicand.key())

    def same_ref(self, other):
        """Tri-valued field equality."""
        if self.tower is not other.tower and \
                self.tower.field_key() != other.tower.field_key():
            return None
        if self.kind == "sub" and other.kind == "sub":
            return frozenset(u.key() for u in self.fixing) == frozenset(
                u.key() for u in other.fixing)
        if self.kind == "rad" and other.kind == "rad":
            return self.ext.same_field(other.ext)
        sub, rad = (self, other) if self.kind == "sub" else (other, self)
        stab = rad.ext.fixing_subgroup_in_F()
        if stab is None:
            return False  # a genuine radical is not a subfield of F
        return frozenset(u.key() for u in stab) == frozenset(
            u.key() for u in sub.fixing)


# ---------------------------------------------------------------------------
# point handles and data surfaces
# ---------------------------------------------------------------------------

@dataclass
class PointHandle:
    """A 2-/3-point known at data level, with its component Galois action."""

    name: str
    degree: int
    fld: FieldRef
    comp_mode: str            # "uf": keyed (uf_key, e_zeta_key); "elem": full keys
    comp_table: dict
    origin: str               # declared | transported | inverse
    point: ClosedPointSpec | None = None
    chain: tuple = ()
    gp: bool = True
    root_id: tuple = ()

    def comp_perm(self, elem_key, e_zeta_key):
        if self.comp_mode == "elem":
            return self.comp_table[(elem_key, e_zeta_key)]
        uf_key = elem_key[0]
        return self.comp_table[(uf_key, e_zeta_key)]

    def identity_key(self):
        if self.point is not None:
            return ("pt", self.point.key())
        return ("handle", self.name, self.fld.key(), self.chain)


@dataclass
class DataSurface:
    """A vertex payload: surface known by Severi-Brauer data (+ spec if any)."""

    name: str
    tower: object
    radicals: tuple                  # independent radical extensions over k
    action: dict                     # (uf_key, zeta_keys) -> hexagon perm
    gtype: str                       # structure of the image group on Sigma
    K: FieldRef
    L: FieldRef | None
    sb_pair: tuple
    conic: ClassHandle | None
    k_trivial: str
    l_trivial: str
    assumed: tuple = ()
    spec: SurfaceSpec | None = None

    def vertex_key(self):
        """Canonical key: F' (tower + radicals + kernel), K', classes, L', conic.

        The hexagon action enters only through its kernel (which pins the
        splitting field) and through K: the embedding is unique up to
        conjugacy once the Severi-Brauer data is known.
        """
        sb = frozenset(h.key + (h.status,) for h in self.sb_pair)
        conic = (self.conic.key, self.conic.status) if self.conic else None
        rads = tuple(r.key() for r in self.radicals)
        kernel = frozenset(self.kernel_keys())
        return (self.tower.field_key(), rads, kernel, self.gtype,
                self.K.key(), sb, self.L.key() if self.L else None, conic)

    def surface_index(self):
        return index_from_flags(self.gtype, self.k_trivial, self.l_trivial)

    def kernel_keys(self):
        return [k for k, p in self.action.items() if p == hexagon.IDENTITY]


def classify_perm_group(perms):
    """Structure of a subgroup of D6 given by hexagon permutations."""
    elems = hexagon.closure(hexagon.IDENTITY, dict(enumerate(perms)),
                            hexagon.compose, 12)
    n = len(elems)
    abelian = all(
        hexagon.compose(a, b) == hexagon.compose(b, a)
        for a in elems for b in elems
    )
    if n == 12:
        return "D6"
    if n == 6:
        return "Z6" if abelian else "S3"
    if n == 1:
        return "1"
    if n == 2:
        return "Z2"
    if n == 3:
        return "Z3"
    return f"order{n}{'ab' if abelian else ''}"


def _normalize_handle(h):
    if h is None:
        return None
    return ClassHandle.trivial() if h.status == IS_NORM else h


def as_data_surface(spec: SurfaceSpec) -> DataSurface:
    tower = spec.tower
    data = spec.sbdata
    action = {(u.key(), ()): tower.embed_map[u] for u in tower.elements}
    K = FieldRef.subfield(tower, k_fixing_subgroup(tower), "K")
    L = None
    if spec.gtype in ("Z6", "D6"):
        L = FieldRef.subfield(tower, l_fixing_subgroup(tower), "L")
    return DataSurface(
        name=spec.name,
        tower=tower,
        radicals=(),
        action=action,
        gtype=spec.gtype,
        K=K,
        L=L,
        sb_pair=tuple(_normalize_handle(h) for h in data.sb_pair),
        conic=_normalize_handle(data.conic),
        k_trivial=data.k_trivial,
        l_trivial=data.l_trivial,
        assumed=data.assumed_facts,
        spec=spec,
    )


def declared_point_handle(spec: SurfaceSpec, p: ClosedPointSpec) -> PointHandle:
    if p.degree == 4:
        raise LinkError("links exist at 2- and 3-points only")
    _, perms = component_permutations(spec, p)
    gp = general_position(spec, p)
    cg = composite_for(spec.tower, p.ext)
    table = {}
    for u, perm in perms.items():
        if isinstance(u, CompositeElement):
            table[(u.uf.key(), u.zeta.key())] = perm
        else:
            table[(u.key(), _ZKEY_ONE)] = perm
    if cg.intersection == "contained":
        fld = FieldRef.subfield(spec.tower, p.ext.fixing_subgroup_in_F(),
                                p.ext.name)
    else:
        fld = FieldRef.radical(p.ext)
    return PointHandle(
        name=p.name, degree=p.degree, fld=fld, comp_mode="uf",
        comp_table=table, origin="declared", point=p, gp=gp,
        root_id=("pt", p.key()),
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

@dataclass
class LinkRecord:
    name: str
    d: int
    source: DataSurface
    target: DataSurface
    point: PointHandle
    inverse_point: PointHandle
    kernel_pairs: frozenset
    h_description: str
    edge_id: tuple
    orientation: str = "unknown"

    def inverse_id(self):
        if isinstance(self.edge_id, tuple) and len(self.edge_id) == 2 \
                and self.edge_id[0] == "inv":
            return self.edge_id[1]
        return ("inv", self.edge_id)

    def pair_id(self):
        """Canonical id of the unordered edge pair {chi, chi^-1}."""
        inv = self.inverse_id()
        if isinstance(self.edge_id, tuple) and len(self.edge_id) == 2 \
                and self.edge_id[0] == "inv":
            return inv
        return self.edge_id

    def reversed(self):
        name = self.name[:-3] if self.name.endswith("^-1") else self.name + "^-1"
        return LinkRecord(
            name=name,
            d=self.d,
            source=self.target,
            target=self.source,
            point=self.inverse_point,
            inverse_point=self.point,
            kernel_pairs=self.kernel_pairs,
            h_description=self.h_description,
            edge_id=self.inverse_id(),
            orientation=self.orientation,
        )

    def is_self_link(self):
        return self.source.vertex_key() == self.target.vertex_key()


#: keys of the roots of unity 1, -1, w and w^2 acting on a radical
_ZKEY_ONE, _ZKEY_MINUS, _ZKEY_OMEGA, _ZKEY_OMEGA2 = (
    z.key() for z in (QOmega.one(), -QOmega.one(), QOmega.omega(), QOmega.omega() ** 2))


def link(source, p, name=None):
    """Execute a Sarkisov link of type II at a validated point.

    `source` is a SurfaceSpec or DataSurface; `p` a ClosedPointSpec (on a
    full spec) or PointHandle.
    """
    if isinstance(source, SurfaceSpec):
        src = as_data_surface(source)
    else:
        src = source
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

    contained = _field_contained(handle.fld, src)
    elems = list(src.action)
    if contained:
        gens = []
        for ek in elems:
            gens.append((ek, src.action[ek], handle.comp_perm(ek, _ZKEY_ONE)))
        full_keys = [(ek, _ZKEY_ONE) for ek in elems]
    else:
        edeg = handle.fld.degree()
        if handle.fld.kind != "rad":
            raise LinkError(
                "independent splitting fields must be radical extensions"
            )
        if edeg == 2:
            zetas = [_ZKEY_ONE, _ZKEY_MINUS]
        elif edeg == 3:
            zetas = [_ZKEY_ONE, _ZKEY_OMEGA, _ZKEY_OMEGA2]
        else:
            raise LinkError("degree-6 splitting fields: link not supported at "
                            "data level")
        # independence from every current radical was decided in containment
        gens = []
        for ek in elems:
            gens.append((ek, src.action[ek], handle.comp_perm(ek, _ZKEY_ONE)))
        idk = _identity_key(src)
        for z in zetas[1:]:
            gens.append(
                ((idk[0], idk[1], z), hexagon.IDENTITY,
                 handle.comp_perm(idk, z))
            )
        full_keys = [(ek, z) for ek in elems for z in zetas]

    induced = curveconfig.induced_sigma_prime_action(
        d, [(k, hp, cp) for k, hp, cp in gens]
    )

    # per-element propagation: new hexagon action and kernel membership
    new_action = {}
    inv_comp = {}
    kernel_keys = []
    contracted = ("C", "L45") if d == 2 else ("C1", "C2", "C3")
    for ek, z in full_keys:
        hp = src.action[ek]
        cp = handle.comp_perm(ek, z)
        fullmap, newhex = curveconfig.propagate_pair(d, hp, cp)
        new_key = _extended_key(ek, z, contained)
        new_action[new_key] = newhex
        images = [fullmap[c] for c in contracted]
        inv_comp[new_key] = tuple(contracted.index(i) for i in images)
        if (hp, cp) in induced.kernel_pairs:
            kernel_keys.append(new_key)

    radicals_full = src.radicals if contained else src.radicals + (handle.fld.ext,)
    inv_field = _stabilizer_field(src, radicals_full, inv_comp, contracted)
    new_action, new_radicals, kept = _drop_killed_radicals(new_action, radicals_full)
    inv_table = _reduce_inverse_table(inv_comp, radicals_full, kept, inv_field)
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

    edge_id = (src.vertex_key(), target.vertex_key(), handle.identity_key())
    inv_handle = PointHandle(
        name=f"ind({name or 'chi'})^-1",
        degree=d,
        fld=inv_field,
        comp_mode="elem",
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
        kernel_pairs=induced.kernel_pairs,
        h_description=_describe_kernel(src, kernel_keys),
        edge_id=edge_id,
    )
    _cross_check_kernel(src, handle, rec, contained)
    return rec


def _identity_key(src: DataSurface):
    idn = src.tower.element_named("1")
    return (idn.key(), ()) if not src.radicals else (
        idn.key(), tuple(_ZKEY_ONE for _ in src.radicals)
    )


def _extended_key(ek, z, contained):
    if contained:
        return ek
    return (ek[0], tuple(ek[1]) + (z,))


def _field_contained(fld: FieldRef, src: DataSurface):
    """Whether the splitting field embeds into the current splitting field."""
    kernel = src.kernel_keys()
    if fld.kind == "sub":
        return all(_uf_of(src, k) in fld.fixing and _zetas_trivial(k)
                   for k in kernel)
    stab = fld.ext.fixing_subgroup_in_F()
    if stab is not None:
        return all(_uf_of(src, k) in stab and _zetas_trivial(k) for k in kernel)
    for i, rad in enumerate(src.radicals):
        if fld.ext.same_field(rad):
            return True
    return False


def _uf_of(src: DataSurface, key):
    for u in src.tower.elements:
        if u.key() == key[0]:
            return u
    raise LinkError("unknown tower element in action table")


def _zetas_trivial(key):
    return all(z == _ZKEY_ONE for z in key[1])


def _pure_factor_trivial(action, i):
    """Whether the i-th radical factor acts trivially on the new hexagon."""
    for (ufk, zs), perm in action.items():
        if not _is_identity_ufk(ufk):
            continue
        if any(z != _ZKEY_ONE for j, z in enumerate(zs) if j != i):
            continue
        if zs[i] != _ZKEY_ONE and perm != hexagon.IDENTITY:
            return False
    return True


def _is_identity_ufk(ufk):
    perm, scal = ufk
    return all(p == i for i, p in enumerate(perm)) and all(
        s == _ZKEY_ONE for s in scal
    )


def _drop_killed_radicals(action, radicals):
    """Canonical form: remove radical factors acting trivially on the new hexagon."""
    if not radicals:
        return action, radicals, ()
    keep = [i for i in range(len(radicals)) if not _pure_factor_trivial(action, i)]
    if len(keep) == len(radicals):
        return action, radicals, tuple(keep)
    new_action = {}
    for (ufk, zs), perm in action.items():
        nk = (ufk, tuple(zs[i] for i in keep))
        if nk in new_action and new_action[nk] != perm:
            raise LinkError("radical drop produced an inconsistent action")
        new_action[nk] = perm
    return new_action, tuple(radicals[i] for i in keep), tuple(keep)


def _reduce_inverse_table(inv_comp, radicals_full, kept, inv_field):
    """Re-key the inverse-point component action by (reduced key, field zeta).

    The splitting field of the inverse point may live on a dropped radical;
    its zeta stays as the extension coordinate of the handle.
    """
    e_slot = None
    if inv_field.kind == "rad":
        for i, rad in enumerate(radicals_full):
            if rad is inv_field.ext:
                if i not in kept:
                    e_slot = i
                break
    out = {}
    for (ufk, zs), perm in inv_comp.items():
        reduced = (ufk, tuple(zs[i] for i in kept))
        e_zeta = zs[e_slot] if e_slot is not None else _ZKEY_ONE
        key = (reduced, e_zeta)
        prev = out.get(key)
        if prev is not None and prev != perm:
            raise LinkError("inverse-point transport data is inconsistent")
        out[key] = perm
    return out


def _stabilizer_field(src, radicals, inv_comp, contracted):
    """Splitting field of the inverse base point, from component stabilizers."""
    triv = tuple(range(len(contracted)))
    fixers = frozenset(k for k, p in inv_comp.items() if p == triv)
    # subfield-of-F shape: fixers = everything over a subgroup of G
    sub = frozenset(
        u for u in src.tower.elements
        if all(inv_comp[k] == triv for k in inv_comp if k[0] == u.key())
    )
    sub_keys = {u.key() for u in sub}
    if fixers == frozenset(k for k in inv_comp if k[0] in sub_keys):
        return FieldRef.subfield(src.tower, sub, "E(ind)")
    # pure radical shape: fixers = everything with trivial i-th zeta
    for i, rad in enumerate(radicals):
        if fixers == frozenset(k for k in inv_comp if k[1][i] == _ZKEY_ONE):
            return FieldRef.radical(rad, "E(ind)")
    raise LinkError("inverse-point splitting field has no supported descriptor")


def _describe_kernel(src, kernel_keys):
    names = []
    for k in kernel_keys:
        for u in src.tower.elements:
            if u.key() == k[0]:
                word = "".join(src.tower.words[u]) or "1"
                extra = "" if _zetas_trivial(k) else "*rad"
                names.append(word + extra)
                break
    return "<" + ", ".join(sorted(set(names))) + ">"


def _reconstruct_target(src: DataSurface, handle: PointHandle,
                        target: DataSurface, d):
    """A full SurfaceSpec for the target, in the supported tower shapes."""
    if src.spec is None:
        return None
    spec = src.spec
    tower = spec.tower
    if target.vertex_key() == src.vertex_key():
        return spec  # self-link: the data determines the surface
    if d != 2 or handle.fld.kind != "sub":
        return None
    g = tower.element_named("g")
    if spec.gtype == "Z6" and handle.fld.fixing == k_fixing_subgroup(tower):
        fact = spec.registry.lookup(spec.xi, g)
        if fact is None or fact.witness is None:
            return None
        c = fact.witness  # Norm_g(c) = xi
        h = tower.element_named("h")
        try:
            return make_surface("Z6", tower, tower.one(),
                                spec.rho * norm(h, c), spec.registry,
                                name=spec.name + "'")
        except (SurfaceConditionError, TowerError):
            return None
    if spec.gtype == "D6":
        gf_fix = tower.subgroup(["g", "f"])
        if handle.fld.fixing == gf_fix and spec.xi.is_one():
            # re-present the same field with the reflection roles exchanged:
            # the generator named f becomes the automorphism h*f, so that the
            # new s = h*(h*f) is the old f
            gens = dict(tower.generators)
            gens["f"] = tower.generators["h"] * tower.generators["f"]
            try:
                tower2 = GaloisTower(tower.variables, gens,
                                     name=tower.name + "~")
                return make_surface("D6", tower2, tower2.one(),
                                    _move_element(spec.rho, tower2),
                                    spec.registry, name=spec.name + "~")
            except (SurfaceConditionError, TowerError):
                return None
    return None


def _move_element(x: FieldElement, tower2):
    return FieldElement(tower2, x.num, x.den, _canonical=True)


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
    expected = _EXPECTED_H.get((src.gtype, rec.d, pattern))
    if expected is None:
        return
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

@dataclass
class RigidityResult:
    verdict: str  # SuperRigid / Rigid / NotRigid / Conditional
    witness: object = None
    reason: str = ""
    assumed: tuple = ()


def is_birationally_rigid(source, declared_points=()):
    """Rigidity per the splitting-field criterion, relative to known points."""
    src = as_data_surface(source) if isinstance(source, SurfaceSpec) else source
    idx = src.surface_index()
    assumed = src.assumed
    if idx == UNKNOWN:
        return RigidityResult("Conditional", reason="index undecided", assumed=assumed)
    if idx == 1:
        return RigidityResult("NotRigid", reason="the surface is k-rational",
                              assumed=assumed)
    if idx == 6:
        return RigidityResult("SuperRigid", assumed=assumed)
    handles = point_handles(src.spec, declared_points)
    if idx == 2:
        if src.gtype == "D6":
            witness = None
            if src.spec is not None:
                try:
                    from .points import construct_2point

                    witness = [
                        q for q in construct_2point(src.spec)
                        if q.ext.fixing is not None
                        and q.ext.fixing == src.spec.tower.subgroup(["g", "f"])
                    ]
                    witness = witness[0] if witness else None
                except (PointValidationError, PointCaseError):
                    witness = None
            return RigidityResult(
                "NotRigid", witness=witness,
                reason="2-points split over F^<g,f> always exist", assumed=assumed)
        for h in handles:
            if h.degree == 2 and h.fld.same_ref(src.K) is False:
                return RigidityResult(
                    "NotRigid", witness=h,
                    reason=f"declared 2-point {h.name} splits outside K",
                    assumed=assumed)
        return RigidityResult(
            "Conditional",
            reason="rigid relative to the declared point universe "
                   "(every known 2-point splits over K)",
            assumed=assumed)
    # index 3
    if src.gtype == "S3":
        ok_field = FieldRef.subfield(
            src.tower, frozenset([src.tower.element_named("1")]), "F")
    else:
        ok_field = src.L
    for h in handles:
        if h.degree == 3 and h.fld.same_ref(ok_field) is False:
            return RigidityResult(
                "NotRigid", witness=h,
                reason=f"declared 3-point {h.name} splits outside "
                       f"{'F' if src.gtype == 'S3' else 'L'}",
                assumed=assumed)
    return RigidityResult(
        "Conditional",
        reason="rigid relative to the declared point universe "
               f"(every known 3-point splits over "
               f"{'F' if src.gtype == 'S3' else 'L'})",
        assumed=assumed)


@dataclass
class BirationalResult:
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
    from .surface import sb_class_equivalent

    g = a.tower.element_named("g")
    u = a.tower.element_named(gen_word)
    reg = a.spec.registry if a.spec else None
    oracle = []
    for x in ha:
        for y in hb:
            if x.element is None or y.element is None:
                continue
            ye = y.element
            if ye.tower is not x.element.tower:
                if ye.tower.field_key() != x.element.tower.field_key():
                    continue
                ye = FieldElement(x.element.tower, ye.num, ye.den,
                                  _canonical=True)
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
    produce chains for data-only vertices.
    """
    a = as_data_surface(a_src) if isinstance(a_src, SurfaceSpec) else a_src
    b = as_data_surface(b_src) if isinstance(b_src, SurfaceSpec) else b_src
    assumed = tuple(a.assumed) + tuple(b.assumed)
    ia, ib = a.surface_index(), b.surface_index()
    if UNKNOWN in (ia, ib):
        return BirationalResult("Unknown", reason="index undecided",
                                assumed=assumed)
    if a.vertex_key() == b.vertex_key():
        return BirationalResult("Yes", chain=(), reason="equal data", case=0,
                                assumed=assumed)
    if a.spec is not None and b.spec is not None:
        iso = is_isomorphic(a.spec, b.spec)
        if iso.verdict == "Yes":
            return BirationalResult("Yes", chain=(), case=0,
                                    reason="isomorphic surfaces",
                                    assumed=assumed)
    if ia != ib:
        return BirationalResult(
            "No", reason=f"index {ia} vs {ib} (a birational invariant)",
            assumed=assumed)
    idx = ia
    if idx == 1:
        return BirationalResult("Yes", reason="both k-rational", case=1,
                                assumed=assumed)
    if idx == 6:
        same_k = a.K.same_ref(b.K)
        same_l = (a.L.same_ref(b.L) if a.L is not None and b.L is not None
                  else None)
        am_k = _class_pair_equivalent(a, b, "K")
        am_l = _class_pair_equivalent(a, b, "L")
        if same_k and same_l and am_k and am_l:
            return BirationalResult("Yes", case=4, reason="equal nontrivial "
                                    "Amitsur data over K and L", assumed=assumed)
        if False in (same_k, same_l, am_k, am_l):
            return BirationalResult("No", case=4,
                                    reason="Amitsur data over K or L differ",
                                    assumed=assumed)
        return BirationalResult("Unknown", case=4,
                                reason="field or class comparison undecided",
                                assumed=assumed)
    if idx == 2:
        same_l = a.L.same_ref(b.L) if (a.L and b.L) else None
        am_l = _class_pair_equivalent(a, b, "L")
        if same_l is False or am_l is False:
            return BirationalResult("No", case=2, reason="L or Am(S_L) differ",
                                    assumed=assumed)
        if same_l is None or am_l is None:
            return BirationalResult("Unknown", case=2,
                                    reason="L-side comparison undecided",
                                    assumed=assumed)
        chain, wit = _point_chain(a, b, 2, declared_points, links)
        if wit:
            return BirationalResult("Yes", chain=chain, case=2,
                                    reason="2-point with splitting field K' "
                                    "found", assumed=assumed)
        return BirationalResult(
            "Unknown", case=2,
            reason="point existence open: need a 2-point of S splitting "
                   "over K'", assumed=assumed)
    # idx == 3
    same_k = a.K.same_ref(b.K)
    am_k = _class_pair_equivalent(a, b, "K")
    if same_k is False or am_k is False:
        return BirationalResult("No", case=3, reason="K or Am(S_K) differ",
                                assumed=assumed)
    if same_k is None or am_k is None:
        return BirationalResult("Unknown", case=3,
                                reason="K-side comparison undecided",
                                assumed=assumed)
    chain, wit = _point_chain(a, b, 3, declared_points, links)
    if wit:
        return BirationalResult("Yes", chain=chain, case=3,
                                reason="3-point with splitting field L' found",
                                assumed=assumed)
    return BirationalResult(
        "Unknown", case=3,
        reason="point existence open: need a 3-point of S splitting over L'",
        assumed=assumed)


def _target_field(b: DataSurface, d):
    if d == 2:
        return b.K
    if b.L is not None:
        return b.L
    # S3-type targets: the splitting field of the hexagon itself
    return FieldRef.subfield(b.tower, frozenset([b.tower.element_named("1")]),
                             "F'") if not b.radicals else FieldRef.radical(
        b.radicals[0], "F'")


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
        if h.fld.same_ref(want) is True:
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
    src = as_data_surface(source) if isinstance(source, SurfaceSpec) else source
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
                attested = h.fld.same_ref(tgt_field) is True
            if not attested:
                violations.append((h.name, rec.name))
    return violations
