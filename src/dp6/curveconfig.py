"""(-1)-classes on blow-ups of the plane and Galois actions on them.

Classes live in Z^(1+n) with intersection form diag(+1,-1,..,-1); a class is
written (d; m_1..m_n) for d*H - sum m_i E_i, so exceptional classes have
m_i = -1.  The labeled dictionaries follow the blow-up identifications for
the degree-4 and degree-3 models; each label is checked by the two equations
of a (-1)-class, and the labels must give 6, 16 or 27 distinct classes.  The
bounded lattice search `minus_one_classes` is the tests' reference for them.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from math import gcd
from operator import mul

from . import hexagon
from ._record import Record, field

# the point counts n whose labeled configurations are built
POINT_COUNTS = (3, 5, 6)


class LatticeMismatchError(ValueError):
    pass


class CurveClass(Record, frozen=True):
    d: int
    m: tuple

    def vector(self):
        return (self.d,) + self.m

    def self_intersection(self):
        return self.d * self.d - sum(x * x for x in self.m)

    def anticanonical_degree(self):
        return 3 * self.d - sum(self.m)

    def __repr__(self):
        return f"({self.d};{','.join(map(str, self.m))})"


def intersection(c1: CurveClass, c2: CurveClass) -> int:
    if len(c1.m) != len(c2.m):
        raise LatticeMismatchError("classes in different lattices")
    return c1.d * c2.d - sum(a * b for a, b in zip(c1.m, c2.m))


def minus_one_classes(n):
    """Exhaustive bounded search for (-1)-classes: d^2-sum m^2 = -1, 3d-sum m = 1."""
    out = []
    for d in range(0, 5):
        for m in itertools.product(range(-2, 4), repeat=n):
            if d * d - sum(x * x for x in m) != -1:
                continue
            if 3 * d - sum(m) != 1:
                continue
            out.append(CurveClass(d, m))
    return out


def _e(n, i):
    m = [0] * n
    m[i] = -1
    return CurveClass(0, tuple(m))


def _line(n, i, j):
    m = [0] * n
    m[i] = m[j] = 1
    return CurveClass(1, tuple(m))


def _conic(n, skip=()):
    m = [1] * n
    for i in skip:
        m[i] = 0
    return CurveClass(2, tuple(m))


def _labels(n):
    if n == 3:
        lab = {
            "E1": _e(3, 0), "E2": _e(3, 1), "E3": _e(3, 2),
            "F1": _line(3, 1, 2), "F2": _line(3, 0, 2), "F3": _line(3, 0, 1),
        }
    elif n == 5:
        lab = {
            "E1": _e(5, 0), "E2": _e(5, 1), "E3": _e(5, 2),
            "F1": _line(5, 1, 2), "F2": _line(5, 0, 2), "F3": _line(5, 0, 1),
            "E4": _e(5, 3), "E5": _e(5, 4),
            "C": _conic(5), "L45": _line(5, 3, 4),
        }
        for i in (1, 2, 3):
            for j in (4, 5):
                lab[f"L{i}{j}"] = _line(5, i - 1, j - 1)
    elif n == 6:
        lab = {
            "E1": _e(6, 0), "E2": _e(6, 1), "E3": _e(6, 2),
            "F1": _line(6, 1, 2), "F2": _line(6, 0, 2), "F3": _line(6, 0, 1),
            "E4": _e(6, 3), "E5": _e(6, 4), "E6": _e(6, 5),
        }
        for i in range(1, 7):
            lab[f"C{i}"] = _conic(6, skip=(i - 1,))
        for i, j in itertools.combinations(range(1, 7), 2):
            if (i, j) in ((1, 2), (1, 3), (2, 3)):
                continue
            lab[f"L{i}{j}"] = _line(6, i - 1, j - 1)
    else:
        raise ValueError(f"unsupported point count {n}")
    return lab


class CurveConfig(Record):
    """Labeled set of (-1)-classes with the intersection adjacency."""

    n: int
    labels: dict  # label -> CurveClass
    # the adjacency relation: ordered label pairs (a, b) with intersection >= 1
    edges: frozenset = field(init=False, repr=False)
    by_vec: dict = field(init=False, repr=False)  # _vec coordinates -> label

    def __post_init__(self):
        self.edges = frozenset(
            (a, b) for a, b in itertools.permutations(self.labels, 2)
            if intersection(self.labels[a], self.labels[b]) >= 1)
        self.by_vec = {tuple(_vec(c)): name for name, c in self.labels.items()}

    @classmethod
    def build(cls, n):
        if n not in POINT_COUNTS:
            raise ValueError(f"unsupported point count {n}")
        lab = _labels(n)
        bad = [name for name, c in lab.items()
               if c.self_intersection() != -1 or c.anticanonical_degree() != 1]
        if bad:
            raise AssertionError(f"labels not among (-1)-classes: {bad}")
        # the blow-up of n points in general position has 6, 16 or 27 of them
        expected = {3: 6, 5: 16, 6: 27}[n]
        if len(lab) != expected or len({c.vector() for c in lab.values()}) != expected:
            raise AssertionError("label dictionary does not cover the classes")
        return cls(n, lab)

    def class_of(self, label):
        return self.labels[label]

    def adjacent(self, a, b):
        return (a, b) in self.edges

    def neighbor_counts(self):
        names = sorted(self.labels)
        return {
            a: sum(1 for b in names if b != a and self.adjacent(a, b)) for a in names
        }

    def dump(self, action=None):
        """Graphviz-style text dump; one edge per line, actions as comments."""
        lines = []
        names = sorted(self.labels)
        for a, b in itertools.combinations(names, 2):
            if self.adjacent(a, b):
                lines.append(f"{a} -- {b}")
        if action:
            for gen_name in sorted(action):
                perm = action[gen_name]
                for lab in names:
                    lines.append(f"# action {gen_name}: {lab} -> {perm[lab]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Galois actions on configurations
# ---------------------------------------------------------------------------

def hexagon_action(tower):
    """Label permutations of the hexagon induced by the tower's embedding."""
    cfg = config(3)
    out = {}
    for gen_name in sorted(tower.generators):
        perm = tower.embed_map[tower.generators[gen_name]]
        out[gen_name] = {
            hexagon.LABELS[i]: hexagon.LABELS[perm[i]] for i in range(6)
        }
    _check_action(cfg, out)
    return out


def _check_action(config, action):
    """Each label permutation must map the adjacency relation onto itself."""
    for gen_name, perm in action.items():
        if {(perm[a], perm[b]) for a, b in config.edges} != config.edges:
            raise ValueError(f"action of {gen_name} does not preserve adjacency")


def invariant_picard_rank(action_perms):
    """Rank of the invariant sublattice of Z^4 = <H, E1, E2, E3>.

    `action_perms` is an iterable of hexagon label permutations (dicts).
    """
    hex_perms = [tuple(hexagon.INDEX[p[lab]] for lab in hexagon.LABELS)
                 for p in action_perms]
    mats = [_lattice_map(config(3), hp, ()) for hp in hex_perms]
    # invariant subspace: intersection of kernels of (M - I) over Q
    rows = [[mat[i][j] - (1 if i == j else 0) for j in range(4)]
            for mat in mats for i in range(4)]
    if not rows:
        return 4
    rank = _row_rank(rows)
    return 4 - rank


def _vec(c: CurveClass):
    """Coordinates of d*H - sum m_i E_i in the basis H, E_1..E_n."""
    return [c.d] + [-x for x in c.m]


def _lattice_map(config, hex_perm, comp_perm):
    """Integer matrix, in columns, of the isometry of <H, E_1..E_n>.

    The images of e_1..e_n and H pin it: the hexagon perm gives those of
    E_1, E_2, E_3 and of H = F1 + E2 + E3, the component perm those of
    E_4..E_n.
    """
    def image(label):
        return _vec(config.class_of(hexagon.LABELS[hex_perm[hexagon.INDEX[label]]]))

    cols = [[a + b + c for a, b, c in zip(image("F1"), image("E2"), image("E3"))]]
    cols += [image(lab) for lab in ("E1", "E2", "E3")]
    cols += [_vec(config.class_of(f"E{4 + c}")) for c in comp_perm]
    return [list(row) for row in zip(*cols)]


def _row_rank(rows):
    """Rank of an integer matrix by fraction-free elimination.

    Each pivot row clears its column from the rows below by integer
    combinations, and every combined row is divided by its content (the gcd
    of its entries), so the entries stay small and no rational is needed.
    """
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                row = [pr[col] * v - f * w for v, w in zip(rows[i], pr)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# induced action on the contracted hexagon after a link
# ---------------------------------------------------------------------------

SIGMA_PRIME = {
    2: ("L14", "L15", "L24", "L25", "L34", "L35"),
    3: ("C4", "C5", "C6", "L45", "L46", "L56"),
}

#: relabeling of the new hexagon: alternating triples of Sigma', paired so
#: that E_i' and F_i' are the disjoint (opposite) sides
NEW_HEX = {
    2: {"E1": "L14", "E2": "L24", "E3": "L34", "F1": "L15", "F2": "L25", "F3": "L35"},
    3: {"E1": "C4", "E2": "C5", "E3": "C6", "F1": "L56", "F2": "L46", "F3": "L45"},
}


class InducedAction(Record):
    """Result of propagating a twisted Galois action through a 2- or 3-link."""

    d: int
    config: CurveConfig
    full_action: dict         # generator key -> label permutation (all classes)
    new_hexagon_action: dict  # generator key -> hexagon.LABELS permutation tuple
    kernel_pairs: frozenset   # (hex_perm, comp_perm) pairs acting trivially on Sigma'
    group_pairs: frozenset    # all (hex_perm, comp_perm) pairs of the closure


@lru_cache(maxsize=8)
def config(n):
    return CurveConfig.build(n)


#: the classes a d-link contracts, one per component of the point; the
#: inverse point's components are numbered by their places here
CONTRACTED = {2: ("C", "L45"), 3: ("C1", "C2", "C3")}


# the domain is finite: d in {2, 3}, one of the 12 hexagon symmetries and
# one of the d! component permutations, so at most 12*2 + 12*6 = 96 keys
@cache
def propagate_pair(d, hex_perm, comp_perm):
    """What a d-link reads of one action pair: (full label permutation,
    relabeled new-hexagon perm, the inverse point's component perm, whether
    the pair fixes Sigma').

    The component perm lists, for each class of CONTRACTED[d], the place of
    its image there.  The pairs fixing every label of Sigma' form the kernel
    H of the action on the new hexagon.

    Only a pure pair, whose hexagon or component perm is the identity, is
    propagated through the lattice.  A mixed pair composes its two pure
    factors: full(hp, cp)[lab] = full(hp, id)[full(id, cp)[lab]].  This is
    exact.  In `_lattice_map`, M(id, cp) fixes H = F1+E2+E3 and E1..E3 and
    sends E_(4+i) to E_(4+cp[i]), while M(hp, id) moves H and E1..E3 as hp
    does and fixes E4..En.  So M(hp, id)*M(id, cp) sends H and E1..E3 where
    hp does and E_(4+i) to E_(4+cp[i]): column by column it is M(hp, cp).
    The two factors act on the complementary blocks <H, E1, E2, E3> and
    <E4..En>, so they commute, and either order gives the same map.
    The label map of a product of matrices is the composite of their label
    maps, and a composite of two bijections of the (-1)-classes that keep
    adjacency is again one, so the checks of `_propagate` hold for it.
    """
    ident = tuple(range(d))
    if hex_perm == hexagon.IDENTITY or comp_perm == ident:
        full = _propagate(config(3 + d), hex_perm, comp_perm)
    else:
        outer = propagate_pair(d, hex_perm, ident)[0]
        inner = propagate_pair(d, hexagon.IDENTITY, comp_perm)[0]
        full = {lab: outer[img] for lab, img in inner.items()}
    back = {v: k for k, v in NEW_HEX[d].items()}
    perm = [0] * 6
    for i, lab in enumerate(hexagon.LABELS):
        perm[i] = hexagon.INDEX[back[full[NEW_HEX[d][lab]]]]
    contracted = CONTRACTED[d]
    return (full, tuple(perm), tuple(contracted.index(full[c]) for c in contracted),
            all(full[a] == a for a in SIGMA_PRIME[d]))


def induced_sigma_prime_action(d, generators):
    """Extend hexagon+component actions to the full configuration.

    `generators`: list of (key, hexagon_perm_tuple, component_perm) where
    component_perm is a tuple over d point components (indices 0..d-1).
    Returns the generators' actions and the set of action pairs of the
    generated group that fix Sigma' pointwise (the kernel H, as action
    pairs).  `sarkisov.link` reads H off its own pass over the group; this
    closure of the generators is the lattice-route reference for it.
    """
    if d not in (2, 3):
        raise ValueError("links exist at points of degree 2 or 3 only")
    gen_list = list(generators)
    pairs = hexagon.closure(
        (hexagon.IDENTITY, tuple(range(d))),
        {i: (ghp, gcp) for i, (_, ghp, gcp) in enumerate(gen_list)},
        lambda g, u: (hexagon.compose(g[0], u[0]), tuple(g[1][c] for c in u[1])),
        72)

    full, new_hex = {}, {}
    for key, ghp, gcp in gen_list:
        full[key], new_hex[key] = propagate_pair(d, ghp, gcp)[:2]

    kernel = frozenset(pair for pair in pairs if propagate_pair(d, *pair)[3])
    return InducedAction(
        d=d,
        config=config(3 + d),
        full_action=full,
        new_hexagon_action=new_hex,
        kernel_pairs=kernel,
        group_pairs=frozenset(pairs),
    )


def _propagate(config, hex_perm, comp_perm):
    """Label permutation of the full configuration forced by the inputs.

    The lattice isometry is `_lattice_map`; ambiguity or breakage is an
    error, not a guess.
    """
    mat = _lattice_map(config, hex_perm, comp_perm)
    by_vec = config.by_vec
    perm = {}
    for v, name in by_vec.items():
        image = tuple([sum(map(mul, row, v)) for row in mat])
        if image not in by_vec:
            raise ValueError(
                f"induced lattice map does not permute the (-1)-classes "
                f"(inconsistent input action at {name})"
            )
        perm[name] = by_vec[image]
    if len(set(perm.values())) != len(perm):
        raise ValueError("induced label map is not a permutation")
    _check_action(config, {"the induced label map": perm})
    return perm
