"""(-1)-classes on blow-ups of the plane and Galois actions on them.

Classes live in Z^(1+n) with intersection form diag(+1,-1,..,-1); a class is
written (d; m_1..m_n) for d*H - sum m_i E_i, so exceptional classes have
m_i = -1.  Enumeration is by bounded lattice search; the labeled dictionaries
follow the blow-up identifications for the degree-4 and degree-3 models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import hexagon

# the point counts n whose labeled configurations are built
POINT_COUNTS = (3, 5, 6)


class LatticeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CurveClass:
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


@dataclass
class CurveConfig:
    """Labeled set of (-1)-classes with the intersection adjacency."""

    n: int
    labels: dict  # label -> CurveClass

    @classmethod
    def build(cls, n):
        if n not in POINT_COUNTS:
            raise ValueError(f"unsupported point count {n}")
        classes = minus_one_classes(n)
        lab = _labels(n)
        expected = {3: 6, 5: 16, 6: 27}[n]
        if len(classes) != expected:
            raise AssertionError(
                f"lattice search found {len(classes)} classes, expected {expected}"
            )
        by_vec = {c.vector(): c for c in classes}
        missing = [name for name, c in lab.items() if c.vector() not in by_vec]
        if missing:
            raise AssertionError(f"labels not among (-1)-classes: {missing}")
        if n in (5, 6) and len(lab) != expected:
            raise AssertionError("label dictionary does not cover the classes")
        if n == 3 and len(lab) != 6:
            raise AssertionError("hexagon label dictionary incomplete")
        return cls(n, lab)

    def class_of(self, label):
        return self.labels[label]

    def adjacent(self, a, b):
        return intersection(self.labels[a], self.labels[b]) >= 1

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
    config = CurveConfig.build(3)
    out = {}
    for gen_name in sorted(tower.generators):
        perm = tower.embed_map[tower.generators[gen_name]]
        out[gen_name] = {
            hexagon.LABELS[i]: hexagon.LABELS[perm[i]] for i in range(6)
        }
    _check_action(config, out)
    return out


def _check_action(config, action):
    for gen_name, perm in action.items():
        for a, b in itertools.combinations(sorted(config.labels), 2):
            if config.adjacent(a, b) != config.adjacent(perm[a], perm[b]):
                raise ValueError(f"action of {gen_name} does not preserve adjacency")


def invariant_picard_rank(action_perms):
    """Rank of the invariant sublattice of Z^4 = <H, E1, E2, E3>.

    `action_perms` is an iterable of hexagon label permutations (dicts).
    """
    config = CurveConfig.build(3)
    mats = [_lattice_map_from_hexagon(config, perm) for perm in action_perms]
    # invariant subspace: intersection of kernels of (M - I) over Q
    rows = []
    for mat in mats:
        for i in range(4):
            row = [Fraction(mat[i][j]) - (1 if i == j else 0) for j in range(4)]
            rows.append(row)
    if not rows:
        return 4
    rank = _row_rank(rows)
    return 4 - rank


def _lattice_map_from_hexagon(config, perm):
    """4x4 integer matrix of the induced map on <H, E1, E2, E3> (columns)."""
    def vec(label):
        c = config.labels[label]
        # coordinates in basis H, E1, E2, E3 for class d*H - sum m_i E_i
        return [c.d, -c.m[0], -c.m[1], -c.m[2]]

    cols = {}
    for i, lab in enumerate(("E1", "E2", "E3")):
        cols[1 + i] = vec(perm[lab])
    # H = F1 + E2 + E3 as classes
    img = [a + b + c for a, b, c in zip(vec(perm["F1"]), vec(perm["E2"]), vec(perm["E3"]))]
    cols[0] = img
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def _row_rank(rows):
    rows = [r[:] for r in rows]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pr[:] = [v / pr[col] for v in pr]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], pr)]
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


@dataclass
class InducedAction:
    """Result of propagating a twisted Galois action through a 2- or 3-link."""

    d: int
    config: CurveConfig
    full_action: dict         # generator key -> label permutation (all classes)
    sigma_prime_action: dict  # generator key -> permutation of Sigma' labels
    new_hexagon_action: dict  # generator key -> hexagon.LABELS permutation tuple
    kernel_pairs: frozenset   # (hex_perm, comp_perm) pairs acting trivially on Sigma'
    group_pairs: frozenset    # all (hex_perm, comp_perm) pairs of the closure


@lru_cache(maxsize=8)
def config(n):
    return CurveConfig.build(n)


@lru_cache(maxsize=16384)
def propagate_pair(d, hex_perm, comp_perm):
    """(full label permutation, relabeled new-hexagon perm) for one action pair."""
    n = 3 + d
    cfg = config(n)
    full = _propagate(cfg, n, d, hex_perm, comp_perm)
    back = {v: k for k, v in NEW_HEX[d].items()}
    perm = [0] * 6
    for i, lab in enumerate(hexagon.LABELS):
        perm[i] = hexagon.INDEX[back[full[NEW_HEX[d][lab]]]]
    return full, tuple(perm)


def induced_sigma_prime_action(d, generators):
    """Extend hexagon+component actions to the full configuration; restrict.

    `generators`: list of (key, hexagon_perm_tuple, component_perm) where
    component_perm is a tuple over d point components (indices 0..d-1).
    Returns the restricted action on Sigma' and the set of action pairs that
    restrict to the identity there (the kernel H, as action pairs).
    """
    if d not in (2, 3):
        raise ValueError("links exist at points of degree 2 or 3 only")
    n = 3 + d
    cfg = config(n)

    # close the generating set under composition
    idpair = (hexagon.IDENTITY, tuple(range(d)))
    pairs = {idpair}
    frontier = [idpair]
    gen_list = list(generators)
    while frontier:
        hp, cp = frontier.pop()
        for _, ghp, gcp in gen_list:
            npair = (hexagon.compose(ghp, hp), tuple(gcp[cp[i]] for i in range(d)))
            if npair not in pairs:
                pairs.add(npair)
                frontier.append(npair)
        if len(pairs) > 72:
            raise ValueError("generated group is too large")

    full = {}
    for key, ghp, gcp in gen_list:
        full[key], _ = propagate_pair(d, ghp, gcp)

    sigma_labels = SIGMA_PRIME[d]
    sigma = {k: {a: p[a] for a in sigma_labels} for k, p in full.items()}

    ident = {a: a for a in sigma_labels}
    kernel = set()
    for hp, cp in pairs:
        p, _ = propagate_pair(d, hp, cp)
        if {a: p[a] for a in sigma_labels} == ident:
            kernel.add((hp, cp))

    new_hex = {}
    back = {v: k for k, v in NEW_HEX[d].items()}
    for k, p in sigma.items():
        perm = [0] * 6
        for i, lab in enumerate(hexagon.LABELS):
            image = p[NEW_HEX[d][lab]]
            perm[i] = hexagon.INDEX[back[image]]
        new_hex[k] = tuple(perm)

    return InducedAction(
        d=d,
        config=cfg,
        full_action=full,
        sigma_prime_action=sigma,
        new_hexagon_action=new_hex,
        kernel_pairs=frozenset(kernel),
        group_pairs=frozenset(pairs),
    )


def _propagate(config, n, d, hex_perm, comp_perm):
    """Label permutation of the full configuration forced by the inputs.

    The lattice isometry is pinned by the images of e_1..e_n and H: hexagon
    labels give e_1,e_2,e_3 (and H via F-labels), the component permutation
    gives e_4..e_n.  Ambiguity or breakage is an error, not a guess.
    """
    def vec(c: CurveClass):
        return [c.d] + [-x for x in c.m]

    img = {}
    hexlabels = ("E1", "E2", "E3", "F1", "F2", "F3")
    for i, lab in enumerate(hexlabels):
        target = hexlabels[hex_perm[i]]
        img[lab] = config.class_of(target)
    cols = {}
    for i in range(3):
        cols[1 + i] = vec(img[f"E{i+1}"])
    for i in range(d):
        cols[4 + i] = vec(config.class_of(f"E{4 + comp_perm[i]}"))
    hvec = [a + b + c for a, b, c in zip(vec(img["F1"]), vec(img["E2"]), vec(img["E3"]))]
    cols[0] = hvec
    mat = [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]

    perm = {}
    by_vec = {tuple(vec(c)): name for name, c in config.labels.items()}
    for name, c in config.labels.items():
        v = vec(c)
        image = tuple(
            sum(mat[i][j] * v[j] for j in range(n + 1)) for i in range(n + 1)
        )
        if image not in by_vec:
            raise ValueError(
                f"induced lattice map does not permute the (-1)-classes "
                f"(inconsistent input action at {name})"
            )
        perm[name] = by_vec[image]
    # bijectivity + adjacency preservation
    if len(set(perm.values())) != len(perm):
        raise ValueError("induced label map is not a permutation")
    for a, b in itertools.combinations(sorted(config.labels), 2):
        if config.adjacent(a, b) != config.adjacent(perm[a], perm[b]):
            raise ValueError("induced label map breaks the intersection graph")
    return perm
