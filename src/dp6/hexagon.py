"""The hexagon of (-1)-curves and its symmetry group D6.

Labels are E1,E2,E3,F1,F2,F3; a symmetry is a permutation tuple p with
p[i] = index of the image of label i.  The torus action of each symmetry is
the 2x2 integer matrix acting on exponent vectors of (lambda_1, lambda_2).
"""

from __future__ import annotations

LABELS = ("E1", "E2", "E3", "F1", "F2", "F3")
INDEX = {lab: i for i, lab in enumerate(LABELS)}

#: cyclic order of the hexagon sides
CYCLE = ("F3", "E1", "F2", "E3", "F1", "E2")

IDENTITY = (0, 1, 2, 3, 4, 5)
#: rotation by 2*pi/3: E1->E2->E3, F1->F2->F3
ROT3 = (1, 2, 0, 4, 5, 3)
#: central symmetry: Ei <-> Fi
CENTRAL = (3, 4, 5, 0, 1, 2)
#: the reflection called f: E1<->F1, E2<->F3, E3<->F2
REFLECT_F = (3, 5, 4, 0, 2, 1)


def compose(p, q):
    """(p o q)[i] = p[q[i]] -- apply q first."""
    return tuple(p[q[i]] for i in range(6))


def invert(p):
    out = [0] * 6
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


REFLECT_S = compose(CENTRAL, REFLECT_F)  # s = h*f: fixes E1 and F1

_ADJ = None


def adjacency():
    """Set of adjacent (intersecting) label index pairs on the hexagon."""
    global _ADJ
    if _ADJ is None:
        pairs = set()
        m = len(CYCLE)
        for i in range(m):
            a, b = INDEX[CYCLE[i]], INDEX[CYCLE[(i + 1) % m]]
            pairs.add(frozenset((a, b)))
        _ADJ = frozenset(pairs)
    return _ADJ


def preserves_adjacency(p):
    adj = adjacency()
    return all(frozenset((p[a], p[b])) in adj for a, b in (tuple(x) for x in adj))


def _mat_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
         m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
         m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


_GEN_MATRICES = {
    ROT3: ((0, -1), (1, -1)),       # theta: (l1,l2) -> (l2^-1, l1 l2^-1)
    CENTRAL: ((-1, 0), (0, -1)),    # iota: inversion
    REFLECT_F: ((0, -1), (-1, 0)),  # sigma: (l1,l2) -> (l2^-1, l1^-1)
}

_D6 = None


def d6_elements():
    """All twelve symmetries with their torus matrices: dict perm -> matrix."""
    global _D6
    if _D6 is None:
        table = {IDENTITY: ((1, 0), (0, 1))}
        frontier = [IDENTITY]
        while frontier:
            p = frontier.pop()
            for gen, mat in _GEN_MATRICES.items():
                q = compose(gen, p)
                if q not in table:
                    table[q] = _mat_mul(mat, table[p])
                    frontier.append(q)
        assert len(table) == 12
        _D6 = table
    return _D6


def torus_act(p, a, b):
    """The torus action of the symmetry p on the pair (a, b)."""
    m = d6_elements()[p]
    return (a ** m[0][0] * b ** m[0][1], a ** m[1][0] * b ** m[1][1])


def perm_name(p):
    """Readable name r^i or r^i*f for reports (r = one-step rotation)."""
    step = [0] * 6
    for i in range(6):
        step[INDEX[CYCLE[i]]] = INDEX[CYCLE[(i + 1) % 6]]
    one_step = tuple(step)
    cur = IDENTITY
    for i in range(6):
        if p == cur:
            return f"r^{i}" if i else "id"
        cur = compose(one_step, cur)
    cur = REFLECT_F
    for i in range(6):
        if p == cur:
            return f"r^{i}*f" if i else "f"
        cur = compose(one_step, cur)
    return str(p)
