"""The hexagon of (-1)-curves and its symmetry group D6.

Labels are E1,E2,E3,F1,F2,F3; a symmetry is a permutation tuple p with
p[i] = index of the image of label i.  The torus action of each symmetry is
the 2x2 integer matrix acting on exponent vectors of (lambda_1, lambda_2).
"""

from __future__ import annotations

from functools import cache

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
    a, b, c, d, e, f = q
    return (p[a], p[b], p[c], p[d], p[e], p[f])


def invert(p):
    out = [0] * 6
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


REFLECT_S = compose(CENTRAL, REFLECT_F)  # s = h*f: fixes E1 and F1


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


def closure(identity, gens, mul, limit):
    """The group generated by `gens` (name -> element), as element -> word.

    An element first reached as mul(gen, u) gets the word (name,) + word(u);
    the search is depth-first from `identity`, so the order of the result is
    fixed by the order of `gens`.  More than `limit` elements raise
    ValueError.
    """
    words = {identity: ()}
    stack = [identity]
    while stack:
        u = stack.pop()
        for name, gen in gens.items():
            v = mul(gen, u)
            if v not in words:
                words[v] = (name,) + words[u]
                stack.append(v)
        if len(words) > limit:
            raise ValueError(f"generated group has more than {limit} elements")
    return words


@cache
def d6_elements():
    """All twelve symmetries with their torus matrices: dict perm -> matrix."""
    words = closure(IDENTITY, {p: p for p in _GEN_MATRICES}, compose, 12)
    out = {}
    for p, word in words.items():
        mat = ((1, 0), (0, 1))
        for gen in word:
            mat = _mat_mul(mat, _GEN_MATRICES[gen])
        out[p] = mat
    assert len(out) == 12
    return out


def torus_act(p, a, b, monomials=None):
    """The torus action of the symmetry p on the pair (a, b).

    Row (e, f) of p's matrix gives the monomial a**e * b**f.  `monomials`
    memoises these by row; a dict passed to several calls on the same pair
    (a, b) builds each of the six possible rows +-(1, 0), +-(0, 1),
    +-(1, -1) at most once, and inverts a and b at most once each.
    """
    if monomials is None:
        monomials = {}
    return tuple(_torus_monomial(a, b, row, monomials) for row in d6_elements()[p])


def _torus_monomial(a, b, row, monomials):
    # a**e * b**f; no row of an invertible matrix is zero, and a row with
    # both entries nonzero is the product of the rows (e, 0) and (0, f)
    m = monomials.get(row)
    if m is None:
        e, f = row
        if e and f:
            m = (_torus_monomial(a, b, (e, 0), monomials)
                 * _torus_monomial(a, b, (0, f), monomials))
        else:
            m = a ** e if e else b ** f
        monomials[row] = m
    return m


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
