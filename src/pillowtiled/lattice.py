"""Exact integer matrix utilities: Smith normal form and friends.

Everything here works on small dense matrices of Python ints (lists of
lists), which keeps the homology pipeline exact; numpy only enters once
frames are handed to floating point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def shape(a: list[list[int]]) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:  # no rows: the inner dimension cannot be read off, nor matters
        return []
    m, k = shape(a)
    k2, n = shape(b)
    assert k == k2, f"shape mismatch {shape(a)} @ {shape(b)}"
    bt = list(zip(*b)) if n else []
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a and a[0] else [[] for _ in range(shape(a)[1])]


def mat_eq(a, b) -> bool:
    return shape(a) == shape(b) and all(ra == rb for ra, rb in zip(a, b))


class NotQuasiUnipotentError(ArithmeticError):
    """No power of the matrix is unipotent with (C^k - I)^2 == 0."""


@lru_cache(maxsize=None)
def max_finite_order(n: int) -> int:
    """Largest order of a finite-order element of GL(n, Z).

    Such an element is rationally a block sum of companion matrices of
    cyclotomic polynomials Phi_d with sum(phi(d)) == n, and its order is
    the lcm of the d; every such block sum is integral.  So this is the
    largest lcm over multisets of d with sum(phi(d)) <= n (padding with
    d = 1): 2, 6, 6, 12, 12, 30, 30, 60, 60, 120 for n = 1..10.
    """
    # phi(d) >= sqrt(d / 2), so d <= 2 n^2 covers every admissible degree
    phi = list(range(2 * n * n + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:
            for j in range(p, len(phi), p):
                phi[j] -= phi[j] // p
    best = {1: 0}  # lcm -> least total degree reaching it
    for d in range(2, len(phi)):
        if phi[d] > n:
            continue
        for lcm, cost in list(best.items()):
            c = cost + phi[d]
            if c <= n:
                new = lcm * d // math.gcd(lcm, d)
                if c < best.get(new, n + 1):
                    best[new] = c
    return max(best)


def quasi_unipotent_powers(c: list[list[int]]):
    """Closed form of the powers of a square integer matrix C.

    Finds the least k with (C^k - I)^2 == 0 and returns (powers, nil) with
    powers == [C^0, ..., C^(k-1)] and nil == C^k - I.  As nil @ nil == 0
    and nil commutes with C, the binomial expansion of (I + nil)^(q div k)
    stops after two terms:

        C^q == C^(q mod k) @ (I + (q div k) * nil)    for every q >= 0.

    The eigenvalues of such a C are roots of unity, so k is the order of
    its semisimple part, at most max_finite_order(n); past that bound no
    power qualifies and NotQuasiUnipotentError is raised.
    """
    cap = max_finite_order(len(c))
    one = eye(len(c))
    powers = [one]
    cur = c
    for _ in range(cap):
        nil = [[x - y for x, y in zip(rc, ri)] for rc, ri in zip(cur, one)]
        if not any(any(row) for row in matmul(nil, nil)):
            return powers, nil
        powers.append(cur)
        cur = matmul(c, cur)
    raise NotQuasiUnipotentError(
        f"no power C^k with k <= {cap} satisfies (C^k - I)^2 == 0"
    )


def smith_normal_form(a: list[list[int]]):
    """U @ a @ V == S with S diagonal, d_i | d_{i+1}, U and V unimodular.

    Returns (S, U, V, Uinv, Vinv, rank).  Transform inverses are maintained
    alongside, so callers get exact unimodular inverses for free.
    """
    m, n = shape(a)
    S = [list(r) for r in a]
    U, Uinv = eye(m), eye(m)
    V, Vinv = eye(n), eye(n)

    def swap_rows(i, j):
        if i == j:
            return
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(dst, src, c):  # row_dst += c * row_src
        if c == 0:
            return
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]
        for r in Uinv:  # inverse gets the opposite column op
            r[src] -= c * r[dst]

    def add_col(dst, src, c):  # col_dst += c * col_src
        if c == 0:
            return
        for r in S:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]
        Vinv[src] = [x - c * y for x, y in zip(Vinv[src], Vinv[dst])]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    t = 0
    while t < min(m, n):
        # locate a pivot: smallest nonzero magnitude in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = S[i][j]
                if x and (best is None or abs(x) < best):
                    best, piv = abs(x), (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t then row t with Euclid steps
            done = True
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        done = False
            if not done:
                continue
            # pivot must divide the whole trailing block for the chain
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)  # pull the offending row up and keep reducing
        if S[t][t] < 0:
            negate_row(t)
        t += 1

    rank = sum(1 for i in range(min(m, n)) if S[i][i])
    return S, U, V, Uinv, Vinv, rank


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Columns spanning ker(a) over Z (a saturated sublattice).

    Returned as a list of column vectors.
    """
    m, n = shape(a)
    if n == 0:
        return []
    S, U, V, Uinv, Vinv, rank = smith_normal_form(a)
    return [[V[i][j] for i in range(n)] for j in range(rank, n)]


def column_lattice_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis (list of column vectors) of the lattice spanned by a's columns."""
    m, n = shape(a)
    S, U, V, Uinv, Vinv, rank = smith_normal_form(a)
    return [[S[i][i] * Uinv[r][i] for r in range(m)] for i in range(rank)]


def left_inverse(k: list[list[int]]) -> list[list[int]]:
    """Integer L with L @ k == I, for k with saturated full-rank column span."""
    m, n = shape(k)
    S, U, V, Uinv, Vinv, rank = smith_normal_form(k)
    if rank != n or any(S[i][i] not in (1, -1) for i in range(n)):
        raise ValueError("column span is not a saturated rank-n sublattice")
    D = [[(1 if S[i][i] == 1 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    return matmul(matmul(V, D), U[:n])


def unimodular_inverse(a: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    n, n2 = shape(a)
    assert n == n2
    S, U, V, Uinv, Vinv, rank = smith_normal_form(a)
    if rank != n or any(S[i][i] not in (1, -1) for i in range(n)):
        raise ValueError("matrix is not unimodular")
    D = [[(S[i][i]) if i == j else 0 for j in range(n)] for i in range(n)]
    return matmul(matmul(V, D), U)


def quotient_basis(ambient_dim: int, ker: list[list[int]], img: list[list[int]]):
    """Basis and coordinate functionals for ker/img inside Z^ambient_dim.

    ``ker``: columns spanning a saturated sublattice K; ``img``: columns of a
    sublattice of K with torsion-free quotient.  Returns (B, C) where B's
    columns are lattice vectors projecting to a basis of K/img, and C (rows)
    are integer functionals on Z^ambient with C @ B == I and C @ img == 0.
    """
    nK = len(ker)
    K = [[ker[j][i] for j in range(nK)] for i in range(ambient_dim)]  # cols
    L = left_inverse(K)
    # image vectors in K-coordinates
    D = matmul(L, [[img[j][i] for j in range(len(img))] for i in range(ambient_dim)]) if img else [[0] * 0 for _ in range(nK)]
    if img:
        S, U, V, Uinv, Vinv, rank = smith_normal_form(D)
        if any(S[i][i] not in (0, 1) for i in range(min(len(S), len(S[0] if S else [])))):
            raise ValueError("quotient has torsion")
    else:
        U, Uinv, rank = eye(nK), eye(nK), 0
    B = matmul(K, [[Uinv[i][j] for j in range(rank, nK)] for i in range(nK)])
    C = matmul([U[i] for i in range(rank, nK)], L)
    return B, C
