"""Exact integer matrix utilities built on one column Hermite routine.

``hermite`` brings a matrix to column Hermite normal form by unimodular
column operations, reducing each pivot row as it goes so entries stay
small; kernels, lattice bases, left inverses and unimodular inverses are
read off its output.  A Smith normal form remains for the one caller that
needs invariant factors: the torsion check of ``quotient_basis``.

Everything here works on small dense matrices of Python ints (lists of
lists), which keeps the homology pipeline exact.  The one exception is
inside ``matmul``: when k * max|a| * max|b| < 2**62, k the inner
dimension, every partial sum of every entry is at most that bound in
absolute value, so the product runs on int64 in numpy and cannot wrap;
past the bound it runs on Python ints.  Either way the result is Python
ints, and this is the only module where exact integers meet a fixed
width.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from operator import mul

import numpy as np

_INT64_SAFE = 1 << 62  # k * max|a| * max|b| below this cannot leave int64


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def shape(a: list[list[int]]) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact product of integer matrices given as sequences of rows.

    Rows may be lists or tuples; the result is a list of lists of Python
    ints, computed on int64 below the guard of the module docstring and
    on Python ints past it.  Mismatched shapes and ragged rows raise
    ValueError.
    """
    if not a:  # no rows: the inner dimension cannot be read off, nor matters
        return []
    k, n = len(a[0]), len(b[0]) if b else 0
    if len(b) != k:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    if set(map(len, a)) != {k} or (b and set(map(len, b)) != {n}):
        raise ValueError("ragged rows in a matrix product")
    if not n:  # k == 0 makes b == [], so this covers it too
        return [[] for _ in a]
    try:
        A, B = np.array(a, np.int64), np.array(b, np.int64)
    except OverflowError:  # an entry past int64: no fixed-width product
        pass
    else:
        ma = max(int(A.max()), -int(A.min()))
        mb = max(int(B.max()), -int(B.min()))
        if k * ma * mb < _INT64_SAFE:
            return (A @ B).tolist()
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a and a[0] else [[] for _ in range(shape(a)[1])]


def mat_eq(a, b) -> bool:
    """Entrywise equality; list and tuple rows compare alike."""
    return shape(a) == shape(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


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


def hermite(a: list[list[int]]):
    """Column Hermite normal form: (pivot_rows, H, V) with a @ V == H.

    V is unimodular.  H is lower echelon: its column j < len(pivot_rows)
    is zero above row pivot_rows[j] and positive there, and the remaining
    columns are zero, so those columns of V span ker(a).  Every entry of a
    pivot row left of its pivot is reduced into [0, pivot).  The reduction
    is done as each pivot is found (Kannan-Bachem; Cohen, GTM 138, 2.4):
    it keeps the entries of H and V small, and it makes H exactly the
    identity when a is unimodular.
    """
    m, n = shape(a)
    A = [list(c) for c in zip(*a)] if n else []   # columns of H
    V = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of V
    pivots: list[int] = []
    k = 0
    for i in range(m):
        if k == n:
            break
        # Euclid across the trailing columns; they are zero above row i
        while True:
            best = None
            for c in range(k, n):
                x = A[c][i]
                if x and (best is None or abs(x) < abs(A[best][i])):
                    best = c
            if best is None:
                break
            A[k], A[best] = A[best], A[k]
            V[k], V[best] = V[best], V[k]
            p, hk, vk = A[k][i], A[k], V[k]
            left = False
            for c in range(k + 1, n):
                q = A[c][i] // p
                if q:
                    A[c] = [x - q * y for x, y in zip(A[c], hk)]
                    V[c] = [x - q * y for x, y in zip(V[c], vk)]
                left = left or A[c][i] != 0
            if not left:
                break
        if best is None:
            continue
        if A[k][i] < 0:
            A[k] = [-x for x in A[k]]
            V[k] = [-x for x in V[k]]
        p, hk, vk = A[k][i], A[k], V[k]
        for j in range(k):
            q = A[j][i] // p
            if q:
                A[j] = [x - q * y for x, y in zip(A[j], hk)]
                V[j] = [x - q * y for x, y in zip(V[j], vk)]
        pivots.append(i)
        k += 1
    H = [list(r) for r in zip(*A)] if n else [[] for _ in range(m)]
    return pivots, H, transpose(V)


def smith_normal_form(a: list[list[int]]):
    """U @ a @ V == S with S diagonal, d_i | d_{i+1}, U and V unimodular.

    Returns (S, U, Uinv): the row transform is kept with its inverse, the
    column transform V is not recorded.
    """
    m, n = shape(a)
    S = [list(r) for r in a]
    U, Uinv = eye(m), eye(m)

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
    return S, U, Uinv


def _leading_columns(a: list[list[int]], k: int) -> list[list[int]]:
    return [[row[j] for row in a] for j in range(k)]


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Columns spanning ker(a) over Z (a saturated sublattice).

    Returned as a list of column vectors, in Hermite normal form, so the
    basis depends on the kernel alone.
    """
    pivots, _, V = hermite(a)
    _, H, _ = hermite([row[len(pivots):] for row in V])
    return _leading_columns(H, shape(a)[1] - len(pivots))


def column_lattice_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis (list of column vectors) of the lattice spanned by a's columns."""
    pivots, H, _ = hermite(a)
    return _leading_columns(H, len(pivots))


def left_inverse(k: list[list[int]]) -> list[list[int]]:
    """Integer L with L @ k == I, for k with saturated full-rank column span.

    With k^T @ V == H in Hermite form, the columns of k span a saturated
    rank-n sublattice exactly when H's leading n x n block is unitriangular;
    reduced, that block is I, and L is the transpose of V's first n columns.
    """
    n = shape(k)[1]
    pivots, H, V = hermite(transpose(k))
    if pivots != list(range(n)) or any(H[i][i] != 1 for i in range(n)):
        raise ValueError("column span is not a saturated rank-n sublattice")
    return _leading_columns(V, n)


def unimodular_inverse(a: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix.

    a @ V == H with H unitriangular exactly when a is unimodular; reduced,
    H is I, so the inverse is V.
    """
    n, n2 = shape(a)
    if n != n2:
        raise ValueError(f"not a square matrix: {shape(a)}")
    pivots, H, V = hermite(a)
    if pivots != list(range(n)) or any(H[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return V


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
    if img:
        # image vectors in K-coordinates; their invariant factors must be 0 or 1
        D = matmul(L, [[img[j][i] for j in range(len(img))] for i in range(ambient_dim)])
        S, U, Uinv = smith_normal_form(D)
        diag = [S[i][i] for i in range(min(shape(S)))]
        if any(x not in (0, 1) for x in diag):
            raise ValueError("quotient has torsion")
        rank = sum(1 for x in diag if x)
    else:
        U, Uinv, rank = eye(nK), eye(nK), 0
    B = matmul(K, [[Uinv[i][j] for j in range(rank, nK)] for i in range(nK)])
    C = matmul([U[i] for i in range(rank, nK)], L)
    return B, C
