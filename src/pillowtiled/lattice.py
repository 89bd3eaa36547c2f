"""Exact integer matrix utilities built on one column Hermite routine.

``hermite`` brings a matrix to column Hermite normal form by unimodular
column operations, reducing each pivot row as it goes so entries stay
small; kernels, left inverses and unimodular inverses are read off its
output.  The pipeline needs no invariant factors: the homology basis
comes from a tree-cotree decomposition and needs no torsion check.
``smith_normal_form`` is a stub with no body that stays only because the
benchmark tracer looks it up by name.

Everything here works on small dense matrices of Python ints (lists of
lists), which keeps the homology pipeline exact.  There are two
exceptions, and this is the only module where exact integers meet a
fixed width.  Inside ``matmul``, when k * max|a| * max|b| < 2**62, k the
inner dimension, every partial sum of every entry is at most that bound
in absolute value, so the product runs on int64 in numpy and cannot
wrap; past the bound it runs on Python ints, and either way the result
is Python ints.  ``Pencil`` holds the two matrices of P + m * Q as int64
arrays and forms the multiply-add on int64 while max|P| + m * max|Q| <
2**62, on Python ints past it; either way the result is exact, and
rounding an entry to float gives the same double from int64 as from the
Python int (both round to nearest).
"""

from __future__ import annotations

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
    return len(a), len(a[0]) if len(a) else 0


def _max_abs(a: np.ndarray) -> int:
    """max|a| as a Python int, 0 for an empty array."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


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
        if k * _max_abs(A) * _max_abs(B) < _INT64_SAFE:
            return (A @ B).tolist()
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


class Pencil:
    """The exact integer matrices P + m * Q for m >= 0.

    P and Q are kept as int64 arrays when every entry fits, else as arrays
    of Python ints.  ``at(m)`` is an int64 array while max|P| + m * max|Q|
    < 2**62, where no entry can wrap, and an array of Python ints past it.
    """

    __slots__ = ("p", "q", "_bound_p", "_bound_q")

    def __init__(self, p: Sequence[Sequence[int]], q: Sequence[Sequence[int]]):
        try:
            self.p = np.array(p, np.int64).reshape(shape(p))
            self.q = np.array(q, np.int64).reshape(shape(q))
        except OverflowError:  # an entry past int64: Python ints throughout
            self.p = np.array(p, object).reshape(shape(p))
            self.q = np.array(q, object).reshape(shape(q))
        self._bound_p, self._bound_q = _max_abs(self.p), _max_abs(self.q)

    def at(self, m: int) -> np.ndarray:
        """P + m * Q, exactly."""
        if not (m and self._bound_q):
            return self.p
        if self.p.dtype != object and self._bound_p + m * self._bound_q < _INT64_SAFE:
            return self.p + m * self.q
        return self.p.astype(object) + m * self.q.astype(object)


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a and a[0] else [[] for _ in range(shape(a)[1])]


def mat_eq(a, b) -> bool:
    """Entrywise equality; list, tuple and array rows compare alike."""
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

    phi is multiplicative and a product of factors >= 2 is at least their
    sum, so a block d may be split into its prime powers at no greater
    cost; the one factor below 2 is phi(2) == 1, and phi(2m) == phi(m) for
    odd m, so 2 comes free once any odd prime power is in.  That leaves a
    knapsack over at most one power p^k per prime, at cost
    phi(p^k) = p^(k-1) (p - 1).
    """
    # odd[c]: the largest product of odd prime powers of total cost <= c
    odd = [1] * (n + 1)
    composite = bytearray(n + 2)
    for p in range(3, n + 2, 2):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, n + 2, p))
        new = odd[:]
        power, cost = p, p - 1
        while cost <= n:
            for c in range(cost, n + 1):
                new[c] = max(new[c], odd[c - cost] * power)
            power, cost = power * p, cost * p
        odd = new
    # 2^k costs 2^(k-1), and 2 nothing beside an odd prime power
    best = 2 * odd[n] if odd[n] > 1 else 1
    power, cost = 2, 1
    while cost <= n:
        best = max(best, power * odd[n - cost])
        power, cost = 2 * power, 2 * cost
    return best


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
    """Not implemented: nothing in the package needs invariant factors.

    The benchmark tracer looks the name up in its ``FUNCTIONS`` table, so
    the stub stays until that entry goes; the pipeline never calls it.
    """
    raise NotImplementedError("smith_normal_form has no implementation; nothing calls it")


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
