"""Exact integer matrix utilities built on one column Hermite routine.

``hermite`` brings a matrix to column Hermite normal form by unimodular
column operations, reducing each pivot row as it goes so entries stay
small, and forms no transform; a kernel is read off one pass over the
matrix stacked on the identity, and a square matrix is unimodular exactly
when its H is the identity.  Nothing here inverts a matrix: the homology
layer checks moves against cup matrices, and reads eigenlattice
coordinates off a Hermite basis by substitution.  The pipeline needs no
invariant factors: the homology basis comes from a tree-cotree
decomposition and needs no torsion check.
``smith_normal_form`` is a stub with no body that stays only because the
benchmark tracer looks it up by name.

Everything here works on small dense matrices of Python ints (lists of
lists), which keeps the homology pipeline exact.  There are three
exceptions, and this is the only module where exact integers meet a
fixed width.  ``pack`` keeps a matrix that a cache holds on to as a
read-only int64 array, 8 bytes an entry, when every entry fits in int64,
and as its rows of Python ints otherwise; the values are the same either
way.  Inside ``matmul``, which takes rows and packed matrices alike, when
k * max|a| * max|b| < 2**62, k the inner dimension, every partial sum of
every entry is at most that bound in absolute value, so the product runs
on int64 in numpy and cannot wrap; past the bound it runs on Python ints,
packed operands read back as Python ints first, since int64 scalars would
wrap silently there, and either way the result is Python ints.
``Pencil`` gives the integer matrices P + m * Q rounded to float64, in
two tiers, and keeps P and Q exactly by ``pack``'s rule.  While
max|P| + m * max|Q| < 2**53 every entry, every product m * q and every
sum is an integer that a float64 holds exactly, so the multiply-add runs
on the pencil's float64 arrays and its result is the exact value.  Past
that, the multiply-add runs exactly on Python ints and the result is
rounded to the nearest float64, so both tiers give the double of the
exact integer.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

import numpy as np

_INT64_SAFE = 1 << 62  # k * max|a| * max|b| below this cannot leave int64
_FLOAT_EXACT = 1 << 53  # an integer below this in absolute value is a float64, exactly


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(a: list[list[int]]) -> tuple[int, int]:
    return len(a), len(a[0]) if len(a) else 0


def _max_abs(a: np.ndarray) -> int:
    """max|a| as a Python int, 0 for an empty array."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def pack(a: Sequence[Sequence[int]]):
    """An integer matrix as a cache keeps it: a read-only int64 array of
    its shape when every entry fits in int64, else ``a`` itself."""
    try:
        out = np.array(a, np.int64)
    except OverflowError:  # an entry past int64: the rows of Python ints
        return a
    if out.ndim != 2:  # no rows: a view, of no data, gives the shape
        out = out.reshape(shape(a))
    out.flags.writeable = False
    return out


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact product of integer matrices given as sequences of rows.

    Rows may be lists or tuples, and a matrix may be packed (``pack``);
    the result is a list of lists of Python ints, computed on int64 below
    the guard of the module docstring and on Python ints past it.
    Mismatched shapes and ragged rows raise ValueError.
    """
    if not len(a):  # no rows: the inner dimension cannot be read off, nor matters
        return []
    k, n = len(a[0]), len(b[0]) if len(b) else 0
    if len(b) != k:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    if set(map(len, a)) != {k} or (len(b) and set(map(len, b)) != {n}):
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
    # packed operands as Python ints: int64 scalars would wrap past the guard
    a, b = (x.tolist() if isinstance(x, np.ndarray) else x for x in (a, b))
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


class Pencil:
    """The integer matrices P + m * Q for m >= 0, rounded to float64.

    ``p`` and ``q`` are P and Q as read-only float64 arrays, rounded where
    an entry is 2**53 or more; then the exact matrices are kept beside
    them, packed (``pack``) when both fit in int64.  Where Q is zero,
    ``q`` is None and P + m * Q is P.  ``at(m)`` is P + m * Q rounded
    entrywise to the nearest double, in the tiers of the module
    docstring; at m = 0, or with Q == 0, it is ``p`` itself, and no array
    is formed.
    """

    __slots__ = ("p", "q", "_exact", "_bound_p", "_bound_q")

    def __init__(self, p: Sequence[Sequence[int]], q: Sequence[Sequence[int]]):
        P, Q = pack(p), pack(q)
        if not (isinstance(P, np.ndarray) and isinstance(Q, np.ndarray)):
            # an entry past int64: Python ints throughout
            P = np.array(p, object).reshape(shape(p))
            Q = np.array(q, object).reshape(shape(q))
        self._bound_p, self._bound_q = _max_abs(P), _max_abs(Q)
        self.p, self.q = P.astype(float), None
        self.p.flags.writeable = False
        if self._bound_q:
            self.q = Q.astype(float)
            self.q.flags.writeable = False
        exact = max(self._bound_p, self._bound_q) < _FLOAT_EXACT
        self._exact = None if exact else (P, Q)

    def exact(self, m: int) -> np.ndarray:
        """P + m * Q exactly, as an array of Python ints."""
        if not self._bound_q:
            return (self._exact[0] if self._exact else self.p.astype(np.int64)).astype(object)
        P, Q = self._exact or (self.p.astype(np.int64), self.q.astype(np.int64))
        return P.astype(object) + m * Q.astype(object)

    def at(self, m: int) -> np.ndarray:
        """P + m * Q, each entry the double nearest the exact integer."""
        if not (m and self._bound_q):
            return self.p
        if self._bound_p + m * self._bound_q < _FLOAT_EXACT:
            out = self.q * m
            out += self.p
            return out
        return self.exact(m).astype(float)


def block_diag(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """diag(a, b) of two square integer matrices, as rows."""
    return [list(r) + [0] * len(b) for r in a] + [[0] * len(a) + list(r) for r in b]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a and a[0] else [[] for _ in range(shape(a)[1])]


def mat_eq(a, b) -> bool:
    """Entrywise equality; list, tuple and array rows compare alike."""
    return shape(a) == shape(b) and all(list(ra) == list(rb) for ra, rb in zip(a, b))


def quasi_unipotent_powers(c: list[list[int]], cap: int):
    """Closed form of the powers of a square integer matrix C.

    Finds the least k <= cap with (C^k - I)^2 == 0 and returns (powers,
    nil) with powers == [C^0, ..., C^(k-1)] and nil == C^k - I.  As
    nil @ nil == 0 and nil commutes with C, the binomial expansion of
    (I + nil)^(q div k) stops after two terms:

        C^q == C^(q mod k) @ (I + (q div k) * nil)    for every q >= 0.

    The caller bounds k by what it knows of C (``GenCycle`` by its
    surface); when no power up to ``cap`` qualifies, ArithmeticError is
    raised.
    """
    one = eye(len(c))
    powers = [one]
    cur = c
    for _ in range(cap):
        nil = [[x - y for x, y in zip(rc, ri)] for rc, ri in zip(cur, one)]
        if not any(any(row) for row in matmul(nil, nil)):
            return powers, nil
        powers.append(cur)
        cur = matmul(c, cur)
    raise ArithmeticError(f"no power C^k with k <= {cap} satisfies (C^k - I)^2 == 0")


def hermite(a: list[list[int]]):
    """Column Hermite normal form (pivot_rows, H) of a, with no transform.

    H == a @ V for a unimodular V that is not formed.  H is lower echelon:
    its column j < len(pivot_rows) is zero above row pivot_rows[j] and
    positive there, and the remaining columns are zero.  Every entry of a
    pivot row left of its pivot is reduced into [0, pivot) as each pivot is
    found (Kannan-Bachem; Cohen, GTM 138, 2.4): it keeps the entries of H
    small, and it makes H exactly the identity when a is unimodular.
    """
    m, n = shape(a)
    A = [list(c) for c in zip(*a)] if n else []   # columns of H
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
            p, hk = A[k][i], A[k]
            left = False
            for c in range(k + 1, n):
                q = A[c][i] // p
                if q:
                    A[c] = [x - q * y for x, y in zip(A[c], hk)]
                left = left or A[c][i] != 0
            if not left:
                break
        if best is None:
            continue
        if A[k][i] < 0:
            A[k] = [-x for x in A[k]]
        p, hk = A[k][i], A[k]
        for j in range(k):
            q = A[j][i] // p
            if q:
                A[j] = [x - q * y for x, y in zip(A[j], hk)]
        pivots.append(i)
        k += 1
    return pivots, [list(r) for r in zip(*A)] if n else [[] for _ in range(m)]


def smith_normal_form(a: list[list[int]]):
    """Not implemented: nothing in the package needs invariant factors.

    The benchmark tracer looks the name up in its ``FUNCTIONS`` table, so
    the stub stays until that entry goes; the pipeline never calls it.
    """
    raise NotImplementedError("smith_normal_form has no implementation; nothing calls it")


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Columns spanning ker(a) over Z, in Hermite normal form, so the basis
    depends on the kernel alone.  One ``hermite`` pass over a stacked on the
    identity leaves them in the columns past a's rank, zero on a's rows and
    reduced on the identity's, as a later pivot never changes a row above it.
    """
    m, n = shape(a)
    pivots, H = hermite([*a, *eye(n)])
    return [[row[j] for row in H[m:]] for j in range(sum(i < m for i in pivots), n)]
