"""Exact integer linear algebra checks, mostly randomized invariants."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pillowtiled import lattice
from tests import reference


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_cases(rng, count):
    """Seeded integer matrices: full rank, rank-deficient and 0-column ones."""
    for t in range(count):
        m, n = rng.randint(1, 6), rng.randint(0, 6)
        if t % 3 == 1 and n:
            r = rng.randint(0, min(m, n) - 1)
            yield (lattice.matmul(random_matrix(rng, m, r, -3, 3), random_matrix(rng, r, n, -3, 3))
                   if r else lattice.zeros(m, n))
        else:
            yield random_matrix(rng, m, n)


def random_unimodular(rng, n, moves=15):
    a = lattice.eye(n)
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def _rref(rows):
    """Reduced row echelon form over Q (reference): (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        t = len(pivots)
        rows[t], rows[i] = rows[i], rows[t]
        rows[t] = [x / rows[t][col] for x in rows[t]]
        for k in range(len(rows)):
            if k != t and rows[k][col]:
                rows[k] = [x - rows[k][col] * y for x, y in zip(rows[k], rows[t])]
        pivots.append(col)
    return rows, pivots


def _rank(a):
    return len(_rref(a)[1])


def _det(a):
    n, det, rows = len(a), Fraction(1), [[Fraction(x) for x in r] for r in a]
    for col in range(n):
        i = next((i for i in range(col, n) if rows[i][col]), None)
        if i is None:
            return 0
        if i != col:
            rows[col], rows[i], det = rows[i], rows[col], -det
        det *= rows[col][col]
        for k in range(col + 1, n):
            f = rows[k][col] / rows[col][col]
            rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
    return det


def test_kernel_basis():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        ker = lattice.kernel_basis(a)
        for c in ker:
            assert all(sum(a[i][j] * c[j] for j in range(n)) == 0 for i in range(m))
        assert len(ker) == n - _rank(a)


def test_hermite_form_properties():
    rng = random.Random(11)
    for a in random_cases(rng, 90):
        m, n = lattice.shape(a)
        pivots, H, V = lattice.hermite(a)
        assert lattice.matmul(a, V) == H
        assert abs(_det(V)) == 1
        r = len(pivots)
        assert r == _rank(a)
        assert pivots == sorted(set(pivots))
        for j, i in enumerate(pivots):
            assert all(H[x][j] == 0 for x in range(i))
            assert H[i][j] > 0
            assert all(0 <= H[i][c] < H[i][j] for c in range(j))
        assert all(H[x][j] == 0 for x in range(m) for j in range(r, n))


def test_kernel_basis_is_saturated_and_complete():
    rng = random.Random(12)
    for a in random_cases(rng, 90):
        m, n = lattice.shape(a)
        ker = lattice.kernel_basis(a)
        assert len(ker) == n - _rank(a)
        if not ker:
            continue
        K = [[c[i] for c in ker] for i in range(n)]
        assert not any(any(row) for row in lattice.matmul(a, K))
        assert lattice.matmul(lattice.left_inverse(K), K) == lattice.eye(len(ker))


def test_left_inverse():
    k = [[1, 0], [2, 1], [3, 5]]
    L = lattice.left_inverse(k)
    assert lattice.mat_eq(lattice.matmul(L, k), lattice.eye(2))
    rng = random.Random(14)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(0, m)
        u = random_unimodular(rng, m)
        k = [row[:n] for row in u]  # saturated: part of a basis of Z^m
        assert lattice.matmul(lattice.left_inverse(k), k) == lattice.eye(n)
        if n:
            doubled = [[2 * x if j == 0 else x for j, x in enumerate(row)] for row in k]
            with pytest.raises(ValueError):
                lattice.left_inverse(doubled)
    with pytest.raises(ValueError):
        lattice.left_inverse([[1, 2], [2, 4], [3, 6]])  # rank 1


def test_unimodular_inverse():
    a = [[3, 1], [5, 2]]  # det 1
    ainv = lattice.unimodular_inverse(a)
    assert lattice.mat_eq(lattice.matmul(a, ainv), lattice.eye(2))
    try:
        lattice.unimodular_inverse([[2, 0], [0, 1]])
    except ValueError:
        pass
    else:
        raise AssertionError("accepted a non-unimodular matrix")
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(0, 6)
        u = random_unimodular(rng, n)
        uinv = lattice.unimodular_inverse(u)
        assert lattice.matmul(u, uinv) == lattice.eye(n)
        assert lattice.matmul(uinv, u) == lattice.eye(n)
    for a in random_cases(rng, 60):
        if len(a) == len(a[0]) and abs(_det(a)) != 1:
            with pytest.raises(ValueError):
                lattice.unimodular_inverse(a)
    with pytest.raises(ValueError):
        lattice.unimodular_inverse([[1, 0, 0], [0, 1, 0]])


def test_inverses_reject_bad_input_without_assertions():
    code = (
        "from pillowtiled import lattice\n"
        "for f, *a in ((lattice.unimodular_inverse, [[2, 0], [0, 1]]),\n"
        "              (lattice.left_inverse, [[2, 0], [0, 1], [0, 0]]),\n"
        "              (lattice.matmul, [[1, 2]], [[1]]),\n"
        "              (lattice.matmul, [[1, 2], [3]], [[1], [1]]),\n"
        "              (lattice.matmul, [[1, 2]], [[1, 2], [3]]),\n"
        "              (lattice.matmul, [[2**70, 2], [3]], [[1], [1]]),\n"
        "              (lattice.matmul, [[], [1]], [])):\n"
        "    try:\n"
        "        f(*a)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'{f.__name__} accepted {a}')\n"
        "raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr


def test_matmul_with_no_rows():
    # a 0 x 2 factor prints as [] and carries no inner dimension
    assert lattice.matmul([], [[1, 2], [3, 4]]) == []
    assert lattice.matmul([], []) == []


def _matmul_reference(a, b):
    """The pure Python-int product, the reference for the int64 path."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _guarded_operands(rng, m, k, n, mode):
    """Random m x k and k x n factors; ``mode`` sets their size against
    the int64 guard k * max|a| * max|b| < 2**62."""
    if mode == "small":
        ma, mb = rng.randint(0, 9), rng.randint(0, 9)
    elif mode in ("below", "above"):
        mb = rng.randint(1, 2**20)
        ma = (2**62 - 1) // (k * mb)  # largest ma below the bound
        if mode == "above":
            ma += 1
    else:  # "huge": entries past int64 itself
        ma, mb = 2**63 + rng.randint(0, 2**40), rng.randint(1, 2**70)
    a = [[rng.choice((-ma, ma)) if rng.random() < 0.5 else rng.randint(-ma, ma)
          for _ in range(k)] for _ in range(m)]
    b = [[rng.choice((-mb, mb)) if rng.random() < 0.5 else rng.randint(-mb, mb)
          for _ in range(n)] for _ in range(k)]
    if k and n:  # make max|a| and max|b| exactly ma and mb
        a[rng.randrange(m)][rng.randrange(k)] = rng.choice((-ma, ma))
        b[rng.randrange(k)][rng.randrange(n)] = rng.choice((-mb, mb))
    return a, b


def test_matmul_matches_the_python_int_product():
    rng = random.Random(20261018)
    modes = ("small", "below", "above", "huge")
    for t in range(1200):
        m, k, n = (rng.randint(1, 40) for _ in range(3))
        if t % 50 == 7:
            k = 0  # m x 0 times 0 x 0: the 0 x n factor prints as []
        elif t % 50 == 11:
            n = 0  # m x k times k x 0
        a, b = _guarded_operands(rng, m, k, n, modes[t % 4] if k else "small")
        if k == 0:
            b = []
        if t % 3 == 0:
            a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        got = lattice.matmul(a, b)
        assert got == _matmul_reference(a, b), (t, m, k, n)
        assert isinstance(got, list) and all(isinstance(row, list) for row in got)
        assert all(type(x) is int for row in got for x in row)


def test_matmul_stays_exact_past_int64():
    # a product of int64-sized entries that would wrap on int64
    a, b = [[2**62, 2**62]], [[2], [2]]
    assert lattice.matmul(a, b) == [[2**64]]
    # k * x * x = 2 * x * x passes the guard up to x = 2**30 + 1; at x = 2**31
    # the product itself, 2**63, would wrap
    for x in (2**30, 2**30 + 1, 2**31):
        a, b = [[x, x]], [[x], [x]]
        assert lattice.matmul(a, b) == [[2 * x * x]]
    assert lattice.matmul([[-(2**63)]], [[-(2**63)]]) == [[2**126]]
    # entries past int64 against a zero factor
    assert lattice.matmul([[2**70, 1]], [[0], [0]]) == [[0]]
    assert lattice.matmul([[0, 0]], [[-(2**80)], [2**64]]) == [[0]]


def test_matmul_below_the_guard_runs_on_int64(monkeypatch):
    products = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            products.append((self.dtype, other.dtype))
            return np.matmul(self.view(np.ndarray), other.view(np.ndarray))

    real = np.array
    monkeypatch.setattr(lattice.np, "array", lambda obj, *args: real(obj, *args).view(Spy))
    k, mb = 3, 5
    ma = (2**62 - 1) // (k * mb)
    a, b = [[ma, -ma, ma]], [[mb], [mb], [-mb]]
    assert lattice.matmul(a, b) == [[-ma * mb]]
    assert products == [(np.int64, np.int64)]
    assert lattice.matmul([[ma + 1, 0, 0]], b) == [[(ma + 1) * mb]]
    assert len(products) == 1  # at the guard the Python-int product runs


def test_pencil_is_the_exact_multiply_add(monkeypatch):
    rng = random.Random(20261019)
    for guard in (lattice._INT64_SAFE, 0):  # 0: every product on Python ints
        monkeypatch.setattr(lattice, "_INT64_SAFE", guard)
        for t in range(300):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            hi = 2 ** rng.choice((3, 40, 61, 62, 70))
            P, Q = (random_matrix(rng, rows, cols, -hi, hi) if rows else [] for _ in range(2))
            pencil = lattice.Pencil(P, Q)
            for m in (0, 1, rng.randint(2, 10**6), 10**12, 2**62 + 1):
                want = [[p + m * q for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]
                got = pencil.at(m)
                assert got.shape == (rows, cols if rows else 0)
                assert got.tolist() == want, (t, m)
                # rounding int64 entries to float gives the doubles of the
                # Python ints, past 2**53 too
                out = np.zeros(got.shape)
                out[...] = got
                assert out.tobytes() == np.array(want, dtype=float).reshape(got.shape).tobytes()


def test_pencil_below_the_guard_runs_on_int64():
    x = 2**40
    pencil = lattice.Pencil([[x, -x]], [[1, 2]])
    m = (2**62 - 1 - x) // 2
    assert pencil.at(m).dtype == np.int64
    assert pencil.at(m).tolist() == [[x + m, -x + 2 * m]]
    assert pencil.at(m + 1).dtype == object  # at the guard: Python ints
    assert pencil.at(m + 1).tolist() == [[x + m + 1, -x + 2 * (m + 1)]]
    past = lattice.Pencil([[2**63, 0]], [[1, -1]])  # an entry past int64
    assert past.at(5).tolist() == [[2**63 + 5, -5]]


def test_matmul_rejects_ragged_rows():
    cases = [
        ([[1, 2], [3]], [[1], [1]]),               # ragged left factor
        ([[1, 2]], [[1, 2], [3]]),                 # ragged right factor
        ([[2**70, 2], [3]], [[1], [1]]),           # past the guard
        ([[1, 2]], [[2**70, 2], [3]]),
        (((1, 2), (3,)), ((1,), (1,))),
        ([[], [1]], []),                           # first row is empty
        ([[1, 2]], [[], [1]]),
    ]
    for a, b in cases:
        with pytest.raises(ValueError):
            lattice.matmul(a, b)


def test_mat_eq_compares_entries_not_row_types():
    equal = [
        ([[1]], ((1,),)),
        (((1, -2), (0, 3)), [[1, -2], [0, 3]]),
        ([(1, 2), [3, 4]], ([1, 2], (3, 4))),
        ([], ()),
        ([[]], ((),)),
    ]
    for a, b in equal:
        assert lattice.mat_eq(a, b) and lattice.mat_eq(b, a)
    unequal = [
        ([[1]], ((2,),)),
        (((1, 2), (3, 4)), [[1, 2], [3, 5]]),
        ([[1, 2]], ((1,), (2,))),                  # shape mismatch
        ([[1, 2]], ((1, 2), (1, 2))),
        ([[1]], ()),
        ([[1, 2], [3]], ((1, 2), (3, 4))),         # ragged against full
    ]
    for a, b in unequal:
        assert not lattice.mat_eq(a, b) and not lattice.mat_eq(b, a)


def test_max_finite_order():
    assert [lattice.max_finite_order(n) for n in range(1, 11)] == [
        2, 6, 6, 12, 12, 30, 30, 60, 60, 120,
    ]


def test_max_finite_order_matches_the_dp_over_every_degree():
    # n = 2 is the case a plain prime-power knapsack gets wrong (4, not 6):
    # 2 costs nothing beside an odd prime power, as phi(6) == phi(3)
    for n in range(1, 65):
        assert lattice.max_finite_order(n) == reference.max_finite_order(n), n


def test_quasi_unipotent_powers_give_every_power():
    cases = [
        [[1, 3], [0, 1]],                                     # twist, k = 1
        [[0, -1], [1, 1]],                                    # order 6
        [[-1, -2], [0, -1]],                                  # -twist, k = 2
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],  # twist + quarter turn
        [],
    ]
    for c in cases:
        powers, nil = lattice.quasi_unipotent_powers(c)
        k = len(powers)
        assert not any(any(row) for row in lattice.matmul(nil, nil))
        acc = lattice.eye(len(c))
        for q in range(3 * k + 3):
            m, s = divmod(q, k)
            step = [[x + m * y for x, y in zip(rp, rn)]
                    for rp, rn in zip(lattice.eye(len(c)), nil)]
            assert lattice.matmul(powers[s], step) == acc
            acc = lattice.matmul(c, acc)
    assert len(lattice.quasi_unipotent_powers(cases[1])[0]) == 6
    assert len(lattice.quasi_unipotent_powers(cases[3])[0]) == 4


def test_not_quasi_unipotent_raises_named_error():
    with pytest.raises(lattice.NotQuasiUnipotentError):
        lattice.quasi_unipotent_powers([[2, 1], [1, 1]])
    with pytest.raises(lattice.NotQuasiUnipotentError):
        lattice.quasi_unipotent_powers([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # Jordan block of size 3


def test_not_quasi_unipotent_raises_without_assertions():
    code = (
        "from pillowtiled import lattice\n"
        "try:\n"
        "    lattice.quasi_unipotent_powers([[2, 1], [1, 1]])\n"
        "except lattice.NotQuasiUnipotentError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr
