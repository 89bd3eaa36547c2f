"""Exact integer linear algebra checks, mostly randomized invariants."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pillowtiled import lattice


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def is_unimodular(a):
    s, *_ , rank = lattice.smith_normal_form(a)
    n = len(a)
    return rank == n and all(s[i][i] == 1 for i in range(n))


def test_snf_fixed_case():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    S, U, V, Uinv, Vinv, rank = lattice.smith_normal_form(a)
    # classic example: invariant factors 2, 2, 156
    assert [S[i][i] for i in range(3)] == [2, 2, 156]
    assert rank == 3


def test_snf_randomized_invariants():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        S, U, V, Uinv, Vinv, rank = lattice.smith_normal_form(a)
        assert lattice.mat_eq(lattice.matmul(lattice.matmul(U, a), V), S)
        assert lattice.mat_eq(lattice.matmul(U, Uinv), lattice.eye(m))
        assert lattice.mat_eq(lattice.matmul(V, Vinv), lattice.eye(n))
        # diagonal, nonnegative, divisibility chain
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        diag = [S[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if y:
                assert x and y % x == 0
        assert rank == sum(1 for x in diag if x)


def test_kernel_basis():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        ker = lattice.kernel_basis(a)
        for c in ker:
            assert all(sum(a[i][j] * c[j] for j in range(n)) == 0 for i in range(m))
        S, *_, rank = lattice.smith_normal_form(a)
        assert len(ker) == n - rank


def test_left_inverse():
    k = [[1, 0], [2, 1], [3, 5]]
    L = lattice.left_inverse(k)
    assert lattice.mat_eq(lattice.matmul(L, k), lattice.eye(2))


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


def test_quotient_basis_for_cylinder_lattice():
    # Z^3 with kernel = all of Z^3 and image spanned by (1,1,0) and (0,2,0):
    # quotient is Z^2 x Z/2?  No torsion allowed -> use (0,1,0) instead.
    ker = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    img = [[1, 1, 0], [0, 1, 0]]
    B, C = lattice.quotient_basis(3, ker, img)
    assert len(B) == 3 and len(B[0]) == 1
    assert lattice.mat_eq(lattice.matmul(C, B), lattice.eye(1))
    # functional kills the image
    for c in img:
        assert sum(C[0][i] * c[i] for i in range(3)) == 0


def test_matmul_with_no_rows():
    # a 0 x 2 factor prints as [] and carries no inner dimension
    assert lattice.matmul([], [[1, 2], [3, 4]]) == []
    assert lattice.matmul([], []) == []


def test_max_finite_order():
    assert [lattice.max_finite_order(n) for n in range(1, 11)] == [
        2, 6, 6, 12, 12, 30, 30, 60, 60, 120,
    ]


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
