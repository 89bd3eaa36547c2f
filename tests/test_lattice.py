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
                   if r else reference.zero_matrix(m, n))
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
    # V is the lower block of one pass over a stacked on the identity, and
    # the pass's top block is a's own Hermite form
    rng = random.Random(11)
    for a in random_cases(rng, 90):
        m, n = lattice.shape(a)
        pivots, H, V = reference.hermite_transform(a)
        assert lattice.hermite(a) == (pivots, H)
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


def test_hermite_decides_unimodularity():
    # homology_basis calls a square cup matrix unimodular exactly when its
    # Hermite form is the identity
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(0, 6)
        assert lattice.hermite(random_unimodular(rng, n))[1] == lattice.eye(n)
    for a in random_cases(rng, 90):
        if len(a) == len(a[0]):
            assert (lattice.hermite(a)[1] == lattice.eye(len(a))) == (abs(_det(a)) == 1)


def test_kernel_basis_matches_a_two_pass_oracle():
    # one stacked pass gives the kernel's Hermite basis that two passes of
    # an independent Hermite form give, on full-rank, rank-deficient,
    # zero, column-free and empty matrices
    rng = random.Random(421)
    cases = [[], [[]], [[], []], reference.zero_matrix(3, 4), lattice.eye(4), [[2, 4, 6]]]
    cases += list(random_cases(rng, 1200))
    for a in cases:
        assert lattice.kernel_basis(a) == reference.kernel_basis(a), a


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
        assert lattice.matmul(reference.left_inverse(K), K) == lattice.eye(len(ker))


def test_inverses_reject_bad_input_without_assertions():
    code = (
        "from pillowtiled import lattice\n"
        "for f, *a in ((lattice.matmul, [[1, 2]], [[1]]),\n"
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


def test_pack_keeps_every_value():
    # a matrix whose entries fit is one read-only int64 array of its shape;
    # one past int64 stays the rows it was given
    fits = [[2**63 - 1, -(2**63), 0], [1, -1, 5]]
    packed = lattice.pack(fits)
    assert packed.dtype == np.int64 and packed.shape == (2, 3)
    assert not packed.flags.writeable
    assert packed.tolist() == fits and lattice.mat_eq(packed, fits)
    past = [[2**63, 0]]
    assert lattice.pack(past) is past
    assert lattice.pack([]).shape == (0, 0)
    assert lattice.pack(((1, 2),)).tolist() == [[1, 2]]


def test_matmul_reads_packed_operands_as_rows():
    rng = random.Random(20261021)
    modes = ("small", "below", "above", "huge")
    for t in range(400):
        m, k, n = (rng.randint(1, 12) for _ in range(3))
        a, b = _guarded_operands(rng, m, k, n, modes[t % 4])
        want = _matmul_reference(a, b)
        for x, y in ((lattice.pack(a), b), (a, lattice.pack(b)), (lattice.pack(a), lattice.pack(b))):
            got = lattice.matmul(x, y)
            assert got == want, (t, m, k, n)
            assert all(type(z) is int for row in got for z in row)


def test_packed_operands_past_the_guard_stay_exact(monkeypatch):
    # a guard at 0 sends every product to Python ints; packed operands are
    # read back as Python ints first, since int64 scalars wrap at 2**63
    monkeypatch.setattr(lattice, "_INT64_SAFE", 0)
    a = lattice.pack([[2**40]])
    assert isinstance(a, np.ndarray)
    got = lattice.matmul(a, a)
    assert got == [[2**80]] and type(got[0][0]) is int
    assert lattice.matmul(a, [[2**70]]) == [[2**110]]
    assert lattice.matmul([[-(2**70)]], a) == [[-(2**110)]]


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
    # a guard at 0 sends every multiply-add past it: first on the doubles
    # below 2**53, then on Python ints
    for float_exact in (lattice._FLOAT_EXACT, 0):
        monkeypatch.setattr(lattice, "_FLOAT_EXACT", float_exact)
        for t in range(300):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            hi = 2 ** rng.choice((3, 40, 52, 61, 62, 70))
            P, Q = (random_matrix(rng, rows, cols, -hi, hi) if rows else [] for _ in range(2))
            pencil = lattice.Pencil(P, Q)
            for m in (0, 1, rng.randint(2, 10**6), 10**12, 2**62 + 1):
                want = [[p + m * q for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]
                got = pencil.exact(m)
                assert got.shape == (rows, cols if rows else 0)
                assert got.tolist() == want, (t, m)
                # both tiers give the double nearest the exact integer, the
                # Python int's own rounding, past 2**53 too
                rounded = pencil.at(m)
                assert rounded.dtype == float and rounded.shape == got.shape
                assert rounded.tobytes() == np.array(want, dtype=float).reshape(got.shape).tobytes()


def test_pencil_tiers_meet_at_their_guards(monkeypatch):
    exact = []
    real = lattice.Pencil.exact

    def counted(self, m):
        exact.append(m)
        return real(self, m)

    monkeypatch.setattr(lattice.Pencil, "exact", counted)
    # below 2**53 the multiply-add runs on the pencil's doubles; at the
    # guard it runs exactly, and the result is rounded once
    pencil = lattice.Pencil([[1, -1]], [[2, 4]])
    m = (2**53 - 2) // 4
    assert pencil.at(m).tolist() == [[1 + 2 * m, -1 + 4 * m]] and exact == []
    assert pencil.at(m + 1).tolist() == [[float(1 + 2 * (m + 1)), float(-1 + 4 * (m + 1))]]
    assert exact == [m + 1]
    # the multiply-add in doubles past 2**53 rounds twice: 3 (2**52 + 1)
    # rounds up to 3 * 2**52 + 4, and minus 1 again up to 3 * 2**52 + 4,
    # where the exact 3 * 2**52 + 2 is a double; the guard keeps it exact
    skew = lattice.Pencil([[-1]], [[2**52 + 1]])
    assert skew.at(3).tolist() == [[3 * 2**52 + 2]]
    monkeypatch.setattr(lattice, "_FLOAT_EXACT", 1 << 60)
    assert skew.at(3).tolist() == [[3 * 2**52 + 4]]
    # at m = 0 the pencil gives its own read-only P, and forms no array
    assert pencil.at(0) is pencil.p and not pencil.p.flags.writeable
    assert lattice.Pencil([[5]], [[0]]).at(10**30).tolist() == [[5.0]]


def test_pencil_past_the_guard_runs_on_python_ints():
    # the exact multiply-add has one path, on Python ints, which no m or
    # entry can wrap: at 2**62 and past int64 as below them
    x = 2**40
    pencil = lattice.Pencil([[x, -x]], [[1, 2]])
    for m in (0, (2**62 - 1 - x) // 2, (2**62 + 1 - x) // 2, 2**70):
        got = pencil.exact(m)
        assert got.dtype == object and {type(e) for e in got.flat} == {int}
        assert got.tolist() == [[x + m, -x + 2 * m]]
    past = lattice.Pencil([[2**63, 0]], [[1, -1]])  # an entry past int64
    assert past.exact(5).tolist() == [[2**63 + 5, -5]]
    assert past.at(5).tolist() == [[float(2**63 + 5), -5.0]]


def test_a_zero_q_pencil_keeps_no_q():
    # a cycle product of finite order gives Q == 0, and then the pencil
    # keeps P alone, in each exact tier: doubles, int64, Python ints
    for P in ([[3, -1], [0, 2]], [[2**60, -7]], [[2**63, -5]]):
        pencil = lattice.Pencil(P, [[0] * len(P[0]) for _ in P])
        assert pencil.q is None
        for m in (0, 1, 10**12):
            got = pencil.exact(m)
            assert got.tolist() == P and {type(e) for e in got.flat} == {int}
            assert pencil.at(m) is pencil.p


def test_block_diag():
    assert lattice.block_diag([[1, 2], [3, 4]], [[5]]) == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    assert lattice.block_diag([], [[7]]) == [[7]]


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


def test_quasi_unipotent_powers_give_every_power():
    cases = [
        ([[1, 3], [0, 1]], 1),                                # twist
        ([[0, -1], [1, 1]], 6),                               # order 6
        ([[-1, -2], [0, -1]], 2),                             # -twist
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], 4),  # twist + quarter turn
        ([], 1),
    ]
    for c, least in cases:
        # a cap at the least k finds it, and a looser one the same k
        for cap in (least, 3 * least, 60):
            powers, nil = lattice.quasi_unipotent_powers(c, cap)
            assert len(powers) == least
        assert not any(any(row) for row in lattice.matmul(nil, nil))
        acc = lattice.eye(len(c))
        for q in range(3 * least + 3):
            m, s = divmod(q, least)
            step = [[x + m * y for x, y in zip(rp, rn)]
                    for rp, rn in zip(lattice.eye(len(c)), nil)]
            assert lattice.matmul(powers[s], step) == acc
            acc = lattice.matmul(c, acc)
        # a cap below the least k is a mismatch
        with pytest.raises(ArithmeticError, match=f"k <= {least - 1} "):
            lattice.quasi_unipotent_powers(c, least - 1)


def test_not_quasi_unipotent_raises_named_error():
    # no power of a hyperbolic matrix, nor of a Jordan block of size 3,
    # has (C^k - I)^2 == 0: the search raises ArithmeticError at its cap
    for c in ([[2, 1], [1, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]):
        for cap in (0, 1, 60):
            with pytest.raises(ArithmeticError, match=f"k <= {cap} ") as err:
                lattice.quasi_unipotent_powers(c, cap)
            assert err.type is ArithmeticError


def test_not_quasi_unipotent_raises_without_assertions():
    code = (
        "from pillowtiled import lattice\n"
        "try:\n"
        "    lattice.quasi_unipotent_powers([[2, 1], [1, 1]], 60)\n"
        "except ArithmeticError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr
