"""The pairing from twisted periods.

``pairing_matrices`` computes B and H from 1-D segment periods.  On the
three-point curves w^N = z^a0 (z-1)^a1 (z-t)^a2 with
q = dz^2 / (z (z-1) (z-t)) it is checked against oracles that share no
code with it: the period covolume of the genus-1 curve, from the
hypergeometric series and from a separate 1-D integral, and the values of
the plane quadrature it replaced, recorded in ``tests/recorded.py``; and
against the recorded values of the three-point period rule that preceded
the n-point one.  On curves with more points, the pairing must transform
as the curve does under a relabelling and an affine map of the plane.
"""

from math import comb

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from pillowtiled.bform import (
    CurveDifferential,
    SuperellipticCurve,
    holomorphic_basis,
    pairing_matrices,
)
from pillowtiled.coverings import sample_base_differential
from tests.recorded import BRANCH_CASES, BRANCH_PERIODS, BRANCH_QUADRATURE


def pillowcase_q(t):
    return sample_base_differential((), 4, zeros=(), poles=(t,))


def hypergeometric_half(x, terms=400):
    """2F1(1/2, 1/2; 1; x) summed from its series, |x| < 1."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= ((k + 0.5) / (k + 1)) ** 2 * x
    return total


def covolume_half(t):
    """c(t) = |Im(conj(w1) w2)| / 2 for the periods of dz/y on
    y^2 = z (z-1) (z-t): the segment integrals of dz/y over [0, t] and
    [t, 1] under z = t sin^2 and z = t + (1 - t) sin^2, both smooth, by
    Gauss-Legendre.  The two branches of y differ by a factor +-i near t,
    so c = 2 |Re(conj(P1) P2)|."""
    x, w = leggauss(80)
    th = np.pi / 4 * (x + 1.0)
    w = w * np.pi / 4
    sin2 = np.sin(th) ** 2
    P1 = np.sum(2.0 * w / np.sqrt(1.0 - t * sin2 + 0j))
    P2 = np.sum(2.0 * w / np.sqrt(t + (1.0 - t) * sin2 + 0j))
    return 2.0 * abs((np.conj(P1) * P2).real)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
def test_genus_one_pairing_is_the_period_covolume(t):
    # on w^2 = z (z-1) (z-t) the Hodge norm of dz/w is the covolume of its
    # period lattice, omega1 = 2 pi F(t), omega2 = 2 pi i F(1 - t)
    w1 = 2.0 * np.pi * hypergeometric_half(t)
    w2 = 2.0j * np.pi * hypergeometric_half(1.0 - t)
    want = abs((np.conj(w1) * w2).imag)
    curve = SuperellipticCurve(2, (0.0, 1.0, t), (1, 1, 1))
    rep = pairing_matrices(curve, pillowcase_q(t))
    assert rep.B[0][0] == pytest.approx(want, rel=1e-12)
    assert rep.H[0][0] == pytest.approx(want, rel=1e-12)
    assert covolume_half(t) == pytest.approx(want / 2.0, rel=1e-12)


def branch_pairing(line, t):
    N, *a = map(int, line.split())
    curve = SuperellipticCurve(N, (0.0, 1.0, t), tuple(a[:3]))
    return curve, pairing_matrices(curve, pillowcase_q(t))


def assert_close(rep, want, g, rel):
    """B and H of ``rep`` within rel * scale of the recorded ``want``, with
    the same exact zeros; returns them as arrays."""
    assert len(rep.B) == len(rep.H) == len(want["B"]) == g
    B, H, Bw, Hw = (np.array(m, dtype=complex).reshape(g, g)
                    for m in (rep.B, rep.H, want["B"], want["H"]))
    scale = max(np.max(np.abs(Bw), initial=0.0), np.max(np.abs(Hw), initial=0.0))
    for mine, theirs in ((B, Bw), (H, Hw)):
        assert np.array_equal(mine == 0, theirs == 0)
        assert np.max(np.abs(mine - theirs), initial=0.0) <= rel * scale
    return B, H


@pytest.mark.parametrize("t", [0.3, 0.2 + 0.7j])
@pytest.mark.parametrize("line", BRANCH_CASES)
def test_periods_match_the_quadrature(line, t):
    curve, got = branch_pairing(line, t)
    ref = BRANCH_QUADRATURE[line, t]
    B, _ = assert_close(got, ref, curve.genus, 1e-7)
    assert np.max(np.abs(np.subtract(got.theta, ref["theta"])), initial=0.0) <= 1e-7
    assert got.quad_error < 1e-10
    # f1 f2 z (z-1) (z-t) / P is 1 on every surviving entry, which is then
    # N times the Hodge norm of dz/y on the genus-1 curve
    survivors = B[B != 0]
    assert np.allclose(survivors, curve.N * covolume_half(t), rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("t", [0.3, 0.2 + 0.7j])
@pytest.mark.parametrize("line", BRANCH_CASES)
def test_periods_match_the_three_point_rule(line, t):
    # the n-point rule on three points uses another chain and segment basis
    # than the rule it replaced, so the two agree to round-off
    curve, got = branch_pairing(line, t)
    assert_close(got, BRANCH_PERIODS[line, t], curve.genus, 1e-12)


def moved_curve(curve, q, perm, alpha, beta):
    """The curve and q carried by z -> alpha z + beta, branch points
    listed in the order ``perm``."""
    move = lambda z: alpha * z + beta  # noqa: E731
    moved = SuperellipticCurve(curve.N, tuple(move(curve.branch[k]) for k in perm),
                               tuple(curve.a[k] for k in perm))
    return moved, CurveDifferential(
        wpow=q.wpow,
        zero_orders=tuple((move(y), m) for y, m in q.zero_orders),
        finite_poles=tuple(move(x) for x in q.finite_poles),
    )


def expected_moved_pairing(curve, q, rep, alpha, beta):
    """B and H of the moved curve from those of ``rep``.

    A basis form z^k f dz, f = prod (z - z_i)^t_i, becomes
    (alpha z + beta)^k alpha^(sum t) f in the old coordinate: a binomial
    combination M of the forms z^l f, l <= k.  The weights scale by
    P' = alpha^A P, R' = alpha^(sum m - #poles) R and dA' = |alpha|^2 dA."""
    basis = holomorphic_basis(curve)
    g, N, c, A = len(basis), curve.N, q.wpow, curve.total_exponent
    M = np.zeros((g, g), dtype=complex)
    for i, f in enumerate(basis):
        for j, h in enumerate(basis):
            if (h.b, h.shifts) == (f.b, f.shifts) and h.power <= f.power:
                M[i, j] = (comb(f.power, h.power) * alpha ** (h.power + sum(f.shifts))
                           * beta ** (f.power - h.power))
    k = sum(m for _, m in q.zero_orders) - len(q.finite_poles)
    B = M @ np.array(rep.B) @ M.T
    H = M @ np.array(rep.H) @ M.conj().T
    for i, f in enumerate(basis):
        for j, h in enumerate(basis):
            m = (f.b + h.b - c) // N
            B[i, j] *= (alpha ** (-m * A) * abs(alpha) ** (2 - c * A / N)
                        * (np.conj(alpha) / abs(alpha)) ** k)
            H[i, j] *= abs(alpha) ** (2 - 2 * f.b * A / N)
    return B, H


P4 = (0.0, 1.0, 0.3 + 0.6j, -0.4 + 0.2j)


@pytest.mark.parametrize("curve, q, perm", [
    # the genus-1 curve
    (SuperellipticCurve(2, (0.0, 1.0, 0.2 + 0.7j), (1, 1, 1)),
     sample_base_differential((), 4, zeros=(), poles=(0.2 + 0.7j,)), (2, 0, 1)),
    # four points, a w-power and an extra zero
    (SuperellipticCurve(4, P4, (1, 1, 1, 3)),
     CurveDifferential(wpow=2, zero_orders=((0.5 - 0.5j, 1),), finite_poles=(0.0, 1.0, 0.8 + 0.8j)),
     (3, 1, 0, 2)),
    # five points
    (SuperellipticCurve(5, P4 + (0.7 - 0.5j,), (1, 2, 1, 3, 2)), CurveDifferential(wpow=1),
     (4, 2, 0, 3, 1)),
], ids=["three-point", "four-point-wpow", "five-point"])
def test_moved_branch_points_transform_the_pairing(curve, q, perm):
    # the chain is ordered along a direction chosen from the points; any
    # order of the branch points is the same curve, and under z -> alpha z +
    # beta the pairing transforms as the forms and weights do, which checks
    # the chain order, the rotation to it and the branch of u on a segment
    ref = pairing_matrices(curve, q)
    for alpha, beta in [(1.0, 0.0), (2.0, -1.0), (1.3 * np.exp(0.4j), 0.2 - 0.5j)]:
        rep = pairing_matrices(*moved_curve(curve, q, perm, alpha, beta))
        B, H = expected_moved_pairing(curve, q, ref, alpha, beta)
        scale = max(np.max(np.abs(B)), np.max(np.abs(H)))
        assert np.max(np.abs(np.array(rep.B) - B)) <= 1e-12 * scale
        assert np.max(np.abs(np.array(rep.H) - H)) <= 1e-12 * scale
        assert rep.theta == pytest.approx(ref.theta, abs=1e-12)


def test_relabelled_branch_points_give_the_same_pairing():
    # any order of the branch points, and an affine image of them, is the
    # same curve
    t = 0.2 + 0.7j
    ref = pairing_matrices(SuperellipticCurve(2, (0.0, 1.0, t), (1, 1, 1)), pillowcase_q(t))
    for branch in [(t, 0.0, 1.0), (1.0, t, 0.0)]:
        rep = pairing_matrices(SuperellipticCurve(2, branch, (1, 1, 1)), pillowcase_q(t))
        assert rep.B[0][0] == pytest.approx(ref.B[0][0], rel=1e-12)
    # z -> 2z - 1: |dz/y|^2 scales by |2|^2 / |2|^3
    L = 2.0
    pts = tuple(L * z - 1.0 for z in (0.0, 1.0, t))
    q = CurveDifferential(finite_poles=pts)
    rep = pairing_matrices(SuperellipticCurve(2, pts, (1, 1, 1)), q)
    assert rep.B[0][0] == pytest.approx(ref.B[0][0] / L, rel=1e-12)
    assert rep.H[0][0] == pytest.approx(ref.H[0][0] / L, rel=1e-12)


def test_constant_factor_of_q_enters_b_as_a_phase():
    t = 0.3
    curve = SuperellipticCurve(2, (0.0, 1.0, t), (1, 1, 1))
    base = pillowcase_q(t)
    c = 2.0 - 1.5j

    class Scaled:
        wpow = 0
        zero_orders = base.zero_orders
        finite_poles = base.finite_poles

        def __call__(self, z):
            return c * base(z)

    ref = pairing_matrices(curve, base)
    rep = pairing_matrices(curve, Scaled())
    assert rep.B[0][0] == pytest.approx(np.conj(c) / abs(c) * ref.B[0][0], rel=1e-14)
    assert rep.H == ref.H and rep.theta == pytest.approx(ref.theta, abs=1e-14)
