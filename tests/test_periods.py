"""The pairing from twisted periods on three-point curves.

``pairing_matrices`` computes B and H on w^N = z^a0 (z-1)^a1 (z-t)^a2
with q = dz^2 / (z (z-1) (z-t)) from 1-D segment periods.  It is checked
against two oracles that share no code with it: the period covolume of
the genus-1 curve, from the hypergeometric series and from a separate
1-D integral, and the plane quadrature ``bform._quadrature_pairing``.
"""

import json

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from pillowtiled import bform, cli
from pillowtiled.bform import SuperellipticCurve, pairing_matrices
from pillowtiled.cli import RunConfig
from pillowtiled.coverings import sample_base_differential


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
    q = pillowcase_q(t)
    for rep, rel in ((pairing_matrices(curve, q), 1e-12),
                     (bform._quadrature_pairing(curve, q), 5e-8)):
        assert rep.B[0][0] == pytest.approx(want, rel=rel)
        assert rep.H[0][0] == pytest.approx(want, rel=rel)
    assert covolume_half(t) == pytest.approx(want / 2.0, rel=1e-12)


# one line each for: an unbranched infinity, alternating exponents at real
# t, off-diagonal H (a character with two forms), half-integer
# characters, and genus 0
BRANCH_CASES = ["7 1 3 3 7", "6 1 1 5 5", "4 1 1 1 1", "5 1 1 1 2", "8 1 3 5 7",
                "1 1 1 1 1"]


@pytest.mark.parametrize("t", [0.3, 0.2 + 0.7j])
@pytest.mark.parametrize("line", BRANCH_CASES)
def test_periods_match_the_quadrature(line, t):
    N, *a = map(int, line.split())
    curve = SuperellipticCurve(N, (0.0, 1.0, t), tuple(a[:3]))
    q = pillowcase_q(t)
    assert bform._takes_period_path(curve, q)
    got = pairing_matrices(curve, q)
    ref = bform._quadrature_pairing(curve, q)
    g = curve.genus
    assert len(got.B) == len(got.H) == len(ref.B) == g
    B, H, Bq, Hq = (np.array(m, dtype=complex).reshape(g, g)
                    for m in (got.B, got.H, ref.B, ref.H))
    scale = max(np.max(np.abs(Bq), initial=0.0), np.max(np.abs(Hq), initial=0.0))
    for mine, theirs in ((B, Bq), (H, Hq)):
        assert np.array_equal(mine == 0, theirs == 0)
        assert np.max(np.abs(mine - theirs), initial=0.0) <= 1e-7 * scale
    assert np.max(np.abs(np.subtract(got.theta, ref.theta)), initial=0.0) <= 1e-7
    assert got.quad_error < 1e-10
    # f1 f2 z (z-1) (z-t) / P is 1 on every surviving entry, which is then
    # N times the Hodge norm of dz/y on the genus-1 curve
    survivors = B[B != 0]
    assert np.allclose(survivors, N * covolume_half(t), rtol=1e-11, atol=0.0)


def test_other_curves_keep_the_quadrature():
    t = 0.3
    c3 = SuperellipticCurve(2, (0.0, 1.0, t), (1, 1, 1))
    extra_pole = sample_base_differential((1,), 5, zeros=(0.6 + 0.4j,), poles=(-0.7, 1.8))
    assert bform._takes_period_path(c3, pillowcase_q(t))
    assert not bform._takes_period_path(c3, extra_pole)
    assert not bform._takes_period_path(c3, bform.CurveDifferential(wpow=1))
    pts = tuple(0.9 * np.exp(2j * np.pi * k / 8) for k in range(8))
    c8 = SuperellipticCurve(2, pts, (1,) * 8)
    assert not bform._takes_period_path(c8, bform.CurveDifferential(wpow=1))


def test_relabelled_branch_points_give_the_same_pairing():
    # the period path puts the role "t" opposite the longest side; any order
    # of the branch points, and an affine image of them, is the same curve
    t = 0.2 + 0.7j
    ref = pairing_matrices(SuperellipticCurve(2, (0.0, 1.0, t), (1, 1, 1)), pillowcase_q(t))
    for branch in [(t, 0.0, 1.0), (1.0, t, 0.0)]:
        rep = pairing_matrices(SuperellipticCurve(2, branch, (1, 1, 1)), pillowcase_q(t))
        assert rep.B[0][0] == pytest.approx(ref.B[0][0], rel=1e-12)
    # z -> 2z - 1: |dz/y|^2 scales by |2|^2 / |2|^3
    L = 2.0
    pts = tuple(L * z - 1.0 for z in (0.0, 1.0, t))
    q = bform.CurveDifferential(finite_poles=pts)
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


def test_bform_lines_never_build_the_quadrature(monkeypatch, tmp_path, capsys):
    # a silent fallback to the plane quadrature would build its region
    def forbidden(self, *args):
        raise AssertionError("quadrature region built for a bform line")

    monkeypatch.setattr(bform._Region, "__init__", forbidden)
    path = tmp_path / "in.txt"
    path.write_text("8 1 3 5 7\n6 1 1 5 5\n")
    assert cli.run(RunConfig("bform", str(path))) == cli.EXIT_OK
    records = json.loads(capsys.readouterr().out)
    assert [len(rec["reports"]) for rec in records] == [2, 2]
    for rec in records:
        for rep in rec["reports"]:
            assert max(rep["theta"]) == pytest.approx(1.0, abs=1e-9)
            assert rep["quad_error"] < 1e-10
