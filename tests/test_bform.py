"""Eigenform bases and the numerically contracted pairing."""

import numpy as np
import pytest

from pillowtiled import bform
from pillowtiled.bform import (
    CurveDifferential,
    SuperellipticCurve,
    holomorphic_basis,
    pairing_matrices,
)
from pillowtiled.coverings import sample_base_differential


def pillowcase_q(t):
    """dz^2 / (z (z-1) (z-t)): four simple poles at 0, 1, t, infinity."""
    return sample_base_differential((), 4, zeros=(), poles=(t,))


def family_curve(t):
    return SuperellipticCurve(5, (0.0, 1.0, t), (1, 2, 2))


class TestCurveValidation:
    def test_genus_examples(self):
        assert family_curve(0.3).genus == 2
        assert SuperellipticCurve(2, (0.0, 1.0), (1, 1)).genus == 0
        assert SuperellipticCurve(4, (0.0, 1.0, 0.3), (1, 1, 1)).genus == 3
        pts = tuple(np.exp(2j * np.pi * k / 8) for k in range(8))
        assert SuperellipticCurve(2, pts, (1,) * 8).genus == 3

    def test_rejects_duplicate_branch_points(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(3, (0.0, 0.0, 1.0), (1, 1, 1))

    def test_rejects_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(3, (0.0, 1.0), (1, 4))
        with pytest.raises(ValueError):
            SuperellipticCurve(3, (0.0, 1.0), (0, 1))

    def test_rejects_common_divisor(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(4, (0.0, 1.0, 2.0), (2, 2, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SuperellipticCurve(3, (0.0, 1.0), (1, 1, 1))

    def test_trivial_exponent_is_allowed(self):
        c = SuperellipticCurve(3, (0.0, 1.0, 2.0), (3, 1, 2))
        assert c.genus == 0
        assert holomorphic_basis(c) == []


class TestDifferentialValidation:
    def test_rejects_a_repeated_pole(self):
        # read as simple, a double pole would hide the pullback's simple pole
        with pytest.raises(ValueError, match="repeated pole"):
            CurveDifferential(finite_poles=(0, 1, 0.3, 0.3))

    def test_rejects_a_zero_of_order_below_one(self):
        with pytest.raises(ValueError, match="order at least 1"):
            CurveDifferential(zero_orders=((0.5j, 0),), finite_poles=(0, 1, 0.3))

    def test_rejects_a_zero_on_a_pole(self):
        with pytest.raises(ValueError, match="on a pole or on another zero"):
            CurveDifferential(zero_orders=((0.3, 1),), finite_poles=(0, 1, 0.3))

    def test_rejects_a_zero_on_another_zero(self):
        with pytest.raises(ValueError, match="on a pole or on another zero"):
            CurveDifferential(zero_orders=((0.5j, 1), (0.5j, 2)), finite_poles=(0, 1))


class TestBasis:
    def test_family_basis_is_the_known_pair(self):
        forms = holomorphic_basis(family_curve(0.3))
        assert len(forms) == 2
        first, second = forms
        assert (first.b, first.power, first.shifts) == (2, 0, (0, 0, 0))
        assert (second.b, second.power, second.shifts) == (4, 0, (0, 1, 1))
        # orders over z1..z3 and infinity
        assert first.valuations == (2, 0, 0, 0)
        assert second.valuations == (0, 1, 1, 0)

    def test_hyperelliptic_bases(self):
        pts6 = tuple(np.exp(2j * np.pi * k / 6) for k in range(6))
        forms = holomorphic_basis(SuperellipticCurve(2, pts6, (1,) * 6))
        assert [(f.b, f.power) for f in forms] == [(1, 0), (1, 1)]

        assert holomorphic_basis(SuperellipticCurve(2, (0.0, 1.0), (1, 1))) == []

        pts8 = tuple(0.5 * np.exp(2j * np.pi * k / 8) for k in range(8))
        forms = holomorphic_basis(SuperellipticCurve(2, pts8, (1,) * 8))
        assert [(f.b, f.power) for f in forms] == [(1, 0), (1, 1), (1, 2)]

    def test_degree_four_control_basis(self):
        forms = holomorphic_basis(SuperellipticCurve(4, (0.0, 1.0, 0.3), (1, 1, 1)))
        assert [f.b for f in forms] == [2, 3, 3]

    def test_count_always_matches_genus(self):
        # the constructor of the basis hard-fails on a mismatch, so a clean
        # pass over assorted curves is the check
        pts = (0.0, 1.0, -0.5 + 0.8j, 2.0)
        for N in range(2, 8):
            for a in [(1,) * 3, (1, 2, 1), (1, 1, 2, 1)]:
                if any(x >= N for x in a):
                    continue
                cur = SuperellipticCurve(N, pts[: len(a)], a)
                forms = holomorphic_basis(cur)
                assert len(forms) == cur.genus
                for f in forms:
                    assert all(v >= 0 for v in f.valuations)


class TestPairing:
    def test_square_differential_saturates_the_bound(self):
        # on w^2 = z(z-1)(z-t) the pulled-back differential is the square
        # of dz/w, so the normalized pairing has a unit singular value
        c = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        rep = pairing_matrices(c, pillowcase_q(0.3))
        assert rep.theta == pytest.approx((1.0,), abs=1e-6)
        assert rep.B[0][0] == pytest.approx(rep.H[0][0], rel=1e-9)
        assert not rep.q_has_simple_pole

    @pytest.mark.parametrize("t", [0.3, 0.2 + 0.7j])
    def test_family_pairing_vanishes(self, t):
        rep = pairing_matrices(family_curve(t), pillowcase_q(t))
        B = np.array(rep.B)
        assert np.max(np.abs(B)) == 0.0  # killed by the deck character
        assert max(rep.theta) < 0.02
        H = np.array(rep.H)
        assert H[0, 1] == 0 and H[1, 0] == 0
        assert H[0, 0].real > 0 and H[1, 1].real > 0
        assert rep.q_has_simple_pole

    def test_hyperelliptic_anti_invariant_differential(self):
        pts = tuple(0.9 * np.exp(2j * np.pi * k / 8) for k in range(8))
        c = SuperellipticCurve(2, pts, (1,) * 8)
        rep = pairing_matrices(c, CurveDifferential(wpow=1))
        assert np.max(np.abs(np.array(rep.B))) < 1e-6
        assert max(rep.theta) < 1e-9
        np.linalg.cholesky(np.array(rep.H))

    def test_degree_four_control_peaks_at_one(self):
        c = SuperellipticCurve(4, (0.0, 1.0, 0.3), (1, 1, 1))
        rep = pairing_matrices(c, pillowcase_q(0.3))
        assert rep.theta[0] == pytest.approx(1.0, abs=0.02)
        assert rep.theta[1] < 0.02 and rep.theta[2] < 0.02
        # only the b=2 x b=2 entry survives the character sum
        B = np.array(rep.B)
        assert abs(B[0, 0]) > 0
        mask = np.abs(B) > 0
        assert mask.sum() == 1

    def test_extra_poles_give_a_strict_gap(self):
        c = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        q = sample_base_differential((1,), 5, zeros=(0.6 + 0.4j,), poles=(-0.7, 1.8))
        rep = pairing_matrices(c, q)
        assert rep.q_has_simple_pole
        assert rep.gap is not None and rep.gap > 0.05
        assert rep.theta[0] < 1.0 - rep.gap + 1e-12

    def test_genus_zero_report_is_empty(self):
        c = SuperellipticCurve(2, (0.0, 1.0), (1, 1))
        rep = pairing_matrices(c, pillowcase_q(0.5))
        assert rep.B == () and rep.H == () and rep.theta == ()
        assert rep.gap is None
        assert rep.theta == ()


class TestInvariants:
    def test_symmetry_and_hermiticity(self):
        # the bform line "7 1 3 3 7" at t = 0.2+0.7j once left H's diagonal
        # with imaginary parts of about 1e-14
        t = 0.2 + 0.7j
        for c, q in [
            (SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1)),
             sample_base_differential((1,), 5, zeros=(0.6 + 0.4j,), poles=(-0.7, 1.8))),
            (SuperellipticCurve(7, (0.0, 1.0, t), (1, 3, 3)), pillowcase_q(t)),
        ]:
            rep = pairing_matrices(c, q)
            B = np.array(rep.B)
            H = np.array(rep.H)
            assert np.array_equal(B, B.T)
            assert np.array_equal(H, H.conj().T)

    def test_theta_within_contraction_bound(self):
        for rep in [
            pairing_matrices(family_curve(0.3), pillowcase_q(0.3)),
            pairing_matrices(
                SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1)), pillowcase_q(0.3)
            ),
        ]:
            assert all(0.0 <= x <= 1.0 + 1e-3 for x in rep.theta)
            assert list(rep.theta) == sorted(rep.theta, reverse=True)

    def test_scaling_invariance(self):
        c = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        base = CurveDifferential(
            wpow=0,
            zero_orders=((0.6 + 0.4j, 1),),
            finite_poles=(0.0, 1.0, -0.7, 1.8),
        )

        class Scaled:
            wpow = 0
            zero_orders = base.zero_orders
            finite_poles = base.finite_poles

            def __call__(self, z):
                return (2.0 - 1.5j) * base(z)

        rep_a = pairing_matrices(c, base)
        rep_b = pairing_matrices(c, Scaled())
        assert rep_a.theta == pytest.approx(rep_b.theta, abs=1e-10)

    def test_halving_stays_within_the_error_estimate(self, monkeypatch):
        # halving the node spacing on every segment moves no entry by more
        # than the reported error estimate, nor raises the estimate
        c = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        q = pillowcase_q(0.3)
        rep = pairing_matrices(c, q)
        monkeypatch.setattr(bform, "_PERIOD_NODES", 2 * bform._PERIOD_NODES)
        finer = pairing_matrices(c, q)
        delta = max(
            np.max(np.abs(np.array(finer.B) - np.array(rep.B))),
            np.max(np.abs(np.array(finer.H) - np.array(rep.H))),
        )
        assert delta <= rep.quad_error
        assert finer.quad_error <= rep.quad_error

    def test_base_differential_duck_types(self):
        c = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        q_sampled = sample_base_differential(
            (1,), 5, zeros=(0.6 + 0.4j,), poles=(-0.7, 1.8)
        )
        q_direct = CurveDifferential(
            wpow=0,
            zero_orders=((0.6 + 0.4j, 1),),
            finite_poles=(0.0, 1.0, -0.7, 1.8),
        )
        # one type: the sampler's q is the directly built one
        assert q_sampled == q_direct
        rep_a = pairing_matrices(c, q_sampled)
        rep_b = pairing_matrices(c, q_direct)
        assert (rep_a.B, rep_a.H, rep_a.theta) == (rep_b.B, rep_b.H, rep_b.theta)
