"""Cyclic cover constructors, degeneracy criteria, bounds, and locus data."""

import math

import pytest

from pillowtiled.coverings import (
    CyclicCoverSpec,
    LocusSpec,
    check_bounds,
    cover_report,
    cyclic_to_pillow,
    is_determinant_locus,
    iter_specs,
    locus_metadata,
    sample_base_differential,
)
from pillowtiled.permsurf import pillow_stratum
from pillowtiled.permutations import identity
from tests.reference import cycle_type, order_at_infinity


class TestSpecValidation:
    def test_accepts_the_family_member(self):
        s = CyclicCoverSpec(5, (1, 2, 2, 5))
        assert s.N == 5

    def test_corner_range(self):
        with pytest.raises(ValueError):
            CyclicCoverSpec(4, (0, 1, 1, 2))
        with pytest.raises(ValueError):
            CyclicCoverSpec(4, (5, 1, 1, 1))

    def test_sum_divisibility(self):
        with pytest.raises(ValueError):
            CyclicCoverSpec(5, (1, 1, 1, 1))

    def test_gcd_invariant(self):
        # all corners even with even N: no primitive datum
        with pytest.raises(ValueError):
            CyclicCoverSpec(8, (2, 2, 6, 6))

    def test_double_trivial_corner_is_fine(self):
        s = CyclicCoverSpec(4, (4, 4, 1, 3))
        assert is_determinant_locus(s)


class TestCyclicToPillow:
    def test_family_member_cycle_shapes(self):
        s = CyclicCoverSpec(5, (1, 2, 2, 5))
        p = cyclic_to_pillow(s)
        assert cycle_type(p.g3) == (1, 1, 1, 1, 1)
        for g in (p.g0, p.g1, p.g2):
            assert cycle_type(g) == (5,)

    def test_degree_two_cover_shapes(self):
        p = cyclic_to_pillow(CyclicCoverSpec(2, (1, 1, 1, 1)))
        for g in p.corner_perms():
            assert cycle_type(g) == (2,)

    def test_degree_four_genus_three(self):
        r = cover_report(CyclicCoverSpec(4, (1, 1, 1, 1)))
        assert r.genus == 3

    def test_report_consistent_with_stratum(self):
        for s in iter_specs(5):
            r = cover_report(s)
            st = pillow_stratum(cyclic_to_pillow(s))
            assert r.stratum == st
            assert r.n == st.num_poles
            assert r.genus == st.genus


class TestDeterminantCriterion:
    def test_family_member_is_degenerate(self):
        assert is_determinant_locus(CyclicCoverSpec(5, (1, 2, 2, 5))) is True

    def test_control_is_not(self):
        assert not is_determinant_locus(CyclicCoverSpec(4, (1, 1, 1, 1)))

    @pytest.mark.parametrize("N", range(1, 10))
    def test_criteria_agree(self, N):
        for s in iter_specs(N):
            flag = is_determinant_locus(s)
            assert flag == (cover_report(s).branch_count <= 3)

    def test_unbranched_pole_property(self):
        # every degenerate spec has a corner with trivial monodromy
        for s in iter_specs(8):
            if is_determinant_locus(s):
                assert identity(8) in cyclic_to_pillow(s).corner_perms()


class TestBounds:
    def test_p_family_pole_bound(self):
        for p in [5, 7, 11, 13]:
            k = (p - 1) // 2
            r = cover_report(CyclicCoverSpec(p, (1, k, k, p)))
            verdicts = {v.name: v for v in check_bounds(r, True)}
            assert verdicts["pole-count"].status == "pass"
            assert verdicts["pole-count"].lhs == p
            assert verdicts["pole-count"].rhs == max(2 * r.genus - 2, 2)
            assert verdicts["unbranched-pole"].status == "pass"
            # covers branched at only three corners: degree bound not applicable
            assert verdicts["degree"].status == "skipped"

    def test_pole_gap_is_three_for_the_family(self):
        for p in [7, 11, 13]:
            r = cover_report(CyclicCoverSpec(p, (1, (p - 1) // 2, (p - 1) // 2, p)))
            assert r.n - (2 * r.genus - 2) == 3

    def test_non_degenerate_skips_everything(self):
        r = cover_report(CyclicCoverSpec(2, (1, 1, 1, 1)))
        assert all(v.status == "skipped" for v in check_bounds(r, False))

    def test_all_degenerate_specs_satisfy_bounds(self):
        for N in range(1, 9):
            for s in iter_specs(N):
                if not is_determinant_locus(s):
                    continue
                for v in check_bounds(cover_report(s), True):
                    assert v.status in ("pass", "skipped"), (s, v)


class TestLocus:
    def test_trivial_cover(self):
        md = locus_metadata(LocusSpec(m=(1,), k=5, cover=((0,), (0,), (0,))))
        assert md.n == 5
        assert md.dim == 4
        assert md.genus_y == 0
        assert sorted(md.target_stratum.orders) == sorted([1, -1, -1, -1, -1, -1])

    def test_fully_ramified_prime_cover(self):
        for p in [3, 5, 7]:
            h0 = tuple((x + 1) % p for x in range(p))
            hinf = tuple((x - 2) % p for x in range(p))
            md = locus_metadata(LocusSpec(m=(), k=4, cover=(h0, h0, hinf)))
            assert md.n == p
            assert md.dim == 2
            assert md.genus_y == (p - 1) // 2
            zeros = [o for o in md.target_stratum.orders if o > 0]
            assert zeros == [p - 2] * 3

    def test_degree_six_two_fixed_points(self):
        h0 = (2, 3, 4, 5, 1, 0)
        h1 = (4, 5, 0, 1, 3, 2)
        hinf = (0, 1, 3, 2, 5, 4)
        md = locus_metadata(LocusSpec(m=(), k=4, cover=(h0, h1, hinf)))
        assert md.n == 2 + 6
        assert md.dim == 2

    def test_dimension_and_pole_floor(self):
        cases = [
            LocusSpec(m=(1,), k=5, cover=((0,), (0,), (0,))),
            LocusSpec(m=(), k=4, cover=((0,), (0,), (0,))),
            LocusSpec(m=(2, 2), k=8, cover=((0,), (0,), (0,))),
        ]
        for L in cases:
            md = locus_metadata(L)
            assert md.dim >= 1
            assert md.n >= L.k - 3

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            LocusSpec(m=(1,), k=4, cover=((0,), (0,), (0,)))  # sum m - k != -4
        with pytest.raises(ValueError):
            LocusSpec(m=(), k=4, cover=((1, 0), (1, 0), (1, 0)))  # product not id
        with pytest.raises(ValueError):
            LocusSpec(m=(), k=4, cover=((0, 1), (0, 1), (0, 1)))  # intransitive
        with pytest.raises(ValueError):
            LocusSpec(m=(), k=4, cover=((), (), ()))  # no sheets


def degree_count(q) -> int:
    """Zeros minus poles of q dz^2 on the sphere, with the order at infinity
    read off how fast q grows: q(z) ~ z^g there, and dz^2 has order -4."""
    growth = round(math.log(abs(q(1e8)) / abs(q(1e4)), 1e4))
    return sum(m for _, m in q.zero_orders) - len(q.finite_poles) + (-growth - 4)


class TestBaseDifferential:
    def test_standard_four_pole_form(self):
        q = sample_base_differential((), 4, zeros=(), poles=(3,))
        assert q.finite_poles == (0, 1, 3)
        assert q.zero_orders == ()
        assert order_at_infinity(q) == -1

    def test_zero_order_and_infinity_bookkeeping(self):
        q = sample_base_differential((2,), 6, zeros=(2,), poles=(3, 4, 5))
        assert q.zero_orders == ((2, 2),)
        assert order_at_infinity(q) == -1
        assert degree_count(q) == -4

    def test_two_simple_zeros(self):
        q = sample_base_differential((1, 1), 6, zeros=(2, 6), poles=(3, 4, 5))
        assert degree_count(q) == -4

    def test_rejects_collisions_and_bad_counts(self):
        with pytest.raises(ValueError):
            sample_base_differential((), 4, zeros=(), poles=(1,))
        with pytest.raises(ValueError):
            sample_base_differential((), 4, zeros=(), poles=())
        with pytest.raises(ValueError):
            sample_base_differential((1,), 4, zeros=(2,), poles=(3,))

    def test_evaluates_as_a_rational_function(self):
        q = sample_base_differential((), 4, zeros=(), poles=(3,))
        z = 2.0
        assert q(z) == pytest.approx(1.0 / (z * (z - 1) * (z - 3)))
