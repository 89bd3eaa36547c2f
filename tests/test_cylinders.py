"""Cylinder decompositions, calibration, and the exact sum rule."""

from fractions import Fraction

import numpy as np
import pytest

from pillowtiled import cylinders
from pillowtiled.cylinders import (
    KAPPA_SV,
    ekz_for_cover,
    _row_widths,
    ekz_sum,
    sv_raw,
    sv_term,
)
from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow, is_determinant_locus, iter_specs
from pillowtiled.orbit import OrbitGraph, enumerate_state_orbit
from pillowtiled.permsurf import (
    Origami,
    Stratum,
    orientation_double_cover,
    pillow_stratum,
    random_origami,
)
from pillowtiled.permutations import parse_cycles
from tests.reference import cyclic_exponents, origamis
from tests.test_permsurf import FIVE, TORUS_COVER, FOUR, cyclic_pillow


def test_torus_single_cylinder():
    assert _row_widths((0,), 1) == [1]


def test_l_origami_cylinders():
    o = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))
    assert _row_widths(o.h, o.d) == [3]
    o2 = Origami(3, parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3))
    assert sorted(_row_widths(o2.h, o2.d), reverse=True) == [2, 1]


def test_area_invariant_random():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        o = random_origami(int(rng.integers(1, 10)), rng)
        assert sum(_row_widths(o.h, o.d)) == o.d


def test_sv_raw_is_the_orbit_average_of_the_row_moduli():
    for N in range(1, 7):
        for s in iter_specs(N):
            g = enumerate_state_orbit(*orientation_double_cover(cyclic_to_pillow(s)))
            widths = [w for o in origamis(g) for w in _row_widths(o.h, o.d)]
            assert sv_raw(g) == sum(Fraction(1, w) for w in widths) / g.size


def test_sv_raw_checks_that_each_vertex_fills_the_surface():
    torus = ((0,), (0,), (0,))
    g = OrbitGraph(d=2, base=torus, vertices=(torus,), edges=((0, "S", 0), (0, "T", 0)))
    with pytest.raises(ArithmeticError, match="do not fill"):
        sv_raw(g)


class CalibrationError(AssertionError):
    """The hardcoded Siegel-Veech normalization failed a calibration case."""


def calibrate() -> Fraction:
    """Re-derive KAPPA_SV from scratch and cross-validate it.

    The p=3 member fixes the constant; p=5, p=7 and the orientable degree-2
    control must then come out right with the *same* constant, and it must
    be the one ``cylinders.KAPPA_SV`` holds, otherwise no single
    normalization exists and the calibration fails.
    """

    def raw(s: CyclicCoverSpec) -> Fraction:
        return sv_raw(enumerate_state_orbit(*orientation_double_cover(cyclic_to_pillow(s))))

    # the family member at p is (p; 1, k, k, p) with k = (p - 1) / 2
    kappa = Fraction(1, 6) / raw(CyclicCoverSpec(3, (1, 1, 1, 3)))
    checks = [
        (CyclicCoverSpec(5, (1, 2, 2, 5)), Fraction(1, 10)),
        (CyclicCoverSpec(7, (1, 3, 3, 7)), Fraction(1, 14)),
        # orientable control: Lyapunov sum is exactly 1 and the formula
        # gives sv_term = 1 - kappa_term + pole_term = 1
        (CyclicCoverSpec(2, (1, 1, 1, 1)), Fraction(1)),
    ]
    for spec, want in checks:
        got = kappa * raw(spec)
        if got != want:
            raise CalibrationError(f"{spec}: kappa={kappa} gives sv_term={got}, expected {want}")
    if kappa != cylinders.KAPPA_SV:
        raise CalibrationError(f"re-derived kappa={kappa} disagrees with hardcoded {cylinders.KAPPA_SV}")
    return kappa


def test_calibration():
    assert calibrate() == KAPPA_SV == Fraction(1, 2)


def test_closed_form_exponents_pin_kappa_sv():
    # an oracle that does not lean on the calibration: the closed-form
    # exponents of every cyclic spec with N <= 8, the non-degenerate ones
    # included, sum to the sum rule's lyap_sum, and vanish exactly on the
    # determinant locus
    count = 0
    for N in range(1, 9):
        for s in iter_specs(N):
            exponents = cyclic_exponents(s.N, s.a)
            assert sum(exponents) == ekz_for_cover(cyclic_to_pillow(s)).lyap_sum, s
            assert (not any(exponents)) == is_determinant_locus(s).flag, s
            count += 1
    assert count == 1186


def test_patched_kappa_sv_reaches_the_sum_rule(monkeypatch):
    # sv_term reads the module constant when called, so a patched constant
    # moves lyap_sum: 5 1 2 2 5 has sv_raw 1/5 and lyap_sum 0 at 1/2, so
    # (1/3 - 1/2) / 5 at 1/3
    spec = CyclicCoverSpec(5, (1, 2, 2, 5))
    assert ekz_for_cover(cyclic_to_pillow(spec)).lyap_sum == 0
    monkeypatch.setattr(cylinders, "KAPPA_SV", Fraction(1, 3))
    assert ekz_for_cover(cyclic_to_pillow(spec)).lyap_sum == Fraction(-1, 30)


@pytest.mark.parametrize("p,want", [
    (cyclic_pillow(3, (1, 1, 1, 3)), Fraction(1, 6)),
    (FIVE, Fraction(1, 10)),
    (cyclic_pillow(7, (1, 3, 3, 7)), Fraction(1, 14)),
    (TORUS_COVER, Fraction(1)),
])
def test_sv_term_family(p, want):
    o, iota = orientation_double_cover(p)
    G = enumerate_state_orbit(o, iota)
    assert sv_term(G) == want


def test_ekz_p5():
    s = pillow_stratum(FIVE)
    rep = ekz_sum(s, 5, Fraction(1, 10))
    assert rep.kappa_term == Fraction(21, 40)
    assert rep.pole_term == Fraction(5, 8)
    assert rep.lyap_sum == 0
    assert rep.decomposition == (2, Fraction(9, 5), Fraction(6, 5))
    assert rep.bound_chain == (2, Fraction(19, 5), 5)
    assert rep.residual_is_12x_sv


def test_ekz_p3():
    s = pillow_stratum(cyclic_pillow(3, (1, 1, 1, 3)))
    rep = ekz_sum(s, 3, Fraction(1, 6))
    assert rep.kappa_term == Fraction(5, 24)
    assert rep.pole_term == Fraction(3, 8)
    assert rep.lyap_sum == 0
    assert rep.decomposition == (0, 1, 2)
    assert rep.residual_is_12x_sv


def test_ekz_p7():
    rep = ekz_for_cover(cyclic_pillow(7, (1, 3, 3, 7)))
    assert rep.kappa_term == Fraction(45, 56)
    assert rep.pole_term == Fraction(49, 56)
    assert rep.sv_term == Fraction(1, 14)
    assert rep.lyap_sum == 0
    # decomposition = (p-3, 3-6/p, 6/p)
    assert rep.decomposition == (4, Fraction(15, 7), Fraction(6, 7))


def test_ekz_controls():
    rep2 = ekz_for_cover(TORUS_COVER)
    assert rep2.lyap_sum == 1
    assert rep2.kappa_term == 0 and rep2.pole_term == 0
    rep4 = ekz_for_cover(FOUR)
    assert rep4.kappa_term == Fraction(1, 2)
    assert rep4.sv_term == Fraction(1, 2)
    assert rep4.lyap_sum == 1


def test_ekz_pure_formula_mode():
    s = pillow_stratum(FIVE)
    rep = ekz_sum(s, 5, Fraction(0))
    assert rep.lyap_sum == rep.kappa_term - rep.pole_term
    assert rep.bound_chain is None


def test_ekz_rejects_wrong_pole_count():
    s = pillow_stratum(FIVE)
    with pytest.raises(ValueError):
        ekz_sum(s, 4, Fraction(1, 10))


def test_marked_point_contributes_nothing():
    # an order-0 entry changes neither kappa_term nor the decomposition sums
    s1 = Stratum("quadratic", (1, 1, 1, -1, -1, -1), 1)
    s2 = Stratum("quadratic", (1, 1, 1, 0, -1, -1, -1), 1)
    r1 = ekz_sum(s1, 3, Fraction(1, 6))
    r2 = ekz_sum(s2, 3, Fraction(1, 6))
    assert r1.kappa_term == r2.kappa_term
    assert r1.lyap_sum == r2.lyap_sum
    assert r1.decomposition == r2.decomposition


def test_calibration_rejects_wrong_kappa(monkeypatch):
    monkeypatch.setattr(cylinders, "KAPPA_SV", Fraction(1, 3))
    with pytest.raises(CalibrationError):
        calibrate()
