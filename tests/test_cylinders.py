"""Cylinder decompositions, calibration, and the exact sum rule."""

import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from pillowtiled import cli, cylinders, store
from pillowtiled.cylinders import (
    KAPPA_SV,
    ekz_for_cover,
    ekz_for_spec,
    _row_widths,
    ekz_sum,
    sv_raw,
    sv_term,
)
from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow, is_determinant_locus, iter_specs
from pillowtiled.orbit import OrbitCapExceeded, OrbitGraph, enumerate_state_orbit
from pillowtiled.permsurf import (
    Origami,
    PillowCover,
    SizeCapExceeded,
    Stratum,
    orientation_double_cover,
    pillow_stratum,
    random_origami,
)
from pillowtiled.permutations import parse_cycles
from tests.reference import corner_class, cyclic_exponents, origamis
from tests.test_permsurf import FIVE, TORUS_COVER, FOUR, cyclic_pillow
from tests.test_store import kept


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
    g = OrbitGraph(d=2, vertices=(torus,), edges=((0, "S", 0), (0, "T", 0)))
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
            assert (not any(exponents)) == is_determinant_locus(s), s
            count += 1
    assert count == 1186


def test_closed_form_exponents_equal_the_class_memo_sums():
    # the same oracle through ekz_for_spec, one build per corner class, on
    # every spec with N <= 12: a class whose members had different sums
    # would fail here
    start = time.perf_counter()
    specs = [s for N in range(1, 13) for s in iter_specs(N)]
    for s in specs:
        assert sum(cyclic_exponents(s.N, s.a)) == ekz_for_spec(s).lyap_sum, s
    assert (len(specs), len(kept("report"))) == (5542, 117)
    assert time.perf_counter() - start < 5.0


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
    rep = ekz_sum(s, Fraction(1, 10))
    assert rep.kappa_term == Fraction(21, 40)
    assert rep.pole_term == Fraction(5, 8)
    assert rep.lyap_sum == 0
    assert rep.decomposition == (2, Fraction(9, 5), Fraction(6, 5))
    assert rep.bound_chain == (2, Fraction(19, 5), 5)
    assert rep.residual_is_12x_sv


def test_ekz_p3():
    s = pillow_stratum(cyclic_pillow(3, (1, 1, 1, 3)))
    rep = ekz_sum(s, Fraction(1, 6))
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


def test_the_square_cap_is_checked_before_the_double_cover(monkeypatch):
    # four double-cover squares per sheet: degree 262144 reaches the double
    # cover, degree 262145 is refused before it
    class Reached(Exception):
        pass

    def reached(cover):
        raise Reached

    monkeypatch.setattr(cylinders, "orientation_double_cover", reached)
    with pytest.raises(Reached):
        ekz_for_cover(cyclic_pillow(262144, (1, 1, 1, 262141)))
    with pytest.raises(SizeCapExceeded, match="1048580 squares is past the sum-rule cap of 1048576"):
        ekz_for_cover(cyclic_pillow(262145, (1, 1, 1, 262142)))


def test_ekz_pure_formula_mode():
    s = pillow_stratum(FIVE)
    rep = ekz_sum(s, Fraction(0))
    assert rep.lyap_sum == rep.kappa_term - rep.pole_term
    assert rep.bound_chain is None


def test_marked_point_contributes_nothing():
    # an order-0 entry changes neither kappa_term nor the decomposition sums
    s1 = Stratum("quadratic", (1, 1, 1, -1, -1, -1), 1)
    s2 = Stratum("quadratic", (1, 1, 1, 0, -1, -1, -1), 1)
    r1 = ekz_sum(s1, Fraction(1, 6))
    r2 = ekz_sum(s2, Fraction(1, 6))
    assert r1.kappa_term == r2.kappa_term
    assert r1.lyap_sum == r2.lyap_sum
    assert r1.decomposition == r2.decomposition


def test_calibration_rejects_wrong_kappa(monkeypatch):
    monkeypatch.setattr(cylinders, "KAPPA_SV", Fraction(1, 3))
    with pytest.raises(CalibrationError):
        calibrate()


def test_the_spec_cap_is_checked_before_the_cover(monkeypatch):
    # N alone decides the cap, so a spec past it builds no pillow cover
    class Reached(Exception):
        pass

    def reached(spec):
        raise Reached

    monkeypatch.setattr(cylinders, "cyclic_to_pillow", reached)
    with pytest.raises(Reached):
        ekz_for_spec(CyclicCoverSpec(262144, (1, 1, 1, 262141)))
    with pytest.raises(SizeCapExceeded, match="1048580 squares is past the sum-rule cap of 1048576"):
        ekz_for_spec(CyclicCoverSpec(262145, (1, 1, 1, 262142)))


def test_a_huge_ekz_line_builds_no_pillow_cover(tmp_path, monkeypatch, capsys):
    built = []
    post_init = PillowCover.__post_init__

    def counted(self):
        built.append(self.d)
        post_init(self)

    monkeypatch.setattr(PillowCover, "__post_init__", counted)
    path = tmp_path / "in.txt"
    path.write_text("1000000 1 1 1 999997\n")
    assert cli.main(["ekz", str(path)]) == 3
    assert "cap of" in capsys.readouterr().err
    assert built == []


# ------------------------------------------------------------ the sum-rule memo
# Every test starts from an empty memo (tests/conftest.py).


def _class_representative(s: CyclicCoverSpec) -> CyclicCoverSpec:
    """The least of the specs (N; sorted(u.a)) over the units u mod N: the
    cover with its sheets renumbered x -> u.x and its corners permuted."""
    units = [u for u in range(1, s.N + 1) if gcd(u, s.N) == 1]
    return CyclicCoverSpec(s.N, min(tuple(sorted((u * x) % s.N or s.N for x in s.a)) for u in units))


def _ekz_record(s: CyclicCoverSpec):
    """(record, exit status) of the ekz line of s."""
    return cli._cmd_ekz(" ".join(map(str, (s.N, *s.a))), cli.RunConfig("ekz", "-"))


def _cold_ekz_record(s: CyclicCoverSpec):
    store.clear()
    return _ekz_record(s)


def _state_orbit(s: CyclicCoverSpec) -> OrbitGraph:
    return enumerate_state_orbit(*orientation_double_cover(cyclic_to_pillow(s)))


def test_a_unit_relabelling_has_the_same_record():
    specs = [s for N in range(1, 9) for s in iter_specs(N)]
    classes = set()
    for s in specs:
        least = _class_representative(s)
        assert cylinders._corner_class(s) == (least.N, least.a)
        classes.add(least)
        (record, rc), (least_record, least_rc) = _cold_ekz_record(s), _cold_ekz_record(least)
        assert rc == least_rc == 0
        assert record.pop("spec") == [s.N, *s.a]
        assert least_record.pop("spec") == [least.N, *least.a]
        assert record == least_record, s
    assert (len(specs), len(classes)) == (1186, 46)


def test_corner_class_is_the_reference_key():
    # the memo's loop keeps one list per unit and makes a tuple of the
    # least; its key is the one-expression reference's on every spec
    specs = [s for N in range(1, 13) for s in iter_specs(N)]
    assert len(specs) == 5542
    for s in specs:
        assert cylinders._corner_class(s) == corner_class(s), s


def test_a_corner_class_has_one_record_and_one_orbit():
    # every spec with N <= 10, cold: its record less its spec, and its
    # state orbit, are its class representative's
    start = time.perf_counter()
    representatives = {}
    for N in range(1, 11):
        for s in iter_specs(N):
            least = _class_representative(s)
            if least not in representatives:
                record, _ = _cold_ekz_record(least)
                record.pop("spec")
                representatives[least] = record, _state_orbit(least)
            record, rc = _cold_ekz_record(s)
            assert rc == 0
            assert record.pop("spec") == [s.N, *s.a]
            assert (record, _state_orbit(s)) == representatives[least], s
    assert len(representatives) == 75
    assert time.perf_counter() - start < 15.0


# x -> 2x takes 5 1 2 2 5 to 5 2 4 4 5, and 5 2 5 1 2 permutes its corners
RELABELLED = (CyclicCoverSpec(5, (2, 4, 4, 5)), CyclicCoverSpec(5, (2, 5, 1, 2)))


def test_a_relabelled_line_builds_no_cover(monkeypatch):
    first, _ = _ekz_record(CyclicCoverSpec(5, (1, 2, 2, 5)))
    assert first.pop("spec") == [5, 1, 2, 2, 5]

    def not_built(*args):
        raise AssertionError("a relabelled line built a cover")

    monkeypatch.setattr(cylinders, "cyclic_to_pillow", not_built)
    monkeypatch.setattr(cylinders, "orientation_double_cover", not_built)
    for relabelled in RELABELLED:
        second, rc = _ekz_record(relabelled)
        assert rc == 0
        assert second.pop("spec") == [relabelled.N, *relabelled.a]
        assert first == second


def test_a_kept_report_obeys_the_orbit_cap():
    # 5 1 2 2 5 has a state orbit of 3 vertices, and so has each line of
    # its class; a hit raises at the caps where a cold build raises
    spec = CyclicCoverSpec(5, (1, 2, 2, 5))
    for relabelled in RELABELLED:
        store.clear()
        for cap in (1, 2):
            with pytest.raises(OrbitCapExceeded):
                ekz_for_spec(relabelled, orbit_cap=cap)
        cold = ekz_for_spec(relabelled, orbit_cap=3)
        store.clear()
        ekz_for_spec(spec)
        assert len(kept("report")) == 1
        for cap in (1, 2):
            with pytest.raises(OrbitCapExceeded) as exc:
                ekz_for_spec(relabelled, orbit_cap=cap)
            assert exc.value.cap == cap
        assert ekz_for_spec(relabelled, orbit_cap=3) == cold
        assert len(kept("report")) == 1


def test_a_kept_report_obeys_the_cap_flag(tmp_path):
    # --orbit-cap below a kept class's orbit size exits 3, as it does cold
    src = tmp_path / "in.txt"
    src.write_text("5 2 4 4 5\n")
    cold = cli.run(cli.RunConfig("ekz", str(src), orbit_cap=2, out=str(tmp_path / "cold.json")))
    _ekz_record(CyclicCoverSpec(5, (1, 2, 2, 5)))
    warm = cli.run(cli.RunConfig("ekz", str(src), orbit_cap=2, out=str(tmp_path / "warm.json")))
    assert cold == warm == 3


def test_a_build_that_raises_keeps_nothing(monkeypatch):
    spec = CyclicCoverSpec(5, (1, 2, 2, 5))
    with pytest.raises(OrbitCapExceeded):
        ekz_for_spec(spec, orbit_cap=1)
    assert kept("report") == []

    def broken(stratum, sv):
        raise ArithmeticError("the bound chain is not increasing")

    monkeypatch.setattr(cylinders, "ekz_sum", broken)
    with pytest.raises(ArithmeticError):
        ekz_for_spec(spec)
    assert kept("report") == []
    monkeypatch.undo()
    assert ekz_for_spec(spec).lyap_sum == 0
    assert len(kept("report")) == 1


def test_the_memo_stays_within_the_budget(monkeypatch):
    specs = [s for N in range(1, 9) for s in iter_specs(N)]
    unbounded = [ekz_for_spec(s) for s in specs]
    budget = 10_000  # a few reports and orbits
    monkeypatch.setattr(store, "BUDGET", budget)
    for pass_ in range(2):
        store.clear()
        reports = []
        for s in specs:
            reports.append(ekz_for_spec(s))
            assert store.nbytes <= budget
        assert reports == unbounded
    # the least recently used went first: the reports kept are those of
    # the classes used last, in the order of their last use
    used = list(dict.fromkeys(reversed([cylinders._corner_class(s) for s in specs])))[::-1]
    assert 1 < len(kept("report")) < len(used)
    assert kept("report") == used[-len(kept("report")):]
