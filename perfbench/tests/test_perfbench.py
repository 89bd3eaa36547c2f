"""Tests of the benchmark itself: its oracle and its failure classifier.

    python3 -m pytest perfbench/tests
"""

from fractions import Fraction
from pathlib import Path

import pytest

import harness
import oracle
import workloads
from pillowtiled import cli
from pillowtiled.coverings import cover_report, cyclic_to_pillow, is_determinant_locus, iter_specs
from pillowtiled.cylinders import ekz_for_cover


def test_oracle_sum_is_the_sum_rule():
    for N in range(1, 7):
        for s in iter_specs(N):
            want = ekz_for_cover(cyclic_to_pillow(s)).lyap_sum
            assert sum(oracle.cyclic_exponents(N, s.a), Fraction(0)) == want, s


def test_oracle_degenerate_iff_determinant_locus():
    for N in range(1, 9):
        for s in iter_specs(N):
            assert oracle.is_degenerate(N, s.a) == bool(is_determinant_locus(s)), s


def test_spectrum_length_and_strata_genus_match_the_cover():
    for N in range(1, 7):
        for s in iter_specs(N):
            genus = cover_report(s).genus
            assert workloads.cyclic_genus(N, s.a) == genus, s
            assert len(oracle.nonnegative_spectrum(N, s.a)) == genus, s


def test_known_spectra():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert oracle.nonnegative_spectrum(8, (1, 3, 5, 7)) == [1, half, half] + [quarter] * 4
    assert oracle.nonnegative_spectrum(6, (1, 1, 5, 5)) == [1, Fraction(2, 3), Fraction(2, 3),
                                                           Fraction(1, 3), Fraction(1, 3)]
    assert not any(oracle.nonnegative_spectrum(5, (1, 2, 2, 5)))


def test_relabelling_keeps_the_spectrum():
    for u in (2, 3, 4, 5, 6):
        a = workloads.relabel(7, (1, 3, 3, 7), u)
        assert sum(a) % 7 == 0 and all(0 < x <= 7 for x in a)
        assert oracle.nonnegative_spectrum(7, a) == oracle.nonnegative_spectrum(7, (1, 3, 3, 7))


def _config(tmp_path: Path, command: str, line: str, **flags) -> cli.RunConfig:
    (tmp_path / "in.txt").write_text(line + "\n")
    return cli.RunConfig(command, str(tmp_path / "in.txt"), **flags)


def test_genus_zero_quotient_is_a_crash(tmp_path):
    res = harness.run_op(_config(tmp_path, "certify", "2 2 2 1 1", steps=40, seeds=(1, 2, 3)), 30.0)
    assert res.cause == "crash"
    assert res.detail.startswith("AssertionError")


def test_overrun_is_a_budget_failure(tmp_path):
    res = harness.run_op(_config(tmp_path, "certify", "7 1 3 3 7", steps=40, seeds=(1, 2, 3)), 0.5)
    assert res.cause == "budget"
    assert 0.5 <= res.latency < 5.0


def test_wrong_output_is_caught(tmp_path):
    config = _config(tmp_path, "ekz", "3 1 1 2 2")
    op = workloads.Op("ekz", "3 1 1 2 2")
    good = harness.run_op(config, 30.0)
    bad = harness.run_op(config, 30.0)
    bad.output = bad.output.replace('"lyap_sum": "', '"lyap_sum": "1+')
    harness.verify([op, op], [good, bad])
    assert (good.cause, bad.cause) == (None, "wrong")


def test_failed_ops_rank_last():
    results = [harness.OpResult(0.1 * i) for i in range(1, 16)]
    results[0].cause = "crash"
    stats = harness.latency_stats(results, budget_s=9.0)
    assert stats["tail_ops_beyond"] == 10
    assert stats["op_tail_s"] == pytest.approx(0.6)   # ranks 0..13 hold 0.2..1.5
    assert stats["op_p50_s"] == pytest.approx(0.9)
