"""The twisted-period pairing against the plane quadrature it replaced.

``tests/recorded.py`` holds B, H, theta and quad_error of the plane
quadrature for one named curve per class the pairing meets: three-point
pullbacks, w-powers, extra zeros and poles of q, eight branch points,
exponents below -1 at a segment end or at infinity, and integer poles of
u.  The quadrature's own error is about 1e-8 relative, so the period rule
must agree within 1e-7 of the largest entry, with every entry the deck
character kills an exact zero, and report a quad_error far below that.

The Gauss-Jacobi rule is checked against the exact Beta moments of its
weight, an oracle that shares nothing with the rule's construction.
"""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from pillowtiled import bform, cli
from pillowtiled.bform import CurveDifferential, SuperellipticCurve
from pillowtiled.cli import RunConfig
from tests.recorded import QUADRATURE, reference_curves


def assert_matches(rep, want):
    scale = max(np.max(np.abs(np.array(want[key]))) for key in ("B", "H"))
    for key in ("B", "H"):
        got = np.array(getattr(rep, key))
        ref = np.array(want[key])
        assert got.shape == ref.shape
        # character-killed entries are never integrated
        assert np.array_equal(got == 0, ref == 0), key
        assert np.max(np.abs(got - ref)) <= 1e-7 * scale, key
    assert len(rep.theta) == len(want["theta"])
    assert np.max(np.abs(np.array(rep.theta) - np.array(want["theta"]))) <= 1e-7
    assert rep.quad_error <= 1e-9 * scale


@pytest.mark.parametrize("name", sorted(QUADRATURE))
def test_matches_the_recorded_values(name):
    curve, q = reference_curves()[name]
    assert_matches(bform.pairing_matrices(curve, q), QUADRATURE[name])


@pytest.mark.parametrize("name", sorted(QUADRATURE))
def test_doubled_nodes_stay_within_the_error_estimate(monkeypatch, name):
    # quad_error is the change of an entry under the rule's own refinement;
    # refining once more moves no entry by more than that.  "extra_pole",
    # "double_zero", "many_poles" and "wpow1" take the integer-pole limit
    curve, q = reference_curves()[name]
    rep = bform.pairing_matrices(curve, q)
    monkeypatch.setattr(bform, "_PERIOD_NODES", 2 * bform._PERIOD_NODES)
    finer = bform.pairing_matrices(curve, q)
    for key in ("B", "H"):
        delta = np.abs(np.array(getattr(finer, key)) - np.array(getattr(rep, key)))
        assert np.max(delta) <= rep.quad_error, key


def test_recorded_curves_pair_in_bounded_time():
    # on 2 vCPUs a plane quadrature took 0.2-1.2 s per curve, about 5 s for
    # all of them; the period rule takes 2-25 ms per curve once its
    # Gauss-Jacobi rules are cached (under 0.1 s in all)
    curves = reference_curves()
    for curve, q in curves.values():
        bform.pairing_matrices(curve, q)
    start = time.perf_counter()
    for curve, q in curves.values():
        bform.pairing_matrices(curve, q)
    assert time.perf_counter() - start < 1.0


def test_exponent_below_minus_two_is_rejected():
    # a zero of order 4 off the branch points gives the surviving B entry of
    # w^4 = z (z-1) (z-t) the exponent -2 there, integrable against the
    # other side's +2 but beyond the finite-part periods
    curve = SuperellipticCurve(4, (0.0, 1.0, 0.3), (1, 1, 1))
    q = CurveDifferential(zero_orders=((0.5 - 0.5j, 4),),
                          finite_poles=(0.0, 1.0, 0.3, -0.5 + 0.4j, -0.5 + 0.8j,
                                        0.8 + 0.6j, 0.8 - 0.6j))
    with pytest.raises(ValueError, match=r"exponent -2 of u at \(0\.5-0\.5j\)"):
        bform.pairing_matrices(curve, q)


def test_peak_memory_stays_bounded():
    curve, q = reference_curves()["pullback"]
    tracemalloc.start()
    try:
        bform.pairing_matrices(curve, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 0.15 MB with the Gauss-Jacobi rules built cold
    assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"


def test_empty_basis_builds_no_period_nodes(monkeypatch, tmp_path, capsys):
    def forbidden(*args):
        raise AssertionError("period nodes built for an empty basis")

    monkeypatch.setattr(bform, "_jacobi_rule", forbidden)
    path = tmp_path / "in.txt"
    path.write_text("1 1 1 1 1\n")
    assert cli.run(RunConfig("bform", str(path))) == cli.EXIT_OK
    reports = json.loads(capsys.readouterr().out)[0]["reports"]
    assert len(reports) == 2
    for rep in reports:
        assert rep["B"] == [] and rep["H"] == [] and rep["theta"] == []
        assert rep["quad_error"] == 0.0 and rep["gap"] is None


def check_jacobi_rule(n, alpha, beta):
    # an n-point Gauss rule is exact on polynomials of degree < 2n; against
    # the weight (1 - x)^alpha (1 + x)^beta the monomials (1 + x)^j
    # integrate to 2^(alpha + beta + j + 1) B(alpha + 1, beta + j + 1)
    x, w = bform._jacobi_rule(n, alpha, beta)
    assert x.shape == w.shape == (n,)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0)
    j = np.arange(2 * n)
    moments = (1.0 + x)[None, :] ** j[:, None] @ w
    exact = np.array([
        math.exp((alpha + beta + k + 1) * math.log(2.0) + math.lgamma(alpha + 1)
                 + math.lgamma(beta + k + 1) - math.lgamma(alpha + beta + k + 2))
        for k in j
    ])
    assert np.max(np.abs(moments / exact - 1.0)) <= 1e-12


@pytest.mark.parametrize("gamma", [-1.875, -1.0, -0.5, 0.0, 2.5])
@pytest.mark.parametrize("n", [14, 28, 56])
def test_jacobi_rule_integrates_its_moments(n, gamma):
    # the radial rule of a disk: (alpha, beta) = (0, gamma + 1)
    check_jacobi_rule(n, 0.0, gamma + 1.0)


# alpha + beta = -1 (the general k = 1 off-diagonal is 0/0 there) and
# alpha + beta = 0 (the general k = 0 diagonal is), besides generic
# pairs; exponents on the period segments are multiples of 1/(2N)
TWO_SIDED = [(-0.5, -0.5), (-0.25, -0.75), (-2 / 3, -1 / 3), (-0.9375, -0.0625),
             (0.5, -0.5), (-0.9375, 0.9375), (0.25, -0.25), (1 / 3, -1 / 3),
             (-0.875, -0.9375), (2.5, -0.875), (0.5, 1.5)]


@pytest.mark.parametrize("alpha, beta", TWO_SIDED)
@pytest.mark.parametrize("n", [14, 32, 64])
def test_jacobi_rule_integrates_two_sided_moments(n, alpha, beta):
    check_jacobi_rule(n, alpha, beta)
