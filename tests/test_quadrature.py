"""The blocked pairing quadrature against values recorded before it.

``bform._quadrature_pairing`` is the quadrature entry; ``pairing_matrices``
sends three-point curves to the period path instead, so these tests call
the quadrature directly.

``GOLDEN`` holds B, H, theta and quad_error as computed by earlier forms
of the quadrature: "pullback" and "wpow1" by the per-entry quadrature
that evaluated every integrand separately at every node, "characters" by
a blocked panel pass with per-entry disk sums.  The one blocked evaluator
over panel and shared disk node sets sums the same terms in another
order, so the entries agree to round-off, and every entry the deck
character kills stays an exact zero.

The Gauss-Jacobi rule is checked against the exact Beta moments of its
weight, an oracle that shares nothing with the rule's construction.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pillowtiled import bform, cli
from pillowtiled.bform import CurveDifferential, SuperellipticCurve
from pillowtiled.cli import RunConfig
from pillowtiled.coverings import sample_base_differential

T = 0.2 + 0.7j


def golden_cases():
    return {
        # the bform line "8 1 3 5 7" at the second disc point
        "pullback": (
            SuperellipticCurve(8, (0.0, 1.0, T), (1, 3, 5)),
            sample_base_differential((), 4, zeros=(), poles=(T,)),
        ),
        # a w-power with an extra zero: phase and non-branch centers
        "wpow1": (
            SuperellipticCurve(4, (0.0, 1.0, 0.3 + 0.4j, -0.5 + 0.2j), (1, 1, 1, 1)),
            CurveDifferential(
                wpow=1, zero_orders=((0.4 - 0.6j, 1),), finite_poles=(0.0, 1.0)
            ),
        ),
        # the bform line "6 1 1 5 5" at the first disc point: five H
        # characters and disks at three branch centers
        "characters": (
            SuperellipticCurve(6, (0.0, 1.0, 0.3), (1, 1, 5)),
            sample_base_differential((), 4, zeros=(), poles=(0.3,)),
        ),
    }


GOLDEN = {
    "pullback": {
        "B": [
            [0j, 0j, 0j, 0j, 0j, 0j, (153.4075902339569-4.3712250769352586e-17j)],
            [0j, 0j, 0j, 0j, 0j, (153.4075902339569-9.074062321200203e-17j), 0j],
            [0j, 0j, 0j, 0j, (153.4075902339569-1.759113624853355e-16j), 0j, 0j],
            [0j, 0j, 0j, (153.4075902339569-1.0371300118825256e-16j), 0j, 0j, 0j],
            [0j, 0j, (153.4075902339569-1.759113624853355e-16j), 0j, 0j, 0j, 0j],
            [0j, (153.4075902339569-9.074062321200203e-17j), 0j, 0j, 0j, 0j, 0j],
            [(153.4075902339569-4.3712250769352586e-17j), 0j, 0j, 0j, 0j, 0j, 0j],
        ],
        "H": [
            [(280.9083966337289+0j), 0j, 0j, 0j, 0j, 0j, 0j],
            [0j, (209.61302284348943+2.036648208393098e-17j), 0j, 0j, 0j, 0j, 0j],
            [0j, 0j, (329.2272340285993+1.0697875269412562e-16j), 0j, 0j, 0j, 0j],
            [0j, 0j, 0j, (153.4075902339569-4.473246549287605e-18j), 0j, 0j, 0j],
            [0j, 0j, 0j, 0j, (280.90839652772297-4.873530696637352e-17j), 0j, 0j],
            [0j, 0j, 0j, 0j, 0j, (287.92563025651737-8.204518386990536e-18j), 0j],
            [0j, 0j, 0j, 0j, 0j, 0j, (329.22723408772765-1.6429783893865517e-16j)],
        ],
        "theta": (0.9999999999999999, 0.6244498338565944, 0.6244498338565944, 0.5044482397811666, 0.5044482397811666, 0.5044482396406865, 0.5044482396406865),
        "quad_error": 0.0007136261522759924,
    },
    "wpow1": {
        "B": [
            [0j, (121.42129592279733+42.323922878413626j), (14.919167775828512-4.22618309033093j)],
            [(121.42129592279733+42.323922878413626j), 0j, 0j],
            [(14.919167775828512-4.22618309033093j), 0j, 0j],
        ],
        "H": [
            [(107.80929758063873+0j), 0j, 0j],
            [0j, (494.75510415281593+0j), (53.58990812776476-82.2369553903033j)],
            [0j, (53.58990812776476+82.2369553903033j), (109.75992241760352-3.199654484177077e-17j)],
        ],
        "theta": (0.6358501625230324, 0.6358501625230324, 1.8155253405433692e-17),
        "quad_error": 0.0013730023485436504,
    },    "characters": {
        "B": [
            [0j, 0j, 0j, 0j, (170.73326075183445+8.391350564859404e-17j)],
            [0j, 0j, 0j, (170.73326075183445+9.441000381545762e-17j), 0j],
            [0j, 0j, (170.73326075183445+6.575857013678409e-17j), 0j, 0j],
            [0j, (170.73326075183445+9.441000381545762e-17j), 0j, 0j, 0j],
            [(170.73326075183445+8.391350564859404e-17j), 0j, 0j, 0j, 0j],
        ],
        "H": [
            [(291.87301025935557+0j), 0j, 0j, 0j, 0j],
            [0j, (189.70435357109636-9.189559708432402e-17j), 0j, 0j, 0j],
            [0j, 0j, (170.73326075183442+1.9134809983589543e-16j), 0j, 0j],
            [0j, 0j, 0j, (189.70435349075942+2.163139963453439e-16j), 0j],
            [0j, 0j, 0j, 0j, (291.87301009038026+4.208578593522095e-16j)],
        ],
        "theta": (1.0, 0.8999965344706728, 0.8999965344706728, 0.5849573437761312, 0.5849573437761312),
        "quad_error": 0.0005138980203014398,
    },
}


def assert_matches(rep, want):
    for key in ("B", "H"):
        got = np.array(getattr(rep, key))
        ref = np.array(want[key])
        assert got.shape == ref.shape
        # character-killed entries are never integrated
        assert np.array_equal(got == 0, ref == 0), key
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, key
    assert len(rep.theta) == len(want["theta"])
    assert np.max(np.abs(np.array(rep.theta) - np.array(want["theta"]))) <= 1e-12
    assert rep.quad_error == pytest.approx(want["quad_error"], rel=1e-6)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_the_recorded_values(name):
    curve, q = golden_cases()[name]
    assert_matches(bform._quadrature_pairing(curve, q), GOLDEN[name])


@pytest.mark.parametrize("block", [997, 1 << 40], ids=["997", "one-block"])
def test_block_size_changes_only_round_off(monkeypatch, block):
    # 997 splits every level into many ragged blocks; 1 << 40 is one block
    curve, q = golden_cases()["pullback"]
    ref = bform._quadrature_pairing(curve, q)
    monkeypatch.setattr(bform, "_BLOCK_NODES", block)
    want = {"B": ref.B, "H": ref.H, "theta": ref.theta, "quad_error": ref.quad_error}
    assert_matches(bform._quadrature_pairing(curve, q), want)


def test_peak_memory_stays_bounded():
    curve, q = golden_cases()["pullback"]
    tracemalloc.start()
    try:
        bform._quadrature_pairing(curve, q, levels=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"


def test_empty_basis_builds_no_panel_nodes(monkeypatch, tmp_path, capsys):
    def forbidden(self, *args):
        raise AssertionError("panel nodes built for an empty basis")

    monkeypatch.setattr(bform._Region, "_panel_nodes", forbidden)
    path = tmp_path / "in.txt"
    path.write_text("1 1 1 1 1\n")
    assert cli.run(RunConfig("bform", str(path))) == cli.EXIT_OK
    reports = json.loads(capsys.readouterr().out)[0]["reports"]
    assert len(reports) == 2
    for rep in reports:
        assert rep["B"] == [] and rep["H"] == [] and rep["theta"] == []
        assert rep["quad_error"] == 0.0 and rep["gap"] is None


def test_each_disk_node_set_is_built_once_per_level(monkeypatch):
    # an entry's radial exponent at a branch point s is the order of f1 f2
    # there minus e a_s, and at infinity e A - deg f1 - deg f2 - 4, where
    # the weight has modulus |P|^-e: e = m for B, e = 2b/N for H
    curve, q = golden_cases()["pullback"]
    N, A = curve.N, curve.total_exponent

    def order(f, s):
        shifts = sum(t for zi, t in zip(curve.branch, f.shifts) if zi == s)
        return shifts + (f.power if s == 0 else 0)

    want = set()
    basis = bform.holomorphic_basis(curve)
    for f1 in basis:
        for f2 in basis:
            weights = []
            if (f1.b + f2.b) % N == 0:
                weights.append(Fraction(f1.b + f2.b, N))
            if f1.b == f2.b:
                weights.append(Fraction(2 * f1.b, N))
            for e in weights:
                for s, a in zip(curve.branch, curve.a):
                    want.add((s, float(order(f1, s) + order(f2, s) - e * a)))
                want.add((None, float(e * A - f1.degree - f2.degree - 4)))
    # one disk per entry and center would be 44 per level on this curve
    assert len(want) == 28

    built = []
    real = bform._Region._disk_nodes

    def spy(self, center, gamma, level):
        built.append((center, gamma, level))
        return real(self, center, gamma, level)

    monkeypatch.setattr(bform._Region, "_disk_nodes", spy)
    bform._quadrature_pairing(curve, q)
    assert sorted({level for *_, level in built}) == [1, 2]
    for level in (1, 2):
        sets = [(c, g) for c, g, lv in built if lv == level]
        assert len(sets) == len(set(sets)) and set(sets) == want


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
