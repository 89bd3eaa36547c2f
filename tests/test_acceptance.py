"""End-to-end acceptance checks for the whole pipeline.

Each test pins one headline guarantee: exact structure of the prime
family, agreement of the two degeneracy criteria, the exact sum rule,
Monte-Carlo degeneracy with its control, cross-channel consistency,
the pole-count bound suite, the pairing numerics, and the structural
invariants on random surfaces.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from pillowtiled import bform
from pillowtiled.bform import (
    CurveDifferential,
    SuperellipticCurve,
    holomorphic_basis,
    pairing_matrices,
)
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
from pillowtiled.cylinders import _row_widths, ekz_for_cover
from pillowtiled.homology import homology_basis
from pillowtiled.lyapunov import run_monte_carlo
from pillowtiled.orbit import canonical_perms
from pillowtiled.permsurf import (
    orientation_double_cover,
    origami_stratum,
    pillow_stratum,
    random_origami,
    random_pillow_cover,
)
from tests.reference import apply_generator, induced_cocycle, reconstruct_pillow_cover


def prime_family(p):
    return CyclicCoverSpec(p, (1, (p - 1) // 2, (p - 1) // 2, p))


def test_prime_family_exact_structure():
    """p-cover of the pillowcase: genus (p-1)/2, three zeros of order p-2,
    p simple poles — for every admissible corner triple, in under a second."""
    start = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        want_orders = sorted([p - 2] * 3 + [-1] * p, reverse=True)
        for a1 in range(1, p):
            for a2 in range(1, p - a1):
                a3 = p - a1 - a2
                if a3 <= 0:
                    continue
                spec = CyclicCoverSpec(p, (a1, a2, a3, p))
                rep = cover_report(spec)
                assert rep.genus == (p - 1) // 2
                assert sorted(rep.stratum.orders, reverse=True) == want_orders
                assert rep.n == p
    assert time.perf_counter() - start < 1.0


def test_determinant_criteria_agree_exhaustively():
    start = time.perf_counter()
    total = 0
    for N in range(1, 13):
        for spec in iter_specs(N):
            verdict = is_determinant_locus(spec)  # internally cross-asserted
            rep = cover_report(spec)
            assert bool(verdict) == (rep.branch_count <= 3)
            total += 1
    assert total > 1000
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_sum_rule_on_prime_family(p):
    rep = ekz_for_cover(cyclic_to_pillow(prime_family(p)), orbit_cap=10_000)
    assert rep.lyap_sum == 0
    assert rep.decomposition == (
        Fraction(p - 3),
        3 - Fraction(6, p),
        Fraction(6, p),
    )


class TestMonteCarloDegeneracy:
    def test_family_is_flat(self):
        cover = cyclic_to_pillow(CyclicCoverSpec(5, (1, 2, 2, 5)))
        for seed in (1, 2, 3, 4, 5):
            est = run_monte_carlo(cover, 100_000, seed)
            for lam in est.lambda_plus:
                assert 0.0 <= lam <= 0.02

    def test_control_top_exponent_is_one(self):
        cover = cyclic_to_pillow(CyclicCoverSpec(2, (1, 1, 1, 1)))
        for seed in (1, 2, 3, 4, 5):
            est = run_monte_carlo(cover, 100_000, seed)
            assert 0.98 <= est.lambda_plus[0] <= 1.02


def test_cross_channel_consistency():
    spec = CyclicCoverSpec(4, (1, 1, 1, 1))
    cover = cyclic_to_pillow(spec)
    exact = ekz_for_cover(cover, orbit_cap=10_000).lyap_sum
    est = run_monte_carlo(cover, 100_000, 1)
    assert abs(sum(est.lambda_plus) - float(exact)) < 0.05


def test_bound_suite_and_gap_trend():
    for N in range(1, 13):
        for spec in iter_specs(N):
            if not is_determinant_locus(spec):
                continue
            rep = cover_report(spec)
            if rep.genus < 1:
                continue
            checks = {v.name: v for v in check_bounds(rep, degenerate=True)}
            assert checks["pole-count"].status == "pass"
            assert rep.n >= max(2 * rep.genus - 2, 2)
            assert checks["unbranched-pole"].status == "pass"
    # the prime family realizes a constant gap of 3 = (3 - 6/p) + 6/p
    gaps = []
    for p in (3, 5, 7, 11, 13):
        rep = cover_report(prime_family(p))
        gaps.append(rep.n - (2 * rep.genus - 2))
    assert gaps == [3, 3, 3, 3, 3]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # monotone trend


class TestBFormNumerics:
    # on 2 vCPUs a pairing takes 6-12 ms with its Gauss-Jacobi rules built
    # cold; the gates allow 40 times that
    @pytest.mark.parametrize("t", [0.3, 0.2 + 0.7j])
    def test_family_spectrum_flat_on_the_disc(self, t):
        start = time.perf_counter()
        curve = SuperellipticCurve(5, (0.0, 1.0, t), (1, 2, 2))
        q = sample_base_differential((), 4, zeros=(), poles=(t,))
        rep = pairing_matrices(curve, q)
        assert max(rep.theta) < 0.02
        assert time.perf_counter() - start < 0.5

    def test_hyperelliptic_entries_below_tolerance(self):
        start = time.perf_counter()
        pts = tuple(0.9 * np.exp(2j * np.pi * k / 8) for k in range(8))
        curve = SuperellipticCurve(2, pts, (1,) * 8)
        assert curve.genus == 3
        rep = pairing_matrices(curve, CurveDifferential(wpow=1))
        assert np.max(np.abs(np.array(rep.B))) < 1e-6
        assert time.perf_counter() - start < 0.5

    def test_selection_rule_entries_are_exact_zeros(self):
        curve = SuperellipticCurve(4, (0.0, 1.0, 0.3), (1, 1, 1))
        basis = holomorphic_basis(curve)
        q = sample_base_differential((), 4, zeros=(), poles=(0.3,))
        rep = pairing_matrices(curve, q)
        B = np.array(rep.B)
        for i, fi in enumerate(basis):
            for j, fj in enumerate(basis):
                if (fi.b + fj.b) % curve.N != 0:
                    assert B[i, j] == 0.0  # never integrated

    def test_mesh_halving_honors_error_estimate(self, monkeypatch):
        # halving the node spacing on every segment stays within the
        # estimate, also where the rule takes the limit at an integer pole
        # of u: the branch point 0.3 is no pole of this q
        curve = SuperellipticCurve(2, (0.0, 1.0, 0.3), (1, 1, 1))
        q = sample_base_differential((1,), 5, zeros=(0.6 + 0.4j,), poles=(-0.7, 1.8))
        rep = pairing_matrices(curve, q)
        monkeypatch.setattr(bform, "_PERIOD_NODES", 2 * bform._PERIOD_NODES)
        finer = pairing_matrices(curve, q)
        delta = max(
            np.max(np.abs(np.array(finer.B) - np.array(rep.B))),
            np.max(np.abs(np.array(finer.H) - np.array(rep.H))),
        )
        assert delta <= rep.quad_error


def test_structural_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)

    for _ in range(100):
        o = random_origami(int(rng.integers(2, 8)), rng)
        # symplectic invariance along a random word: M^T G_tgt M == G_src,
        # each G the intersection matrix of its own surface's basis
        word = "".join(rng.choice(["T", "S", "L"], size=3))
        M, final = induced_cocycle(o, word)
        G_src = homology_basis(o).intersection
        G_tgt = homology_basis(final).intersection
        Mm = [list(row) for row in M.matrix]
        r = len(Mm)
        GM = [[sum(G_tgt[i][k] * Mm[k][j] for k in range(r)) for j in range(r)]
              for i in range(r)]
        MtGM = [[sum(Mm[k][i] * GM[k][j] for k in range(r)) for j in range(r)]
                for i in range(r)]
        assert MtGM == [list(row) for row in G_src]
        # stratum invariance and cylinder area
        for gen in ("S", "T"):
            assert origami_stratum(apply_generator(o, gen)) == origami_stratum(o)
        assert sum(_row_widths(o.h, o.d)) == o.d
        # canonical-form idempotence
        c1 = canonical_perms((o.h, o.v), o.d)
        assert canonical_perms(c1, o.d) == c1

    for _ in range(100):
        p = random_pillow_cover(int(rng.integers(2, 7)), rng)
        o, iota = orientation_double_cover(p)
        # round-trip through the double cover
        assert reconstruct_pillow_cover(o, iota) == p
        # canonical idempotence on states
        s1 = canonical_perms((o.h, o.v, iota), o.d)
        assert canonical_perms(s1, o.d) == s1
        # quadratic orders satisfy the degree-4 Gauss-Bonnet count
        st = pillow_stratum(p)
        assert sum(st.orders) == 4 * st.genus - 4

    assert time.perf_counter() - start < 30.0


def test_locus_dimension_grows_symbolically():
    # trivial covers with k marked points: dim = r + k - 2 = 2k - 6
    dims = []
    for k in range(5, 21):
        L = LocusSpec((1,) * (k - 4), k, ((0,), (0,), (0,)))
        meta = locus_metadata(L)
        assert meta.dim == (k - 4) + k - 2
        dims.append(meta.dim)
    assert dims == sorted(dims) and dims[0] < dims[-1]
