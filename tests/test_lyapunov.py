"""Chain-level transport and the Monte-Carlo exponent estimator."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pillowtiled import cocycle, lattice, lyapunov
from pillowtiled.cocycle import StateCache, chain_map
from pillowtiled.homology import boundary_matrices, homology_basis, involution_splitting
from pillowtiled.lyapunov import LyapunovEstimate, certify_degenerate, run_monte_carlo
from pillowtiled.lyapunov import _GenCycle, _run_seeds, _Walker
from pillowtiled.orbit import apply_generator
from pillowtiled.permsurf import (
    Origami,
    orientation_double_cover,
    random_origami,
    random_pillow_cover,
)

from test_permsurf import cyclic_pillow
from tests.reference import induced_cocycle

TORUS = Origami(1, (0,), (0,))
L3 = Origami(3, (1, 0, 2), (2, 1, 0))
GENS = ["T", "S", "L"]


def mat_is_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


class TestChainMaps:
    def test_torus_single_twist(self):
        cm, final = induced_cocycle(TORUS, ["T"])
        assert cm.matrix == ((1, 1), (0, 1))
        assert final.h == (0,) and final.v == (0,)

    def test_quarter_turn_fourth_power_is_identity(self):
        for o in [TORUS, L3]:
            cm, final = induced_cocycle(o, ["S", "S", "S", "S"])
            assert mat_is_identity(cm.matrix)
            assert (final.h, final.v) == (o.h, o.v)

    def test_t_then_s_then_l_acts_as_s(self):
        # S then L is T^-1 then S on surfaces, and on chains as well
        rng = np.random.default_rng(5)
        for _ in range(10):
            o = random_origami(int(rng.integers(2, 7)), rng)
            cm, final = induced_cocycle(o, ["T", "S", "L"])
            cs, final_s = induced_cocycle(o, ["S"])
            assert (final.h, final.v) == (final_s.h, final_s.v)
            assert cm.matrix == cs.matrix

    def test_chain_maps_commute_with_boundaries(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            o = random_origami(int(rng.integers(2, 8)), rng)
            hb = homology_basis(o)
            _, d2 = boundary_matrices(o)
            for gen in GENS:
                F = chain_map(o, gen)
                o2 = apply_generator(o, gen)
                d1b, _ = boundary_matrices(o2)
                hb2 = homology_basis(o2)
                FB = lattice.matmul(F, [list(r) for r in hb.cycles])
                assert all(x == 0 for row in lattice.matmul(d1b, FB) for x in row)
                CFd2 = lattice.matmul(
                    [list(r) for r in hb2.functionals], lattice.matmul(F, d2)
                )
                assert all(x == 0 for row in CFd2 for x in row)

    def test_random_words_are_symplectic(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            o = random_origami(int(rng.integers(2, 7)), rng)
            word = [GENS[int(rng.integers(len(GENS)))] for _ in range(int(rng.integers(1, 7)))]
            cm, final = induced_cocycle(o, word)
            hb0, hb1 = homology_basis(o), homology_basis(final)
            M = [list(r) for r in cm.matrix]
            MJM = lattice.matmul(
                lattice.transpose(M),
                lattice.matmul([list(r) for r in hb1.intersection], M),
            )
            assert lattice.mat_eq(MJM, [list(r) for r in hb0.intersection])
            # the word really lands on the surface obtained by applying moves
            check = o
            for gen in word:
                check = apply_generator(check, gen)
            assert (check.h, check.v) == (final.h, final.v)

    def test_words_commute_with_deck_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_pillow_cover(int(rng.integers(2, 6)), rng)
            o, iota = orientation_double_cover(p)
            word = [GENS[int(rng.integers(len(GENS)))] for _ in range(int(rng.integers(1, 6)))]
            cm, final, iota2 = induced_cocycle(o, word, iota)
            I0 = involution_splitting(homology_basis(o), iota).action
            I1 = involution_splitting(homology_basis(final), iota2).action
            M = [list(r) for r in cm.matrix]
            lhs = lattice.matmul([list(r) for r in I1], M)
            rhs = lattice.matmul(M, [list(r) for r in I0])
            assert lattice.mat_eq(lhs, rhs)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            induced_cocycle(TORUS, [])

    def test_corrupted_chain_map_raises_under_dash_o(self):
        # twice the true chain map still sends cycles to cycles and
        # boundaries to boundaries, but scales the intersection form by 4;
        # the one transport path, a walker on the shared state cache, and the
        # reference word transport that folds the same move step must all
        # reject it with asserts stripped
        code = (
            "import sys\n"
            "from pillowtiled import cocycle, lyapunov\n"
            "from tests import reference\n"
            "from pillowtiled.permsurf import Origami, PillowCover, orientation_double_cover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "true_map = cocycle.chain_map\n"
            "cocycle.chain_map = lambda o, gen: [[2 * x for x in row] for row in true_map(o, gen)]\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
            "cache = cocycle.StateCache()\n"
            "def shared_walker():\n"
            "    walker = lyapunov._Walker(PillowCover(5, *perms))\n"
            "    lyapunov._GenCycle(walker.cache, walker.anchor, 'T')\n"
            "cases = {\n"
            "    'transition': lambda: cache.transition(cache.canonical_key(o, iota), 'T'),\n"
            "    'shared walker': shared_walker,\n"
            "    'torus word': lambda: reference.induced_cocycle(Origami(1, (0,), (0,)), ['T']),\n"
            "    'double cover word': lambda: reference.induced_cocycle(o, ['T'], iota),\n"
            "}\n"
            "for name, case in cases.items():\n"
            "    try:\n"
            "        case()\n"
            "    except ArithmeticError as exc:\n"
            "        if 'not symplectic' not in str(exc):\n"
            "            raise SystemExit(f'{name}: {exc}')\n"
            "    else:\n"
            "        raise SystemExit(f'{name} accepted a doubled chain map')\n"
            "raise SystemExit(7)\n"
        )
        paths = [Path(lattice.__file__).resolve().parents[1], Path(__file__).resolve().parents[1]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr


class TestStateCache:
    def test_transitions_land_on_cached_states(self):
        rng = np.random.default_rng(3)
        p = random_pillow_cover(5, rng)
        o, iota = orientation_double_cover(p)
        cache = StateCache()
        cur = cache.canonical_key(o, iota)
        for gen in ["T", "L", "S", "T", "T", "L", "L", "S"]:
            tr = cache.transition(cur, gen)
            assert tr.target in cache.states
            cur = tr.target

    def test_restrictions_have_eigenspace_sizes(self):
        p = cyclic_pillow(5, (1, 2, 2, 5))
        o, iota = orientation_double_cover(p)
        cache = StateCache()
        key = cache.canonical_key(o, iota)
        st = cache.state(key)
        tr = cache.transition(key, "T")
        assert len(tr.plus) == st.splitting.dim_plus
        assert len(tr.minus) == st.splitting.dim_minus

    @pytest.mark.parametrize(
        "N, a",
        [(5, (1, 2, 2, 5)), (6, (1, 1, 5, 5)), (8, (1, 3, 5, 7))],
        ids=["5-1-2-2-5", "6-1-1-5-5", "8-1-3-5-7"],
    )
    def test_closed_form_cycle_powers_match_repeated_multiplication(self, N, a):
        walker = _Walker(cyclic_pillow(N, a))
        seen, todo = {walker.anchor}, [walker.anchor]
        while todo:
            key = todo.pop()
            for gen in ["T", "L"]:
                cyc = _GenCycle(walker.cache, key, gen)
                for st in cyc.states:
                    if st not in seen:
                        seen.add(st)
                        todo.append(st)
                for part in (cyc.plus, cyc.minus):
                    k = len(part.powers)
                    for r in range(len(cyc.states)):
                        acc = part.cum[r]
                        for q in range(3 * k + 3):
                            assert lattice.mat_eq(part.product(r, q), acc)
                            acc = lattice.matmul(acc, part.cum[-1])

    @pytest.mark.parametrize(
        "N, a",
        [(7, (1, 3, 3, 7)), (7, (4, 1, 3, 6)), (7, (6, 5, 3, 7)), (9, (4, 7, 5, 2)),
         (11, (1, 5, 5, 11))],
        ids=["7-1-3-3-7", "7-4-1-3-6", "7-6-5-3-7", "9-4-7-5-2", "11-1-5-5-11"],
    )
    def test_degree_seven_to_eleven_setup_is_fast_and_small(self, N, a):
        # these covers once ran for minutes in Smith-form transforms whose
        # entries reached millions of bits
        start = time.perf_counter()
        walker = _Walker(cyclic_pillow(N, a))
        for gen in ["T", "L"]:
            _GenCycle(walker.cache, walker.anchor, gen)
        assert time.perf_counter() - start < 5.0

        def bits(rows):
            return max((abs(x).bit_length() for row in rows for x in row), default=0)

        for st in walker.cache.states.values():
            sp = st.splitting
            for m in (st.basis.cycles, st.basis.functionals, sp.plus_basis, sp.plus_coords,
                      sp.minus_basis, sp.minus_coords):
                assert bits(m) <= 16


class TestSharedStateCache:
    """The one state cache that every walker in the process draws from."""

    @staticmethod
    def spy_builds(monkeypatch):
        """Record the key of every StateData built from now on."""
        built = []
        real = cocycle.StateData

        class Spy(real):
            def __init__(self, origami, iota=None):
                built.append((origami.h, origami.v, iota))
                super().__init__(origami, iota)

        monkeypatch.setattr(cocycle, "StateData", Spy)
        return built

    def test_relabelled_line_builds_no_state(self, monkeypatch):
        # x -> 2x renumbers the sheets of the same cover
        built = self.spy_builds(monkeypatch)
        first = _run_seeds(cyclic_pillow(5, (1, 2, 2, 5)), 600, (1, 2, 3))
        assert built
        del built[:]
        second = _run_seeds(cyclic_pillow(5, (2, 4, 4, 5)), 600, (1, 2, 3))
        assert built == []
        assert second == first

    def test_trimmed_to_budget_at_walker_start_only(self, monkeypatch):
        budget = 12_000  # about three states of degree 5
        monkeypatch.setattr(cocycle, "_SHARED_ENTRIES", budget)
        built = self.spy_builds(monkeypatch)
        real = lyapunov.shared_state_cache
        at_start = []

        def spy():
            cache = real()
            at_start.append(cache.weight())
            built.append(None)  # a walker starts
            return cache

        monkeypatch.setattr(lyapunov, "shared_state_cache", spy)
        after_walk = []
        for N, a in [(5, (1, 2, 2, 5)), (6, (1, 1, 5, 5)), (5, (1, 2, 2, 5)),
                     (8, (1, 3, 5, 7)), (6, (1, 1, 5, 5)), (5, (2, 4, 4, 5))]:
            _run_seeds(cyclic_pillow(N, a), 800, (1, 2))
            after_walk.append(cocycle._shared.weight())
        assert len(at_start) == 6
        assert all(w <= budget for w in at_start), at_start
        assert max(after_walk) > budget  # some walk outgrew the budget ...
        walks, cur = [], []
        for key in built[1:] + [None]:
            if key is None:
                walks.append(cur)
                cur = []
            else:
                cur.append(key)
        # ... yet no walk rebuilt a state that it built itself
        assert all(len(set(w)) == len(w) for w in walks)
        # while states dropped between walks were built again
        keys = [k for w in walks for k in w]
        assert len(set(keys)) < len(keys)

    def test_trim_keeps_the_states_a_later_line_reused(self, monkeypatch):
        # A is run, then B, then A again, then C; A's second run uses all its
        # states after B was built, so the trim at the next walker start
        # drops B's states and keeps A's
        A = cyclic_pillow(5, (1, 2, 2, 5))
        B = cyclic_pillow(4, (1, 1, 1, 1))
        C = cyclic_pillow(3, (1, 1, 1, 3))
        cold = {}
        for cover in (A, B, C):
            cocycle._clear_shared_cache()
            cold[cover] = _run_seeds(cover, 600, (1, 2, 3))
        cocycle._clear_shared_cache()
        built = self.spy_builds(monkeypatch)
        keys = {}
        for cover in (A, B):
            assert _run_seeds(cover, 600, (1, 2, 3)) == cold[cover]
            keys[cover] = built[:]
            del built[:]
        # the budget holds A and B; C's one state weighs less than B's, so
        # the trim at the start of A's third run has to drop B and no more
        monkeypatch.setattr(cocycle, "_SHARED_ENTRIES", cocycle._shared.weight())
        assert _run_seeds(A, 600, (1, 2, 3)) == cold[A]
        assert _run_seeds(C, 600, (1, 2, 3)) == cold[C]
        assert len(built) == 1 and cocycle._shared.states[built[0]].entries < sum(
            cocycle._shared.states[k].entries for k in keys[B])
        del built[:]
        assert _run_seeds(A, 600, (1, 2, 3)) == cold[A]
        assert built == []
        assert not set(keys[B]) & set(cocycle._shared.states)
        assert set(keys[A]) <= set(cocycle._shared.states)

    def test_a_lookup_marks_the_state_used(self):
        cache = StateCache()
        o, iota = orientation_double_cover(cyclic_pillow(8, (1, 3, 5, 7)))
        cur = cache.canonical_key(o, iota)
        moves = []
        for gen in ["T", "L", "T", "S"]:
            moves.append((cur, gen))
            cur = cache.transition(cur, gen).target
        # a cached move makes its source the most recently used state ...
        for src, gen in moves:
            cache.transition(src, gen)
            assert list(cache.states)[-1] == src
        # ... and so does a state lookup
        for key in list(cache.states):
            cache.state(key)
            assert list(cache.states)[-1] == key

    def test_trim_drops_the_oldest_states_and_their_moves(self):
        cache = StateCache()
        o, iota = orientation_double_cover(cyclic_pillow(8, (1, 3, 5, 7)))
        cur = cache.canonical_key(o, iota)
        moves = {}
        for gen in ["T", "L", "T", "S", "L", "T", "L"]:
            moves[cur, gen] = cache.transition(cur, gen)
            cur = moves[cur, gen].target
        order = list(cache.states)
        assert len(order) >= 3
        keep = sum(cache.states[k].entries for k in order[-2:])
        cache.trim(keep)
        assert list(cache.states) == order[-2:]
        assert cache.weight() == keep
        assert all(src in cache.states for src, _ in cache.transitions)
        # a move into a dropped state still holds the right matrices, and
        # moves out of it are rebuilt equal
        for (src, gen), tr in moves.items():
            assert cache.transition(src, gen) == tr

    def test_interrupted_builds_leave_no_entry(self, monkeypatch):
        class Cut(Exception):
            pass

        def cut(*args):
            raise Cut

        walker = _Walker(cyclic_pillow(5, (1, 2, 2, 5)))
        cache, key = walker.cache, walker.anchor
        # a state build cut off after its homology basis
        cache.states.pop(key)
        with monkeypatch.context() as m:
            m.setattr(cocycle, "involution_splitting", cut)
            with pytest.raises(Cut):
                cache.state(key)
        assert key not in cache.states
        # a move cut off after its exact check, between its two restrictions
        real, calls = cocycle._restrict, []

        def second_cut(*args):
            calls.append(args)
            if len(calls) == 2:
                raise Cut
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(cocycle, "_restrict", second_cut)
            with pytest.raises(Cut):
                cache.transition(key, "T")
        assert (key, "T") not in cache.transitions
        assert all(st.splitting is not None for st in cache.states.values())
        warm = run_monte_carlo(walker.cover, 600, 1)
        cocycle._clear_shared_cache()
        assert run_monte_carlo(walker.cover, 600, 1) == warm


class TestMonteCarlo:
    def test_bitwise_reproducible(self):
        cover = cyclic_pillow(4, (1, 1, 1, 1))
        a = run_monte_carlo(cover, 2000, 9)
        b = run_monte_carlo(cover, 2000, 9)
        assert a == b
        c = run_monte_carlo(cover, 2000, 10)
        assert a.lambda_plus != c.lambda_plus or a.taut_time != c.taut_time

    def test_control_top_exponent_is_one(self):
        est = run_monte_carlo(cyclic_pillow(4, (1, 1, 1, 1)), 6000, 1)
        assert est.lambda_plus[0] == pytest.approx(1.0, abs=0.03)
        assert not est.warnings

    def test_family_member_plus_spectrum_vanishes(self):
        est = run_monte_carlo(cyclic_pillow(5, (1, 2, 2, 5)), 6000, 1)
        assert len(est.lambda_plus) == 2
        assert max(est.lambda_plus) < 0.02

    def test_antiinvariant_part_carries_the_tautological_one(self):
        for cover in [cyclic_pillow(5, (1, 2, 2, 5)), cyclic_pillow(3, (1, 1, 1, 3))]:
            est = run_monte_carlo(cover, 6000, 2)
            assert abs(est.lambda_minus[0] - 1.0) < 0.02

    def test_sum_rule_on_control(self):
        from pillowtiled.cylinders import ekz_for_cover

        cover = cyclic_pillow(4, (1, 1, 1, 1))
        est = run_monte_carlo(cover, 8000, 3)
        exact = float(ekz_for_cover(cover).lyap_sum)
        assert sum(est.lambda_plus) == pytest.approx(exact, abs=0.05)

    def test_block_accounting(self):
        est = run_monte_carlo(cyclic_pillow(3, (1, 1, 1, 3)), 2000, 4)
        assert est.blocks == 20
        assert len(est.block_slopes) == 20
        assert all(s > 0 for s in est.block_slopes)

    def test_shared_walker_matches_independent_runs(self):
        cover = cyclic_pillow(5, (1, 2, 2, 5))
        seeds = (3, 1, 2, 3)
        independent = tuple(run_monte_carlo(cover, 2000, s) for s in seeds)
        assert _run_seeds(cover, 2000, seeds) == independent
        walker = _Walker(cover)
        shared = tuple(run_monte_carlo(cover, 2000, s, _walker=walker) for s in seeds)
        assert shared == independent

    def test_shared_walker_must_match_the_cover(self):
        walker = _Walker(cyclic_pillow(5, (1, 2, 2, 5)))
        with pytest.raises(ValueError):
            run_monte_carlo(cyclic_pillow(3, (1, 1, 1, 3)), 100, 1, _walker=walker)

    @pytest.mark.parametrize("N, a", [(5, (1, 2, 2, 5)), (6, (1, 1, 5, 5)), (12, (1, 5, 7, 11))])
    def test_flush_timing_matches_an_every_digit_reference(self, monkeypatch, N, a):
        # in exact arithmetic the R-diagonal product over a block does not
        # depend on when the frames are flushed; in floats the split inside a
        # near-degenerate cluster drifts with round-off under any flush
        # timing, so the bound is a fraction of the sampling error
        cover = cyclic_pillow(N, a)
        est = run_monte_carlo(cover, 3000, 1)
        monkeypatch.setattr(lyapunov, "_RENORM_NATS", 0.0)
        ref = run_monte_carlo(cover, 3000, 1)
        assert est.taut_time == ref.taut_time
        assert est.block_slopes == ref.block_slopes
        assert est.warnings == ref.warnings
        for lam, ref_lam, err in [
            (est.lambda_plus, ref.lambda_plus, ref.stderr_plus),
            (est.lambda_minus, ref.lambda_minus, ref.stderr_minus),
        ]:
            assert len(lam) == len(ref_lam)
            for x, y, e in zip(lam, ref_lam, err):
                assert abs(x - y) <= 0.5 * e

    def test_parameter_validation(self):
        cover = cyclic_pillow(3, (1, 1, 1, 3))
        with pytest.raises(ValueError, match="at least the number of blocks"):
            run_monte_carlo(cover, 19, 1)
        assert len(run_monte_carlo(cover, 20, 1).block_slopes) == 20


class TestCertify:
    def test_family_member_passes(self):
        cert = certify_degenerate(cyclic_pillow(5, (1, 2, 2, 5)), 0.02, steps=4000)
        assert cert.verdict == "PASS"
        assert not cert.contradiction
        assert cert.exact_sum == 0
        assert cert.measured_degenerate and cert.exact_degenerate

    def test_control_fails_consistently(self):
        cert = certify_degenerate(cyclic_pillow(2, (1, 1, 1, 1)), 0.02, steps=4000)
        assert cert.verdict == "FAIL"
        assert not cert.contradiction
        assert cert.exact_sum == 1
        assert not cert.measured_degenerate

    def test_epsilon_domain(self):
        cover = cyclic_pillow(3, (1, 1, 1, 3))
        for eps in [0.0, -0.01, 0.1, 0.5]:
            with pytest.raises(ValueError):
                certify_degenerate(cover, eps)

    def test_needs_three_seeds(self):
        # three runs on one seed are one estimate three times, not three
        for seeds in [(1, 2), (7, 7, 7), (1, 2, 2)]:
            with pytest.raises(ValueError, match="three distinct seeds"):
                certify_degenerate(cyclic_pillow(3, (1, 1, 1, 3)), 0.01, seeds=seeds)
