"""Chain-level transport and the Monte-Carlo exponent estimator."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pillowtiled import cocycle, lattice, lyapunov, orbit
from pillowtiled.cocycle import StateCache, chain_map
from pillowtiled.homology import homology_basis, involution_splitting
from pillowtiled.lyapunov import LyapunovEstimate, certify_degenerate, run_monte_carlo
from pillowtiled.lyapunov import _GenCycle, _run_seeds, _Walker
from pillowtiled.permsurf import (
    Origami,
    orientation_double_cover,
    random_origami,
    random_pillow_cover,
    validate_involution,
)

from test_permsurf import cyclic_pillow
from tests.recorded import MONTE_CARLO, TRANSITIONS
from tests.reference import apply_generator, induced_cocycle

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
            for gen in GENS:
                F = chain_map(o, gen)
                o2 = apply_generator(o, gen)
                hb2 = homology_basis(o2)
                FB = lattice.matmul(F, [list(r) for r in hb.cycles])
                assert all(x == 0 for row in lattice.matmul(hb2.d1, FB) for x in row)
                CFd2 = lattice.matmul(
                    [list(r) for r in hb2.functionals], lattice.matmul(F, hb.d2)
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
        # the one transport path, a walker on the shared state cache (with
        # and without H1-), and the reference word transport that folds the
        # same move step must all reject it with asserts stripped
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
            "def shared_walker(with_minus):\n"
            "    walker = lyapunov._Walker(PillowCover(5, *perms), with_minus)\n"
            "    lyapunov._GenCycle(walker.cache, walker.anchor, 'T', with_minus)\n"
            "cases = {\n"
            "    'transition': lambda: cache.transition(cache.canonical_key(o, iota), 'T'),\n"
            "    'shared walker': lambda: shared_walker(True),\n"
            "    'shared H1+ walker': lambda: shared_walker(False),\n"
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

    def test_broken_transport_raises_under_dash_o(self):
        # a transport that leaves the involution where it was moves (h, v)
        # alone; the target's involution check, run when the cache builds
        # the state, must reject it on a walker's first T or L transition
        # with asserts stripped
        code = (
            "import sys\n"
            "from pillowtiled import cocycle, lyapunov\n"
            "from pillowtiled.permsurf import PillowCover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "cocycle._transport = lambda h, v, iota, gen: iota\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "for gen in ('T', 'L'):\n"
            "    cocycle._clear_shared_cache()\n"
            "    walker = lyapunov._Walker(PillowCover(5, *perms))\n"
            "    try:\n"
            "        walker.cache.transition(walker.anchor, gen)\n"
            "    except ValueError as exc:\n"
            "        if 'involution' not in str(exc):\n"
            "            raise SystemExit(f'{gen}: {exc}')\n"
            "        continue\n"
            "    raise SystemExit(f'{gen}: a broken transport was accepted')\n"
            "raise SystemExit(7)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr

    def test_each_built_state_is_checked_once(self, monkeypatch):
        # the cache checks a state's involution when it builds the state,
        # and a transition onto a cached state checks nothing; counted
        # wherever a move could check it
        checked = []

        def counted(o, iota):
            checked.append((o.h, o.v, iota))
            validate_involution(o, iota)

        for module in (cocycle, orbit):
            monkeypatch.setattr(module, "validate_involution", counted)
        for cover in (cyclic_pillow(7, (1, 3, 3, 7)), random_pillow_cover(5, np.random.default_rng(3))):
            cache = StateCache()
            anchor = cache.canonical_key(*orientation_double_cover(cover))
            for gen in ("T", "L"):
                _GenCycle(cache, anchor, gen)
            assert len(checked) == len(cache.states) > 1
            assert set(checked) == set(cache.states)
            # every target is cached now: building the moves again runs
            # the move step and its exact checks, and no involution check
            moves = list(cache.transitions)
            cache.transitions.clear()
            for key, gen in moves:
                cache.transition(key, gen)
            assert len(cache.transitions) == len(moves)
            assert len(checked) == len(cache.states)
            checked.clear()

    @pytest.mark.parametrize("name", sorted(TRANSITIONS))
    def test_cycle_transitions_are_unchanged(self, name):
        walker = _Walker(SCOPE_LINES[name])
        digest = hashlib.sha256()
        for gen in ("T", "L"):
            for key in _GenCycle(walker.cache, walker.anchor, gen).states:
                tr = walker.cache.transition(key, gen)
                digest.update(json.dumps([gen, tr.target, tr.plus, tr.minus]).encode() + b"\n")
        assert digest.hexdigest() == TRANSITIONS[name]

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
        # a digit's tautological log-growth can be negative, so only -inf
        # flushes on every digit; 0.0 would skip some
        monkeypatch.setattr(lyapunov, "_RENORM_NATS", -math.inf)
        counting = CountingNumPy(keep_frames=False)
        monkeypatch.setattr(lyapunov, "np", counting)
        ref = run_monte_carlo(cover, 3000, 1)
        assert counting.calls == 3000 + 1
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


def exact_power(part, r, q):
    """cum[r] @ C^q by binary powering of the full-cycle product C."""
    acc, base = part.cum[r], part.cum[-1]
    while q:
        if q & 1:
            acc = lattice.matmul(acc, base)
        base = lattice.matmul(base, base)
        q >>= 1
    return acc


class CountingNumPy:
    """numpy as seen from lyapunov, with np.linalg.qr counted and, unless
    ``keep_frames`` is false, recording a copy of each frame it is given,
    as the benchmark tracer wraps it."""

    def __init__(self, keep_frames=True):
        self.calls = 0
        self.frames = []
        self.keep_frames = keep_frames
        self.linalg = SimpleNamespace(qr=self.qr)

    def qr(self, F):
        self.calls += 1
        if self.keep_frames:
            self.frames.append(F.copy())
        return np.linalg.qr(F)

    def __getattr__(self, name):
        return getattr(np, name)


ONE_FRAME_LINES = [(5, (1, 2, 2, 5)), (6, (1, 1, 5, 5)), (12, (1, 5, 7, 11))]
ONE_FRAME_IDS = ["5-1-2-2-5", "6-1-1-5-5", "12-1-5-7-11"]


class TestOneFrame:
    """One frame diag(F+, F-) on H1+ (+) H1-, one QR per flush."""

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_one_qr_per_flush_on_a_block_diagonal_frame(self, monkeypatch, N, a):
        cover = cyclic_pillow(N, a)
        walker = _Walker(cover)
        dp, dm = walker.dim_plus, walker.dim_minus
        mp, mm = dp // 2, dm // 2
        counting = CountingNumPy()
        monkeypatch.setattr(lyapunov, "np", counting)
        est = run_monte_carlo(cover, 3000, 1, _walker=walker)
        # the first QR orthonormalizes the initial frame; every other one is
        # a flush, at each of the 20 block ends and after each 12 nats
        assert 21 <= len(counting.frames) <= 21 + est.taut_time / lyapunov._RENORM_NATS
        for F in counting.frames:
            assert F.shape == (dp + dm, mp + mm)
            # a QR leaves round-off in the off-diagonal blocks of Q; zeroed
            # after every flush, they stay exact zeros under the digits
            assert not F[:dp, mp:].any() and not F[dp:, :mp].any()
        del counting.frames[:]
        monkeypatch.setattr(lyapunov, "_RENORM_NATS", -math.inf)  # flush every digit
        run_monte_carlo(cover, 300, 1, _walker=walker)
        assert len(counting.frames) == 300 + 1

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_matches_the_recorded_two_frame_walker(self, N, a):
        # the two frames' QRs and the one frame's QR agree in exact
        # arithmetic; in floats they differ at round-off
        want = MONTE_CARLO[f"{N} {' '.join(map(str, a))}"]
        est = run_monte_carlo(cyclic_pillow(N, a), 3000, 1)
        assert est.taut_time == want["taut_time"]
        assert est.block_slopes == want["block_slopes"]
        assert est.warnings == want["warnings"]
        for field in ("lambda_plus", "stderr_plus", "lambda_minus", "stderr_minus"):
            got = getattr(est, field)
            assert len(got) == len(want[field])
            assert all(abs(x - y) <= 1e-9 for x, y in zip(got, want[field])), field

    @pytest.mark.parametrize("guarded", [True, False], ids=["int64", "python-ints"])
    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_digit_blocks_round_the_exact_products(self, monkeypatch, N, a, guarded):
        if not guarded:  # every multiply-add past the guard, on Python ints
            monkeypatch.setattr(lattice, "_INT64_SAFE", 0)
        walker = _Walker(cyclic_pillow(N, a))
        dp, n = walker.dim_plus, walker.dim_plus + walker.dim_minus
        rng = np.random.default_rng(N)
        for gen in ["T", "L", "T", "L"]:
            key = walker.key
            cyc = _GenCycle(walker.cache, key, gen)
            k = len(cyc.states)
            for power in [1, k - 1, k, 3 * k + 1, int(rng.integers(1, 10**6)), 10**12]:
                walker.key = key
                M = walker.digit(gen, power)
                q, r = divmod(power, k)
                assert walker.key == cyc.states[r]
                plus = np.array(exact_power(cyc.plus, r, q), dtype=float).reshape(dp, dp)
                minus = np.array(exact_power(cyc.minus, r, q), dtype=float).reshape(n - dp, n - dp)
                assert M.shape == (n, n)
                assert M[:dp, :dp].tobytes() == plus.tobytes()
                assert M[dp:, dp:].tobytes() == minus.tobytes()
                assert not M[:dp, dp:].any() and not M[dp:, :dp].any()
            walker.key = key
            walker.digit(gen, int(rng.integers(1, 4)))  # on to another state

    def test_a_digit_is_kept_from_its_second_sighting(self):
        walker = _Walker(cyclic_pillow(5, (1, 2, 2, 5)))
        first = walker.digit("T", 10**12)
        after = walker.key
        assert walker._memo == {}
        walker.key = walker.anchor
        second = walker.digit("T", 10**12)
        assert list(walker._memo) == [(walker.anchor, "T", 10**12)]
        assert walker.key == after and second.tobytes() == first.tobytes()
        walker.key = walker.anchor
        assert walker.digit("T", 10**12) is second
        assert len(walker._memo) == 1

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_estimates_do_not_depend_on_the_memo(self, N, a):
        class NoMemo(dict):
            def __setitem__(self, key, value):
                pass

        cover = cyclic_pillow(N, a)
        walker = _Walker(cover)
        memo = run_monte_carlo(cover, 3000, 1, _walker=walker)
        assert walker._memo  # the memo did serve this run
        walker = _Walker(cover)
        walker._memo = NoMemo()
        assert run_monte_carlo(cover, 3000, 1, _walker=walker) == memo
        assert not walker._memo


# the benchmark's lyapunov lines, a line that once outran every budget, a
# genus-0 quotient (H1+ = 0) and a pillow cover that is not cyclic
SCOPE_LINES = {
    "5-1-2-2-5": cyclic_pillow(5, (1, 2, 2, 5)),
    "6-1-1-5-5": cyclic_pillow(6, (1, 1, 5, 5)),
    "7-1-3-3-7": cyclic_pillow(7, (1, 3, 3, 7)),
    "3-1-2-3-3": cyclic_pillow(3, (1, 2, 3, 3)),
    "pillow-5": random_pillow_cover(5, np.random.default_rng(3)),
}


class TestCertifyScope:
    """certify walks H1+ alone; with H1+ = 0 it walks no frame at all."""

    @pytest.mark.parametrize("name", SCOPE_LINES)
    def test_plus_only_walk_matches_the_full_run(self, name):
        cover = SCOPE_LINES[name]
        seeds = (1, 2, 3)
        full = _run_seeds(cover, 1000, seeds)
        plus = _run_seeds(cover, 1000, seeds, with_minus=False)
        for f, p in zip(full, plus, strict=True):
            assert (p.taut_time, p.block_slopes, p.warnings) == (
                f.taut_time, f.block_slopes, f.warnings)
            assert p.lambda_minus == () and p.stderr_minus == ()
            for got, want in [(p.lambda_plus, f.lambda_plus), (p.stderr_plus, f.stderr_plus)]:
                assert len(got) == len(want)
                assert all(abs(x - y) <= 1e-12 for x, y in zip(got, want))
        cert = certify_degenerate(cover, 0.02, steps=1000, seeds=seeds)
        assert cert.estimates == plus

    def test_the_minus_normals_are_drawn_and_dropped(self, monkeypatch):
        # the H1- normals come before the tautological 2-vector and the
        # digits in the PCG64 stream; dropping the draw would move every
        # H1+ float
        draws = []

        class Spy(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                draws.append(size)
                return super().standard_normal(size, *args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        cover = cyclic_pillow(6, (1, 1, 5, 5))
        walkers = {scope: _Walker(cover, scope) for scope in (True, False)}
        for scope, walker in walkers.items():
            del draws[:]
            run_monte_carlo(cover, 100, 1, _walker=walker)
            dp, dm = walker.dim_plus, walker.dim_minus
            assert draws == [(dp, dp // 2), (dm, dm // 2), 2], scope

    def test_genus_zero_line_builds_its_anchor_and_walks_no_frame(self, monkeypatch):
        cover = SCOPE_LINES["3-1-2-3-3"]
        built, moves = [], []
        real_data, real_transition = cocycle.StateData, StateCache.transition

        class Spy(real_data):
            def __init__(self, origami, iota=None):
                built.append((origami.h, origami.v, iota))
                super().__init__(origami, iota)

        def transition(self, key, gen):
            moves.append((key, gen))
            return real_transition(self, key, gen)

        monkeypatch.setattr(cocycle, "StateData", Spy)
        monkeypatch.setattr(StateCache, "transition", transition)
        counting = CountingNumPy()
        monkeypatch.setattr(lyapunov, "np", counting)
        cert = certify_degenerate(cover, 0.02, steps=1000, seeds=(1, 2, 3))
        assert len(built) == 1  # the anchor state, built and checked
        assert moves == []
        assert counting.calls == 0
        assert cert.verdict == "PASS" and cert.max_lambda_plus == 0.0
        assert all(e.lambda_plus == () and len(e.block_slopes) == 20 for e in cert.estimates)

    @pytest.mark.parametrize("name", ["5-1-2-2-5", "3-1-2-3-3"])
    def test_shared_plus_only_walker_matches_independent_runs(self, name):
        cover = SCOPE_LINES[name]
        seeds = (3, 1, 2, 3)
        independent = tuple(
            run_monte_carlo(cover, 2000, s, _walker=_Walker(cover, with_minus=False))
            for s in seeds)
        assert _run_seeds(cover, 2000, seeds, with_minus=False) == independent
        walker = _Walker(cover, with_minus=False)
        shared = tuple(run_monte_carlo(cover, 2000, s, _walker=walker) for s in seeds)
        assert shared == independent


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
