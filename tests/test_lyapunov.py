"""Chain-level transport and the Monte-Carlo exponent estimator."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pillowtiled import cli, cocycle, lattice, lyapunov, orbit, store
from pillowtiled.cocycle import StateCache
from pillowtiled.coverings import CyclicCoverSpec
from pillowtiled.homology import apply_rows, homology_basis, involution_on_homology, move_rows
from pillowtiled.lyapunov import LyapunovEstimate, certify_degenerate, run_monte_carlo
from pillowtiled.lyapunov import _estimate, _run_seeds, _Walker
from pillowtiled.permsurf import (
    Origami,
    SizeCapExceeded,
    orientation_double_cover,
    random_origami,
    random_pillow_cover,
    validate_involution,
)

from test_permsurf import cyclic_pillow
from tests.recorded import MONTE_CARLO, N56_LYAPUNOV_SHA256, TRANSITIONS
from tests.reference import apply_generator, boundary_matrices, induced_cocycle, order
from tests.test_orbit import _ekz_lines, _orbit_lines
from tests.test_store import bookkeeping, forget, kept, own_weight

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
            d2 = boundary_matrices(o)[1]
            for gen in GENS:
                F = move_rows(o, gen, range(o.d))
                o2 = apply_generator(o, gen)
                hb2 = homology_basis(o2)
                FB = apply_rows(F, hb.cycles)
                assert all(x == 0 for row in lattice.matmul(boundary_matrices(o2)[0], FB) for x in row)
                CFd2 = lattice.matmul([list(r) for r in hb2.functionals], apply_rows(F, d2))
                assert all(x == 0 for row in CFd2 for x in row)

    def test_random_words_are_symplectic(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            o = random_origami(int(rng.integers(2, 7)), rng)
            word = [GENS[int(rng.integers(len(GENS)))] for _ in range(int(rng.integers(1, 7)))]
            cm, final = induced_cocycle(o, word)
            hb0, hb1 = homology_basis(o), homology_basis(final)
            M = [list(r) for r in cm.matrix]
            MKM = lattice.matmul(M, lattice.matmul([list(r) for r in hb0.cup], lattice.transpose(M)))
            assert lattice.mat_eq(MKM, [list(r) for r in hb1.cup])
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
            I0 = involution_on_homology(homology_basis(o), iota)
            I1 = involution_on_homology(homology_basis(final), iota2)
            M = [list(r) for r in cm.matrix]
            lhs = lattice.matmul(I1, M)
            rhs = lattice.matmul(M, I0)
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
            "true_map = cocycle.move_rows\n"
            "cocycle.move_rows = lambda o, gen, label: [(2 * c, *e) for c, *e in true_map(o, gen, label)]\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
            "cache = cocycle.StateCache()\n"
            "def shared_walker(with_minus):\n"
            "    lyapunov._Walker(PillowCover(5, *perms), with_minus).digit(0, 'T', 1)\n"
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
        # with asserts stripped.  The message is validate_involution's own:
        # the homology's check of the deck map also names an involution
        code = (
            "import sys\n"
            "from pillowtiled import cocycle, lyapunov, store\n"
            "from pillowtiled.permsurf import PillowCover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "move = cocycle.move\n"
            "cocycle.move = lambda w, gen: (*move(w[:2], gen), *w[2:])\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "for gen in ('T', 'L'):\n"
            "    store.clear()\n"
            "    walker = lyapunov._Walker(PillowCover(5, *perms))\n"
            "    try:\n"
            "        walker.cache.transition(walker.anchor, gen)\n"
            "    except ValueError as exc:\n"
            "        if 'involution does not reverse' not in str(exc):\n"
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
                cache.cycle(anchor, gen, 0)
            assert len(checked) == len(kept("state")) > 1
            assert set(checked) == set(kept("state"))
            # every target is cached now: building the moves again runs
            # the move step and its exact checks, and no involution check
            moves = kept("move")
            for key, gen in moves:
                forget((key, gen))
                cache.transition(key, gen)
            assert sorted(kept("move")) == sorted(moves)
            assert len(checked) == len(kept("state"))
            checked.clear()
            store.clear()

    @pytest.mark.parametrize("name", sorted(TRANSITIONS))
    def test_cycle_transitions_are_unchanged(self, name):
        walker = _Walker(SCOPE_LINES[name])
        digest = hashlib.sha256()
        for gen in ("T", "L"):
            for key in walker.cache.cycle(walker.anchor, gen, 0).states:
                tr = walker.cache.transition(key, gen)
                digest.update(json.dumps([gen, tr.target, tr.plus, tr.minus]).encode() + b"\n")
        assert digest.hexdigest() == TRANSITIONS[name]

    def test_a_cold_state_takes_three_hermite_passes_and_no_dense_chain_map(self, monkeypatch):
        # one Hermite pass checks the cup matrix and one finds each
        # eigenlattice; the moves and the involution reach matmul only as
        # the products of their row maps, never as a 2d x 2d matrix
        passes, operands = [], []
        hermite, matmul = lattice.hermite, lattice.matmul

        def counted_hermite(a):
            passes.append(a)
            return hermite(a)

        def recorded_matmul(a, b):
            operands.extend((lattice.shape(a), lattice.shape(b)))
            return matmul(a, b)

        monkeypatch.setattr(lattice, "hermite", counted_hermite)
        monkeypatch.setattr(lattice, "matmul", recorded_matmul)
        o, iota = orientation_double_cover(cyclic_pillow(30, (7, 15, 10, 28)))
        cache = StateCache()
        anchor = cache.canonical_key(o, iota)
        cache.state(anchor)
        assert len(passes) == 3
        for gen in ("T", "L"):
            cache.transition(anchor, gen)
        assert len(kept("state")) > 1
        assert len(passes) == 3 * len(kept("state"))
        assert operands and (2 * o.d, 2 * o.d) not in operands

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
                states = walker.cache.cycle(key, gen, 0).states
                for st in states:
                    if st not in seen:
                        seen.add(st)
                        todo.append(st)
                # the surface's bound: k len(states) divides P n, with P the
                # order of the generator's permutation and n the squares
                h, v, _ = key
                bound = order(h if gen == "T" else v) * len(h)
                moves = [walker.cache.transition(st, gen) for st in states]
                for half, name in ((0, "plus"), (1, "minus")):
                    part = walker.cache.cycle(key, gen, half)
                    assert part.states == states
                    k = len(part.powers)
                    assert bound % (k * len(states)) == 0, (key, gen, k)
                    # the kept products, packed or not, are the exact ones
                    for j, tr in enumerate(moves):
                        want = lattice.matmul(getattr(tr, name), part.cum[j])
                        assert lattice.mat_eq(part.cum[j + 1], want)
                    power = lattice.eye(len(part.nil))
                    for kept_power in part.powers:
                        assert lattice.mat_eq(kept_power, power)
                        power = lattice.matmul(part.cum[-1], power)
                    one = lattice.eye(len(part.nil))
                    assert lattice.mat_eq(part.nil, [[x - y for x, y in zip(rp, ri)]
                                                     for rp, ri in zip(power, one)])
                    for r in range(len(states)):
                        acc = part.cum[r]
                        for q in range(3 * k + 3):
                            # a pencil of any multiple of the period gives
                            # the same products
                            for period in (k, 2 * k, 3 * k):
                                m, s = divmod(q, period)
                                P, Q = part.pencil(r, s, period)
                                got = [[x + m * y for x, y in zip(rp, rq)] for rp, rq in zip(P, Q)]
                                assert lattice.mat_eq(got, acc)
                            acc = lattice.matmul(acc, part.cum[-1])
                    if k > 1:
                        with pytest.raises(ValueError, match="not a multiple"):
                            part.pencil(0, 0, k + 1)

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
            for half in (0, 1):
                walker.cache.cycle(walker.anchor, gen, half)
        assert time.perf_counter() - start < 5.0

        def bits(rows):
            return max((abs(x).bit_length() for row in rows for x in row), default=0)

        for st in map(walker.cache.state, kept("state")):
            sp = st.splitting
            for m in (st.basis.cycles, st.basis.functionals, sp.plus_basis, sp.minus_basis):
                assert bits(m) <= 16

    def test_a_hyperbolic_cycle_raises_within_its_cap(self):
        # with every move diag([[2, 1], [1, 1]], I) the full-cycle product is
        # hyperbolic: no power has (C^k - I)^2 == 0, and the search stops at
        # the surface's cap P n / len(states), in process and with asserts
        # stripped
        code = (
            "import dataclasses\n"
            "from pillowtiled import cocycle, lattice\n"
            "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
            "from tests.reference import order\n"
            "class Hyperbolic(cocycle.StateCache):\n"
            "    def transition(self, key, gen):\n"
            "        tr = super().transition(key, gen)\n"
            "        rest = lattice.eye(len(tr.plus) - 2)\n"
            "        return dataclasses.replace(tr, plus=lattice.block_diag([[2, 1], [1, 1]], rest))\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "cache = Hyperbolic()\n"
            "key = cache.canonical_key(*orientation_double_cover(PillowCover(5, *perms)))\n"
            "h, v, _ = key\n"
            "for gen, p in (('T', h), ('L', v)):\n"
            "    states = cocycle.StateCache().cycle(key, gen, 0).states\n"
            "    cap = order(p) * len(h) // len(states)\n"
            "    try:\n"
            "        cocycle.GenCycle(gen, [cache.transition(st, gen) for st in states], 0)\n"
            "    except ArithmeticError as exc:\n"
            "        if f'k <= {cap} ' not in str(exc):\n"
            "            raise SystemExit(f'{gen}: {exc}')\n"
            "    else:\n"
            "        raise SystemExit(f'{gen}: a hyperbolic cycle was accepted')\n"
            "raise SystemExit(7)\n"
        )
        with pytest.raises(SystemExit) as done:
            exec(code, {})
        assert done.value.code == 7
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr

    def test_a_doubled_target_column_raises_under_dash_o(self):
        # with one column of the target's + basis doubled, the moved + lattice
        # is no longer in its span: the substitution meets a division that
        # is not exact, and the move must be rejected with asserts stripped
        code = (
            "import dataclasses, sys\n"
            "from pillowtiled import cocycle, store\n"
            "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
            "cache = cocycle.StateCache()\n"
            "key = cache.canonical_key(o, iota)\n"
            "target = cache.transition(key, 'T').target\n"
            "if target == key:\n"
            "    raise SystemExit('T fixes the anchor')\n"
            "tgt = cache.state(target)\n"
            "plus = tuple((2 * row[0], *row[1:]) for row in tgt.splitting.plus_basis)\n"
            "tgt.splitting = dataclasses.replace(tgt.splitting, plus_basis=plus)\n"
            "store._forget(store.index[key, 'T'])\n"
            "try:\n"
            "    cache.transition(key, 'T')\n"
            "except ArithmeticError as exc:\n"
            "    if 'invariant lattice' not in str(exc):\n"
            "        raise SystemExit(f'tripped {exc}')\n"
            "    raise SystemExit(7)\n"
            "raise SystemExit('a doubled target column was accepted')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr

    def test_a_corrupted_eigenlattice_column_raises_under_dash_o(self):
        # with an anti-invariant vector added to the first column of the +
        # kernel, the + basis still fills H_1 with the - basis, but the deck
        # involution no longer fixes it; the state build must reject it,
        # with asserts stripped, so that no move is taken from it
        code = (
            "import sys\n"
            "from pillowtiled import cocycle, lattice\n"
            "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "real = lattice.kernel_basis\n"
            "def corrupted(a):\n"
            "    # a == I - 1 for the + kernel, so a + 2 == I + 1 has the - kernel\n"
            "    ker = real(a)\n"
            "    other = real([[x + 2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)])\n"
            "    if ker and other:\n"
            "        ker[0] = [x + y for x, y in zip(ker[0], other[0])]\n"
            "    return ker\n"
            "lattice.kernel_basis = corrupted\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
            "cache = cocycle.StateCache()\n"
            "key = cache.canonical_key(o, iota)\n"
            "try:\n"
            "    cache.state(key)\n"
            "except ArithmeticError as exc:\n"
            "    if 'does not fix the + basis' not in str(exc):\n"
            "        raise SystemExit(f'tripped {exc}')\n"
            "    if key in cache.states:\n"
            "        raise SystemExit('the rejected state was kept')\n"
            "    raise SystemExit(7)\n"
            "raise SystemExit('a corrupted eigenlattice column was accepted')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr

    def test_a_swapped_target_involution_raises_under_dash_o(self):
        # -iota is another involution on the target's H_1, and swapping
        # iota for it swaps the target's + and - bases; the move matrix is
        # still symplectic, so with the target's bases swapped the move
        # must be rejected by its restriction to the invariant lattice,
        # with asserts stripped
        code = (
            "import dataclasses, sys\n"
            "from pillowtiled import cocycle, store\n"
            "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
            "if not sys.flags.optimize:\n"
            "    raise SystemExit('not running under -O')\n"
            "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
            "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
            "cache = cocycle.StateCache()\n"
            "key = cache.canonical_key(o, iota)\n"
            "target = cache.transition(key, 'T').target\n"
            "if target == key:\n"
            "    raise SystemExit('T fixes the anchor')\n"
            "tgt = cache.state(target)\n"
            "sp = tgt.splitting\n"
            "tgt.splitting = dataclasses.replace(sp, plus_basis=sp.minus_basis, minus_basis=sp.plus_basis)\n"
            "store._forget(store.index[key, 'T'])\n"
            "try:\n"
            "    cache.transition(key, 'T')\n"
            "except ArithmeticError as exc:\n"
            "    if 'invariant lattice' not in str(exc):\n"
            "        raise SystemExit(f'tripped {exc}')\n"
            "    raise SystemExit(7)\n"
            "raise SystemExit('a swapped target involution was accepted')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 7, proc.stderr


class TestSharedStateCache:
    """The one state cache that every walker in the process draws from."""

    @staticmethod
    def spy_builds(monkeypatch):
        """Record the key of every StateData built from now on."""
        built = []
        real = cocycle.StateData

        class Spy(real):
            def __init__(self, origami, iota):
                built.append((origami.h, origami.v, iota))
                super().__init__(origami, iota)

        monkeypatch.setattr(cocycle, "StateData", Spy)
        return built

    @staticmethod
    def spy_cycles(monkeypatch):
        """Record the (anchor, gen, half) of every half-cycle built from now on."""
        built = []

        class Spy(cocycle.GenCycle):
            __slots__ = ()

            def __init__(self, gen, moves, half):
                super().__init__(gen, moves, half)
                built.append((self.states[0], gen, half))

        monkeypatch.setattr(cocycle, "GenCycle", Spy)
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

    def test_trimmed_to_budget_during_a_walk(self, monkeypatch):
        # the store trims whenever it keeps, so a walk that outgrows the
        # budget drops its own least recently used half-cycles and pencils
        # and builds them again when it comes back to them, with a cold
        # run's output; a unit is kept once per build, so a key kept twice
        # is a unit dropped and built again
        lines = [cyclic_pillow(5, (1, 2, 2, 5)), cyclic_pillow(6, (1, 1, 5, 5))]
        cold, kept_bytes = [], []
        for cover in lines:
            store.clear()
            cold.append(_run_seeds(cover, 800, (1, 2)))
            kept_bytes.append(store.nbytes)
        store.clear()
        # two thirds of what the lighter walk keeps at the default budget,
        # so that either walk outgrows it
        budget = 2 * min(kept_bytes) // 3
        monkeypatch.setattr(store, "BUDGET", budget)
        real, held, built = store.keep, [], []

        def spy(keys, value, nbytes):
            real(keys, value, nbytes)
            held.append(store.nbytes)
            if keys[0][0] in ("cycle", "pencil"):
                built.append(keys[0])

        monkeypatch.setattr(store, "keep", spy)
        rebuilt = []
        for cover, want in zip(lines, cold):
            del built[:]
            assert _run_seeds(cover, 800, (1, 2)) == want
            rebuilt.append(len(built) - len(set(built)))
        assert held and max(held) <= budget
        # some walk built a half-cycle or pencil again that it had built itself
        assert max(rebuilt) > 0, rebuilt

    # 8 1 3 5 7 walks 6 states, and its two seeds keep 1,524,736 bytes at
    # the default budget; 1,000,000 bytes is below that, as the 64 MiB
    # budget was below the 110 MiB that lyapunov 48 1 23 25 47 kept with
    # its cycle products as rows.  The walk drops 14 units there and
    # builds each state and half-cycle once, the same counts on every run
    def test_a_walk_past_the_budget_builds_each_state_once(self, monkeypatch):
        monkeypatch.setattr(store, "BUDGET", 1_000_000)
        built = self.spy_builds(monkeypatch)
        cycles = self.spy_cycles(monkeypatch)
        _run_seeds(CyclicCoverSpec(8, (1, 3, 5, 7)), 200, (1, 2))
        assert len(built) == len(set(built)) == 6, len(built)
        assert len(cycles) == len(set(cycles)) == 24, len(cycles)

    # at 900,000 bytes the walk drops 43 units and builds 8 states for 6:
    # the store drops the two half-cycles of one (state, gen) that the walk
    # has left for a while, with the states and moves they were built from,
    # and the walk builds all of them again (36 states and 134 drops while
    # a generator cycle kept its pencils and re-weighed itself)
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 28: a walk further past the byte budget still "
                              "rebuilds its states, 8 for 6")
    def test_a_walk_further_past_the_budget_builds_each_state_once(self, monkeypatch):
        monkeypatch.setattr(store, "BUDGET", 900_000)
        built = self.spy_builds(monkeypatch)
        _run_seeds(CyclicCoverSpec(8, (1, 3, 5, 7)), 200, (1, 2))
        assert len(built) <= 6, len(built)

    def test_the_documented_n48_line_fits_the_budget(self, monkeypatch):
        # lyapunov 48 1 23 25 47 --steps 200 --seeds 1,2,3 walks 6 states
        # and 12 generator cycles, 24 half-cycles; with its products as rows
        # of Python ints it outgrew the default budget and built 94 states
        # and 163 cycles in about 50 s, against about 4 s once packed.  It
        # keeps about 63.7 MiB, at the budget's edge, and builds each state
        # and half-cycle once
        assert store.BUDGET == 1 << 26
        built = self.spy_builds(monkeypatch)
        cycles = self.spy_cycles(monkeypatch)
        start = time.perf_counter()
        _run_seeds(CyclicCoverSpec(48, (1, 23, 25, 47)), 200, (1, 2, 3))
        elapsed = time.perf_counter() - start
        assert len(built) == 6 and len(set(built)) == 6, len(built)
        assert len(cycles) == len(set(cycles)) == 24, len(cycles)
        assert elapsed < 60.0, elapsed

    def test_the_next_line_past_the_budget_builds_each_state_about_once(self, tmp_path, monkeypatch):
        # lyapunov 56 1 27 29 55 --steps 200 --seeds 1,2,3 walks 6 states
        # and 24 half-cycles, more than the default budget holds: it builds
        # 7 states and 30 half-cycles in about 7 s.  While a generator cycle
        # kept its pencils and re-weighed itself, each drop of one let its
        # states go, and the line built 95 states in 78 to 91 s.  The digest
        # is that walk's output
        assert store.BUDGET == 1 << 26
        built = self.spy_builds(monkeypatch)
        cycles = self.spy_cycles(monkeypatch)
        src, out = tmp_path / "in.txt", tmp_path / "out.json"
        src.write_text("56 1 27 29 55\n")
        start = time.perf_counter()
        assert cli.run(cli.RunConfig("lyapunov", str(src), steps=200, seeds=(1, 2, 3), out=str(out))) == 0
        elapsed = time.perf_counter() - start
        assert hashlib.sha256(out.read_bytes()).hexdigest() == N56_LYAPUNOV_SHA256
        assert len(built) <= 7 and len(set(built)) == 6, len(built)
        assert len(cycles) <= 30 and len(set(cycles)) == 24, len(cycles)
        assert elapsed < 60.0, elapsed

    def test_trim_keeps_the_states_a_later_line_reused(self, monkeypatch):
        # A is run, then B, then A again, then C; A's second run uses its
        # anchor and cycles after B was built, so when C's units make room
        # they drop the least recently used ones, B's and A's stale states
        # and moves, and A's third run builds nothing
        A = cyclic_pillow(5, (1, 2, 2, 5))
        B = cyclic_pillow(4, (1, 1, 1, 1))
        C = cyclic_pillow(3, (1, 1, 1, 3))
        cold = {}
        for cover in (A, B, C):
            store.clear()
            cold[cover] = _run_seeds(cover, 600, (1, 2, 3))
        store.clear()
        built = self.spy_builds(monkeypatch)
        for cover in (A, B, A):
            assert _run_seeds(cover, 600, (1, 2, 3)) == cold[cover]
        order = list(store._units)
        # the budget holds A and B, and no more
        monkeypatch.setattr(store, "BUDGET", store.nbytes)
        del built[:]
        assert _run_seeds(C, 600, (1, 2, 3)) == cold[C]
        assert len(built) == 1
        dropped = set(order) - set(store._units)
        assert dropped and dropped == set(order[:len(dropped)])
        del built[:]
        assert _run_seeds(A, 600, (1, 2, 3)) == cold[A]
        assert built == []

    def test_a_later_line_builds_no_cycle(self, monkeypatch):
        # the half-cycles are functions of (state, generator, half), kept in
        # the shared cache: an H1+ line builds the plus halves, a full line
        # on a relabelling adds the minus halves alone, and a third line
        # builds nothing; no line's output depends on the lines before it
        powers, real = [], lattice.quasi_unipotent_powers

        def counted(c, cap):
            powers.append(len(c))
            return real(c, cap)

        monkeypatch.setattr(lattice, "quasi_unipotent_powers", counted)
        cover, relabelled = cyclic_pillow(5, (1, 2, 2, 5)), cyclic_pillow(5, (2, 4, 4, 5))
        seeds = (1, 2, 3)
        plus = _run_seeds(cover, 600, seeds, with_minus=False)
        cycles = set(kept("cycle"))
        assert cycles and len(powers) == len(cycles)
        assert {half for *_, half in cycles} == {0}
        del powers[:]
        full = _run_seeds(relabelled, 600, seeds)
        assert len(powers) == len(cycles)
        assert set(kept("cycle")) == cycles | {(*c[:3], 1) for c in cycles}
        del powers[:]
        assert _run_seeds(cover, 600, seeds) == full
        assert _run_seeds(relabelled, 600, seeds, with_minus=False) == plus
        assert powers == []
        store.clear()
        assert _run_seeds(cover, 600, seeds) == full
        store.clear()
        assert _run_seeds(cover, 600, seeds, with_minus=False) == plus

    def test_each_unit_weighs_its_matrices(self):
        cache = StateCache()
        o, iota = orientation_double_cover(cyclic_pillow(8, (1, 3, 5, 7)))
        key = cache.canonical_key(o, iota)
        for gen in ["T", "L", "T", "L", "T"]:
            cyc = cache.cycle(key, gen, 0)
            key = cyc.states[-1]

        def entries(*mats):
            return sum(len(row) for m in mats for row in m)

        def products(part):
            # every product of this line fits in int64, so each is packed
            mats = [*part.cum, *part.powers, part.nil]
            assert all(isinstance(m, np.ndarray) and m.dtype == np.int64 for m in mats)
            return sum(m.nbytes + cocycle._ARRAY for m in mats)

        # a state and a move weigh 16 bytes per exact matrix entry, besides
        # the store's bookkeeping; a state keeps no matrix of its deck
        # involution, the r x r involution_on_homology, which is checked on
        # the eigenlattices and dropped
        for k in kept("state"):
            b, sp = cache.state(k).basis, cache.state(k).splitting
            r = len(involution_on_homology(b, k[2]))
            assert r == b.rank == sp.dim_plus + sp.dim_minus
            assert own_weight(k) == 16 * entries(
                b.cycles, b.functionals, b.cup, sp.plus_basis, sp.minus_basis)
            assert own_weight(k) == 16 * (2 * 2 * len(k[0]) * r + r * r + r * r)
        for k in kept("move"):
            tr = cache.transition(*k)
            assert own_weight(k) == 16 * entries(tr.plus, tr.minus)
        # a half-cycle weighs its exact products, each packed one its bytes
        # and a fixed overhead, and a pencil p.nbytes + q.nbytes, H1+ alone
        # or diag(H1+, H1-) with its zero blocks; each unit is weighed once,
        # when kept, and no pencil re-weighs the cycles it is built from
        anchor, a = cyc.states[0], 5 * len(cyc.states) + 1
        unit = ("cycle", anchor, "T", 0)
        n = len(cyc.nil)
        assert own_weight(unit) == products(cyc)
        cache.digit(anchor, "T", a, False)
        assert own_weight(("pencil", anchor, "T", False, 1, 5 % len(cyc.powers))) == 2 * 8 * n * n
        minus = cache.cycle(anchor, "T", 1)
        assert own_weight(("cycle", anchor, "T", 1)) == products(minus)
        k = math.lcm(len(cyc.powers), len(minus.powers))
        cache.digit(anchor, "T", a, True)
        n += len(minus.nil)
        assert own_weight(("pencil", anchor, "T", True, 1, 5 % k)) == 2 * 8 * n * n
        assert own_weight(unit) == products(cyc)
        assert len(kept("cycle")) == 6 and len(kept("pencil")) == 2
        assert store.nbytes == sum(unit.nbytes for unit in store._units)
        # on 5 1 2 2 5 the H1+ cycle products have finite order: a pencil
        # there has Q == 0 and weighs its p alone
        o, iota = orientation_double_cover(cyclic_pillow(5, (1, 2, 2, 5)))
        key = cache.canonical_key(o, iota)
        cyc = cache.cycle(key, "T", 0)
        pencil, _, _ = cache.digit(key, "T", 5 * len(cyc.states) + 1, False)
        n = len(cyc.nil)
        assert pencil.q is None and own_weight(kept("pencil")[-1]) == 8 * n * n
        assert store.nbytes == sum(unit.nbytes for unit in store._units)

    def test_a_lookup_marks_the_state_used(self):
        cache = StateCache()
        o, iota = orientation_double_cover(cyclic_pillow(8, (1, 3, 5, 7)))
        cur = cache.canonical_key(o, iota)
        moves = []
        for gen in ["T", "L", "T", "S"]:
            moves.append((cur, gen))
            cur = cache.transition(cur, gen).target

        def newest():
            return next(reversed(store._units)).keys[0]

        # a cached move makes itself the most recently used unit ...
        for src, gen in moves:
            cache.transition(src, gen)
            assert newest() == (src, gen)
        # ... and so does a state lookup
        for key in kept("state"):
            cache.state(key)
            assert newest() == key

    def test_trim_drops_the_least_recently_used_units(self, monkeypatch):
        cache = StateCache()
        o, iota = orientation_double_cover(cyclic_pillow(8, (1, 3, 5, 7)))
        cur = cache.canonical_key(o, iota)
        moves = {}
        for gen in ["T", "L", "T", "S", "L", "T", "L"]:
            moves[cur, gen] = cache.transition(cur, gen)
            cur = moves[cur, gen].target
        order = list(store._units)
        assert len(kept("state")) >= 3
        # a budget of the three newest units and one more of no weight, which
        # weighs its bookkeeping alone: the next keep drops the rest
        monkeypatch.setattr(store, "BUDGET", sum(unit.nbytes for unit in order[-3:]) + bookkeeping(1))
        store.keep(("a unit of no weight",), None, 0)
        assert list(store._units)[:-1] == order[-3:]
        assert store.nbytes == store.BUDGET
        # a move into a dropped state still holds the right matrices, and
        # dropped moves are rebuilt equal
        monkeypatch.undo()
        for (src, gen), tr in moves.items():
            assert cache.transition(src, gen) == tr

    def test_interrupted_builds_leave_no_entry(self, monkeypatch):
        class Cut(Exception):
            pass

        def cut(*args):
            raise Cut

        cover = cyclic_pillow(5, (1, 2, 2, 5))
        walker = _Walker(cover)
        cache, key = walker.cache, walker.anchor
        # a state build cut off after its homology basis
        forget(key)
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
        # a half-cycle build cut off between two of its moves, and a pencil
        # build cut off between its two halves, each with every unit it
        # reads already kept: neither leaves a unit behind
        plus, minus = (cache.cycle(key, "T", half) for half in (0, 1))
        assert len(plus.states) > 1
        forget(("cycle", key, "T", 1))
        units = set(store.index)
        real_transition, moves = cache.transition, []

        def cut_transition(*args):
            moves.append(args)
            if len(moves) == 2:
                raise Cut
            return real_transition(*args)

        with monkeypatch.context() as m:
            m.setattr(cache, "transition", cut_transition)
            with pytest.raises(Cut):
                cache.cycle(key, "T", 1)
        assert set(store.index) == units
        minus = cache.cycle(key, "T", 1)
        units = set(store.index)
        real_pencil, halves = cocycle.GenCycle.pencil, []

        def cut_pencil(*args):
            halves.append(args)
            if len(halves) == 2:
                raise Cut
            return real_pencil(*args)

        with monkeypatch.context() as m:
            m.setattr(cocycle.GenCycle, "pencil", cut_pencil)
            with pytest.raises(Cut):
                cache.digit(key, "T", 1, True)
        assert set(store.index) == units
        # every kept state is the state its key gives
        for k in kept("state"):
            fresh = cocycle.StateData(Origami(len(k[0]), k[0], k[1], allow_disconnected=True), k[2])
            st = cache.state(k)
            assert (st.basis, st.splitting) == (fresh.basis, fresh.splitting)
        warm = run_monte_carlo(cover, 600, 1)
        store.clear()
        assert run_monte_carlo(cover, 600, 1) == warm


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
        # the seeds' flush counts differ, so the stacked rounds shrink
        # (TestOneFrame); repr round-trips every float and tells -0.0 from 0.0
        cover = cyclic_pillow(5, (1, 2, 2, 5))
        seeds = TestOneFrame.SEEDS
        independent = tuple(run_monte_carlo(cover, 3000, s) for s in seeds)
        assert repr(_run_seeds(cover, 3000, seeds)) == repr(independent)
        walker = _Walker(cover)
        shared = tuple(_estimate(walker, 3000, (s,))[0] for s in seeds)
        assert repr(shared) == repr(independent)

    @pytest.mark.parametrize("draw", [0.0, 2.0**-53], ids=["0", "2^-53"])
    def test_a_zero_draw_takes_the_capped_digit(self, monkeypatch, draw):
        # 2 ** u - 1 rounds to 0.0 for these draws u, where 1 / x has no
        # digit; like a digit past the cap, it is capped and forces a fresh
        # draw on the next digit
        assert 2.0**draw - 1.0 == 0.0
        first = [True]

        class ZeroFirst(np.random.Generator):
            def random(self, *args, **kwargs):
                if first[0]:
                    first[0] = False
                    return draw
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", ZeroFirst)
        walker = _Walker(cyclic_pillow(5, (1, 2, 2, 5)))
        real, digits = walker.digit, []

        def digit(key, gen, a):
            digits.append(a)
            return real(key, gen, a)

        walker.digit = digit
        (est,) = _estimate(walker, 100, (1,))
        assert digits[0] == lyapunov._DIGIT_CAP and len(digits) == 100
        assert max(digits[1:]) < lyapunov._DIGIT_CAP
        assert math.isfinite(est.taut_time) and all(map(math.isfinite, est.lambda_plus))

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

    def test_a_short_run_warns_of_its_bootstrap_error(self):
        # 20 digits on 6 1 1 5 5 leave error bars above 0.1 (the largest
        # near 0.15), and the estimate says so
        est = run_monte_carlo(cyclic_pillow(6, (1, 1, 5, 5)), 20, 1)
        assert max(est.stderr_plus + est.stderr_minus) > 0.1
        assert "bootstrap error above 0.1; increase steps" in est.warnings

    @pytest.mark.parametrize("seed", [1, 2, 0x5EED])
    @pytest.mark.parametrize("mp, cols", [(3, 8), (1, 2), (3, 4), (1, 5)])
    def test_bootstrap_block_sums_keep_their_bits(self, seed, mp, cols):
        # _summary sums each resample's blocks as dl[idx.T].sum(axis=0),
        # the additions of dl[idx].sum(axis=1) in its order: the error bars
        # keep their bits for every block count, on both halves' columns,
        # a half of one column (dim H1+ = 2, as on 3 1 1 1 3) among them,
        # where numpy sums pairwise
        rng = np.random.Generator(np.random.PCG64(seed))
        for m in range(1, 65):
            dl = rng.standard_normal((m, cols)) * 10.0 ** rng.integers(-6, 7, size=(m, cols))
            dt = rng.uniform(0.5, 2.0, m)
            rows = [(dl[i], dt[i], 100) for i in range(m)]
            est = lyapunov._summary(dl.sum(axis=0), mp, rows, float(dt.sum()), 100 * m, seed)
            brng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xB5))))
            idx = brng.integers(0, m, size=(lyapunov._BOOTSTRAP_RESAMPLES, m))
            denom = np.maximum(dt[idx].sum(axis=1), 1e-9)[:, None]
            for half, err in ((dl[:, :mp], est.stderr_plus), (dl[:, mp:], est.stderr_minus)):
                assert half[idx.T].sum(axis=0).tobytes() == half[idx].sum(axis=1).tobytes()
                old = (half[idx].sum(axis=1) / denom).std(axis=0, ddof=1)
                assert err == tuple(float(e) for e in old), m

    def test_the_square_cap_is_checked_before_the_double_cover(self, monkeypatch):
        # four double-cover squares per sheet: degree 128 reaches the double
        # cover, degree 129 is refused before it
        class Reached(Exception):
            pass

        def reached(cover):
            raise Reached

        monkeypatch.setattr(lyapunov, "orientation_double_cover", reached)
        with pytest.raises(Reached):
            _Walker(cyclic_pillow(128, (1, 63, 65, 127)))
        with pytest.raises(SizeCapExceeded, match="516 squares is past the Monte-Carlo cap of 512"):
            _Walker(cyclic_pillow(129, (1, 63, 65, 129)))

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
    ``keep_frames`` is false, recording a copy of each stack of frames it
    is given, as the benchmark tracer wraps it."""

    def __init__(self, keep_frames=True):
        self.calls = 0
        self.frames = []
        self.keep_frames = keep_frames
        self.linalg = SimpleNamespace(qr=self.qr)

    def qr(self, F, mode="reduced"):
        self.calls += 1
        if self.keep_frames:
            self.frames.append(F.copy())
        return np.linalg.qr(F, mode)

    def __getattr__(self, name):
        return getattr(np, name)


ONE_FRAME_LINES = [(5, (1, 2, 2, 5)), (6, (1, 1, 5, 5)), (12, (1, 5, 7, 11))]
ONE_FRAME_IDS = ["5-1-2-2-5", "6-1-1-5-5", "12-1-5-7-11"]


class TestOneFrame:
    """One frame diag(F+, F-) on H1+ (+) H1- per seed, one stacked QR per
    flush round of a line's seeds."""

    # seed 3 twice, and seeds whose flush counts differ at 3000 steps
    SEEDS = (3, 1, 2, 3, 7)

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_one_stacked_qr_per_flush_round(self, monkeypatch, N, a):
        cover = cyclic_pillow(N, a)
        counting = CountingNumPy()
        monkeypatch.setattr(lyapunov, "np", counting)
        alone = []
        for seed in self.SEEDS:
            del counting.frames[:]
            est = run_monte_carlo(cover, 3000, seed)
            alone.append(counting.frames[:])
            # the first QR orthonormalizes the initial frame; every other one
            # is a flush, at each of the 20 block ends and after each 12 nats
            assert 21 <= len(alone[-1]) <= 21 + est.taut_time / lyapunov._RENORM_NATS
            assert all(F.shape[0] == 1 for F in alone[-1])
        rounds = max(map(len, alone))
        assert len({len(frames) for frames in alone}) > 1  # some rounds shrink
        del counting.frames[:]
        walker = _Walker(cover)
        dp, dm = walker.dim_plus, walker.dim_minus
        mp, mm = dp // 2, dm // 2
        _estimate(walker, 3000, self.SEEDS)
        # QR r stacks the frames of exactly the seeds with an r-th QR of
        # their own, in seed order, each equal to that seed's frame alone
        assert len(counting.frames) == rounds
        for r, F in enumerate(counting.frames):
            want = [frames[r] for frames in alone if len(frames) > r]
            assert F.tobytes() == np.concatenate(want).tobytes()
            assert F.shape == (len(want), dp + dm, mp + mm)
            # a QR leaves round-off in the off-diagonal blocks of Q; zeroed
            # after every flush, they stay exact zeros under the digits
            assert not F[:, :dp, mp:].any() and not F[:, dp:, :mp].any()
        counting.calls = 0
        monkeypatch.setattr(lyapunov, "_RENORM_NATS", -math.inf)  # flush every digit
        _estimate(walker, 300, self.SEEDS)
        assert counting.calls == 300 + 1

    def test_no_formed_digit_array_lives_to_a_qr(self, monkeypatch):
        # each walk applies a digit's matrix to its own frame as it goes; a
        # digit whose multiplier is not 0 forms its array afresh, and no
        # such array is still held when its flush round's QR runs
        walker = _Walker(cyclic_pillow(12, (1, 5, 7, 11)))
        real, formed, rounds = walker.digit, [], []

        def digit(state, gen, a):
            M, target = real(state, gen, a)
            pencil, m, _ = walker._memo[state, gen, a]
            if M is not pencil.p:
                formed.append(weakref.ref(M))
            return M, target

        class Rounds(CountingNumPy):
            def qr(self, F, mode="reduced"):
                alive = sum(ref() is not None for ref in formed)
                assert alive == 0, (len(rounds), alive)
                rounds.append(len(formed))
                del formed[:]
                return super().qr(F, mode)

        walker.digit = digit
        monkeypatch.setattr(lyapunov, "np", Rounds(keep_frames=False))
        _estimate(walker, 4000, self.SEEDS)
        assert len(rounds) > 21 and max(rounds) > len(self.SEEDS)

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_orthonormalize_gives_the_bits_of_numpy_qr(self, monkeypatch, N, a):
        # on the stacked block-diagonal frames a line really flushes, Q and
        # log|diag R| are those of np.linalg.qr, bit for bit
        counting = CountingNumPy()
        monkeypatch.setattr(lyapunov, "np", counting)
        walker = _Walker(cyclic_pillow(N, a))
        dp = walker.dim_plus
        _estimate(walker, 600, self.SEEDS)
        frames, counting.keep_frames = counting.frames, False
        assert len(frames) > 21
        for F in frames:
            Q, growth = lyapunov._orthonormalize(F.copy(), dp, dp // 2)
            want_Q, want_R = np.linalg.qr(F)
            want_Q[..., :dp, dp // 2:] = 0.0
            want_Q[..., dp:, :dp // 2] = 0.0
            assert Q.tobytes() == want_Q.tobytes()
            want = np.log(np.abs(np.diagonal(want_R, axis1=1, axis2=2)))
            assert growth.tobytes() == want.tobytes()

    def test_a_frame_that_is_not_finite_raises(self):
        rng = np.random.default_rng(11)
        F = np.zeros((2, 6, 3))
        F[:, :4, :2] = rng.standard_normal((2, 4, 2))
        F[:, 4:, 2:] = rng.standard_normal((2, 2, 1))
        lyapunov._orthonormalize(F, 4, 2)
        # a NaN strictly above the diagonal of an upper triangular frame is
        # in no Householder step; the raw factor still holds it
        upper = np.triu(F[:1, :3, :])
        upper[0, 0, 2] = np.nan
        for bad, where in [(np.nan, (1, 5, 2)), (np.inf, (0, 0, 0)), (-np.inf, (1, 2, 1))]:
            G = F.copy()
            G[where] = bad
            with pytest.raises(FloatingPointError, match="not finite"):
                lyapunov._orthonormalize(G, 4, 2)
        with pytest.raises(FloatingPointError, match="not finite"):
            lyapunov._orthonormalize(upper, 3, 3)

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

    @pytest.mark.parametrize("tier", ["float64", "int64", "python-ints"])
    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_digit_blocks_round_the_exact_products(self, monkeypatch, N, a, tier):
        # guards at 0 send every multiply-add past them (see lattice)
        if tier != "float64":
            monkeypatch.setattr(lattice, "_FLOAT_EXACT", 0)
        if tier == "python-ints":
            monkeypatch.setattr(lattice, "_INT64_SAFE", 0)
        walker = _Walker(cyclic_pillow(N, a))
        dp, n = walker.dim_plus, walker.dim_plus + walker.dim_minus
        rng = np.random.default_rng(N)
        state = 0
        for gen in ["T", "L", "T", "L"]:
            halves = [walker.cache.cycle(walker._keys[state], gen, half) for half in (0, 1)]
            k = len(halves[0].states)
            for power in [1, k - 1, k, 3 * k + 1, int(rng.integers(1, 10**6)), 10**12]:
                M, target = walker.digit(state, gen, power)
                q, r = divmod(power, k)
                assert walker._keys[target] == halves[0].states[r]
                plus = np.array(exact_power(halves[0], r, q), dtype=float).reshape(dp, dp)
                minus = np.array(exact_power(halves[1], r, q), dtype=float).reshape(n - dp, n - dp)
                assert M.shape == (n, n)
                assert M[:dp, :dp].tobytes() == plus.tobytes()
                assert M[dp:, dp:].tobytes() == minus.tobytes()
                assert not M[:dp, dp:].any() and not M[dp:, :dp].any()
            state = walker.digit(state, gen, int(rng.integers(1, 4)))[1]  # on to another state

    def test_the_memo_holds_references_only(self):
        walker = _Walker(cyclic_pillow(5, (1, 2, 2, 5)))
        cycles = tuple(walker.cache.cycle(walker.anchor, "T", half) for half in (0, 1))
        # a digit of multiplier 0 is its pencil's own read-only array, the
        # one the store keeps; the miss asked the store for the digit's
        # half-cycles and pencil, which are now its most recently used units
        short = len(cycles[0].states) - 1
        M, target = walker.digit(0, "T", short)
        pencil, m, kept = walker._memo[0, "T", short]
        assert m == 0 and M is pencil.p and kept == target
        assert [unit.keys[0] for unit in list(store._units)[-3:]] == [
            ("cycle", walker.anchor, "T", 0), ("cycle", walker.anchor, "T", 1),
            ("pencil", walker.anchor, "T", True, short, 0)]
        assert walker.cache.digit(walker.anchor, "T", short, True)[0] is pencil
        assert walker._keys[target] == cycles[0].states[short]
        # one of multiplier > 0 is formed afresh at each sighting, equal
        first, after = walker.digit(0, "T", 10**12)
        second, again = walker.digit(0, "T", 10**12)
        pencil, m, kept = walker._memo[0, "T", 10**12]
        assert m > 0 and first is not second and pencil.p is not first
        assert again == after == kept and second.tobytes() == first.tobytes()
        # the memo holds the pencils, multipliers and states: no array of
        # its own
        assert len(walker._memo) == 2
        assert all(isinstance(p, lattice.Pencil) and type(m) is int and type(t) is int
                   for p, m, t in walker._memo.values())

    @pytest.mark.parametrize("N, a", ONE_FRAME_LINES, ids=ONE_FRAME_IDS)
    def test_estimates_do_not_depend_on_the_memo(self, N, a):
        class NoMemo(dict):
            def __setitem__(self, key, value):
                pass

        cover = cyclic_pillow(N, a)
        walker = _Walker(cover)
        memo = _estimate(walker, 3000, (1, 2))
        assert walker._memo  # the memo did serve this run
        walker = _Walker(cover)
        walker._memo = NoMemo()
        assert _estimate(walker, 3000, (1, 2)) == memo
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
            _estimate(walker, 100, (1,))
            dp, dm = walker.dim_plus, walker.dim_minus
            assert draws == [(dp, dp // 2), (dm, dm // 2), 2], scope

    def test_genus_zero_line_builds_its_anchor_and_walks_no_frame(self, monkeypatch):
        cover = SCOPE_LINES["3-1-2-3-3"]
        built, moves = [], []
        real_data, real_transition = cocycle.StateData, StateCache.transition

        class Spy(real_data):
            def __init__(self, origami, iota):
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
        assert cert.verdict == "PASS" and cert.channels[0].evidence == 0.0
        assert all(e.lambda_plus == () and len(e.block_slopes) == 20 for e in cert.estimates)

    @pytest.mark.parametrize("name", ["5-1-2-2-5", "3-1-2-3-3"])
    def test_shared_plus_only_walker_matches_independent_runs(self, name):
        cover = SCOPE_LINES[name]
        seeds = TestOneFrame.SEEDS
        independent = tuple(
            _estimate(_Walker(cover, with_minus=False), 3000, (s,))[0]
            for s in seeds)
        assert repr(_run_seeds(cover, 3000, seeds, with_minus=False)) == repr(independent)
        walker = _Walker(cover, with_minus=False)
        shared = tuple(_estimate(walker, 3000, (s,))[0] for s in seeds)
        assert repr(shared) == repr(independent)


# the work of a cold certify and a cold lyapunov line through the CLI: the
# Monte-Carlo twin of tests/test_orbit.py::test_exact_channel_work_is_unchanged.
# The counts are equal on every host, so added work fails here where a
# timing could not tell; say why in CHANGES.md whenever they change
MONTE_CARLO_LINES = {
    "certify 5 1 2 2 5": ("certify", "5 1 2 2 5", (1, 2, 3)),
    "lyapunov 6 1 1 5 5": ("lyapunov", "6 1 1 5 5", (1, 2)),
}
MONTE_CARLO_WORK = {
    "certify 5 1 2 2 5": {"states": 3, "transitions": 6, "cycles": 6, "pencils": 60,
                          "digit_arrays": 0, "qr": 31},
    "lyapunov 6 1 1 5 5": {"states": 3, "transitions": 6, "cycles": 12, "pencils": 20,
                           "digit_arrays": 201, "qr": 28},
}


def test_monte_carlo_work_is_unchanged(tmp_path, monkeypatch):
    work = {}

    class States(cocycle.StateData):
        def __init__(self, *args):
            work["states"] += 1
            super().__init__(*args)

    class Cycles(cocycle.GenCycle):
        __slots__ = ()

        def __init__(self, *args):
            work["cycles"] += 1
            super().__init__(*args)

    class Pencils(lattice.Pencil):
        __slots__ = ()

        def __init__(self, *args):
            work["pencils"] += 1
            super().__init__(*args)

        def at(self, m):
            M = super().at(m)
            work["digit_arrays"] += M is not self.p
            return M

    move_matrix = cocycle._move_matrix

    def transitions(*args):
        work["transitions"] += 1
        return move_matrix(*args)

    counting = CountingNumPy(keep_frames=False)
    monkeypatch.setattr(cocycle, "StateData", States)
    monkeypatch.setattr(cocycle, "GenCycle", Cycles)
    monkeypatch.setattr(lattice, "Pencil", Pencils)
    monkeypatch.setattr(cocycle, "_move_matrix", transitions)
    monkeypatch.setattr(lyapunov, "np", counting)
    found = {}
    for name, (command, line, seeds) in MONTE_CARLO_LINES.items():
        store.clear()
        work.update(dict.fromkeys(("states", "transitions", "cycles", "pencils", "digit_arrays"), 0))
        counting.calls = 0
        src, out = tmp_path / f"{command}.txt", tmp_path / f"{command}.json"
        src.write_text(line + "\n")
        assert cli.run(cli.RunConfig(command, str(src), steps=200, seeds=seeds, out=str(out))) == 0
        found[name] = {**work, "qr": counting.calls}
    assert found == MONTE_CARLO_WORK


def test_output_does_not_depend_on_the_float_guard(tmp_path, monkeypatch):
    # with the 2**53 guard at 0 every digit of multiplier > 0 runs exactly
    # and is rounded once; below the guard the doubles give the same bits
    outputs = []
    for guard in (lattice._FLOAT_EXACT, 0):
        monkeypatch.setattr(lattice, "_FLOAT_EXACT", guard)
        for command, line in [("lyapunov", "6 1 1 5 5"), ("certify", "12 1 5 7 11")]:
            store.clear()
            src, out = tmp_path / "in.txt", tmp_path / f"{command}-{guard}.json"
            src.write_text(line + "\n")
            assert cli.run(cli.RunConfig(command, str(src), steps=600, seeds=(1, 2, 3),
                                         out=str(out))) == 0
            outputs.append(out.read_bytes())
    assert outputs[:2] == outputs[2:]


def test_output_does_not_depend_on_the_budget(tmp_path, monkeypatch):
    # at a budget of 0 bytes every unit the caches keep is let go at once,
    # so every orbit, report, state, move, cycle and pencil is built again
    # whenever it is asked for; the bytes are the default budget's, cold
    # and in a second run in the same process
    batches = [("certify", ["5 1 2 2 5", "12 1 5 7 11"]), ("lyapunov", ["6 1 1 5 5"]),
               ("ekz", _ekz_lines(5)),
               ("orbit", [line for line in _orbit_lines() if line.count(";") == 4])]

    def run(name):
        outputs = []
        for command, lines in batches:
            src, out = tmp_path / f"{command}.txt", tmp_path / f"{command}-{name}.json"
            src.write_text("\n".join(lines) + "\n")
            rc = cli.run(cli.RunConfig(command, str(src), steps=20, seeds=(1, 2, 3), out=str(out)))
            outputs.append((rc, out.read_bytes()))
        return outputs

    runs = []
    for budget in (store.BUDGET, 0):
        monkeypatch.setattr(store, "BUDGET", budget)
        store.clear()
        runs += [run(f"{budget}-cold"), run(f"{budget}-warm")]
    assert store.nbytes == 0 and store.dropped > 0
    assert all(outputs == runs[0] for outputs in runs[1:])


class TestCertify:
    def test_family_member_passes(self):
        cert = certify_degenerate(cyclic_pillow(5, (1, 2, 2, 5)), 0.02, steps=4000)
        assert cert.verdict == "PASS"
        assert not cert.contradiction
        assert [(c.name, c.degenerate) for c in cert.channels] == [
            ("monte-carlo", True), ("sum-rule", True)]
        assert cert.channels[1].evidence == 0

    def test_control_fails_consistently(self):
        cert = certify_degenerate(cyclic_pillow(2, (1, 1, 1, 1)), 0.02, steps=4000)
        assert cert.verdict == "FAIL"
        assert not cert.contradiction
        assert [(c.name, c.degenerate) for c in cert.channels] == [
            ("monte-carlo", False), ("sum-rule", False)]
        assert cert.channels[1].evidence == 1

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
