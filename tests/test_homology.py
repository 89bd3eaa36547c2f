"""Homology pipeline checks: exact bases, cup matrix, involution."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pillowtiled import cocycle, homology, lattice
from pillowtiled.homology import (
    _cup_matrix,
    _involution_rows,
    _vertex_classes,
    apply_rows,
    homology_basis,
    involution_on_homology,
    involution_splitting,
    move_rows,
)
from pillowtiled.permsurf import (
    Origami,
    orientation_double_cover,
    origami_stratum,
    random_origami,
    random_pillow_cover,
)
from pillowtiled.permutations import parse_cycles
from tests.reference import (
    apply_generator,
    boundary_matrices,
    chain_map,
    components,
    cup,
    involution_chain_map,
    left_inverse,
    zero_matrix,
)
from tests.test_lattice import _det
from tests.test_permsurf import FIVE, FOUR, TORUS_COVER, cyclic_pillow


def as_lists(rows):
    return [list(r) for r in rows]


def check_tree_cotree_basis(o, hb):
    """Entries in {-1, 0, 1}, rank twice the total genus, and an
    antisymmetric cup matrix K of the functionals with determinant 1, the
    cup taken one pair at a time by the reference formula."""
    B, C, K = as_lists(hb.cycles), as_lists(hb.functionals), as_lists(hb.cup)
    assert {x for row in B + C for x in row} <= {-1, 0, 1}
    # Euler: V - 2d + d == 2 - 2 g on each of the c components
    cs, _ = _vertex_classes(o)
    assert hb.rank == 2 * len(components(o)) - len(cs) + o.d
    r = hb.rank
    assert all(K[i][j] == -K[j][i] for i in range(r) for j in range(r))
    assert K == [[cup(o, a, b) for b in C] for a in C]
    assert _det(K) == 1


def test_boundary_squares_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(15):
        o = random_origami(int(rng.integers(1, 9)), rng)
        d1, d2 = boundary_matrices(o)
        prod = lattice.matmul(d1, d2)
        assert all(all(x == 0 for x in row) for row in prod)


def test_torus_basis():
    o = Origami(1, (0,), (0,))
    hb = homology_basis(o)
    assert hb.rank == 2
    check_tree_cotree_basis(o, hb)
    B, C = as_lists(hb.cycles), as_lists(hb.functionals)
    assert lattice.mat_eq(lattice.matmul(C, B), lattice.eye(2))


def test_l_origami_rank_and_form():
    o = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))
    hb = homology_basis(o)
    assert hb.rank == 4  # genus 2
    check_tree_cotree_basis(o, hb)


def test_rank_is_twice_total_genus():
    rng = np.random.default_rng(9)
    for _ in range(10):
        o = random_origami(int(rng.integers(1, 9)), rng)
        hb = homology_basis(o)
        assert hb.rank == 2 * origami_stratum(o).genus


def test_functionals_are_cocycles_killing_boundaries():
    rng = np.random.default_rng(29)
    for _ in range(10):
        o = random_origami(int(rng.integers(1, 8)), rng)
        hb = homology_basis(o)
        d1, d2 = boundary_matrices(o)
        B, C = as_lists(hb.cycles), as_lists(hb.functionals)
        assert lattice.mat_eq(lattice.matmul(C, B), lattice.eye(hb.rank))
        CB2 = lattice.matmul(C, d2)
        assert all(all(x == 0 for x in row) for row in CB2)
        # the basis cycles really are cycles
        d1B = lattice.matmul(d1, B)
        assert all(all(x == 0 for x in row) for row in d1B)


def test_tree_cotree_basis_on_connected_and_two_component_surfaces():
    rng = np.random.default_rng(41)
    for _ in range(25):
        o = random_origami(int(rng.integers(1, 12)), rng)
        hb = homology_basis(o)
        assert hb.rank == 2 * origami_stratum(o).genus
        check_tree_cotree_basis(o, hb)
    # the orientation double covers of orientable pillow covers fall into two
    # swapped copies: two tori, and two genus-3 surfaces
    for p, rank in ((TORUS_COVER, 4), (FOUR, 12)):
        o, _ = orientation_double_cover(p)
        assert len(components(o)) == 2
        hb = homology_basis(o)
        assert hb.rank == rank
        check_tree_cotree_basis(o, hb)


def test_cup_matrix_matches_the_per_pair_reference():
    # the formula holds for any cochains, cocycles or not
    rng = random.Random(43)
    nprng = np.random.default_rng(47)
    for _ in range(15):
        o = random_origami(int(nprng.integers(1, 10)), nprng)
        alphas = [[rng.randint(-3, 3) for _ in range(2 * o.d)] for _ in range(rng.randint(0, 4))]
        betas = [[rng.randint(-3, 3) for _ in range(2 * o.d)] for _ in range(rng.randint(1, 4))]
        got = _cup_matrix(o, alphas, betas)
        assert got == [[cup(o, a, b) for b in betas] for a in alphas]


def test_cup_pairing_descends():
    """Pairing against any coboundary vanishes, so the intersection numbers
    only depend on cohomology classes."""
    rng = random.Random(4)
    nprng = np.random.default_rng(31)
    for _ in range(10):
        o = random_origami(int(nprng.integers(2, 9)), nprng)
        hb = homology_basis(o)
        cs, cls_of = _vertex_classes(o)
        d = o.d
        for _ in range(5):
            f = [rng.randint(-4, 4) for _ in cs]
            df = [0] * (2 * d)
            for i in range(d):
                df[i] = f[cls_of[o.h[i]]] - f[cls_of[i]]
                df[d + i] = f[cls_of[o.v[i]]] - f[cls_of[i]]
            assert _cup_matrix(o, hb.functionals, [df]) == [[0]] * hb.rank
            assert _cup_matrix(o, [df], hb.functionals) == [[0] * hb.rank]


def test_basis_checks_raise_without_assertions():
    # each corruption keeps the shapes and breaks one check: a sign flipped
    # on a non-loop edge of a cycle leaves it open, one on an edge of a
    # functional that bounds two different faces makes it miss a boundary,
    # and a cycle with its sign flipped is still a cycle but pairs to -1
    # with its own functional
    code = (
        "import sys\n"
        "from pillowtiled import homology\n"
        "from pillowtiled.homology import _vertex_classes\n"
        "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
        "from tests.reference import boundary_matrices\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
        "o, _ = orientation_double_cover(PillowCover(5, *perms))\n"
        "d1, d2 = boundary_matrices(o)\n"
        "B0, C0 = homology._tree_cotree(o, _vertex_classes(o))\n"
        "def flip_cycle_entry(B, C):\n"
        "    e, j = next((e, j) for e, row in enumerate(B) for j, x in enumerate(row)\n"
        "                if x and any(r[e] for r in d1))\n"
        "    B[e][j] = -B[e][j]\n"
        "def flip_functional_entry(B, C):\n"
        "    i, e = next((i, e) for i, row in enumerate(C) for e, x in enumerate(row)\n"
        "                if x and any(d2[e]))\n"
        "    C[i][e] = -C[i][e]\n"
        "def flip_cycle(B, C):\n"
        "    for row in B:\n"
        "        row[0] = -row[0]\n"
        "for corrupt, check in ((flip_cycle_entry, 'd1 @ B'),\n"
        "                       (flip_functional_entry, 'C @ d2'),\n"
        "                       (flip_cycle, 'C @ B')):\n"
        "    B, C = [list(r) for r in B0], [list(r) for r in C0]\n"
        "    corrupt(B, C)\n"
        "    homology._tree_cotree = lambda o, classes, B=B, C=C: (B, C)\n"
        "    try:\n"
        "        homology.homology_basis(o)\n"
        "    except ArithmeticError as exc:\n"
        "        if check not in str(exc):\n"
        "            raise SystemExit(f'{corrupt.__name__} tripped {exc}')\n"
        "        continue\n"
        "    raise SystemExit(f'{corrupt.__name__} was accepted')\n"
        "raise SystemExit(7)\n"
    )
    exits_seven_under_dash_o(code)


def test_move_checks_raise_without_assertions():
    # each corruption flips the sign of one row k of a T move's chain map F:
    # where F B is nonzero on a non-loop target edge k, the image of a cycle
    # is left open; where F B is zero, every image stays a cycle (F B does
    # not change), but where the target functionals read edge k, the image
    # of a face boundary is no longer a boundary
    code = (
        "import sys\n"
        "from pillowtiled import cocycle, homology\n"
        "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
        "from tests.reference import apply_state_generator, boundary_matrices\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
        "o, iota = orientation_double_cover(PillowCover(5, *perms))\n"
        "o2, iota2 = apply_state_generator(o, iota, 'T')\n"
        "src, tgt = cocycle.StateData(o, iota), cocycle.StateData(o2, iota2)\n"
        "F0 = homology.move_rows(o, 'T', range(o.d))\n"
        "FB = homology.apply_rows(F0, src.basis.cycles)\n"
        "d1 = boundary_matrices(o2)[0]\n"
        "C = tgt.basis.functionals\n"
        "opens = next(k for k, row in enumerate(FB) if any(row) and any(r[k] for r in d1))\n"
        "leaks = next(k for k, row in enumerate(FB) if not any(row) and any(r[k] for r in C))\n"
        "for k, check in ((opens, 'move does not map cycles to cycles'),\n"
        "                 (leaks, 'move does not respect boundaries')):\n"
        "    F = [(-c, *es) if j == k else (c, *es) for j, (c, *es) in enumerate(F0)]\n"
        "    cocycle.move_rows = lambda o, gen, label, F=F: F\n"
        "    try:\n"
        "        cocycle._move_matrix(src.basis, tgt.basis, 'T', range(o.d))\n"
        "    except ArithmeticError as exc:\n"
        "        if str(exc) != check:\n"
        "            raise SystemExit(f'flipping row {k} tripped {exc}')\n"
        "        continue\n"
        "    raise SystemExit(f'flipping row {k} was accepted')\n"
        "raise SystemExit(7)\n"
    )
    exits_seven_under_dash_o(code)


def exits_seven_under_dash_o(code):
    """Run ``code`` under ``python -O``, with the package and the tests on
    the path, and check that it exits 7."""
    src = Path(lattice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, src.parent))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr


def test_boundary_row_checks_agree_with_the_dense_products(monkeypatch):
    # the basis and move checks read the boundaries as row maps; on true
    # bases and T/S/L moves they accept, and with one sign flipped in B, C
    # or a row of F they raise exactly the first check whose dense product
    # (d1 @ B, C @ d2; d1_tgt @ F B, C_tgt @ F d2) is nonzero
    cycles, kills = ("basis chains are not cycles: d1 @ B != 0",
                     "functionals do not kill boundaries: C @ d2 != 0")
    rng = np.random.default_rng(727)
    surfaces = [random_origami(int(rng.integers(1, 12)), rng) for _ in range(12)]
    surfaces += [orientation_double_cover(p)[0] for p in (FIVE, FOUR, TORUS_COVER)]
    verdicts = []

    def nonzero(M):
        return any(any(row) for row in M)

    def raised(call):
        try:
            call()
        except (ArithmeticError, ValueError) as exc:
            return str(exc)
        return None

    def flipped(rows, k, j=0):
        out = [list(row) for row in rows]
        out[k][j] *= -1
        return out

    for o in surfaces:
        d1, d2 = boundary_matrices(o)
        hb = homology_basis(o)
        B0, C0 = as_lists(hb.cycles), as_lists(hb.functionals)
        assert not nonzero(lattice.matmul(d1, B0)) and not nonzero(lattice.matmul(C0, d2))
        sites = [(True, e, j) for e, row in enumerate(B0) for j, x in enumerate(row) if x]
        sites += [(False, i, e) for i, row in enumerate(C0) for e, x in enumerate(row) if x]
        for t in rng.choice(len(sites), size=min(8, len(sites)), replace=False):
            in_b, k, j = sites[t]
            B, C = (flipped(B0, k, j), C0) if in_b else (B0, flipped(C0, k, j))
            with monkeypatch.context() as m:
                m.setattr(homology, "_tree_cotree", lambda o, classes: (B, C))
                got = raised(lambda: homology_basis(o))
            if nonzero(lattice.matmul(d1, B)):
                want = cycles
            elif nonzero(lattice.matmul(C, d2)):
                want = kills
            else:
                want = None  # a later check may still trip
            assert (got if got in (cycles, kills) else None) == want
            verdicts.append(want)
        for gen in ("T", "S", "L"):
            o2 = apply_generator(o, gen)
            hb2 = homology_basis(o2)
            d1_tgt, C_tgt = boundary_matrices(o2)[0], as_lists(hb2.functionals)
            F0 = move_rows(o, gen, range(o.d))
            assert homology.move_cycles(hb, hb2, F0) == apply_rows(F0, B0)
            for k in rng.choice(2 * o.d, size=min(4, 2 * o.d), replace=False):
                F = [tuple(row) for row in flipped(F0, k)]
                if nonzero(lattice.matmul(d1_tgt, apply_rows(F, B0))):
                    want = "move does not map cycles to cycles"
                elif nonzero(lattice.matmul(C_tgt, apply_rows(F, d2))):
                    want = "move does not respect boundaries"
                else:
                    want = None
                assert raised(lambda: homology.move_cycles(hb, hb2, F)) == want
                verdicts.append(want)
    # every verdict turns up, so each check is seen to accept and to reject
    assert set(verdicts) == {None, cycles, kills, "move does not map cycles to cycles",
                             "move does not respect boundaries"}


def test_a_scaled_cup_matrix_is_rejected_under_dash_o():
    # twice the cup matrix is still antisymmetric and still passes every
    # chain-level check; only the exact unimodularity check, one Hermite
    # pass whose H must be I, can reject it, and it must with asserts
    # stripped
    code = (
        "import sys\n"
        "from pillowtiled import homology\n"
        "from pillowtiled.permsurf import PillowCover, orientation_double_cover\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        "true_cup = homology._cup_matrix\n"
        "homology._cup_matrix = lambda o, a, b: [[2 * x for x in row] for row in true_cup(o, a, b)]\n"
        "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
        "o, _ = orientation_double_cover(PillowCover(5, *perms))\n"
        "try:\n"
        "    homology.homology_basis(o)\n"
        "except ValueError as exc:\n"
        "    if 'not unimodular' not in str(exc):\n"
        "        raise SystemExit(f'tripped {exc}')\n"
        "    raise SystemExit(7)\n"
        "raise SystemExit('a doubled cup matrix was accepted')\n"
    )
    exits_seven_under_dash_o(code)


def test_a_state_builds_its_vertex_classes_once(monkeypatch):
    # the boundary rows and the tree-cotree forests share one pass over the
    # vertex classes, and the state reads the boundary rows off its basis
    calls = []

    def counted(o):
        calls.append(o)
        return _vertex_classes(o)

    monkeypatch.setattr(homology, "_vertex_classes", counted)
    o, iota = orientation_double_cover(FIVE)
    st = cocycle.StateData(o, iota)
    assert calls == [o]
    # and they are the dense boundary maps: d1 and the transpose of d2
    I = lattice.eye(2 * o.d)
    dense = [[[a - b for a, b in zip(ra, rb)] for ra, rb in zip(apply_rows(plus, I), apply_rows(minus, I))]
             for plus, minus in st.basis.boundary_rows]
    d1, d2 = boundary_matrices(o)
    assert dense == [d1, lattice.transpose(d2)]


def test_involution_chain_map_is_a_chain_map():
    for p in [FIVE, TORUS_COVER, FOUR]:
        o, iota = orientation_double_cover(p)
        d1, d2 = boundary_matrices(o)
        M = involution_chain_map(o, iota)
        # on faces the half-turn is the face permutation
        dfaces = o.d
        P = zero_matrix(dfaces, dfaces)
        for a in range(dfaces):
            P[iota[a]][a] = 1
        assert lattice.mat_eq(lattice.matmul(M, d2), lattice.matmul(d2, P))
        # on vertices it is the induced class map
        cs, cls_of = _vertex_classes(o)
        Pv = zero_matrix(len(cs), len(cs))
        for idx, cyc in enumerate(cs):
            a = cyc[0]
            Pv[cls_of[o.v[o.h[iota[a]]]]][idx] = 1
        assert lattice.mat_eq(lattice.matmul(d1, M), lattice.matmul(Pv, d1))


def test_move_rows_are_the_relabelled_dense_chain_maps():
    # with a random labelling of the moved surface's squares, each move's
    # row map times X is the dense chain map, its rows relabelled, times X
    rng = np.random.default_rng(401)
    for t in range(16):
        if t % 2:
            o, _ = orientation_double_cover(random_pillow_cover(int(rng.integers(2, 6)), rng))
        else:
            o = random_origami(int(rng.integers(2, 8)), rng)
        d = o.d
        X = rng.integers(-3, 4, size=(2 * d, 3)).tolist()
        for gen in ("T", "S", "L"):
            label = rng.permutation(d).tolist()
            C = chain_map(o, gen)
            F = [None] * (2 * d)
            for i, j in enumerate(label):
                F[j], F[d + j] = C[i], C[d + i]
            assert apply_rows(move_rows(o, gen, label), X) == lattice.matmul(F, X)


def test_involution_rows_are_the_dense_involution():
    rng = np.random.default_rng(409)
    covers = [FIVE, TORUS_COVER, FOUR, cyclic_pillow(3, (1, 1, 1, 3))]
    covers += [random_pillow_cover(int(rng.integers(2, 6)), rng) for _ in range(8)]
    for p in covers:
        o, iota = orientation_double_cover(p)
        B = homology_basis(o).cycles
        want = lattice.matmul(involution_chain_map(o, iota), B)
        assert apply_rows(_involution_rows(o, iota), B) == want


def test_involution_on_homology_is_symplectic_involution():
    for p in [FIVE, TORUS_COVER, FOUR, cyclic_pillow(3, (1, 1, 1, 3))]:
        o, iota = orientation_double_cover(p)
        hb = homology_basis(o)
        I = involution_on_homology(hb, iota)
        r = hb.rank
        assert lattice.mat_eq(lattice.matmul(I, I), lattice.eye(r))
        K = as_lists(hb.cup)
        IKI = lattice.matmul(I, lattice.matmul(K, lattice.transpose(I)))
        assert lattice.mat_eq(IKI, K)


@pytest.mark.parametrize("p,dplus,dminus", [
    (FIVE, 4, 10),                          # quotient genus 2, cover genus 7
    (TORUS_COVER, 2, 2),                    # two tori swapped
    (FOUR, 6, 6),                           # two genus-3 pieces swapped
    (cyclic_pillow(3, (1, 1, 1, 3)), 2, 6),  # quotient genus 1, cover genus 4
])
def test_splitting_dimensions(p, dplus, dminus):
    o, iota = orientation_double_cover(p)
    hb = homology_basis(o)
    sp = involution_splitting(hb, iota)
    assert (sp.dim_plus, sp.dim_minus) == (dplus, dminus)


def test_splitting_is_exact():
    o, iota = orientation_double_cover(FIVE)
    hb = homology_basis(o)
    sp = involution_splitting(hb, iota)
    I = involution_on_homology(hb, iota)
    Bp = as_lists(sp.plus_basis)
    # I fixes the + basis, negates the - basis
    assert lattice.mat_eq(lattice.matmul(I, Bp), Bp)
    Bm = as_lists(sp.minus_basis)
    assert lattice.mat_eq(lattice.matmul(I, Bm), [[-x for x in row] for row in Bm])
    # both bases are saturated: each has an integer left inverse
    for basis, dim in ((Bp, sp.dim_plus), (Bm, sp.dim_minus)):
        assert lattice.mat_eq(lattice.matmul(left_inverse(basis), basis), lattice.eye(dim))
