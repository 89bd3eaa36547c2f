"""Homology pipeline checks: exact bases, intersection form, involution."""

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
    homology_basis,
    involution_chain_map,
    involution_on_homology,
    involution_splitting,
)
from pillowtiled.permsurf import (
    Origami,
    _vertex_classes,
    orientation_double_cover,
    origami_stratum,
    random_origami,
)
from pillowtiled.permutations import parse_cycles
from tests.reference import components, cup
from tests.test_permsurf import FIVE, FOUR, TORUS_COVER, cyclic_pillow


def as_lists(rows):
    return [list(r) for r in rows]


def check_tree_cotree_basis(o, hb):
    """Entries in {-1, 0, 1}, rank twice the total genus, and an
    antisymmetric G equal to -(cup matrix)^-1 of the functionals, the cup
    taken one pair at a time by the reference formula."""
    B, C, G = as_lists(hb.cycles), as_lists(hb.functionals), as_lists(hb.intersection)
    assert {x for row in B + C for x in row} <= {-1, 0, 1}
    # Euler: V - 2d + d == 2 - 2 g on each of the c components
    cs, _ = _vertex_classes(o)
    assert hb.rank == 2 * len(components(o)) - len(cs) + o.d
    r = hb.rank
    assert all(G[i][j] == -G[j][i] for i in range(r) for j in range(r))
    cup_ref = [[cup(o, a, b) for b in C] for a in C]
    assert lattice.matmul(cup_ref, G) == [[-x for x in row] for row in lattice.eye(r)]


def test_boundary_squares_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(15):
        o = random_origami(int(rng.integers(1, 9)), rng)
        hb = homology_basis(o)
        prod = lattice.matmul(hb.d1, hb.d2)
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
        d1, d2 = hb.d1, hb.d2
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
        "from pillowtiled.permsurf import PillowCover, _vertex_classes, orientation_double_cover\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        "perms = [tuple((x + a) % 5 for x in range(5)) for a in (1, 2, 2, 5)]\n"
        "o, _ = orientation_double_cover(PillowCover(5, *perms))\n"
        "hb = homology.homology_basis(o)\n"
        "d1, d2 = hb.d1, hb.d2\n"
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
    env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr


def test_a_state_builds_its_vertex_classes_once(monkeypatch):
    # the boundary maps and the tree-cotree forests share one pass over the
    # vertex classes, and the state reads the boundary maps off its basis
    calls = []

    def counted(o):
        calls.append(o)
        return _vertex_classes(o)

    monkeypatch.setattr(homology, "_vertex_classes", counted)
    o, iota = orientation_double_cover(FIVE)
    st = cocycle.StateData(o, iota)
    assert calls == [o]
    assert lattice.matmul(st.basis.d1, st.basis.d2) == lattice.zeros(len(st.basis.d1), o.d)


def test_involution_chain_map_is_a_chain_map():
    for p in [FIVE, TORUS_COVER, FOUR]:
        o, iota = orientation_double_cover(p)
        hb = homology_basis(o)
        d1, d2 = hb.d1, hb.d2
        M = involution_chain_map(o, iota)
        # on faces the half-turn is the face permutation
        dfaces = o.d
        P = lattice.zeros(dfaces, dfaces)
        for a in range(dfaces):
            P[iota[a]][a] = 1
        assert lattice.mat_eq(lattice.matmul(M, d2), lattice.matmul(d2, P))
        # on vertices it is the induced class map
        cs, cls_of = _vertex_classes(o)
        Pv = lattice.zeros(len(cs), len(cs))
        for idx, cyc in enumerate(cs):
            a = cyc[0]
            Pv[cls_of[o.v[o.h[iota[a]]]]][idx] = 1
        assert lattice.mat_eq(lattice.matmul(d1, M), lattice.matmul(Pv, d1))


def test_involution_on_homology_is_symplectic_involution():
    for p in [FIVE, TORUS_COVER, FOUR, cyclic_pillow(3, (1, 1, 1, 3))]:
        o, iota = orientation_double_cover(p)
        hb = homology_basis(o)
        I = involution_on_homology(hb, iota)
        r = hb.rank
        assert lattice.mat_eq(lattice.matmul(I, I), lattice.eye(r))
        J = as_lists(hb.intersection)
        IJI = lattice.matmul(lattice.transpose(I), lattice.matmul(J, I))
        assert lattice.mat_eq(IJI, J)


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
    I = as_lists(sp.action)
    Bp = as_lists(sp.plus_basis)
    # I fixes the + basis, negates the - basis
    assert lattice.mat_eq(lattice.matmul(I, Bp), Bp)
    Bm = as_lists(sp.minus_basis)
    assert lattice.mat_eq(lattice.matmul(I, Bm), [[-x for x in row] for row in Bm])
    assert lattice.mat_eq(lattice.matmul(as_lists(sp.plus_coords), Bp),
                          lattice.eye(sp.dim_plus))
