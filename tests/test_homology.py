"""Homology pipeline checks: exact bases, intersection form, involution."""

import random

import numpy as np
import pytest

from pillowtiled import lattice
from pillowtiled.homology import (
    boundary_matrices,
    homology_basis,
    involution_chain_map,
    involution_on_homology,
    involution_splitting,
    standard_symplectic,
)
from pillowtiled.permsurf import (
    Origami,
    _vertex_classes,
    orientation_double_cover,
    origami_stratum,
    random_origami,
)
from pillowtiled.permutations import parse_cycles
from tests.test_permsurf import FIVE, FOUR, TORUS_COVER, cyclic_pillow


def as_lists(rows):
    return [list(r) for r in rows]


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
    assert as_lists(hb.intersection) == [[0, 1], [-1, 0]]
    B, C = as_lists(hb.cycles), as_lists(hb.functionals)
    assert lattice.mat_eq(lattice.matmul(C, B), lattice.eye(2))


def test_l_origami_rank_and_form():
    o = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))
    hb = homology_basis(o)
    assert hb.rank == 4  # genus 2
    assert as_lists(hb.intersection) == standard_symplectic(4)


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


def test_cup_pairing_descends():
    """Pairing against any coboundary vanishes, so the intersection numbers
    only depend on cohomology classes."""
    from pillowtiled.homology import _cup

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
            for row in hb.functionals:
                assert _cup(o, list(row), df) == 0
                assert _cup(o, df, list(row)) == 0


def test_involution_chain_map_is_a_chain_map():
    for p in [FIVE, TORUS_COVER, FOUR]:
        o, iota = orientation_double_cover(p)
        d1, d2 = boundary_matrices(o)
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
