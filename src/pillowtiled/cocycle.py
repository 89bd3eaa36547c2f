"""Chain-level transport of homology along affine moves.

Each generator is realized as an explicit map on 1-chains (new labels on
the left, so the matrix maps old edge coordinates to new ones):

    T      sigma_i -> sigma_i            tau_i -> sigma_i + tau_{h(i)}
    T^-1   sigma_i -> sigma_i            tau_i -> tau_{h^-1(i)} - sigma_{h^-1(i)}
    S      sigma_i -> -tau_i             tau_i -> sigma_{h^-1(i)}
    L      sigma_i -> tau_i + sigma_{v(i)}   tau_i -> tau_i

(The shear images are the diagonal segments re-expressed as lattice paths
of the sheared tiling.  The quarter turn matching the convention
``S.(h, v) = (v, h^-1)`` is the clockwise one, (x, y) -> (y, 1-x) on each
square: it sends the bottom side of a square to its reversed left side
and the left side to the top side, which is the bottom of the square
above, i.e. of the new square h^-1(i).)

On top of the raw chain maps this module keeps a cache of canonicalized
double-cover states with their homology bases and involution splittings,
and computes exact integer cocycle matrices between them, checked to be
symplectic and deck-equivariant on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .homology import (
    HomologyBasis,
    InvolutionSplitting,
    boundary_matrices,
    homology_basis,
    involution_splitting,
)
from .orbit import _bfs_labels, _relabel, apply_generator, apply_state_generator, canonical_perms
from .permsurf import Origami, validate_involution
from .permutations import Perm, inverse

__all__ = [
    "CocycleMatrix",
    "StateCache",
    "chain_map",
    "elementary_matrix",
    "induced_cocycle",
]

# derivative of each move on holonomy (column) vectors
_ELEMENTARY = {
    "T": ((1, 1), (0, 1)),
    "Tinv": ((1, -1), (0, 1)),
    "S": ((0, 1), (-1, 0)),
    "L": ((1, 0), (1, 1)),
}


def elementary_matrix(gen: str) -> tuple[tuple[int, int], tuple[int, int]]:
    return _ELEMENTARY[gen]


def chain_map(o: Origami, gen: str) -> list[list[int]]:
    """2d x 2d integer matrix of the move on 1-chains (old basis -> new)."""
    d = o.d
    M = lattice.zeros(2 * d, 2 * d)
    if gen == "T":
        for i in range(d):
            M[i][i] = 1
            M[i][d + i] += 1
            M[d + o.h[i]][d + i] += 1
    elif gen == "Tinv":
        hinv = inverse(o.h)
        for i in range(d):
            M[i][i] = 1
            M[d + hinv[i]][d + i] += 1
            M[hinv[i]][d + i] -= 1
    elif gen == "S":
        hinv = inverse(o.h)
        for i in range(d):
            M[d + i][i] = -1
            M[hinv[i]][d + i] = 1
    elif gen == "L":
        for i in range(d):
            M[d + i][d + i] = 1
            M[d + i][i] += 1
            M[o.v[i]][i] += 1
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return M


def relabel_chain_map(label: list[int], d: int) -> list[list[int]]:
    """Edge-chain matrix of a square relabeling (no orientation change)."""
    M = lattice.zeros(2 * d, 2 * d)
    for i in range(d):
        M[label[i]][i] = 1
        M[d + label[i]][d + i] = 1
    return M


@dataclass(frozen=True)
class CocycleMatrix:
    """Integer matrix of a move word on H_1, from the basis at the start
    surface to the basis at the final surface; exactly symplectic."""

    matrix: tuple[tuple[int, ...], ...]
    word: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.matrix)


class StateData:
    """Homology package of one canonical double-cover state."""

    def __init__(self, key: tuple[Perm, Perm, Perm]):
        h, v, iota = key
        self.key = key
        self.origami = Origami(len(h), h, v, allow_disconnected=True)
        self.iota = iota
        validate_involution(self.origami, iota)
        self.basis: HomologyBasis = homology_basis(self.origami)
        self.splitting: InvolutionSplitting = involution_splitting(self.basis, iota)
        self._d1, self._d2 = boundary_matrices(self.origami)

    @property
    def rank(self) -> int:
        return self.basis.rank


@dataclass(frozen=True)
class Transition:
    """One cached move between canonical states."""

    gen: str
    target: tuple[Perm, Perm, Perm]
    plus: tuple[tuple[int, ...], ...]      # restriction to the + lattices
    minus: tuple[tuple[int, ...], ...]


class StateCache:
    """Canonical states plus memoized transitions between them."""

    def __init__(self):
        self.states: dict[tuple[Perm, Perm, Perm], StateData] = {}
        self.transitions: dict[tuple[tuple[Perm, Perm, Perm], str], Transition] = {}

    def state(self, key: tuple[Perm, Perm, Perm]) -> StateData:
        if key not in self.states:
            self.states[key] = StateData(key)
        return self.states[key]

    def canonical_key(self, o: Origami, iota: Perm) -> tuple[Perm, Perm, Perm]:
        h, v, i2 = canonical_perms((o.h, o.v, iota), o.d)
        return (h, v, i2)

    def transition(self, key: tuple[Perm, Perm, Perm], gen: str) -> Transition:
        memo = (key, gen)
        if memo in self.transitions:
            return self.transitions[memo]
        src = self.state(key)
        o2, i2 = apply_state_generator(src.origami, src.iota, gen)
        # canonicalize and remember the relabeling that got us there
        best = None
        best_label = None
        for start in range(o2.d):
            label = _bfs_labels((o2.h, o2.v, i2), o2.d, start)
            cand = _relabel((o2.h, o2.v, i2), label)
            if best is None or cand < best:
                best, best_label = cand, label
        tgt = self.state(best)
        F = lattice.matmul(relabel_chain_map(best_label, o2.d), chain_map(src.origami, gen))
        M = lattice.matmul(
            [list(r) for r in tgt.basis.functionals],
            lattice.matmul(F, [list(r) for r in src.basis.cycles]),
        )
        _check_cocycle(src, tgt, F, M)
        plus = src.splitting.restrict_plus(M, tgt.splitting)
        minus = src.splitting.restrict_minus(M, tgt.splitting)
        # the coordinate restrictions must reconstruct M on each eigenlattice
        MB = lattice.matmul(M, [list(r) for r in src.splitting.plus_basis])
        BX = lattice.matmul([list(r) for r in tgt.splitting.plus_basis], plus)
        assert lattice.mat_eq(MB, BX), "move does not preserve the invariant lattice"
        MB = lattice.matmul(M, [list(r) for r in src.splitting.minus_basis])
        BX = lattice.matmul([list(r) for r in tgt.splitting.minus_basis], minus)
        assert lattice.mat_eq(MB, BX), "move does not preserve the anti-invariant lattice"
        tr = Transition(
            gen=gen,
            target=best,
            plus=tuple(tuple(r) for r in plus),
            minus=tuple(tuple(r) for r in minus),
        )
        self.transitions[memo] = tr
        return tr


def _check_cocycle(src: StateData, tgt: StateData, F, M) -> None:
    """Exact structural checks: well-defined on homology, symplectic,
    deck-equivariant, and splitting-preserving."""
    # F maps cycles to cycles and boundaries to boundaries
    FB = lattice.matmul(F, [list(r) for r in src.basis.cycles])
    z = lattice.matmul(tgt._d1, FB)
    assert all(all(x == 0 for x in row) for row in z), "move does not map cycles to cycles"
    Cn = [list(r) for r in tgt.basis.functionals]
    z2 = lattice.matmul(Cn, lattice.matmul(F, src._d2))
    assert all(all(x == 0 for x in row) for row in z2), "move does not respect boundaries"
    # symplectic: M^T J M = J (both bases carry the standard form)
    J_src = [list(r) for r in src.basis.intersection]
    J_tgt = [list(r) for r in tgt.basis.intersection]
    MJM = lattice.matmul(lattice.transpose(M), lattice.matmul(J_tgt, M))
    assert lattice.mat_eq(MJM, J_src), "cocycle matrix is not symplectic"
    # deck-equivariance: I_tgt M = M I_src
    I_s = [list(r) for r in src.splitting.action]
    I_t = [list(r) for r in tgt.splitting.action]
    assert lattice.mat_eq(lattice.matmul(I_t, M), lattice.matmul(M, I_s)), \
        "cocycle matrix does not commute with the deck involution"


def induced_cocycle(o: Origami, word, iota: Perm | None = None):
    """Transport H_1 along a word of moves.

    Returns ``(CocycleMatrix, final_origami)`` for a bare origami, or
    ``(CocycleMatrix, final_origami, final_iota)`` when an involution is
    supplied (then the matrix is also checked for deck-equivariance).
    The matrix is expressed from the basis of ``o`` to the basis of the
    final surface, with no canonical relabeling in between.
    """
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    cur_o = o
    cur_iota = iota
    hb = homology_basis(cur_o)
    M = lattice.eye(hb.rank)
    for gen in word:
        F = chain_map(cur_o, gen)
        if cur_iota is not None:
            nxt_o, nxt_iota = apply_state_generator(cur_o, cur_iota, gen)
        else:
            nxt_o, nxt_iota = apply_generator(cur_o, gen), None
        hb_next = homology_basis(nxt_o)
        step = lattice.matmul(
            [list(r) for r in hb_next.functionals],
            lattice.matmul(F, [list(r) for r in hb.cycles]),
        )
        # exact invariants per step
        J_a = [list(r) for r in hb.intersection]
        J_b = [list(r) for r in hb_next.intersection]
        SJS = lattice.matmul(lattice.transpose(step), lattice.matmul(J_b, step))
        assert lattice.mat_eq(SJS, J_a), "cocycle step is not symplectic"
        if cur_iota is not None:
            I_a = involution_splitting(hb, cur_iota).action
            I_b = involution_splitting(hb_next, nxt_iota).action
            lhs = lattice.matmul([list(r) for r in I_b], step)
            rhs = lattice.matmul(step, [list(r) for r in I_a])
            assert lattice.mat_eq(lhs, rhs), "step is not deck-equivariant"
        M = lattice.matmul(step, M)
        cur_o, cur_iota, hb = nxt_o, nxt_iota, hb_next
    cm = CocycleMatrix(matrix=tuple(tuple(r) for r in M), word=word)
    if iota is None:
        return cm, cur_o
    return cm, cur_o, cur_iota
