"""Transport of homology along affine moves.

This module holds the one move step, ``_move_matrix``, which turns a
move's chain map between two surfaces (``homology.move_rows``, a signed
row map with the target's relabelling folded in) into an exact integer
matrix on H_1, checked on the nose to be well defined, symplectic and
deck-equivariant.  Symplectic is checked on the cup
matrices K of the two bases, M K_src M^T == K_tgt, which needs no
inverse: both K are unimodular, so it forces det M = +-1 and is then
equivalent to M^T J_tgt M == J_src for the intersection matrices
J = -K^-1.  ``StateCache`` applies it between canonicalized double-cover
states and restricts it to their involution eigenlattices, whose
coordinates ``_restrict`` reads off the target's Hermite basis by forward
substitution; it is the one path that transports H_1.  The tests fold
the same step along raw words of moves, in ``tests/reference.py``.

``StateCache`` moves a key (h, v, iota) with the orbit closure's step
(``orbit._move``, ``orbit._transport``) and, by the closure's rule, checks
a state once, when ``state`` builds it: each check is invariant under
relabeling, and a cached target was checked when it was built.

Every Monte-Carlo walker in the process shares one ``StateCache``, from
:func:`shared_state_cache`, so a state or move that an earlier walker
built is not built or checked again.  That needs no re-check: a state is
a function of its canonical key ``(h, v, iota)`` alone, and a transition
of its source state and the move, so an entry built for one line is the
entry any other line would build; unit relabellings x -> u x of a cyclic
cover give the same canonical states, and their lines share everything.
Entries are stored only once built, so a build cut short by an exception
leaves nothing behind.

The shared cache is trimmed to ``_SHARED_ENTRIES`` when a walker is
created, never during a walk, so no walk rebuilds a state it built itself.
Trimming drops the least recently used states first, each with its
outgoing transitions; a state is used when ``state`` returns it or a
transition from it is looked up.  Transitions into a dropped state hold
only its key and matrices and stay valid.  A state weighs the entry
count of its matrices (``StateData.entries``).  Measured with
tracemalloc on the anchor states of cyclic covers from N = 5 (d = 20,
3024 entries, 35 KB) to N = 30 (d = 120, 140,224 entries, 1.2 MB), a
state takes 8.4-11.7 bytes per entry, and its T and L transitions add
under 10% of its entries, so the budget of 2^21 entries keeps at most
about 27 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .homology import HomologyBasis, InvolutionSplitting, homology_basis, involution_splitting
from .homology import apply_rows, move_rows
from .orbit import _move, _transport, canonical_labelling, canonical_perms
from .permsurf import Origami, validate_involution
from .permutations import Perm

__all__ = [
    "StateCache",
]


class StateData:
    """Homology package of one surface: its H_1 basis (with its boundary
    maps) and, when it carries a deck involution, the splitting of H_1
    (else ``splitting`` is None)."""

    def __init__(self, origami: Origami, iota: Perm | None = None):
        self.origami = origami
        self.basis: HomologyBasis = homology_basis(origami)
        self.splitting: InvolutionSplitting | None = None
        if iota is not None:
            validate_involution(origami, iota)
            self.splitting = involution_splitting(self.basis, iota)
        # the weight of the state in a trimmed cache
        b = self.basis
        mats = [b.cycles, b.functionals, b.cup, b.d1, b.d2]
        if self.splitting is not None:
            sp = self.splitting
            mats += [sp.action, sp.plus_basis, sp.minus_basis]
        self.entries = sum(len(row) for m in mats for row in m)


def _move_matrix(src: StateData, tgt: StateData, gen: str, label) -> list[list[int]]:
    """Matrix C_tgt F B_src on H_1 of the chain map F of move ``gen``, its
    new squares relabelled by ``label`` (``move_rows``), exactly checked.

    Raises ArithmeticError unless F maps cycles to cycles and boundaries
    into boundaries, and the matrix is symplectic and, when the surfaces
    carry a deck involution, commutes with it.
    """
    F = move_rows(src.origami, gen, label)
    FB = apply_rows(F, src.basis.cycles)
    if any(any(row) for row in lattice.matmul(tgt.basis.d1, FB)):
        raise ArithmeticError("move does not map cycles to cycles")
    C = tgt.basis.functionals
    if any(any(row) for row in lattice.matmul(C, apply_rows(F, src.basis.d2))):
        raise ArithmeticError("move does not respect boundaries")
    M = lattice.matmul(C, FB)
    # symplectic: M K_src M^T = K_tgt, each K the cup matrix of its own basis
    if not lattice.mat_eq(lattice.matmul(M, lattice.matmul(src.basis.cup, lattice.transpose(M))),
                          tgt.basis.cup):
        raise ArithmeticError("cocycle matrix is not symplectic")
    if src.splitting is not None:
        I_s, I_t = src.splitting.action, tgt.splitting.action
        if not lattice.mat_eq(lattice.matmul(I_t, M), lattice.matmul(M, I_s)):
            raise ArithmeticError("cocycle matrix does not commute with the deck involution")
    return M


def _restrict(M, src_basis, tgt_basis, name: str) -> tuple[tuple[int, ...], ...]:
    """Coordinates X of M on one eigenlattice, M B_src == B_tgt X.

    B_tgt is a Hermite basis: column j is zero above its pivot row p_j and
    positive there, with p_0 < p_1 < ..., so row p_j of B_tgt X involves
    x_0..x_j alone and X follows by forward substitution on the pivot
    rows.  Raises ArithmeticError on a division that is not exact, or
    unless X reconstructs every row; when X exists it is unique.
    """
    MB = lattice.matmul(M, src_basis)
    k = len(tgt_basis[0]) if tgt_basis else 0
    pivots = [next(i for i, row in enumerate(tgt_basis) if row[j]) for j in range(k)]
    X = []
    for j, p in enumerate(pivots):
        row, y = tgt_basis[p], MB[p]
        for l in range(j):
            if row[l]:
                y = [a - row[l] * b for a, b in zip(y, X[l])]
        qr = [divmod(a, row[j]) for a in y]
        if any(rem for _, rem in qr):
            raise ArithmeticError(f"move does not preserve the {name} lattice")
        X.append([q for q, _ in qr])
    if not lattice.mat_eq(MB, lattice.matmul(tgt_basis, X)):
        raise ArithmeticError(f"move does not preserve the {name} lattice")
    return tuple(tuple(r) for r in X)


@dataclass(frozen=True)
class Transition:
    """One cached move between canonical states."""

    target: tuple[Perm, Perm, Perm]
    plus: tuple[tuple[int, ...], ...]      # restriction to the + lattices
    minus: tuple[tuple[int, ...], ...]


class StateCache:
    """Canonical states plus memoized transitions between them.

    ``states`` is in order of use, the least recently used first.
    """

    def __init__(self):
        self.states: dict[tuple[Perm, Perm, Perm], StateData] = {}
        self.transitions: dict[tuple[tuple[Perm, Perm, Perm], str], Transition] = {}

    def state(self, key: tuple[Perm, Perm, Perm]) -> StateData:
        st = self.states.pop(key, None)
        if st is None:
            h, v, iota = key
            st = StateData(Origami(len(h), h, v, allow_disconnected=True), iota)
        self.states[key] = st
        return st

    def weight(self) -> int:
        """Entry count of the cached states."""
        return sum(st.entries for st in self.states.values())

    def trim(self, budget: int) -> None:
        """Drop the least recently used states, each with its outgoing
        transitions, until the states left weigh at most ``budget`` entries."""
        total = self.weight()
        while self.states and total > budget:
            key = next(iter(self.states))
            for gen in ("T", "S", "L"):
                self.transitions.pop((key, gen), None)
            total -= self.states.pop(key).entries

    def canonical_key(self, o: Origami, iota: Perm) -> tuple[Perm, Perm, Perm]:
        h, v, i2 = canonical_perms((o.h, o.v, iota), o.d)
        return (h, v, i2)

    def transition(self, key: tuple[Perm, Perm, Perm], gen: str) -> Transition:
        memo = (key, gen)
        if memo in self.transitions:
            self.states[key] = self.states.pop(key)
            return self.transitions[memo]
        src = self.state(key)
        # the closure's move step; canonicalize and keep the relabeling
        # that got us there.  The target is checked once, when built.
        h, v, iota = key
        target, label = canonical_labelling((*_move(h, v, gen), _transport(h, v, iota, gen)), len(h))
        tgt = self.state(target)
        M = _move_matrix(src, tgt, gen, label)
        sp, tp = src.splitting, tgt.splitting
        tr = Transition(
            target=target,
            plus=_restrict(M, sp.plus_basis, tp.plus_basis, "invariant"),
            minus=_restrict(M, sp.minus_basis, tp.minus_basis, "anti-invariant"),
        )
        self.transitions[memo] = tr
        return tr


# the entries (see StateData.entries) the shared cache keeps between walkers
_SHARED_ENTRIES = 1 << 21

# the one cache of every walker in the process
_shared = StateCache()


def _clear_shared_cache() -> None:
    _shared.states.clear()
    _shared.transitions.clear()


def shared_state_cache() -> StateCache:
    """The process-wide cache, first trimmed to ``_SHARED_ENTRIES``; call it
    once per walker, when the walker is created."""
    _shared.trim(_SHARED_ENTRIES)
    return _shared

