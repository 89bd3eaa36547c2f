"""Chain-level transport of homology along affine moves.

Each generator is realized as an explicit map on 1-chains (new labels on
the left, so the matrix maps old edge coordinates to new ones):

    T      sigma_i -> sigma_i            tau_i -> sigma_i + tau_{h(i)}
    S      sigma_i -> -tau_i             tau_i -> sigma_{h^-1(i)}
    L      sigma_i -> tau_i + sigma_{v(i)}   tau_i -> tau_i

(The shear images are the diagonal segments re-expressed as lattice paths
of the sheared tiling.  The quarter turn matching the convention
``S.(h, v) = (v, h^-1)`` is the clockwise one, (x, y) -> (y, 1-x) on each
square: it sends the bottom side of a square to its reversed left side
and the left side to the top side, which is the bottom of the square
above, i.e. of the new square h^-1(i).)

On top of the raw chain maps this module holds the one move step,
``_move_matrix``, which turns a chain map between two surfaces into an
exact integer matrix on H_1, checked on the nose to be well defined,
symplectic and deck-equivariant.  ``StateCache`` applies it between
canonicalized double-cover states (and restricts it to their involution
eigenlattices); it is the one path that transports H_1.  The tests fold
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
from .orbit import _move, _transport, canonical_labelling, canonical_perms
from .permsurf import Origami, validate_involution
from .permutations import Perm, inverse

__all__ = [
    "StateCache",
    "chain_map",
]


def chain_map(o: Origami, gen: str) -> list[list[int]]:
    """2d x 2d integer matrix of the move on 1-chains (old basis -> new)."""
    d = o.d
    M = lattice.zeros(2 * d, 2 * d)
    if gen == "T":
        for i in range(d):
            M[i][i] = 1
            M[i][d + i] += 1
            M[d + o.h[i]][d + i] += 1
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


class StateData:
    """Homology package of one surface: its H_1 basis (with its boundary
    maps) and, when it carries a deck involution, the splitting of H_1
    (else ``splitting`` is None)."""

    def __init__(self, origami: Origami, iota: Perm | None = None):
        self.origami = origami
        self.iota = iota
        self.basis: HomologyBasis = homology_basis(origami)
        self.splitting: InvolutionSplitting | None = None
        if iota is not None:
            validate_involution(origami, iota)
            self.splitting = involution_splitting(self.basis, iota)
        # the weight of the state in a trimmed cache
        b = self.basis
        mats = [b.cycles, b.functionals, b.intersection, b.d1, b.d2]
        if self.splitting is not None:
            sp = self.splitting
            mats += [sp.action, sp.plus_basis, sp.plus_coords, sp.minus_basis, sp.minus_coords]
        self.entries = sum(len(row) for m in mats for row in m)


def _move_matrix(src: StateData, tgt: StateData, F) -> list[list[int]]:
    """Matrix C_tgt F B_src of the chain map F on H_1, exactly checked.

    Raises ArithmeticError unless F maps cycles to cycles and boundaries
    into boundaries, and the matrix is symplectic and, when the surfaces
    carry a deck involution, commutes with it.
    """
    FB = lattice.matmul(F, src.basis.cycles)
    if any(any(row) for row in lattice.matmul(tgt.basis.d1, FB)):
        raise ArithmeticError("move does not map cycles to cycles")
    C = tgt.basis.functionals
    if any(any(row) for row in lattice.matmul(C, lattice.matmul(F, src.basis.d2))):
        raise ArithmeticError("move does not respect boundaries")
    M = lattice.matmul(C, FB)
    # symplectic: M^T J_tgt M = J_src, each J the intersection matrix
    # stored with its own basis
    J_src, J_tgt = src.basis.intersection, tgt.basis.intersection
    if not lattice.mat_eq(lattice.matmul(lattice.transpose(M), lattice.matmul(J_tgt, M)), J_src):
        raise ArithmeticError("cocycle matrix is not symplectic")
    if src.splitting is not None:
        I_s, I_t = src.splitting.action, tgt.splitting.action
        if not lattice.mat_eq(lattice.matmul(I_t, M), lattice.matmul(M, I_s)):
            raise ArithmeticError("cocycle matrix does not commute with the deck involution")
    return M


def _restrict(M, src_basis, tgt_basis, tgt_coords, name: str) -> tuple[tuple[int, ...], ...]:
    """Coordinates X = C_tgt (M B_src) of M on one eigenlattice; raises
    ArithmeticError unless they reconstruct it, M B_src == B_tgt X."""
    MB = lattice.matmul(M, src_basis)
    X = lattice.matmul(tgt_coords, MB)
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
        d = len(h)
        target, label = canonical_labelling((*_move(h, v, gen), _transport(h, v, iota, gen)), d)
        tgt = self.state(target)
        # relabel the new squares: edge rows i and d + i move to label[i]
        C = chain_map(src.origami, gen)
        F = [None] * (2 * d)
        for i, j in enumerate(label):
            F[j], F[d + j] = C[i], C[d + i]
        M = _move_matrix(src, tgt, F)
        sp, tp = src.splitting, tgt.splitting
        tr = Transition(
            target=target,
            plus=_restrict(M, sp.plus_basis, tp.plus_basis, tp.plus_coords, "invariant"),
            minus=_restrict(M, sp.minus_basis, tp.minus_basis, tp.minus_coords, "anti-invariant"),
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

