"""Transport of homology along affine moves.

This module holds the one move step, ``_move_matrix``, which turns a
move's chain map between two surfaces (``homology.move_rows``, a signed
row map with the target's relabelling folded in) into an exact integer
matrix on H_1, checked on the nose to be well defined (on the two
surfaces' incidence, by ``homology.move_cycles``), symplectic and
deck-equivariant.  Symplectic is checked on the cup
matrices K of the two bases, M K_src M^T == K_tgt, which needs no
inverse: both K are unimodular, so it forces det M = +-1 and is then
equivalent to M^T J_tgt M == J_src for the intersection matrices
J = -K^-1.  ``StateCache`` applies it between canonicalized double-cover
states and restricts it to their involution eigenlattices, whose
coordinates ``_restrict`` reads off the target's Hermite basis by forward
substitution; it is the one path that transports H_1.  The tests fold
the same step along raw words of moves, in ``tests/reference.py``.

``StateCache`` moves a key (h, v, iota) with the orbit closure's step,
``orbit.move``, and, by the closure's rule, checks a state once, when
``state`` builds it: each check is invariant under relabeling, and a
cached target was checked when it was built.

Every Monte-Carlo walker in the process shares one ``StateCache``, from
:func:`shared_state_cache`, so a state, move or generator cycle that an
earlier walker built is not built or checked again.  That needs no
re-check: a state is a function of its canonical key ``(h, v, iota)``
alone, a transition of its source state and the move, and a cycle
(``GenCycle``, the states and exact products of repeating T or L from a
state, with the closed-form powers of its full-cycle product and the
float pencils that the walks multiply by) of its state and generator, so
an entry built for one line is the entry any other line would build;
unit relabellings x -> u x of a cyclic cover give the same canonical
states, and their lines share everything.  A cycle builds its H1-
products only when first asked for them.  Entries are stored only once
built, so a build cut short by an exception leaves nothing behind.

The shared cache is trimmed to ``_SHARED_ENTRIES`` when a walker is
created, never during a walk, so no walk rebuilds a state it built itself.
Trimming drops cycles first, then states, the least recently used first;
a state goes with its outgoing transitions and cycles.  A state is used
when ``state`` returns it or a transition or cycle from it is looked up.
Transitions into a dropped state hold only its key and matrices and stay
valid.  A state weighs the entry count of its matrices
(``StateData.entries``) and a cycle that of its exact products and its
pencils, two float64 matrices each, zero blocks and all
(``GenCycle.entries``); a cycle is rebuilt from cached moves, but a
state needs its homology again, which is why cycles go first.  Measured
with tracemalloc after one ``lyapunov`` line of 2000 steps on each of
``30 7 15 10 28``, ``12 1 5 7 11``, ``8 1 3 5 7``, ``6 1 1 5 5`` and
``5 1 2 2 5``, states with their T and L transitions take 10.2-17.4
bytes per entry and cycles 8.3-11.4, so the budget of 2^21 entries keeps
at most about 37 MB.  One line of N = 30 or more can by itself build
cycles past the budget (5.0M entries, about 41 MB, on that N = 30
line); they are then dropped at the next line's start and its states
kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lattice
from .homology import HomologyBasis, InvolutionSplitting, homology_basis, involution_splitting
from .homology import move_cycles, move_rows
from .orbit import canonical_labelling, canonical_perms, move
from .permsurf import Origami, validate_involution
from .permutations import Perm

__all__ = [
    "StateCache",
]


class StateData:
    """Homology package of one surface: its H_1 basis (with the surface,
    ``basis.origami``) and, when it carries a deck involution, the
    splitting of H_1 (else ``splitting`` is None)."""

    def __init__(self, origami: Origami, iota: Perm | None = None):
        self.basis: HomologyBasis = homology_basis(origami)
        self.splitting: InvolutionSplitting | None = None
        if iota is not None:
            validate_involution(origami, iota)
            self.splitting = involution_splitting(self.basis, iota)
        # the weight of the state in a trimmed cache
        b, sp = self.basis, self.splitting
        mats = [b.cycles, b.functionals, b.cup]
        if sp is not None:
            mats += [sp.action, sp.plus_basis, sp.minus_basis]
        self.entries = sum(len(row) for m in mats for row in m)


def _move_matrix(src: StateData, tgt: StateData, gen: str, label) -> list[list[int]]:
    """Matrix C_tgt F B_src on H_1 of the chain map F of move ``gen``, its
    new squares relabelled by ``label`` (``move_rows``), exactly checked.

    Raises ArithmeticError unless F maps cycles to cycles and boundaries
    into boundaries (``move_cycles``), and the matrix is symplectic and,
    when the surfaces carry a deck involution, commutes with it.
    """
    FB = move_cycles(src.basis, tgt.basis, move_rows(src.basis.origami, gen, label))
    M = lattice.matmul(tgt.basis.functionals, FB)
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


class CyclePowers:
    """Exact products of the per-move matrices around a cycle, on one lattice.

    ``cum[j]`` is the product of the first j moves and C = cum[-1] the
    full-cycle product; ``powers`` holds C^0..C^(k-1) and ``nil`` is
    C^k - I, with nil @ nil == 0.
    """

    __slots__ = ("cum", "powers", "nil")

    def __init__(self, cum: list[list[list[int]]]):
        self.cum = cum
        self.powers, self.nil = lattice.quasi_unipotent_powers(cum[-1])

    def pencil(self, r: int, s: int, period: int) -> tuple[list[list[int]], list[list[int]]]:
        """(P, Q) with cum[r] @ C^(s + m * period) == P + m Q for every
        m >= 0, exactly; ``period`` is a multiple j k of k = len(powers).

        As nil @ nil == 0, C^(j k) == (I + nil)^j == I + j nil.  With
        t, s0 = divmod(s, k) and B = cum[r] @ C^s0, C^s == C^s0 (I + t nil),
        so P = B + t (B @ nil) and Q = j (B @ nil).
        """
        k = len(self.powers)
        j, rest = divmod(period, k)
        if rest:
            raise ValueError(f"period {period} is not a multiple of {k}")
        t, s0 = divmod(s, k)
        B = lattice.matmul(self.cum[r], self.powers[s0])
        BN = lattice.matmul(B, self.nil)
        return ([[x + t * y for x, y in zip(rb, rn)] for rb, rn in zip(B, BN)],
                [[j * y for y in rn] for rn in BN])

    def entries(self) -> int:
        """Entry count of the matrices held."""
        n = len(self.nil)
        return n * n * (len(self.cum) + len(self.powers) + 1)


class GenCycle:
    """States visited by repeating one generator, with closed-form products.

    ``states[j]`` is the state after j moves (states[0] is the anchor, and
    the move from states[-1] returns to it); ``plus`` gives the exact
    products of any number of moves on the invariant lattice, and
    ``minus()`` on the anti-invariant one, built when first asked for, so
    that a walk on H1+ alone never builds it.  ``digit`` gives the float
    pencils that a walk multiplies its frame by, each built once.
    """

    __slots__ = ("states", "plus", "_moves", "_minus", "_pencils")

    def __init__(self, cache: StateCache, key, gen: str):
        cum = [lattice.eye(cache.state(key).splitting.dim_plus)]
        self.states = [key]
        self._moves: list[Transition] = []
        cur = key
        while True:
            tr = cache.transition(cur, gen)
            self._moves.append(tr)
            cum.append(lattice.matmul(tr.plus, cum[-1]))
            cur = tr.target
            if cur == key:
                break
            self.states.append(cur)
        self.plus = CyclePowers(cum)
        self._minus: CyclePowers | None = None
        self._pencils: dict[tuple[bool, int, int], lattice.Pencil] = {}

    def minus(self) -> CyclePowers:
        """The products on the anti-invariant lattice, built on first use."""
        if self._minus is None:
            cum = [lattice.eye(len(self._moves[0].minus))]
            for tr in self._moves:
                cum.append(lattice.matmul(tr.minus, cum[-1]))
            self._minus = CyclePowers(cum)
        return self._minus

    def digit(self, a: int, with_minus: bool) -> tuple[lattice.Pencil, int, tuple[Perm, Perm, Perm]]:
        """(pencil, m, target) of ``a`` moves from states[0].

        ``pencil.at(m)`` is the float matrix of the a moves on H1+, or
        diag(H1+, H1-) ``with_minus``, and ``target`` the state they
        reach.  With q, r = divmod(a, len(states)) and k the period of the
        full-cycle products, len(plus.powers) or its lcm with
        len(minus().powers), m, s = divmod(q, k): the pencil is built once
        per (with_minus, r, s).
        """
        q, r = divmod(a, len(self.states))
        k = len(self.plus.powers)
        if with_minus:
            k = math.lcm(k, len(self.minus().powers))
        m, s = divmod(q, k)
        pencil = self._pencils.get((with_minus, r, s))
        if pencil is None:
            P, Q = self.plus.pencil(r, s, k)
            if with_minus:
                P_minus, Q_minus = self.minus().pencil(r, s, k)
                P, Q = lattice.block_diag(P, P_minus), lattice.block_diag(Q, Q_minus)
            pencil = self._pencils[with_minus, r, s] = lattice.Pencil(P, Q)
        return pencil, m, self.states[r]

    def entries(self) -> int:
        """Entry count of the exact products held on both lattices, and of
        the pencils, two matrices each."""
        return (self.plus.entries() + (self._minus.entries() if self._minus is not None else 0)
                + sum(2 * pencil.p.size for pencil in self._pencils.values()))


class StateCache:
    """Canonical states plus memoized transitions and generator cycles.

    ``states`` is in order of use, the least recently used first; the
    transitions and cycles from a state go with it.
    """

    def __init__(self):
        self.states: dict[tuple[Perm, Perm, Perm], StateData] = {}
        self.transitions: dict[tuple[tuple[Perm, Perm, Perm], str], Transition] = {}
        self.cycles: dict[tuple[tuple[Perm, Perm, Perm], str], GenCycle] = {}

    def state(self, key: tuple[Perm, Perm, Perm]) -> StateData:
        st = self.states.pop(key, None)
        if st is None:
            h, v, iota = key
            st = StateData(Origami(len(h), h, v, allow_disconnected=True), iota)
        self.states[key] = st
        return st

    def weight(self) -> int:
        """Entry count of the cached states and cycles."""
        return (sum(st.entries for st in self.states.values())
                + sum(cyc.entries() for cyc in self.cycles.values()))

    def trim(self, budget: int) -> None:
        """Drop cycles, then states, the least recently used first, until
        what is left weighs at most ``budget`` entries.  A cycle is rebuilt
        from cached moves, a state from its homology, so every cycle goes
        before any state; a state goes with its outgoing transitions."""
        total = self.weight()
        for key in list(self.states):
            if total <= budget:
                return
            for gen in ("T", "S", "L"):
                cyc = self.cycles.pop((key, gen), None)
                if cyc is not None:
                    total -= cyc.entries()
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
        target, label = canonical_labelling(move(key, gen), len(key[0]))
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

    def cycle(self, key: tuple[Perm, Perm, Perm], gen: str) -> GenCycle:
        """The cycle of ``gen`` from state ``key``, built on first use."""
        cyc = self.cycles.get((key, gen))
        if cyc is None:
            cyc = self.cycles[key, gen] = GenCycle(self, key, gen)
        else:
            self.states[key] = self.states.pop(key)
        return cyc


# the entries (see StateData.entries) the shared cache keeps between walkers
_SHARED_ENTRIES = 1 << 21

# the one cache of every walker in the process
_shared = StateCache()


def _clear_shared_cache() -> None:
    _shared.states.clear()
    _shared.transitions.clear()
    _shared.cycles.clear()


def shared_state_cache() -> StateCache:
    """The process-wide cache, first trimmed to ``_SHARED_ENTRIES``; call it
    once per walker, when the walker is created."""
    _shared.trim(_SHARED_ENTRIES)
    return _shared

