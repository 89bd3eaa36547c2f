"""Transport of homology along affine moves.

This module holds the one move step, ``_move_matrix``, which turns a
move's chain map between two surfaces (``homology.move_rows``, a signed
row map with the target's relabelling folded in) into an exact integer
matrix on H_1, checked on the nose to be well defined (on the two
surfaces' incidence, by ``homology.move_cycles``) and symplectic, on the
cup matrices K of the two bases: M K_src M^T == K_tgt needs no inverse,
as both K are unimodular, so it forces det M = +-1 and is then
equivalent to M^T J_tgt M == J_src for the intersection matrices
J = -K^-1.  ``StateCache`` applies it between canonicalized double-cover
states and restricts it to their involution eigenlattices, whose
coordinates ``_restrict`` reads off the target's Hermite basis by forward
substitution; it is the one path that transports H_1.  It commutes with
the deck involution, checked once per state, with no check of its own
(``_move_matrix``).  The tests fold the same step along raw words of
moves, in ``tests/reference.py``.

``StateCache`` moves a key (h, v, iota) with the orbit closure's step,
``orbit.move``, and, by the closure's rule, checks a state once, when
``state`` builds it: each check is invariant under relabeling, and a
cached target was checked when it was built.

Every ``StateCache`` keeps its states, moves, half-cycles and pencils in
the process-wide store (:mod:`.store`), so a unit that an earlier walker
built is not built or checked again.  That needs no re-check: a state is
a function of its canonical key ``(h, v, iota)`` alone, a transition of
its source state and the move, a half-cycle (``GenCycle``, the states and
exact products of repeating T or L from a state on H1+ or on H1-, with
the closed-form powers of its full-cycle product, whose period the
surface bounds) of its state, generator and half, built from the cached
moves alone, and a pencil (``lattice.Pencil``, the float matrices that
the walks multiply by) of the half-cycles it is built from and its place
on them, so a unit built for one line is the unit any other line would
build; unit relabellings x -> u x of a cyclic cover give the same
canonical states, and their lines share everything.  A walk on H1+ alone
never builds an H1- half.  Units are stored only once built, so a build
cut short by an exception leaves nothing behind.

Each unit is immutable, weighed once, when ``StateCache`` keeps it, and
dropped when least recently used, during a walk too, and built again,
equal, when next asked for.  A half-cycle keeps its exact products
packed (``lattice.pack``), as fixed-width arrays where every entry fits
and as rows of Python ints past that, with the same values either way.
A unit weighs 16 bytes per entry of its matrices kept as rows, and each
packed matrix its own bytes and a fixed ``_ARRAY`` bytes (``_weight``); a
pencil weighs ``p.nbytes + q.nbytes``, or ``p.nbytes`` alone where Q is
zero and it keeps no ``q``.  A half-cycle holds no move, and no unit holds
the cache or its own store key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lattice, store
from .homology import HomologyBasis, InvolutionSplitting, homology_basis, involution_splitting
from .homology import move_cycles, move_rows
from .orbit import canonical_labelling, canonical_perms, move
from .permsurf import Origami, validate_involution
from .permutations import Perm, cycles

__all__ = [
    "StateCache",
]


class StateData:
    """Homology package of one double-cover state: its H_1 basis (with the
    surface, ``basis.origami``) and its deck involution's ``splitting``."""

    def __init__(self, origami: Origami, iota: Perm):
        self.basis: HomologyBasis = homology_basis(origami)
        validate_involution(origami, iota)
        self.splitting: InvolutionSplitting = involution_splitting(self.basis, iota)


# what tracemalloc counts for a packed matrix besides its entries, its
# header, shape and strides and a list slot: 137 to 141 bytes, 1x1 to 94x94
_ARRAY = 144


def _weight(*mats) -> int:
    """The bytes exact integer matrices weigh in the store.  A matrix of
    rows weighs 16 an entry: tracemalloc counts 9-15 a state entry, 10-25
    a move's, 5 <= N <= 30.  A packed one weighs its bytes and ``_ARRAY``."""
    return sum(m.nbytes + _ARRAY if hasattr(m, "nbytes") else 16 * sum(map(len, m))
               for m in mats)


def _move_matrix(src: HomologyBasis, tgt: HomologyBasis, gen: str, label) -> list[list[int]]:
    """Matrix C_tgt F B_src on H_1 of the chain map F of move ``gen``, its
    new squares relabelled by ``label`` (``move_rows``), exactly checked.

    Raises ArithmeticError unless F maps cycles to cycles and boundaries
    into boundaries (``move_cycles``) and the matrix is symplectic.  No
    check of the deck involution is needed: the two restrictions
    (``_restrict``) show M L+_s <= L+_t and M L-_s <= L-_t, iota is +-1 on
    them (``involution_splitting``), and L+ + L- has full rank r, so
    iota_t M == M iota_s over Q, and therefore over Z.
    """
    FB = move_cycles(src, tgt, move_rows(src.origami, gen, label))
    M = lattice.matmul(tgt.functionals, FB)
    # symplectic: M K_src M^T = K_tgt, each K the cup matrix of its own basis
    if not lattice.mat_eq(lattice.matmul(M, lattice.matmul(src.cup, lattice.transpose(M))), tgt.cup):
        raise ArithmeticError("cocycle matrix is not symplectic")
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


class GenCycle:
    """Exact products of repeating one generator from a state, on one half.

    It is built from the moves around the cycle alone: ``moves[j]`` goes
    from ``states[j]`` to ``states[j + 1]``, and the last one returns to
    ``states[0]``, the anchor.  ``half`` 0 takes each move's restriction
    to H1+ and 1 its restriction to H1-, and the cycle reads its dimension
    off its first move.  ``cum[j]`` is the product of the first j moves
    and C = cum[-1] the full-cycle product; ``powers`` holds C^0..C^(k-1)
    and ``nil`` is C^k - I, with nil @ nil == 0, for the least k.  Each is
    kept packed (``lattice.pack``), and nothing changes once built.

    The period k is at most the cap P n / len(states), n the state's
    squares and P the order of h for T, of v for L.  T^P (h, v, iota) =
    (h, v h^-P, h^P iota) is the raw state again (L^P likewise with v), so
    len(states) divides P, and going P / len(states) times round gives
    C^(P / len(states)) = Lambda M: M is the multitwist T^P, with
    (M - I)^2 = 0, and Lambda the composite relabelling, an automorphism
    of the state that commutes with M.  As <h, v, iota> is transitive,
    automorphisms act freely on the squares, so the order of Lambda
    divides n and (C^(P n / len(states)) - I)^2 = 0.
    """

    __slots__ = ("states", "cum", "powers", "nil")

    def __init__(self, gen: str, moves: list[Transition], half: int):
        self.states = [moves[-1].target] + [tr.target for tr in moves[:-1]]
        mats = [tr.minus if half else tr.plus for tr in moves]
        cum = [lattice.eye(len(mats[0]))]
        for M in mats:
            cum.append(lattice.matmul(M, cum[-1]))
        h, v, _ = self.states[0]
        order = math.lcm(*map(len, cycles(h if gen == "T" else v)))
        powers, nil = lattice.quasi_unipotent_powers(cum[-1], order * len(h) // len(moves))
        self.cum = [lattice.pack(m) for m in cum]
        self.powers = [lattice.pack(m) for m in powers]
        self.nil = lattice.pack(nil)

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


class StateCache:
    """Canonical states plus memoized transitions, half-cycles and pencils.

    Every instance reads and keeps the same units of the process-wide
    store, under the keys key, (key, gen), ("cycle", key, gen, half) and
    ("pencil", key, gen, with_minus, r, s), each kept once, when built,
    and weighed then; ``states`` and ``transitions`` are the store's
    index, for ``key in`` and ``(key, gen) in``.
    """

    states = transitions = store.index

    def state(self, key: tuple[Perm, Perm, Perm]) -> StateData:
        st = store.get(key)
        if st is None:
            h, v, iota = key
            st = StateData(Origami(len(h), h, v, allow_disconnected=True), iota)
            b, sp = st.basis, st.splitting
            store.keep((key,), st, _weight(b.cycles, b.functionals, b.cup, sp.plus_basis, sp.minus_basis))
        return st

    def canonical_key(self, o: Origami, iota: Perm) -> tuple[Perm, Perm, Perm]:
        return canonical_perms((o.h, o.v, iota), o.d)

    def transition(self, key: tuple[Perm, Perm, Perm], gen: str) -> Transition:
        tr = store.get((key, gen))
        if tr is not None:
            return tr
        src = self.state(key)
        # the closure's move step; canonicalize and keep the relabeling
        # that got us there.  The target is checked once, when built.
        target, label = canonical_labelling(move(key, gen), len(key[0]))
        tgt = self.state(target)
        M = _move_matrix(src.basis, tgt.basis, gen, label)
        sp, tp = src.splitting, tgt.splitting
        tr = Transition(
            target=target,
            plus=_restrict(M, sp.plus_basis, tp.plus_basis, "invariant"),
            minus=_restrict(M, sp.minus_basis, tp.minus_basis, "anti-invariant"),
        )
        store.keep(((key, gen),), tr, _weight(tr.plus, tr.minus))
        return tr

    def cycle(self, key: tuple[Perm, Perm, Perm], gen: str, half: int) -> GenCycle:
        """The cycle of ``gen`` from state ``key`` on H1+ (``half`` 0) or
        H1- (1), built on first use from the cached moves."""
        unit = ("cycle", key, gen, half)
        cyc = store.get(unit)
        if cyc is None:
            moves = [self.transition(key, gen)]
            while moves[-1].target != key:
                moves.append(self.transition(moves[-1].target, gen))
            cyc = GenCycle(gen, moves, half)
            store.keep((unit,), cyc, _weight(*cyc.cum, *cyc.powers, cyc.nil))
        return cyc

    def digit(self, key: tuple[Perm, Perm, Perm], gen: str, a: int, with_minus: bool
              ) -> tuple[lattice.Pencil, int, tuple[Perm, Perm, Perm]]:
        """(pencil, m, target) of ``a`` moves of ``gen`` from state ``key``.

        ``pencil.at(m)`` is the float matrix of the a moves on H1+, or
        diag(H1+, H1-) ``with_minus``, and ``target`` the state they
        reach.  With q, r = divmod(a, len(states)) and k the period of the
        full-cycle products, len(powers) of the H1+ cycle or the lcm of
        the two halves', m, s = divmod(q, k): the pencil is built once per
        (r, s) and kept as its own unit.  Each call asks for the
        half-cycles too, so they stay as recently used as their pencils.
        """
        plus, *minus = halves = [self.cycle(key, gen, half) for half in range(1 + with_minus)]
        q, r = divmod(a, len(plus.states))
        k = math.lcm(*(len(c.powers) for c in halves))
        m, s = divmod(q, k)
        unit = ("pencil", key, gen, with_minus, r, s)
        pencil = store.get(unit)
        if pencil is None:
            P, Q = plus.pencil(r, s, k)
            if minus:
                P_minus, Q_minus = minus[0].pencil(r, s, k)
                P, Q = lattice.block_diag(P, P_minus), lattice.block_diag(Q, Q_minus)
            pencil = lattice.Pencil(P, Q)
            store.keep((unit,), pencil, pencil.p.nbytes + (0 if pencil.q is None else pencil.q.nbytes))
        return pencil, m, plus.states[r]
