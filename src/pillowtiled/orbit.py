"""SL(2,Z) action on square-tiled surfaces and orbit enumeration.

The two generators act on the gluing permutations by

    T . (h, v) = (h, v . h^-1)        (horizontal shear)
    S . (h, v) = (v, h^-1)            (quarter turn)

and for internal use the vertical shear is also provided:
L . (h, v) = (h . v^-1, v).  The orbit closure uses only S and T, the
Monte-Carlo walker only T and L.

When the surface is an orientation double cover, the deck involution is
transported along: a shear re-cuts the surface, so iota picks up the
permutation that moves the new cut back onto the old one (T: iota' =
h . iota, L: iota' = v . iota), while the quarter turn needs no re-cut
(S: iota' = iota).  :func:`move` is the one move step, on (h, v) or on
a state (h, v, iota): the closure here and ``cocycle.StateCache`` both
take it, and neither checks a moved state; each checks a state once, on
its canonical form, when it is first seen or built.

Orbits are finite; closure under S and T alone suffices (on a finite
orbit every generator acts bijectively, so inverses are reachable).
Isomorphic surfaces are identified by a canonical relabeling: breadth
first search from every possible start square with a fixed deterministic
neighbor order, keeping the lexicographically smallest result.  A start
is pruned at the first entry of its relabeled h that exceeds the best
one so far; the tuples compare h first, so it could not have won.  A
start that an automorphism found on a tie maps from an earlier start is
skipped, since it gives the same result.

The closure steps on canonical permutation tuples and validates each new
vertex once, when it is first seen: the permutation and connectivity
checks of :class:`Origami`, the involution and, for origamis, the
stratum.  That equals checking every move.  Each check is invariant under
relabeling, so checking the canonical image is checking the raw one, and
a move onto a vertex seen before lands on a tuple that was checked when
it was first seen.

The closure reads off every edge that the relations of the action fix.
S^4 == id and U^3 == id hold exactly on raw tuples, for U = T after S
(U . w = T . (S . w)), and a move commutes with relabelling, so on
canonical forms every S-cycle has 1, 2 or 4 vertices and every U-cycle 1
or 3.  Where S^2 relabels the seed it relabels every vertex, as -I is
central, and every S-cycle has 1 or 2 vertices; on a double-cover state
it always does, iota realising the half turn.  On an origami S^2 need not
relabel; then it relabels no vertex and every S-cycle has four.  The
seed's own S-cycle, labelled in full, tells which.  Each later S-cycle is
labelled but for its last edge, read off as the one that closes it.  A
U-cycle w -> U.w -> U^2.w -> w passes the T-edges out of S.w, S.U.w and
S.U^2.w; two are labelled and the third, back to w, is read off.  So a
closure labels the seed, each S-cycle's edges but its last (all of the
seed's cycle where it has two vertices), and one T-edge per vertex less
one per U-cycle of three.

Every closure that completes is kept in a process-wide memo under each of
its canonical vertices.  A later seed whose canonical tuple is a key gets
that orbit back at once, with no move, no further labelling and no check:
each check is relabeling-invariant and already ran on every vertex of the
orbit when it was first closed, the stratum included, since every vertex
of an origami orbit has the stratum of its seed.  The vertices and edges
are sorted, so the graph does not depend on the seed, and it is the one a
fresh closure would give.  A hit obeys the cap as the closure does: it
raises :class:`OrbitCapExceeded` iff the orbit has more vertices than the
cap.  A closure that raised is not kept.

Each orbit is one unit of the process-wide byte budget (:mod:`.store`):
a vertex is packed as d and its k permutations in k*d bytes (4*k*d past
256 squares), and the orbit weighs those bytes objects and its edge
targets.  The least recently used orbit goes first, with all its
vertices.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain

from . import store
from .permutations import Perm, compose, inverse
from .permsurf import Origami, origami_stratum, validate_involution

__all__ = [
    "OrbitCapExceeded",
    "OrbitGraph",
    "enumerate_orbit",
    "enumerate_state_orbit",
    "move",
]

DEFAULT_ORBIT_CAP = 10_000


class OrbitCapExceeded(RuntimeError):
    """Raised when an orbit grows past the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"orbit exceeds the configured cap of {cap} vertices")
        self.cap = cap


def move(w: tuple[Perm, ...], gen: str) -> tuple[Perm, ...]:
    """The move gen of (h, v), or of (h, v, iota) with iota carried along."""
    h, v, *iota = w
    if gen == "T":
        return (h, compose(v, inverse(h)), *(compose(h, i) for i in iota))
    if gen == "S":
        return (v, inverse(h), *iota)
    if gen == "L":
        return (compose(h, inverse(v)), v, *(compose(v, i) for i in iota))
    raise ValueError(f"unknown generator {gen!r}")


def _relabel_perm(p: Perm, label: list[int]) -> Perm:
    q = [0] * len(label)
    for x, y in enumerate(p):
        q[label[x]] = label[y]
    return tuple(q)


def _least(root: list[int], x: int) -> int:
    while root[x] != x:
        x = root[x]
    return x


def canonical_labelling(perms: tuple[Perm, ...], d: int) -> tuple[tuple[Perm, ...], list[int]]:
    """Least BFS relabeling of the permutations and the label giving it.

    Every start square is tried in turn.  Squares are dequeued in label
    order and h = perms[0] is the first neighbor looked at, so entry j of
    the relabeled h is known when the square labeled j is dequeued.  It is
    compared with the best relabeled h so far, and the start is pruned at
    its first larger entry: the relabeled tuples compare h first, so such
    a start is larger than the best and cannot be the least.  Once an entry
    is smaller the start beats the best and its BFS just runs to the end.
    Only a start that completes relabels the other permutations.

    On a tie (an automorphism) the first start square wins: the perms are
    the same either way, but the label, and so the relabeling chain map,
    is not.  A pruned start is strictly larger and a later equal start
    does not replace the best, so this is the same labelling and the same
    tie rule as taking the least over full relabelings from every start.

    A tie also gives an automorphism sigma of the data, sending each
    square to the square with the same best label: it commutes with every
    permutation.  The BFS from sigma(x) is the image of the BFS from x, so
    it gives the same perms; a start that the automorphisms found so far
    map from an earlier start cannot win and is skipped (McKay-Piperno,
    "Practical graph isomorphism II", J. Symb. Comp. 2014).
    """
    if d < 1:
        raise ValueError(f"need at least one square, got d = {d}")
    if not perms:
        raise ValueError("need at least one permutation")
    if any(len(p) != d for p in perms):
        raise ValueError(f"permutation lengths {[len(p) for p in perms]} differ from d = {d}")
    h = perms[0]
    # the BFS neighbor order: each permutation, then its inverse; a repeat
    # (an involution is its own inverse) never labels a new square
    steps = list(dict.fromkeys(q for p in perms for q in (p, inverse(p))))[1:]
    best = best_label = best_queue = None
    # union-find over squares; each root is the least square of its class,
    # so a start that is not a root has an earlier automorphic image
    root = list(range(d))
    for start in range(d):
        if root[start] != start:
            continue
        label = [-1] * d
        label[start] = 0
        queue = [start]
        nxt = 1
        q0 = []
        smaller = best is None
        for x in queue:
            # x is dequeued in label order and h is its first neighbor, so
            # the next entry of the relabeled h is known right here
            y = h[x]
            j = label[y]
            if j < 0:
                j = label[y] = nxt
                nxt += 1
                queue.append(y)
            if not smaller:
                b = best[0][len(q0)]
                if j > b:
                    break
                smaller = j < b
            q0.append(j)
            for p in steps:
                y = p[x]
                if label[y] < 0:
                    label[y] = nxt
                    nxt += 1
                    queue.append(y)
        else:
            if nxt != d:
                raise ValueError("BFS did not reach every square; data is disconnected")
            cand = (tuple(q0), *(_relabel_perm(p, label) for p in perms[1:]))
            if smaller or cand < best:
                best, best_label, best_queue = cand, label, queue
            elif cand == best:
                # queues list the squares in label order
                for x, y in zip(queue, best_queue):
                    a, b = _least(root, x), _least(root, y)
                    if a != b:
                        root[max(a, b)] = min(a, b)
    return best, best_label


def canonical_perms(perms: tuple[Perm, ...], d: int) -> tuple[Perm, ...]:
    return canonical_labelling(perms, d)[0]


@dataclass(frozen=True)
class OrbitGraph:
    """A complete S,T-orbit of canonical forms.

    ``vertices`` holds the canonical permutation data, sorted; ``edges``
    are (source index, generator, target index).  For plain origamis a
    vertex is (h, v); for double-cover states it is (h, v, iota).
    """

    d: int
    vertices: tuple[tuple[Perm, ...], ...]
    edges: tuple[tuple[int, str, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def _typecode(d: int) -> str:
    return "B" if d <= 256 else "I"


def _packed(w: tuple[Perm, ...], d: int) -> bytes:
    # d leads, so equal keys have equal d, width and number of permutations
    return d.to_bytes(4, "little") + array(_typecode(d), chain.from_iterable(w)).tobytes()


def _unpacked(key: bytes, d: int) -> tuple[Perm, ...]:
    flat = array(_typecode(d), key[4:]).tolist()
    return tuple(tuple(flat[i:i + d]) for i in range(0, len(flat), d))


def _recall(perms: tuple[Perm, ...], d: int, cap: int) -> tuple[tuple[Perm, ...] | None, OrbitGraph | None]:
    """The canonical seed of perms and its memoised orbit, if any.

    Data that labelling rejects gives no seed; it misses the memo, and the
    caller's checks then raise as they would without it.
    """
    try:
        seed = canonical_perms(perms, d)
    except ValueError:
        return None, None
    entry = store.get(_packed(seed, d))
    if entry is None:
        return seed, None
    keys, targets = entry
    if len(keys) > cap:
        raise OrbitCapExceeded(cap)
    return seed, _graph(d, tuple(_unpacked(key, d) for key in keys), targets)


def _graph(d: int, vertices: tuple[tuple[Perm, ...], ...], targets: array) -> OrbitGraph:
    """The graph whose vertex i has its S-edge to targets[2i] and its
    T-edge to targets[2i + 1]."""
    edges = tuple((i >> 1, "ST"[i & 1], b) for i, b in enumerate(targets))
    return OrbitGraph(d=d, vertices=vertices, edges=edges)


def _close_orbit(seed: tuple[Perm, ...], d: int, check, cap: int) -> OrbitGraph:
    """S,T-closure from a canonical seed; ``check(w)`` validates a vertex
    when it is first seen.

    Vertices are numbered as they are first seen, so each canonical tuple
    is hashed once, when it is labelled; ``s[i]`` and ``t[i]`` are the
    numbers of the S- and T-images of vertex i, None until known.  An
    S-cycle is labelled until it closes or has ``period`` vertices, when
    its last edge goes back to where it began.  The seed's is labelled
    with a period of 4, as S^4 == id: 1 or 2 vertices mean that S^2
    relabels every vertex, 4 that it relabels none, so every later
    S-cycle has at most 2 or exactly 4 vertices (``period``).  Then
    t[s[i]] is U.i, for U = T after S; it is known once the U-cycle of i
    is, and U^3 == id exactly: where U.i != i, two T-edges of the cycle
    are labelled and the third goes back to i.
    """
    check(seed)
    vertices, number = [seed], {seed: 0}
    s, t = [None], [None]

    def image(i: int, gen: str) -> int:
        w = canonical_perms(move(vertices[i], gen), d)
        j = number.get(w)
        if j is None:
            check(w)
            if len(vertices) >= cap:
                raise OrbitCapExceeded(cap)
            j = number[w] = len(vertices)
            vertices.append(w)
            s.append(None)
            t.append(None)
        return j

    def s_cycle(i: int, period: int) -> int:
        """Label the S-cycle of i; its number of vertices, or ``period``."""
        cycle = [i]
        while True:
            j = s[cycle[-1]] = image(cycle[-1], "S")
            if j == i:
                return len(cycle)
            cycle.append(j)
            if len(cycle) == period:
                s[j] = i
                return period

    def s_of(i: int) -> int:
        if s[i] is None:
            s_cycle(i, period)
        return s[i]

    period = max(2, s_cycle(0, 4))
    i = 0
    while i < len(vertices):
        x = s_of(i)
        if t[x] is None:
            # the U-cycle of i: i -> j -> k -> i, or i alone
            j = t[x] = image(x, "T")
            if j != i:
                y = s_of(j)
                k = t[y] = image(y, "T")
                t[s_of(k)] = i
        i += 1
    order = sorted(range(len(vertices)), key=vertices.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    vertices = tuple(vertices[i] for i in order)
    # kept as (the packed vertices, the targets of the edges), in order;
    # each vertex has one S and one T edge, so its edges are fixed by those
    targets = array("I", chain.from_iterable((rank[s[i]], rank[t[i]]) for i in order))
    keys = tuple(_packed(w, d) for w in vertices)
    store.keep(keys, (keys, targets), sum(map(sys.getsizeof, keys)) + sys.getsizeof(targets))
    return _graph(d, vertices, targets)


def enumerate_orbit(o: Origami, cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Breadth-first closure of the S,T action on canonical forms."""
    d = o.d
    seed, graph = _recall((o.h, o.v), d, cap)
    if graph is not None:
        return graph
    stratum = origami_stratum(o)

    def check(w: tuple[Perm, ...]) -> None:
        if origami_stratum(Origami(d, w[0], w[1])) != stratum:
            raise ArithmeticError("stratum changed along a move")

    return _close_orbit(seed or canonical_perms((o.h, o.v), d), d, check, cap)


def enumerate_state_orbit(o: Origami, iota: Perm,
                          cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Orbit of a double-cover state (h, v, iota) under S and T."""
    d = o.d
    seed, graph = _recall((o.h, o.v, iota), d, cap)
    if graph is not None:
        return graph
    validate_involution(o, iota)

    def check(w: tuple[Perm, ...]) -> None:
        validate_involution(Origami(d, w[0], w[1], allow_disconnected=True), w[2])

    return _close_orbit(seed or canonical_perms((o.h, o.v, iota), d), d, check, cap)
