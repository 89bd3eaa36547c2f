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
(S: iota' = iota).  ``_move`` and ``_transport`` are the one move step
on a state (h, v, iota): the closure here and ``cocycle.StateCache`` both
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

Every closure that completes is kept in a process-wide memo under each of
its canonical vertices.  A later seed whose canonical tuple is a key gets
that orbit back at once, with no move, no further labelling and no check:
each check is relabeling-invariant and already ran on every vertex of the
orbit when it was first closed, the stratum included, since every vertex
of an origami orbit has the stratum of its seed.  The vertices and edges
are sorted, so only ``base`` depends on the seed, and the graph is the one
a fresh closure would give.  A hit obeys the cap as the closure does: it
raises :class:`OrbitCapExceeded` iff the orbit has more vertices than the
cap.  A closure that raised is not kept.

The memo holds at most ``_MEMO_VERTICES`` vertices over all its orbits;
past that, whole orbits are dropped, the first closed first, and an orbit
larger than the budget is not kept.  A vertex is kept as d and its k
permutations packed into k*d bytes (4*k*d past 256 squares), plus its S
and T targets: about k*d + 150 bytes in all, so a memo full of the states
(k = 3) of cyclic covers of degree N = 30 (d = 4N) holds about 8 MB.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain

from .permutations import Perm, compose, inverse
from .permsurf import Origami, origami_stratum, validate_involution

__all__ = [
    "OrbitCapExceeded",
    "OrbitGraph",
    "enumerate_orbit",
    "enumerate_state_orbit",
]

DEFAULT_ORBIT_CAP = 10_000

# at most this many vertices are held by the orbit memo, over all orbits
_MEMO_VERTICES = 1 << 14


class OrbitCapExceeded(RuntimeError):
    """Raised when an orbit grows past the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"orbit exceeds the configured cap of {cap} vertices")
        self.cap = cap


def _move(h: Perm, v: Perm, gen: str) -> tuple[Perm, Perm]:
    if gen == "T":
        return h, compose(v, inverse(h))
    if gen == "S":
        return v, inverse(h)
    if gen == "L":
        return compose(h, inverse(v)), v
    raise ValueError(f"unknown generator {gen!r}")


def _transport(h: Perm, v: Perm, iota: Perm, gen: str) -> Perm:
    """The deck involution carried along the move gen of (h, v)."""
    if gen == "T":
        return compose(h, iota)
    if gen == "S":
        return iota
    if gen == "L":
        return compose(v, iota)
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
    base: tuple[Perm, ...]
    vertices: tuple[tuple[Perm, ...], ...]
    edges: tuple[tuple[int, str, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


# the packed canonical vertices of every memoised orbit -> that orbit, kept
# as (its packed vertices in order, the targets of its edges in order)
_memo: dict[bytes, tuple[tuple[bytes, ...], array]] = {}
# the memoised orbits, the first closed first
_memo_order: deque[tuple[tuple[bytes, ...], array]] = deque()


def _clear_memo() -> None:
    _memo.clear()
    _memo_order.clear()


def _typecode(d: int) -> str:
    return "B" if d <= 256 else "I"


def _packed(w: tuple[Perm, ...], d: int) -> bytes:
    # d leads, so equal keys have equal d, width and number of permutations
    return d.to_bytes(4, "little") + array(_typecode(d), chain.from_iterable(w)).tobytes()


def _unpacked(key: bytes, d: int) -> tuple[Perm, ...]:
    flat = array(_typecode(d), key[4:]).tolist()
    return tuple(tuple(flat[i:i + d]) for i in range(0, len(flat), d))


def _remember(vertices: tuple, edges: tuple, d: int) -> None:
    """Keep a closed orbit, dropping the oldest orbits to stay in budget.

    Each vertex has one S and one T edge, so the sorted edges are fixed by
    their targets.  The orbit is queued before its keys go in and an
    evicted orbit's keys go before it leaves the queue, so an interrupted
    call leaves every key on a complete orbit and reachable for eviction.
    """
    if len(vertices) > _MEMO_VERTICES:
        return
    while _memo_order and len(_memo) + len(vertices) > _MEMO_VERTICES:
        for key in _memo_order[0][0]:
            _memo.pop(key, None)
        _memo_order.popleft()
    entry = (tuple(_packed(w, d) for w in vertices), array("I", (b for _, _, b in edges)))
    _memo_order.append(entry)
    for key in entry[0]:
        _memo[key] = entry


def _recall(perms: tuple[Perm, ...], d: int, cap: int) -> tuple[tuple[Perm, ...] | None, OrbitGraph | None]:
    """The canonical seed of perms and its memoised orbit, if any.

    Data that labelling rejects gives no seed; it misses the memo, and the
    caller's checks then raise as they would without it.
    """
    try:
        seed = canonical_perms(perms, d)
    except ValueError:
        return None, None
    entry = _memo.get(_packed(seed, d))
    if entry is None:
        return seed, None
    keys, targets = entry
    if len(keys) > cap:
        raise OrbitCapExceeded(cap)
    vertices = tuple(_unpacked(key, d) for key in keys)
    edges = tuple((i >> 1, "ST"[i & 1], b) for i, b in enumerate(targets))
    return seed, OrbitGraph(d=d, base=seed, vertices=vertices, edges=edges)


def _close_orbit(seed: tuple[Perm, ...], d: int, step, check, cap: int) -> OrbitGraph:
    """S,T-closure from a canonical seed; ``step(w, gen)`` is the canonical
    image of vertex w and ``check(w)`` validates a vertex when first seen."""
    check(seed)
    seen = {seed}
    order = [seed]
    frontier = [seed]
    edges = set()
    while frontier:
        nxt = []
        for w in frontier:
            for gen in ("S", "T"):
                img = step(w, gen)
                if img not in seen:
                    check(img)
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(cap)
                    seen.add(img)
                    order.append(img)
                    nxt.append(img)
                edges.add((w, gen, img))
        frontier = nxt
    vertices = tuple(sorted(order))
    index = {w: i for i, w in enumerate(vertices)}
    edges = tuple(sorted((index[a], g, index[b]) for a, g, b in edges))
    _remember(vertices, edges, d)
    return OrbitGraph(d=d, base=seed, vertices=vertices, edges=edges)


def enumerate_orbit(o: Origami, cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Breadth-first closure of the S,T action on canonical forms."""
    d = o.d
    seed, graph = _recall((o.h, o.v), d, cap)
    if graph is not None:
        return graph
    stratum = origami_stratum(o)

    def step(w: tuple[Perm, ...], gen: str) -> tuple[Perm, ...]:
        return canonical_perms(_move(w[0], w[1], gen), d)

    def check(w: tuple[Perm, ...]) -> None:
        if origami_stratum(Origami(d, w[0], w[1])) != stratum:
            raise ArithmeticError("stratum changed along a move")

    return _close_orbit(seed or canonical_perms((o.h, o.v), d), d, step, check, cap)


def enumerate_state_orbit(o: Origami, iota: Perm,
                          cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Orbit of a double-cover state (h, v, iota) under S and T."""
    d = o.d
    seed, graph = _recall((o.h, o.v, iota), d, cap)
    if graph is not None:
        return graph
    validate_involution(o, iota)

    def step(w: tuple[Perm, ...], gen: str) -> tuple[Perm, ...]:
        h, v, i = w
        return canonical_perms((*_move(h, v, gen), _transport(h, v, i, gen)), d)

    def check(w: tuple[Perm, ...]) -> None:
        validate_involution(Origami(d, w[0], w[1], allow_disconnected=True), w[2])

    return _close_orbit(seed or canonical_perms((o.h, o.v, iota), d), d, step, check, cap)
