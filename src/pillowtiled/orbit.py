"""SL(2,Z) action on square-tiled surfaces and orbit enumeration.

The two generators act on the gluing permutations by

    T . (h, v) = (h, v . h^-1)        (horizontal shear)
    S . (h, v) = (v, h^-1)            (quarter turn)

and for internal use the inverse shear and the vertical shear are also
provided: T^-1 . (h, v) = (h, v . h), L . (h, v) = (h . v^-1, v).

When the surface is an orientation double cover, the deck involution is
transported along: a shear re-cuts the surface, so iota picks up the
permutation that moves the new cut back onto the old one (T: iota' =
h . iota, T^-1: iota' = h^-1 . iota, L: iota' = v . iota), while the
quarter turn needs no re-cut (S: iota' = iota).  Each move re-validates
the involution, so a transported state is always a legal double cover.

Orbits are finite; closure under S and T alone suffices (on a finite
orbit every generator acts bijectively, so inverses are reachable).
Isomorphic surfaces are identified by a canonical relabeling: breadth
first search from every possible start square with a fixed deterministic
neighbor order, keeping the lexicographically smallest result.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .permutations import Perm, compose, inverse
from .permsurf import Origami, origami_stratum, validate_involution

__all__ = [
    "OrbitCapExceeded",
    "OrbitGraph",
    "apply_generator",
    "apply_state_generator",
    "canonical_form",
    "canonical_state",
    "enumerate_orbit",
    "enumerate_state_orbit",
]

DEFAULT_ORBIT_CAP = 10_000


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
    if gen == "Tinv":
        return h, compose(v, h)
    if gen == "L":
        return compose(h, inverse(v)), v
    raise ValueError(f"unknown generator {gen!r}")


def apply_generator(o: Origami, gen: str) -> Origami:
    """Act by a generator; the result is a surface in the same stratum."""
    h, v = _move(o.h, o.v, gen)
    return Origami(o.d, h, v, allow_disconnected=o.allow_disconnected)


def apply_state_generator(o: Origami, iota: Perm, gen: str) -> tuple[Origami, Perm]:
    """Act on a double cover, transporting the deck involution."""
    new = apply_generator(o, gen)
    if gen == "T":
        iota2 = compose(o.h, iota)
    elif gen == "S":
        iota2 = iota
    elif gen == "Tinv":
        iota2 = compose(inverse(o.h), iota)
    elif gen == "L":
        iota2 = compose(o.v, iota)
    else:  # pragma: no cover - _move already rejected it
        raise ValueError(f"unknown generator {gen!r}")
    validate_involution(new, iota2)
    return new, iota2


def _bfs_labels(perms: tuple[Perm, ...], d: int, start: int) -> list[int]:
    """New label of each square, BFS from start, deterministic edge order."""
    steps = []
    for p in perms:
        steps.append(p)
        steps.append(inverse(p))
    label = [-1] * d
    label[start] = 0
    queue = [start]
    head = 0
    nxt = 1
    while head < len(queue):
        x = queue[head]
        head += 1
        for p in steps:
            y = p[x]
            if label[y] < 0:
                label[y] = nxt
                nxt += 1
                queue.append(y)
    if nxt != d:
        raise ValueError("BFS did not reach every square; data is disconnected")
    return label


def _relabel(perms: tuple[Perm, ...], label: list[int]) -> tuple[Perm, ...]:
    d = len(label)
    out = []
    for p in perms:
        q = [0] * d
        for x in range(d):
            q[label[x]] = label[p[x]]
        out.append(tuple(q))
    return tuple(out)


def canonical_labelling(perms: tuple[Perm, ...], d: int) -> tuple[tuple[Perm, ...], list[int]]:
    """Least BFS relabeling of the permutations and the label giving it.

    On a tie (an automorphism) the first start square wins: the perms are
    the same either way, but the label, and so the relabeling chain map,
    is not.
    """
    labels = (_bfs_labels(perms, d, start) for start in range(d))
    return min(((_relabel(perms, label), label) for label in labels), key=itemgetter(0))


def canonical_perms(perms: tuple[Perm, ...], d: int) -> tuple[Perm, ...]:
    return canonical_labelling(perms, d)[0]


def canonical_form(o: Origami) -> Origami:
    """Canonical relabeling; equal for isomorphic origamis, idempotent."""
    h, v = canonical_perms((o.h, o.v), o.d)
    return Origami(o.d, h, v, allow_disconnected=o.allow_disconnected)


def canonical_state(o: Origami, iota: Perm) -> tuple[Origami, Perm]:
    """Canonical relabeling of a double cover together with its involution.

    The involution takes part in the BFS, so this also handles orientable
    covers whose two components are only connected through iota.
    """
    h, v, i2 = canonical_perms((o.h, o.v, iota), o.d)
    return Origami(o.d, h, v, allow_disconnected=True), i2


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

    def origamis(self) -> list[Origami]:
        return [Origami(self.d, w[0], w[1], allow_disconnected=True) for w in self.vertices]

    def to_text(self) -> str:
        lines = [f"d {self.d}", f"size {self.size}"]
        for w in self.vertices:
            lines.append(" | ".join(",".join(map(str, p)) for p in w))
        for a, g, b in sorted(self.edges):
            lines.append(f"{a} {g} {b}")
        return "\n".join(lines) + "\n"


def _close_orbit(seed: tuple[Perm, ...], d: int, step, cap: int) -> OrbitGraph:
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
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(cap)
                    seen.add(img)
                    order.append(img)
                    nxt.append(img)
                edges.add((w, gen, img))
        frontier = nxt
    vertices = tuple(sorted(order))
    index = {w: i for i, w in enumerate(vertices)}
    return OrbitGraph(
        d=d,
        base=seed,
        vertices=vertices,
        edges=tuple(sorted((index[a], g, index[b]) for a, g, b in edges)),
    )


def enumerate_orbit(o: Origami, cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Breadth-first closure of the S,T action on canonical forms."""
    stratum = origami_stratum(o)

    def step(w: tuple[Perm, ...], gen: str) -> tuple[Perm, ...]:
        surf = Origami(o.d, w[0], w[1])
        img = canonical_form(apply_generator(surf, gen))
        if origami_stratum(img) != stratum:
            raise ArithmeticError("stratum changed along a move")
        return (img.h, img.v)

    seed = canonical_form(o)
    return _close_orbit((seed.h, seed.v), o.d, step, cap)


def enumerate_state_orbit(o: Origami, iota: Perm,
                          cap: int = DEFAULT_ORBIT_CAP) -> OrbitGraph:
    """Orbit of a double-cover state (h, v, iota) under S and T."""
    validate_involution(o, iota)

    def step(w: tuple[Perm, ...], gen: str) -> tuple[Perm, ...]:
        surf = Origami(o.d, w[0], w[1], allow_disconnected=True)
        img, i2 = apply_state_generator(surf, w[2], gen)
        img, i2 = canonical_state(img, i2)
        return (img.h, img.v, i2)

    surf0, iota0 = canonical_state(o, iota)
    return _close_orbit((surf0.h, surf0.v, iota0), o.d, step, cap)
