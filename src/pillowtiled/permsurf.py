"""Square-tiled and pillow-tiled surfaces as permutation data.

An :class:`Origami` is a translation surface tiled by unit squares: ``h``
maps each square to its right neighbor, ``v`` to its top neighbor.  A
:class:`PillowCover` is a degree-d branched cover of the pillowcase (the
sphere with four cone points of angle pi), encoded by the monodromy
permutations ``g0..g3`` of counterclockwise loops around the four corners,
taken from a fixed base point.  Loops are composed in path order: the
product relation reads ``g3 . g2 . g1 . g0 = id`` with ``g0`` acting first,
i.e. ``compose(g3, g2, g1, g0)`` is the identity.

Conventions fixed here (everything downstream only uses conjugation
invariants, so any consistent choice gives the same strata and orbits):

* vertex permutation of an origami: ``c = v h v^-1 h^-1``, whose cycles
  collect the squares sharing a lower-left corner (counterclockwise);
* the orientation double cover of a degree-d pillow cover is tiled by
  **4d** squares -- each pillow sheet contributes a 2x2 block of
  half-size squares, labelled A (lower left), B (lower right), C (upper
  left), D (upper right).  The finer tiling is forced: two of the four
  corner points of the pillowcase sit at half-integer positions of the
  coarse grid, and the double cover must keep every branch point at a
  lattice vertex so that the deck involution can be read off square
  labels.  (A 2d-square model cannot even reach the right genus: a
  connected origami on s squares has 2g - 2 <= s - 1, while e.g. the
  degree-5 cover with orders {3,3,3,-1^5} needs a genus-7 double cover.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .permutations import (
    Perm,
    compose,
    compose_all,
    cycles,
    format_cycles,
    identity,
    inverse,
    is_permutation,
    is_transitive,
    random_permutation,
)

__all__ = [
    "ConnectivityError",
    "MonodromyError",
    "Origami",
    "PillowCover",
    "SizeCapExceeded",
    "Stratum",
    "origami_stratum",
    "pillow_stratum",
    "orientation_double_cover",
    "random_origami",
    "random_pillow_cover",
]


class ConnectivityError(ValueError):
    """The permutation data does not describe a connected surface."""


class MonodromyError(ValueError):
    """The four corner permutations do not satisfy the product relation."""


class SizeCapExceeded(RuntimeError):
    """A surface is past a stated size cap; raised before it is built."""


@dataclass(frozen=True)
class Origami:
    """A square-tiled translation surface on squares {0..d-1}.

    ``h[i]`` is the square to the right of square ``i``, ``v[i]`` the square
    above it.  Connectivity is required unless ``allow_disconnected`` is set
    (orientation double covers of orientable pillow covers split into two
    components and are the one sanctioned source of disconnected data).
    """

    d: int
    h: Perm
    v: Perm
    allow_disconnected: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("need at least one square")
        for name in ("h", "v"):
            p = getattr(self, name)
            if len(p) != self.d or not is_permutation(p):
                raise ValueError(f"{name} is not a permutation of 0..{self.d - 1}")
        if not self.allow_disconnected and not self.is_connected():
            raise ConnectivityError("squares are not connected by h and v")

    def is_connected(self) -> bool:
        return is_transitive([self.h, self.v], self.d)

    def vertex_permutation(self) -> Perm:
        """c = v . h . v^-1 . h^-1; its cycles are the lattice vertices.

        The cycle of c through square s lists exactly the squares whose
        lower-left corner is the same point as s's (walk counterclockwise
        around that corner: left edge of s into h^-1(s), bottom edge into
        v^-1 h^-1 (s), right edge, top edge, and you re-enter a lower-left
        sector at v h v^-1 h^-1 (s)).
        """
        return compose_all(self.v, self.h, inverse(self.v), inverse(self.h))

    def __str__(self) -> str:
        return f"{self.d}; {format_cycles(self.h)}; {format_cycles(self.v)}"


@dataclass(frozen=True)
class PillowCover:
    """A branched cover of the pillowcase, encoded by corner monodromy."""

    d: int
    g0: Perm
    g1: Perm
    g2: Perm
    g3: Perm

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("degree must be positive")
        for name in ("g0", "g1", "g2", "g3"):
            p = getattr(self, name)
            if len(p) != self.d or not is_permutation(p):
                raise ValueError(f"{name} is not a permutation of 0..{self.d - 1}")
        if compose_all(self.g3, self.g2, self.g1, self.g0) != identity(self.d):
            raise MonodromyError("g3.g2.g1.g0 != id (path-order product)")
        if not is_transitive(list(self.corner_perms()), self.d):
            raise ConnectivityError("monodromy group is not transitive")

    def corner_perms(self) -> tuple[Perm, Perm, Perm, Perm]:
        return (self.g0, self.g1, self.g2, self.g3)

    def __str__(self) -> str:
        parts = "; ".join(format_cycles(g) for g in self.corner_perms())
        return f"{self.d}; {parts}"


@dataclass(frozen=True)
class Stratum:
    """Zero/pole orders of an abelian or quadratic differential.

    ``orders`` keeps every labelled point: order 0 entries are marked
    regular points and are retained on purpose (the pole-count bookkeeping
    downstream needs the unramified partners of simple poles).
    """

    kind: str  # "abelian" | "quadratic"
    orders: tuple[int, ...]
    genus: int

    def __post_init__(self):
        if self.kind not in ("abelian", "quadratic"):
            raise ValueError(f"unknown stratum kind {self.kind!r}")
        total = sum(self.orders)
        expected = 2 * self.genus - 2 if self.kind == "abelian" else 4 * self.genus - 4
        if total != expected:
            raise ValueError(
                f"orders sum to {total}, expected {expected} for genus {self.genus}"
            )

    @property
    def num_poles(self) -> int:
        return sum(1 for m in self.orders if m == -1)

    def label(self) -> str:
        sym = "H" if self.kind == "abelian" else "Q"
        seen: dict[int, int] = {}
        for m in self.orders:
            seen[m] = seen.get(m, 0) + 1
        parts = []
        for m in sorted(seen, reverse=True):
            parts.append(f"{m}^{seen[m]}" if seen[m] > 1 else f"{m}")
        return f"{sym}({', '.join(parts)})"


def _sorted_orders(orders) -> tuple[int, ...]:
    return tuple(sorted(orders, reverse=True))


def origami_stratum(o: Origami) -> Stratum:
    """Abelian stratum of a connected origami.

    Every cycle of the vertex permutation is a lattice point of the tiling;
    a cycle of length l is a cone point of angle 2*pi*l, i.e. a zero of
    order l-1 (0 = marked regular point, retained).  An origami built
    without ``allow_disconnected`` was proved connected when it was built.
    """
    if o.allow_disconnected and not o.is_connected():
        raise ConnectivityError("stratum is defined for connected origamis")
    lens = [len(c) for c in cycles(o.vertex_permutation())]
    total = sum(l - 1 for l in lens)
    if total % 2:
        raise RuntimeError("odd cone-angle excess on an origami")
    g = total // 2 + 1
    return Stratum("abelian", _sorted_orders(l - 1 for l in lens), g)


def pillow_stratum(p: PillowCover) -> Stratum:
    """Quadratic stratum of a pillow cover.

    Over a corner (a simple pole of the base differential) a monodromy
    cycle of length l is a point of cone angle l*pi: quadratic order l-2.
    Genus comes from Riemann-Hurwitz, 2 - 2g = 2d - sum(l-1).
    """
    lens = [len(c) for g in p.corner_perms() for c in cycles(g)]
    excess = sum(l - 1 for l in lens)
    chi = 2 * p.d - excess
    if chi % 2:
        raise RuntimeError("odd Euler characteristic in pillow stratum")
    g = (2 - chi) // 2
    orders = _sorted_orders(l - 2 for l in lens)
    if sum(orders) != 4 * g - 4:
        raise ArithmeticError("the stratum orders do not sum to 4g - 4")
    return Stratum("quadratic", orders, g)


# ---------------------------------------------------------------------------
# Orientation double cover
# ---------------------------------------------------------------------------
#
# Model the pillowcase as the unit torus R^2/Z^2 modulo the half-turn z -> -z;
# its four corners are the half-lattice points.  The double cover of a
# degree-d pillow cover is tiled by 4d half-size squares, indexed 4*k + c for
# pillow sheet k and class c in {A,B,C,D} = {0,1,2,3}:
#
#       C | D
#       --+--        (one 2x2 block per sheet; A is the lower left)
#       A | B
#
# Crossing the block boundaries off the branch cuts keeps the sheet; crossing
# a cut applies the appropriate monodromy.  Writing W = g0^-1 g1^-1 for the
# horizontal wrap, Bt = g1 for the bottom fold and Tt = g2^-1 for the top
# fold, the gluings come out as the table below.  The deck involution is the
# half-turn: it swaps A <-> D and B <-> C within each sheet and never fixes a
# square, and satisfies i h i = h^-1, i v i = v^-1.

_A, _B, _C, _D = 0, 1, 2, 3


def _dc_index(k: int, cls: int) -> int:
    return 4 * k + cls


def orientation_double_cover(p: PillowCover) -> tuple[Origami, Perm]:
    """The translation double cover of a pillow cover, with its involution.

    Returns ``(origami, iota)`` on 4d squares.  ``iota`` is the deck
    involution of the cover; it is fixed-point free on squares, and so are
    ``h . iota`` and ``v . iota`` (all geometric fixed points sit at lattice
    vertices), which is what makes the combinatorial quotient well defined.
    The origami is disconnected exactly when the pillow cover is orientable
    (the quadratic differential is a global square); both components are
    then copies of the underlying translation surface.
    """
    d = p.d
    W = inverse(compose(p.g1, p.g0))
    Winv = inverse(W)
    Bt = p.g1
    Btinv = inverse(Bt)
    Tt = inverse(p.g2)
    Ttinv = inverse(Tt)

    n = 4 * d
    h = [0] * n
    v = [0] * n
    iota = [0] * n
    for k in range(d):
        h[_dc_index(k, _A)] = _dc_index(k, _B)
        h[_dc_index(k, _B)] = _dc_index(W[k], _A)
        h[_dc_index(k, _C)] = _dc_index(k, _D)
        h[_dc_index(k, _D)] = _dc_index(Winv[k], _C)
        v[_dc_index(k, _A)] = _dc_index(Tt[k], _C)
        v[_dc_index(k, _B)] = _dc_index(Ttinv[k], _D)
        v[_dc_index(k, _C)] = _dc_index(Btinv[k], _A)
        v[_dc_index(k, _D)] = _dc_index(Bt[k], _B)
        iota[_dc_index(k, _A)] = _dc_index(k, _D)
        iota[_dc_index(k, _D)] = _dc_index(k, _A)
        iota[_dc_index(k, _B)] = _dc_index(k, _C)
        iota[_dc_index(k, _C)] = _dc_index(k, _B)

    h, v, iota = tuple(h), tuple(v), tuple(iota)
    o = Origami(n, h, v, allow_disconnected=True)
    validate_involution(o, iota)
    return o, iota


def validate_involution(o: Origami, iota: Perm) -> None:
    """Check that iota is a half-turn deck involution for o.  Once iota
    squares to id, iota.h.iota = h^-1 iff (h.iota)^2 = id, and so for v."""
    ident = identity(o.d)
    if compose(iota, iota) != ident:
        raise ValueError("involution does not square to the identity")
    if any(iota[i] == i for i in range(o.d)):
        raise ValueError("involution fixes a square")
    hi = compose(o.h, iota)
    if compose(hi, hi) != ident:
        raise ValueError("involution does not reverse h")
    vi = compose(o.v, iota)
    if compose(vi, vi) != ident:
        raise ValueError("involution does not reverse v")
    # Fixed points of the half-turn must sit at lattice vertices, not at
    # edge midpoints: an edge midpoint is fixed iff h.iota or v.iota fixes
    # a square.
    if any(hi[i] == i for i in range(o.d)) or any(vi[i] == i for i in range(o.d)):
        raise ValueError("involution fixes an edge midpoint")


def random_origami(d: int, rng) -> Origami:
    while True:
        h = random_permutation(d, rng)
        v = random_permutation(d, rng)
        if is_transitive([h, v], d):
            return Origami(d, h, v)


def random_pillow_cover(d: int, rng) -> PillowCover:
    while True:
        g0 = random_permutation(d, rng)
        g1 = random_permutation(d, rng)
        g2 = random_permutation(d, rng)
        g3 = inverse(compose_all(g2, g1, g0))
        try:
            return PillowCover(d, g0, g1, g2, g3)
        except ConnectivityError:
            continue
