"""Cyclic pillowcase covers, degeneracy criteria, and locus bookkeeping.

A cyclic datum (N, a1..a4) with sum(a) divisible by N and
gcd(a1,..,a4,N) = 1 describes the degree-N cover where the loop around
corner i acts by x -> x + a_i on Z/N.  The convention 0 < a_i <= N makes
a_i = N the "unbranched at corner i" case: corner i branches, with
orbits of length N / gcd(N, a_i) > 1, exactly when a_i != N.  Everything
downstream (genus, pole counts, bound checks) is exact integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bform import CurveDifferential
from .permsurf import PillowCover, Stratum, pillow_stratum
from .permutations import Perm, compose_all, cycles, identity, is_permutation, is_transitive

__all__ = [
    "CyclicCoverSpec",
    "CoverReport",
    "BoundVerdict",
    "LocusSpec",
    "LocusMetadata",
    "cyclic_to_pillow",
    "cover_report",
    "is_determinant_locus",
    "check_bounds",
    "locus_metadata",
    "sample_base_differential",
    "iter_specs",
]


@dataclass(frozen=True)
class CyclicCoverSpec:
    """Combinatorial datum of a cyclic cover of the pillowcase."""

    N: int
    a: tuple[int, int, int, int]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        a = tuple(int(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if len(a) != 4:
            raise ValueError("need exactly four corner integers")
        if any(not (0 < x <= self.N) for x in a):
            raise ValueError("corner integers must satisfy 0 < a_i <= N")
        if math.gcd(*a, self.N) != 1:
            raise ValueError("gcd(a_1, a_2, a_3, a_4, N) must be 1")
        if sum(a) % self.N != 0:
            raise ValueError("sum of corner integers must be divisible by N")


def cyclic_to_pillow(s: CyclicCoverSpec) -> PillowCover:
    """The cover itself: each corner loop acts by translation on Z/N."""
    perms = [tuple((x + ai) % s.N for x in range(s.N)) for ai in s.a]
    return PillowCover(s.N, *perms)


@dataclass(frozen=True)
class CoverReport:
    """Summary of one cover: genus, stratum, pole and branch counts."""

    degree: int
    genus: int
    stratum: Stratum
    n: int
    branch_count: int


def cover_report(s: CyclicCoverSpec) -> CoverReport:
    stratum = pillow_stratum(cyclic_to_pillow(s))
    return CoverReport(
        degree=s.N,
        genus=stratum.genus,
        stratum=stratum,
        n=stratum.num_poles,
        branch_count=sum(ai != s.N for ai in s.a),
    )


def is_determinant_locus(s: CyclicCoverSpec) -> bool:
    """Whether the cyclic cover is forced to be degenerate: some corner
    integer equals N, so that corner loop acts trivially and the cover is
    branched at three corners or fewer."""
    return any(ai == s.N for ai in s.a)


@dataclass(frozen=True)
class BoundVerdict:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    lhs: int | None = None
    rhs: int | None = None


def check_bounds(r: CoverReport, degenerate: bool) -> list[BoundVerdict]:
    """Pole-count, degree, and unbranched-pole bounds for degenerate covers.

    The degree bound applies only to covers branched at all four corners;
    the unbranched-pole bound applies to every degenerate cover, as cyclic
    covers are Galois.  Non-degenerate input skips everything.
    """
    out = []
    if degenerate and r.genus >= 1:
        need = max(2 * r.genus - 2, 2)
        out.append(BoundVerdict(
            "pole-count", "pass" if r.n >= need else "fail", r.n, need))
    else:
        out.append(BoundVerdict("pole-count", "skipped"))
    if degenerate and r.branch_count == 4:
        need = 3 * (r.genus - 1)
        out.append(BoundVerdict(
            "degree", "pass" if r.degree >= need else "fail", r.degree, need))
    else:
        out.append(BoundVerdict("degree", "skipped"))
    if degenerate:
        free = 4 - r.branch_count
        out.append(BoundVerdict(
            "unbranched-pole", "pass" if free >= 1 else "fail", free, 1))
    else:
        out.append(BoundVerdict("unbranched-pole", "skipped"))
    return out


def iter_specs(N: int):
    """All valid corner data for one N, lexicographically."""
    for a1 in range(1, N + 1):
        for a2 in range(1, N + 1):
            for a3 in range(1, N + 1):
                a4 = N - (a1 + a2 + a3) % N
                if math.gcd(a1, a2, a3, a4, N) == 1:
                    yield CyclicCoverSpec(N, (a1, a2, a3, a4))


@dataclass(frozen=True)
class LocusSpec:
    """A stratum datum on the base sphere plus a fixed 3-point cover.

    ``m``: zero orders of the base differential away from the cover's
    branch locus; ``k``: its number of simple poles; ``cover``: monodromy
    (h0, h1, hinf) of a connected cover branched only over 0, 1, infinity,
    with the loop product (0 first, then 1, then infinity) trivial.
    """

    m: tuple[int, ...]
    k: int
    cover: tuple[Perm, Perm, Perm]

    def __post_init__(self):
        m = tuple(int(x) for x in self.m)
        object.__setattr__(self, "m", m)
        if any(x < 1 for x in m):
            raise ValueError("zero orders must be positive")
        if sum(m) - self.k != -4:
            raise ValueError("orders minus pole count must equal -4")
        h0, h1, hinf = self.cover
        d = len(h0)
        if d < 1:
            raise ValueError("cover degree must be positive")
        for p in (h0, h1, hinf):
            if not is_permutation(p) or len(p) != d:
                raise ValueError("cover monodromy must be same-degree permutations")
        if compose_all(hinf, h1, h0) != identity(d):
            raise ValueError("monodromy product around 0, 1, infinity must be trivial")
        if not is_transitive([h0, h1, hinf], d):
            raise ValueError("cover monodromy must be transitive")

    @property
    def degree(self) -> int:
        return len(self.cover[0])

    @property
    def r(self) -> int:
        return len(self.m)


@dataclass(frozen=True)
class LocusMetadata:
    n: int
    dim: int
    target_stratum: Stratum
    genus_y: int


def locus_metadata(L: LocusSpec) -> LocusMetadata:
    """Pole count, dimension, and pulled-back stratum of a locus datum.

    The base differential has simple poles at 0, 1, infinity and at k-3
    further unbranched points, and zeros of orders m_j at unbranched
    points.  A cover point of ramification e over a simple pole has order
    e - 2 upstairs; unbranched fibers copy their base order d times.
    """
    d = L.degree
    fixed = sum(sum(1 for x in range(d) if p[x] == x) for p in L.cover)
    n = fixed + d * (L.k - 3)
    orders = []
    total_cycles = 0
    for p in L.cover:
        for c in cycles(p):
            orders.append(len(c) - 2)
            total_cycles += 1
    orders.extend([-1] * (d * (L.k - 3)))
    for mj in L.m:
        orders.extend([mj] * d)
    two_minus_2g = total_cycles - d
    if two_minus_2g % 2 != 0:
        raise ValueError("cover data does not close up to a surface")
    genus_y = (2 - two_minus_2g) // 2
    stratum = Stratum(kind="quadratic", orders=tuple(sorted(orders)), genus=genus_y)
    return LocusMetadata(
        n=n,
        dim=L.r + L.k - 2,
        target_stratum=stratum,
        genus_y=genus_y,
    )


def sample_base_differential(m, k: int, zeros=(), poles=()) -> CurveDifferential:
    """q = prod (z-y_j)^{m_j} / [z (z-1) prod (z-x_i)] dz^2.

    ``zeros`` lists the y_j (one per entry of ``m``), ``poles`` the k-3
    finite poles besides 0 and 1; the simple pole at infinity comes out of
    the degree count on its own.
    """
    m = tuple(int(x) for x in m)
    zeros = tuple(zeros)
    poles = tuple(poles)
    if sum(m) - k != -4:
        raise ValueError("orders minus pole count must equal -4")
    if len(zeros) != len(m):
        raise ValueError("need one zero location per order")
    if len(poles) != k - 3:
        raise ValueError(f"need exactly {k - 3} finite poles besides 0 and 1")
    marked = [0, 1, *poles, *zeros]
    if len(set(marked)) != len(marked):
        raise ValueError("marked points must be pairwise distinct")
    # order at infinity: -sum(m) + (k - 1) - 4 = -1, since sum(m) - k = -4
    return CurveDifferential(
        zero_orders=tuple(zip(zeros, m)),
        finite_poles=(0, 1, *poles),
    )
