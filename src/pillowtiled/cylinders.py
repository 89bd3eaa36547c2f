"""Horizontal cylinders, the orbit-averaged area Siegel-Veech term, and the
exact sum rule for the non-negative Lyapunov spectrum.

Because strata here retain their marked points, every horizontal lattice
circle carries a vertex and therefore counts as singular; each cycle of h
is its own height-1 cylinder.  The combinatorial Siegel-Veech quantity of
an orbit is the average over orbit members of sum(height/width) over
cylinders, times a fixed normalization:

    KAPPA_SV = 1/2

The constant is calibrated, not guessed: the degenerate family at p = 3
must produce sv_term = 1/6 (the unique value making the exact Lyapunov
sum vanish), and the same constant must then reproduce 1/10 at p = 5,
1/14 at p = 7, and sv_term = 1 on the orientable control of degree 2
(whose Lyapunov sum is exactly 1).  All four checks land on 1/2 on the
nose.  ``tests/test_cylinders.py::test_calibration`` re-derives the
constant from these four cases and fails if any of them ever disagrees;
``test_closed_form_exponents_pin_kappa_sv`` checks it against the
closed-form exponents of every cyclic cover with N <= 8.

A cyclic cover's report depends only on its corner class.  Renumbering
the sheets x -> u.x by a unit u mod N takes (N; a) to (N; u.a), the same
cover (Forni-Matheus-Zorich, "Square-tiled cyclic covers", JMD 2011).
Any permutation of the four corners takes it to a cover in the same
SL(2,Z)-orbit of double covers, up to an isometry: SL(2,Z) acts on the
corners through SL(2,Z/2), all of S_3 on the three corners off the
origin, and the half-translations of the pillowcase are isometries that
permute the corners by the Klein four-group; together they give S_4.  So
every (N; a) of one class has one stratum, one state orbit and one
report (Eskin-Kontsevich-Zorich, "Lyapunov spectrum of square-tiled
cyclic covers", JMD 2011).  :func:`ekz_for_spec` keeps each class's
orbit size and report in a process-wide memo keyed by the least sorted
u.a, so a line of a class met before builds no cover, double cover or
orbit.  Each class is one unit of the process-wide byte budget
(:mod:`.store`); measured with tracemalloc, it takes about 1.1 kB plus 8
bytes per order of its stratum, and it weighs that.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import store
from .coverings import CyclicCoverSpec, cyclic_to_pillow
from .orbit import DEFAULT_ORBIT_CAP, OrbitCapExceeded, OrbitGraph, enumerate_state_orbit
from .permsurf import (
    PillowCover,
    SizeCapExceeded,
    Stratum,
    orientation_double_cover,
    pillow_stratum,
)
from .permutations import Perm, cycles

__all__ = [
    "KAPPA_SV",
    "EKZReport",
    "ekz_for_cover",
    "ekz_for_spec",
    "ekz_sum",
    "sv_raw",
    "sv_term",
]

KAPPA_SV = Fraction(1, 2)

_MAX_SQUARES = 1 << 20  # squares of the sum rule's double cover: pillow degree 262144


def _row_widths(h: Perm, d: int) -> list[int]:
    """Widths of the horizontal cylinders, one per row of the tiling.

    Marked points are retained, so every row boundary is singular and all
    cylinders have height 1 and width = row length.
    """
    widths = [len(c) for c in cycles(h)]
    if sum(widths) != d:
        raise ArithmeticError("the horizontal cylinders do not fill the surface")
    return widths


def sv_raw(G: OrbitGraph) -> Fraction:
    """Orbit average of sum(h/w), before normalization.

    Every cylinder has height 1, so the sum over the orbit is sum(k/w)
    over the distinct widths w, k the number of cylinders of width w.
    """
    widths = Counter()
    for w in G.vertices:
        widths.update(_row_widths(w[0], G.d))
    return sum((Fraction(k, w) for w, k in widths.items()), Fraction(0)) / G.size


def sv_term(G: OrbitGraph) -> Fraction:
    """Normalized area Siegel-Veech term of a complete double-cover orbit,
    ``KAPPA_SV`` times ``sv_raw``."""
    return KAPPA_SV * sv_raw(G)


@dataclass(frozen=True)
class EKZReport:
    """Exact sum rule for the non-negative Lyapunov exponents.

    lyap_sum = kappa_term - pole_term + sv_term, with
    kappa_term = (1/24) * sum m(m+4)/(m+2) over orders m >= 0 and
    pole_term = n/8 for n simple poles.  The decomposition splits n as
    (2g-2) + sum m/(m+2) + residual; when lyap_sum = 0 the residual equals
    12*sv_term (algebraic identity).  ``residual_is_12x_sv`` records
    whether that factor-12 relation holds for this input; the two
    quantities are stored separately and never conflated.
    """

    stratum: Stratum
    n: int
    kappa_term: Fraction
    pole_term: Fraction
    sv_term: Fraction
    lyap_sum: Fraction
    decomposition: tuple[Fraction, Fraction, Fraction]
    bound_chain: tuple[Fraction, Fraction, Fraction] | None
    residual_is_12x_sv: bool


def ekz_sum(stratum: Stratum, sv: Fraction) -> EKZReport:
    """Assemble the exact report for a quadratic stratum with n =
    ``stratum.num_poles`` simple poles."""
    if stratum.kind != "quadratic":
        raise ValueError("the sum rule here applies to quadratic strata")
    n = stratum.num_poles
    zeros = [m for m in stratum.orders if m >= 0]
    kappa_term = sum(
        (Fraction(m * (m + 4), 24 * (m + 2)) for m in zeros), Fraction(0)
    )
    pole_term = Fraction(n, 8)
    sv = Fraction(sv)
    lyap_sum = kappa_term - pole_term + sv
    g = stratum.genus
    partial = sum((Fraction(m, m + 2) for m in zeros), Fraction(0))
    residual = Fraction(n) - (2 * g - 2) - partial
    decomposition = (Fraction(2 * g - 2), partial, residual)
    bound_chain = None
    if lyap_sum == 0:
        bound_chain = (Fraction(2 * g - 2), Fraction(2 * g - 2) + partial, Fraction(n))
        if not bound_chain[0] <= bound_chain[1] <= bound_chain[2]:
            raise ArithmeticError("the bound chain is not increasing")
    return EKZReport(
        stratum=stratum,
        n=n,
        kappa_term=kappa_term,
        pole_term=pole_term,
        sv_term=sv,
        lyap_sum=lyap_sum,
        decomposition=decomposition,
        bound_chain=bound_chain,
        residual_is_12x_sv=(residual == 12 * sv),
    )


def _check_squares(d: int) -> None:
    if 4 * d > _MAX_SQUARES:
        raise SizeCapExceeded(f"double cover of {4 * d} squares is past the "
                              f"sum-rule cap of {_MAX_SQUARES} squares")


def _orbit_and_report(p: PillowCover, orbit_cap: int) -> tuple[int, EKZReport]:
    _check_squares(p.d)
    o, iota = orientation_double_cover(p)
    G = enumerate_state_orbit(o, iota, cap=orbit_cap)
    return G.size, ekz_sum(pillow_stratum(p), sv_term(G))


def ekz_for_cover(p: PillowCover, orbit_cap: int = DEFAULT_ORBIT_CAP) -> EKZReport:
    """Convenience: orbit, Siegel-Veech term and sum rule for one cover."""
    return _orbit_and_report(p, orbit_cap)[1]


def _corner_class(spec: CyclicCoverSpec) -> tuple[int, tuple[int, ...]]:
    """(N, the least of sorted(u.a mod N) over the units u mod N), 0 read as N."""
    N, least = spec.N, None
    for u in range(1, N + 1):
        if math.gcd(u, N) == 1:
            row = [(u * x - 1) % N + 1 for x in spec.a]
            row.sort()
            if least is None or row < least:
                least = row
    return N, tuple(least)


def ekz_for_spec(spec: CyclicCoverSpec, orbit_cap: int = DEFAULT_ORBIT_CAP) -> EKZReport:
    """``ekz_for_cover`` of a cyclic cover, once per corner class in the
    process.

    Renumbering the sheets by a unit u and permuting the corners take the
    cover (N; a) to covers with one stratum, one state orbit and one
    report (module docstring), so the class is keyed by its least sorted
    u.a, and the first spec of a class met builds it.  The cap is checked
    from N before anything is built.  A hit raises
    :class:`OrbitCapExceeded` iff the kept orbit is larger than the cap, as
    the orbit memo does; a build that raised keeps nothing.
    """
    _check_squares(spec.N)
    key = _corner_class(spec)
    kept = store.get(key)
    if kept is None:
        kept = _orbit_and_report(cyclic_to_pillow(spec), orbit_cap)
        store.keep((key,), kept, 1100 + 8 * len(kept[1].stratum.orders))
    size, report = kept
    if size > orbit_cap:
        raise OrbitCapExceeded(orbit_cap)
    return report
