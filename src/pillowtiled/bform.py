"""Numerical contraction pairing on superelliptic curves.

The curve is w^N = prod (z - z_i)^{a_i}; holomorphic 1-forms are found by
exact valuation arithmetic in the shape z^j prod (z - z_i)^{t_i} w^{-b} dz.
The pairing of two forms against a quadratic differential q = w^{-c} R(z) dz^2,

    B(alpha, beta) = integral of (alpha beta / q) |q|,

is pushed down to the sphere: summing over the deck group w -> zeta w
multiplies each term by zeta^{-(b1+b2-c)}, so entries with
b1 + b2 != c (mod N) vanish exactly and the rest become single-valued
integrals of

    N * f1 f2 * P^{-m} * |P|^{-c/N} * conj(R)/|R|,      m = (b1+b2-c)/N,

with P = prod (z - z_i)^{a_i}.  The Hodge products reduce the same way
(nonzero only for b1 = b2).

Every q is one type, :class:`CurveDifferential`: c is its ``wpow`` and R
its zeros and simple poles.  ``coverings.sample_base_differential`` builds
the pullbacks from the sphere, with c = 0.

``pairing_matrices`` has one rule for every curve.  An entry is the plane
integral of g conj(h), g = prod (z - p)^{alpha_p} and h = prod
(z - p)^{beta_p} over the marked points (the branch points, the zeros and
poles of q, and 0 when a form carries a power of z).  With
u = prod (z - p)^{e_p}, e_p = min(alpha_p, beta_p), it is the integral of
u phi conj(u psi) with phi, psi polynomial, which the twisted period
relations (Kita-Yoshida, Math. Nachr. 166, 1994; Cho-Matsumoto, Nagoya
Math. J. 139, 1995) write as sum_ab P_a (H^-1)_ab conj(Q_b): P and Q are
the periods of u phi and u psi over the segments that join the vertices of
u in their order along one direction, each a Gauss-Jacobi sum, and H is
the tridiagonal intersection matrix of those twisted cycles.  An end with
an exponent in (-2, -1] takes the finite-part period, and an integer pole
of u, at a point or at infinity, the limit of a regularized integrand.
An exponent <= -2 at a point, or an integer one at infinity, is rejected.
``quad_error`` is the largest change of an entry from n to 2n nodes per
segment, plus an estimate of the round-off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .permsurf import SizeCapExceeded

__all__ = [
    "SuperellipticCurve",
    "EigenForm",
    "CurveDifferential",
    "BFormReport",
    "holomorphic_basis",
    "pairing_matrices",
]


@dataclass(frozen=True)
class SuperellipticCurve:
    """w^N = prod (z - branch[i])^{a[i]} with 0 < a_i <= N."""

    N: int
    branch: tuple[complex, ...]
    a: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        branch = tuple(complex(z) for z in self.branch)
        a = tuple(int(x) for x in self.a)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "a", a)
        if len(branch) != len(a):
            raise ValueError("need one exponent per branch point")
        if len(set(branch)) != len(branch):
            raise ValueError("branch points must be distinct")
        if any(not (0 < x <= self.N) for x in a):
            raise ValueError("exponents must satisfy 0 < a_i <= N")
        if math.gcd(self.N, *a) != 1:
            raise ValueError("gcd of exponents and N must be 1")

    @property
    def total_exponent(self) -> int:
        return sum(self.a)

    @property
    def a_inf(self) -> int:
        r = (-self.total_exponent) % self.N
        return r if r else self.N

    @property
    def e_inf(self) -> int:
        return self.N // math.gcd(self.N, self.a_inf)

    @property
    def genus(self) -> int:
        chi = 2 * self.N
        for ai in self.a:
            d = math.gcd(self.N, ai)
            chi -= d * (self.N // d - 1)
        d = math.gcd(self.N, self.a_inf)
        chi -= d * (self.N // d - 1)
        if chi % 2:
            raise ValueError("branch data has odd Euler characteristic")
        return (2 - chi) // 2


@dataclass(frozen=True)
class EigenForm:
    """Holomorphic form z^power * prod (z - z_i)^{shifts[i]} * w^{-b} dz.

    ``valuations`` lists the common vanishing order at the points over
    each branch value, then over infinity, in that order.
    """

    b: int
    power: int
    shifts: tuple[int, ...]
    valuations: tuple[int, ...]


def _form_order_at(curve: SuperellipticCurve, form: EigenForm, s: complex) -> int:
    ord_ = form.power if s == 0 else 0
    for zi, t in zip(curve.branch, form.shifts):
        if zi == s:
            ord_ += t
    return ord_


def holomorphic_basis(curve: SuperellipticCurve) -> list[EigenForm]:
    """All holomorphic eigenforms, sorted by character then degree.

    For each character b the minimal shift at z_i is the least t with
    e_i t + (e_i - 1) >= b a_i / d_i, and the extra polynomial degree is
    bounded by the vanishing condition at infinity.  The count must equal
    the genus, which is a theorem for this family of curves; a mismatch
    means the valuation arithmetic is broken, so it fails hard.
    """
    N = curve.N
    A = curve.total_exponent
    e_inf = curve.e_inf
    d_inf = math.gcd(N, curve.a_inf)
    forms: list[EigenForm] = []
    for b in range(1, N):
        shifts = []
        for ai in curve.a:
            # smallest integer t with t >= b*ai/N - 1 + 1/e_i
            ei = N // math.gcd(N, ai)
            t = math.ceil(Fraction(b * ai, N) - 1 + Fraction(1, ei))
            shifts.append(t)
        shifts = tuple(shifts)
        # degree cap: b*A/N - 1 - 1/e_inf, as an exact floor
        cap = math.floor(Fraction(b * A, N) - 1 - Fraction(1, e_inf))
        for j in range(0, cap - sum(shifts) + 1):
            vals = []
            for ai, zi, t in zip(curve.a, curve.branch, shifts):
                d = math.gcd(N, ai)
                ei = N // d
                extra = j if zi == 0 else 0
                vals.append(ei * (t + extra) + ei - 1 - b * ai // d)
            D = j + sum(shifts)
            vals.append(b * A // d_inf - e_inf * D - e_inf - 1)
            form = EigenForm(b=b, power=j, shifts=shifts, valuations=tuple(vals))
            if any(v < 0 for v in form.valuations):
                raise RuntimeError("candidate form fails its own valuation table")
            forms.append(form)
    if len(forms) != curve.genus:
        raise RuntimeError(
            f"basis count {len(forms)} does not match genus {curve.genus}; "
            "valuation arithmetic is inconsistent"
        )
    return forms


@dataclass(frozen=True)
class CurveDifferential:
    """q = w^{-wpow} * prod (z-y_j)^{m_j} / prod (z-x_i) * dz^2.

    ``zero_orders`` pairs each zero y_j with its order m_j, ``finite_poles``
    lists the simple poles x_i.  With wpow = 0 this is the pullback of a
    rational quadratic differential on the sphere, which is what
    ``coverings.sample_base_differential`` builds; a w-power is set by
    ``wpow``.  Calling q evaluates the rational part R(z), numerator then
    denominator; the w-power enters the pairing through |P|^{-wpow/N}.
    A pole is listed once, a zero has order at least 1, and no zero sits
    on a pole or on another zero; anything else raises ValueError.
    """

    wpow: int = 0
    zero_orders: tuple[tuple[complex, int], ...] = ()
    finite_poles: tuple[complex, ...] = ()

    def __post_init__(self):
        poles = [complex(p) for p in self.finite_poles]
        zeros = [complex(p) for p, _ in self.zero_orders]
        if len(set(poles)) != len(poles):
            raise ValueError("q has a repeated pole; its poles are simple")
        if any(m < 1 for _, m in self.zero_orders):
            raise ValueError("a zero of q must have order at least 1")
        if len(set(zeros)) != len(zeros) or set(zeros) & set(poles):
            raise ValueError("a zero of q sits on a pole or on another zero")

    def __call__(self, z):
        num = 1.0 + 0.0j
        for point, m in self.zero_orders:
            num *= (z - point) ** m
        den = 1.0 + 0.0j
        for point in self.finite_poles:
            den *= z - point
        return num / den


def _pullback_has_simple_pole(curve: SuperellipticCurve, q) -> bool:
    wpow = q.wpow
    N = curve.N
    exponent = {z: a for z, a in zip(curve.branch, curve.a)}
    base_order = {z: -1 for z in q.finite_poles}
    for z, m in q.zero_orders:
        base_order[z] = m
    for z in set(curve.branch) | set(base_order):
        bo = base_order.get(z, 0)
        ai = exponent.get(z)
        if ai is None:
            up = bo  # unbranched: order copies, w is a unit
        else:
            d = math.gcd(N, ai)
            e = N // d
            w_ord = ai // d
            up = e * bo + 2 * (e - 1) - wpow * w_ord
        if up == -1:
            return True
    # infinity
    d = math.gcd(N, curve.a_inf)
    e = curve.N // d
    base_inf = len(q.finite_poles) - sum(m for _, m in q.zero_orders) - 4
    w_ord_inf = -curve.total_exponent // d
    up = e * base_inf + 2 * (e - 1) - wpow * w_ord_inf
    return up == -1


@dataclass(frozen=True)
class BFormReport:
    """Pairing matrix, Hodge Gram matrix, and normalized spectrum."""

    B: tuple[tuple[complex, ...], ...]
    H: tuple[tuple[complex, ...], ...]
    theta: tuple[float, ...]
    quad_error: float
    q_has_simple_pole: bool
    gap: float | None


# ----------------------------------------------------------- period rule


def _fill(g_count, b_entries, h_entries, b_values, h_values):
    """B symmetric and H Hermitian from their upper-triangle values; a
    diagonal H entry keeps its real part, so H is Hermitian by construction."""
    B = np.zeros((g_count, g_count), dtype=complex)
    H = np.zeros((g_count, g_count), dtype=complex)
    for (i, j, _), v in zip(b_entries, b_values):
        B[i, j] = B[j, i] = v
    for (i, j), v in zip(h_entries, h_values):
        if i == j:
            H[i, i] = v.real
        else:
            H[i, j], H[j, i] = v, np.conj(v)
    return B, H


def _report(curve, q, B, H, quad_error) -> BFormReport:
    """The spectrum of the normalized pairing, after the Cholesky check of
    H and against the contraction bound."""
    g_count = len(B)
    if g_count:
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise RuntimeError("Hodge Gram matrix is not positive definite") from None
        evals, evecs = np.linalg.eigh(H)
        Hm = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
        Mmat = Hm @ B @ Hm.T
        theta = tuple(float(s) for s in np.linalg.svd(Mmat, compute_uv=False))
        if theta and theta[0] > 1.0 + 1e-3:
            raise RuntimeError(
                f"spectrum exceeds the contraction bound: {theta[0]}"
            )
        gap = 1.0 - theta[0] if theta else None
    else:
        theta = ()
        gap = None

    return BFormReport(
        B=tuple(tuple(B[i]) for i in range(g_count)),
        H=tuple(tuple(H[i]) for i in range(g_count)),
        theta=theta,
        quad_error=quad_error,
        q_has_simple_pole=_pullback_has_simple_pole(curve, q),
        gap=gap,
    )


# the pairing's time and memory grow with the square of the genus: at
# genus 255 it takes about a second and under 100 MB
_MAX_GENUS = 256


def pairing_matrices(curve: SuperellipticCurve, q) -> BFormReport:
    """Contraction pairing B, Hodge Gram H, and the normalized spectrum.

    ``q`` is a :class:`CurveDifferential`: a pullback from the sphere, or
    one with a w-power.  Entries killed by the deck character are exact
    zeros; the rest come from twisted periods (see the module docstring),
    and ``quad_error`` estimates their error: the change of an entry under
    the rule's own refinement, plus round-off.
    """
    if curve.genus > _MAX_GENUS:
        raise SizeCapExceeded(f"curve of genus {curve.genus} is past the "
                              f"pairing cap of genus {_MAX_GENUS}")
    basis = holomorphic_basis(curve)
    marks = _marked_points(curve, basis, q)
    d, order = _chain([p for p, _, _ in marks])
    marks = [marks[k] for k in order]
    b_entries, h_entries, exponents = _entries(curve, basis, marks, q.wpow)
    points = tuple(p for p, _, _ in marks)
    # q = C R with R monic; the phase conj(C)/|C| of B is read at one point
    z0 = 2.0 * max((abs(p) for p in points), default=0.0) + 1.0
    C = complex(q(z0)) / np.prod([(z0 - p) ** r for p, _, r in marks])
    scales = [curve.N * np.conj(C) / abs(C)] * len(b_entries) + [curve.N] * len(h_entries)
    values, errors = [], []
    for scale, (alpha, beta) in zip(scales, exponents):
        value, error = _plane_integral(points, d, 2 * curve.N, alpha, beta)
        values.append(scale * value)
        errors.append(abs(scale) * error)
    nb = len(b_entries)
    B, H = _fill(len(basis), b_entries, h_entries, values[:nb], values[nb:])
    return _report(curve, q, B, H, max(errors, default=0.0))


def _marked_points(curve, basis, q):
    """(p, a_p, r_p) for every finite point where an integrand can branch,
    vanish or blow up: the branch points (exponent a_p), the zeros and
    poles of q's rational part (order r_p), and 0 when a form carries a
    power of z.  The two numbers are 0 where they do not apply."""
    a = dict(zip(curve.branch, curve.a))
    r = {complex(p): -1 for p in q.finite_poles}
    r.update((complex(p), int(m)) for p, m in q.zero_orders)
    points = list(a) + [p for p in r if p not in a]
    if any(f.power for f in basis) and 0 not in points:
        points.append(0j)
    return [(p, a.get(p, 0), r.get(p, 0)) for p in points]


def _chain(points):
    """A unit direction d on which no two points project alike, and the
    order of the points by projection.  d is the direction, among those of
    the differences of two points and the bisectors of neighbouring ones,
    whose least gap between neighbouring projections is largest: a segment
    between neighbours then passes no other point closer than that gap."""
    angles = sorted({cmath.phase(p - o) % math.pi for k, p in enumerate(points)
                     for o in points[:k]})
    candidates = angles + [(x + y) / 2.0 for x, y in zip(angles, angles[1:] + [
        angles[0] + math.pi])] if angles else [0.0]

    def projections(theta):
        return [(p * cmath.exp(-1j * theta)).real for p in points]

    def least_gap(theta):
        proj = sorted(projections(theta))
        return min((y - x for x, y in zip(proj, proj[1:])), default=0.0)

    theta = max(candidates, key=least_gap)
    proj = projections(theta)
    return cmath.exp(1j * theta), sorted(range(len(points)), key=proj.__getitem__)


def _entries(curve, basis, marks, wpow):
    """Upper-triangle entries that survive the character sum, B entries
    (i, j, m) then H entries (i, j), and the exponents (alpha, beta) of
    each: the entry is the plane integral of g conj(h) with
    g = prod (z - p)^{alpha_p}, h = prod (z - p)^{beta_p} over the marked
    points, up to its scale.  Exponents are integers in units of 1/(2N).
    Every entry is checked for integrability, alpha_p + beta_p > -2 at each
    point and at infinity."""
    N, D = curve.N, 2 * curve.N

    def orders(f):
        return [D * _form_order_at(curve, f, p) for p, _, _ in marks]

    b_entries, h_entries, b_exps, h_exps = [], [], [], []
    for i, fi in enumerate(basis):
        for j in range(i, len(basis)):
            fj = basis[j]
            if (fi.b + fj.b - wpow) % N == 0:
                # N f_i f_j P^-m |P|^(-wpow/N) conj(R)/|R|, R = prod (z - p)^r_p
                m = (fi.b + fj.b - wpow) // N
                alpha = [x + y - D * m * a - N * r - wpow * a
                         for x, y, (_, a, r) in zip(orders(fi), orders(fj), marks)]
                beta = [N * r - wpow * a for _, a, r in marks]
                b_entries.append((i, j, m))
                b_exps.append((alpha, beta))
            if fi.b == fj.b:
                # N f_i conj(f_j) |P|^(-2b/N)
                h_entries.append((i, j))
                h_exps.append(tuple([x - 2 * fi.b * a for x, (_, a, _) in zip(orders(f), marks)]
                                    for f in (fi, fj)))
    for alpha, beta in b_exps + h_exps:
        ends = [(p, x + y) for (p, _, _), x, y in zip(marks, alpha, beta)]
        ends.append(("infinity", -4 * D - sum(alpha) - sum(beta)))
        for where, gamma in ends:
            if gamma <= -2 * D:
                raise RuntimeError(f"non-integrable exponent {Fraction(gamma, D)} at {where}")
    return b_entries, h_entries, b_exps + h_exps


# Gauss-Jacobi nodes per segment; the error estimate is the change from
# this rule to the one with twice as many nodes
_PERIOD_NODES = 32
# exponent step h at an integer pole of u: the limit is Richardson's from
# the steps h, 2h and 4h, and its error the change to the limit from
# h/2, h and 2h
_POLE_STEP = 2e-3
# weights of the means over +-t, +-2t and +-4t in that limit
_RICHARDSON = (64.0 / 45.0, -20.0 / 45.0, 1.0 / 45.0)
# relative round-off of the sum of P_a (H^-1)_ab conj(Q_b), against the sum
# of the moduli of its terms: on about a hundred curves, a further node
# doubling moved an entry beyond the refinement estimate by at most 1e-14
# of that sum
_ROUNDOFF = 1e-14


def _sin_pi(x: int, D: int, dx: float = 0.0) -> float:
    """sin(pi (x/D + dx)), exactly 0 at the integers when dx is 0."""
    r = x % (2 * D)
    s = 0.0 if r % D == 0 else math.sin(math.pi * (r / D))
    if dx:
        s = s * math.cos(math.pi * dx) + math.cos(math.pi * (r / D)) * math.sin(math.pi * dx)
    return s


def _plane_integral(points, d, D, alpha, beta):
    """(value, error) of the plane integral of g conj(h), from ``_entries``'
    exponents over ``points`` in chain order, in units of 1/D.

    u = prod (z - p)^{e_p} with e_p = min(alpha_p, beta_p), so g = u phi and
    h = u psi with phi, psi products of (z - p)^k, k >= 0.  A point with
    integer e_p >= 0 is folded into phi and psi.  At infinity u has the
    exponent min(alpha_inf, beta_inf), alpha_inf = -2 - sum alpha_p.  An
    integer pole, e = -1 at a point or at infinity, makes the intersection
    form singular: the integrand is then multiplied by |z - y|^(2t) at
    those points y (or at the first vertex, for infinity alone), which is
    analytic in t, and the limit t -> 0 is extrapolated.  An exponent
    <= -2 at a point, or an integer one at infinity, raises ValueError.

    The error is the change of the value under the rule's refinement plus
    ``_ROUNDOFF`` times the sum of the moduli of the terms that cancel.
    """
    e = [min(x, y) for x, y in zip(alpha, beta)]
    e_inf = -2 * D - max(sum(alpha), sum(beta))
    # no segment ends at infinity, so there only an integer exponent, which
    # makes the intersection form singular, limits the rule
    ends = [*zip(points, e)] + ([("infinity", e_inf)] if e_inf % D == 0 else [])
    for where, x in ends:
        if x <= -2 * D:
            raise ValueError(
                f"exponent {Fraction(x, D)} of u at {where}: the period rule needs > -2")
    e = tuple(0 if x % D == 0 and x >= 0 else x for x in e)
    phi = tuple((x - y) // D for x, y in zip(alpha, e))
    psi = tuple((x - y) // D for x, y in zip(beta, e))
    poles = [k for k, x in enumerate(e) if x == -D]
    if e_inf == -D and not poles:
        # shifting any vertex moves infinity off the integers
        poles = [next(k for k, x in enumerate(e) if x)]
    n = _PERIOD_NODES
    if not poles:
        drop = e_inf % D == 0
        (coarse, _), (fine, size) = (_twisted_integral(points, d, D, e, {}, drop, phi, psi, k)
                                     for k in (n, 2 * n))
        return fine, abs(fine - coarse) + _ROUNDOFF * size

    def mean(k, t):
        # the mean over +-t, an even function of t, and the size of its
        # terms; infinity is shifted off the integers too, so all segments
        runs = [_twisted_integral(points, d, D, e, dict.fromkeys(poles, s), False, phi, psi, k)
                for s in (t, -t)]
        return sum(v for v, _ in runs) / 2.0, sum(m for _, m in runs) / 2.0

    def limit(means):
        # Richardson on the steps t, 2t and 4t cancels the t^2 and t^4 terms
        return (sum(w * v for w, (v, _) in zip(_RICHARDSON, means)),
                sum(abs(w) * m for w, (_, m) in zip(_RICHARDSON, means)))

    # the terms grow as t -> 0 and cancel in the limit, which amplifies the
    # error of the periods: the rule is refined once more
    h = _POLE_STEP
    fine = [mean(4 * n, t) for t in (h / 2.0, h, 2.0 * h, 4.0 * h)]
    coarse = [mean(2 * n, t) for t in (h, 2.0 * h, 4.0 * h)]
    value, size = limit(fine[1:])
    error = abs(value - limit(coarse)[0]) + abs(value - limit(fine[:3])[0])
    return value, error + _ROUNDOFF * size


def _twisted_integral(points, d, D, e, shift, drop, phi, psi, n):
    """(sum_ab P_a (H^-1)_ab conj(Q_b), sum of the moduli of its terms) for
    u = prod (z - p)^{e_p/D}: the plane integral of |u|^2 phi conj(psi).

    The vertices are the points with e_p != 0.  On the segment from vertex
    k to vertex k + 1, u takes the factor ((z - p)/d)^e behind it and
    ((p - z)/d)^e ahead of it, principal powers of numbers with positive
    real part, which is one consistent branch.  ``shift`` maps a vertex to
    a float added to its exponent.  With ``drop``, infinity is not branched
    for u, the periods are dependent, and the last segment is left out.
    ``n`` is the node count per segment.
    """
    # exponent k of u: (exact part, shift, float value)
    ex = {k: (x, shift.get(k, 0.0), x / D + shift.get(k, 0.0)) for k, x in enumerate(e) if x}
    verts = sorted(ex)
    segments = list(zip(verts, verts[1:]))
    if drop and segments:
        segments.pop()
    if not segments:
        return 0.0, 0.0
    P, Q = np.array([_periods(points, d, D, ex, a, b, (phi, psi), n) for a, b in segments]).T
    sin = [_sin_pi(ex[k][0], D, ex[k][1]) for k in verts]
    H = np.zeros((len(segments), len(segments)))
    for k, (a, b) in enumerate(segments):
        H[k, k] = _sin_pi(ex[a][0] + ex[b][0], D, ex[a][1] + ex[b][1]) / (sin[k] * sin[k + 1])
        if k:
            H[k, k - 1] = H[k - 1, k] = -1.0 / sin[k]
    G = np.linalg.inv(H)
    return P @ G @ np.conj(Q), np.abs(P) @ np.abs(G) @ np.abs(Q)


def _periods(points, d, D, ex, a, b, rows, n):
    """Integrals of u prod (z - p)^{f_p} dz over the segment from vertex a
    to vertex b, one per row f of ``rows``, with u's branch of that segment
    and exponents ``ex`` (see ``_twisted_integral``).

    With z = p_a + (p_b - p_a) s, the integrand is
    d L^(1 + e_a + e_b) s^e_a (1 - s)^e_b F(s), L = (p_b - p_a)/d, F smooth
    on [0, 1]; a Gauss-Jacobi sum for those two exponents.  If one of them
    is <= -1 the finite part is taken: F less its linear interpolant
    between the ends is integrated with the exponents raised by 1, and
    F(0) B(e_a + 1, e_b + 2) + F(1) B(e_a + 2, e_b + 1) is added.
    """
    ea, eb = ex[a][2], ex[b][2]
    finite_part = ex[a][0] <= -D or ex[b][0] <= -D
    lift = 1.0 if finite_part else 0.0
    x, w = _jacobi_rule(n, eb + lift, ea + lift)
    s = (x + 1.0) / 2.0
    pa, pb = points[a], points[b]
    z = np.append(pa + (pb - pa) * s, [pa, pb])
    U = np.ones_like(z)
    for k, (_, _, x_k) in ex.items():
        if k < a:
            U = U * ((z - points[k]) / d) ** x_k
        elif k > b:
            U = U * ((points[k] - z) / d) ** x_k
    F = np.repeat(U[None, :], len(rows), axis=0)
    for p, ks in zip(points, zip(*rows)):
        for r, k in enumerate(ks):
            if k:
                F[r] *= (z - p) ** k
    L = (pb - pa) / d
    scale = d * L ** (1.0 + ea + eb)
    F, F0, F1 = F[:, :n], F[:, n], F[:, n + 1]
    if not finite_part:
        return scale * 2.0 ** -(1.0 + ea + eb) * (F @ w)
    rest = (F - F0[:, None] * (1.0 - s) - F1[:, None] * s) / (s * (1.0 - s))
    return scale * (2.0 ** -(3.0 + ea + eb) * (rest @ w)
                    + F0 * _beta(ea + 1.0, eb + 2.0) + F1 * _beta(ea + 2.0, eb + 1.0))


def _beta(x: float, y: float) -> float:
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


@lru_cache(maxsize=1024)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1 - x)^alpha (1 + x)^beta, alpha, beta > -1, cached per
    (n, alpha, beta); read-only, as every segment with those exponents
    shares them.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix (Golub-Welsch, Math. Comp. 23, 1969), polished by one Newton
    step on the degree-n orthonormal polynomial; the weights are the
    Christoffel numbers mu_0 / sum_{j<n} p_j(x)^2, with p_0 = 1 and
    mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1) the integral of the weight.
    No eigenvector is formed: the dense eigenvector solve stalls at random
    in a threaded BLAS, and the eigenvalues alone do not.  Two entries are
    written with their common factor cancelled, since the general term is
    0/0 there: the k = 0 diagonal at alpha + beta = 0, and the k = 1
    off-diagonal at alpha + beta = -1.
    """
    ab = alpha + beta
    k = np.arange(n, dtype=float)
    s = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    off2 = np.empty(n - 1)
    off2[:1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))
    k, s = k[2:], s[2:]
    off2[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off2)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    pn, dpn, squares, dsquares = _orthonormal_recurrence(x, diag, off)
    # the Newton step dx, and the sum of squares carried along it to first
    # order: near an end of [-1, 1] it is steep, and evaluating it at the
    # rounded node x + dx would cost digits in the weight there
    dx = -pn / dpn
    x = x + dx
    mu0 = math.exp(
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0)
    )
    w = mu0 / (squares + dsquares * dx)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _orthonormal_recurrence(x, diag, off):
    """(b_n p_n, its derivative, sum_{j<n} p_j^2, its derivative) at x for
    the polynomials of the Jacobi matrix with diagonal ``diag`` and
    off-diagonal ``off``: b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1},
    p_0 = 1, p_{-1} = 0.  b_n is not needed: the zeros of b_n p_n are the
    nodes, and the Newton step divides it by its own derivative."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    squares, dsquares = np.ones_like(x), np.zeros_like(x)
    for j, a in enumerate(diag):
        b = off[j - 1] if j else 0.0
        q = (x - a) * p - b * p_prev
        dq = p + (x - a) * d - b * d_prev
        if j == len(off):
            return q, dq, squares, dsquares
        p_prev, p = p, q / off[j]
        d_prev, d = d, dq / off[j]
        squares += p * p
        dsquares += 2.0 * p * d
