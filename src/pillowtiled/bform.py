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

``pairing_matrices`` takes one of two paths, chosen from the input alone.
A curve with exactly three finite branch points, paired with
q = c dz^2 / prod (z - z_i) over exactly those points (no w-power, no
zeros) -- every curve the ``bform`` subcommand builds -- takes the period
path: each entry is a twisted integral of u phi conj(u psi), which the
twisted period relations write as a 2x2 form in the periods of u phi and
u psi over two segments that join the branch points, each period a
Gauss-Jacobi sum.  Its ``quad_error`` is the largest change of an entry
from n to 2n nodes per segment, near round-off.  Every other curve (more
branch points, a w-power, zeros or extra poles of q) takes the plane
quadrature below; its ``quad_error`` is the change between its last two
mesh levels, which on the genus-1 curve overstates the true error
120-160 fold.

Integrands have known power-law behavior |z - s|^{gamma} at finitely
many points, so the quadrature uses a smooth partition of unity: disks
around each singular point with a Gauss-Jacobi radial rule matched to
gamma (nodes from the eigenvalues of the Jacobi matrix, weights from the
Christoffel numbers) and a trapezoid angular rule, the chart swap
z -> 1/z for the neighborhood of infinity, and tensor Gauss-Legendre
panels on the smooth remainder.  Refinement levels double
every node count; the error estimate is the last inter-level delta, so
only the last two levels are computed.

Every part of the integral is a weighted node set (z, w): the live
(nonzero-weight) panel nodes, a disk around a center for one radial
exponent gamma (its cutoff folded into w), or the chart at infinity
(z = 1/u, with |u|^-4 folded into w).  One blocked evaluator integrates
any node set: each block evaluates P, the phase of q and every basis
form once, and the entries sharing a weight (B entries with the same m,
H entries with the same character b) come out of one product
(F_I * W) @ F_J^T, or F_b^H on the right for H.  Blocks bound the
working set whatever the level.  Per level the panel nodes are evaluated
once and each distinct (center, gamma) disk once; an entry is its panel
part plus the disks of its own exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# nodes per block of the plane pass; bounds its working set at any level
_BLOCK_NODES = 16384

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

    @property
    def degree(self) -> int:
        return self.power + sum(self.shifts)


def _form_values(curve: SuperellipticCurve, forms, z):
    """The polynomial part of each form at z, one row per form; every power
    (z - z_i)^t is computed once and shared by the forms that use it."""
    z = np.asarray(z, dtype=complex)
    powers = {}

    def power(s, t):
        if (s, t) not in powers:
            powers[s, t] = (z - s) ** t
        return powers[s, t]

    out = np.empty((len(forms),) + z.shape, dtype=complex)
    for k, form in enumerate(forms):
        row = power(0.0, form.power)
        for zi, t in zip(curve.branch, form.shifts):
            if t:
                row = row * power(zi, t)
        out[k] = row
    return out


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
    """

    wpow: int = 0
    zero_orders: tuple[tuple[complex, int], ...] = ()
    finite_poles: tuple[complex, ...] = ()

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


# ---------------------------------------------------------------- quadrature


def _bump01(x):
    """Smooth cutoff: 1 for x <= 0, 0 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        g = np.where(x < 1, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    return g / (f + g)


def _chi_profile(rho, radius):
    """Radial partition-of-unity factor: 1 inside radius/2, 0 outside radius."""
    return _bump01(2.0 * rho / radius - 1.0)


class _Region:
    """Weighted node sets (z, w) for one (curve, q) geometry.

    The smooth background region is tiled by a graded quadtree whose
    cells shrink toward the singular centers, so the partition-of-unity
    transition annuli are resolved; each refinement level doubles the
    Gauss-Legendre order on that fixed mesh, and the disk node counts.
    """

    def __init__(self, centers: list[complex]):
        self.radii: dict[complex, float] = {}
        for i, c in enumerate(centers):
            dmin = min(
                (abs(c - o) for j, o in enumerate(centers) if j != i),
                default=2.0,
            )
            self.radii[c] = min(0.35 * dmin, 1.5)
        far = max((abs(c) + r for c, r in self.radii.items()), default=1.0)
        self.r_out = 2.0 * max(far, 1.0)
        self.u_rad = 1.0 / self.r_out
        self.cells = self._cells()

    def _cells(self):
        """Graded quadtree leaves (center, half-width) covering the support
        of the background integrand, pruned where the mask vanishes."""
        out: list[tuple[complex, float]] = []
        stack = [(0.0 + 0.0j, 2.0 * self.r_out)]
        while stack:
            c, h = stack.pop()
            diag = h * math.sqrt(2.0)
            # fully beyond the far cutoff: mask is identically zero
            if abs(c) - diag >= 2.0 * self.r_out:
                continue
            split = False
            dead = False
            for s, r in self.radii.items():
                d = abs(c - s)
                if d + diag <= 0.5 * r:
                    dead = True
                    break
                # resolve the transition annulus and grade with distance
                target = 0.25 * max(d - r, 0.5 * r)
                if h > target and h > r / 16.0:
                    split = True
            if dead:
                continue
            if split:
                q = h / 2.0
                stack.extend(
                    (c + q * (dx + 1j * dy), q)
                    for dx in (-1.0, 1.0)
                    for dy in (-1.0, 1.0)
                )
            else:
                out.append((c, h))
        return out

    def _disk_nodes(self, center, gamma, level):
        """(z, weight) on the disk around ``center`` (None: the chart at
        infinity) for the radial exponent ``gamma``.

        The rule is the Gauss-Jacobi radial rule matched to gamma times
        the trapezoid angular rule, with the cutoff folded into the
        weight.  At infinity it runs in u = 1/z around u = 0, and the
        Jacobian |u|^-4 is folded into the weight as well.
        """
        radius = self.u_rad if center is None else self.radii[center]
        n_ang = 18 * (2 ** level)
        x, wj = _jacobi_rule(14 * (2 ** level), 0.0, gamma + 1.0)
        rho = radius * (x + 1.0) / 2.0
        ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
        z = (rho[:, None] * np.exp(1j * ang)[None, :]).ravel()
        w = np.repeat(
            wj
            * _chi_profile(rho, radius)
            * rho ** (-gamma)
            * (radius / 2.0) ** (gamma + 2.0)
            * (2.0 * np.pi / n_ang),
            n_ang,
        )
        if center is None:
            return 1.0 / z, w * np.abs(z) ** (-4.0)
        return center + z, w

    def _panel_nodes(self, level):
        """Yield (z, weight) for the live smooth-panel nodes, a run of
        whole cells at a time, each block at most ``_BLOCK_NODES`` nodes
        (or one cell).

        The weight is the tensor Gauss-Legendre weight times the
        background mask.  Each mask factor is evaluated only where it is
        not exactly 1 (inside its center's disk, or beyond ``r_out`` for
        the factor at infinity), and nodes of weight 0 are dropped.
        """
        xg, wg = leggauss(5 * (2 ** level))
        offs = (xg[:, None] + 1j * xg[None, :]).ravel()
        w2 = (wg[:, None] * wg[None, :]).ravel()
        cells = self.cells
        step = max(1, _BLOCK_NODES // offs.size)
        for k in range(0, len(cells), step):
            cc = np.array([c for c, _ in cells[k:k + step]])
            hh = np.array([h for _, h in cells[k:k + step]])
            zz = (cc[:, None] + hh[:, None] * offs[None, :]).ravel()
            ww = ((hh ** 2)[:, None] * w2[None, :]).ravel()
            mask = np.ones_like(ww)
            for c, r in self.radii.items():
                _mask_inside(mask, np.abs(zz - c), r)
            with np.errstate(divide="ignore"):
                u = np.where(np.abs(zz) > 0, 1.0 / np.abs(zz), np.inf)
            _mask_inside(mask, u, self.u_rad)
            ww = ww * mask
            live = ww != 0.0
            yield zz[live], ww[live]


@lru_cache(maxsize=1024)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1 - x)^alpha (1 + x)^beta, alpha, beta > -1, cached per
    (n, alpha, beta); read-only, as every disk or segment with those
    exponents shares them.

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


def _mask_inside(mask, rho, radius):
    """mask *= 1 - chi(rho), touching only the nodes where chi(rho) != 0,
    which lie inside the radius."""
    near = rho < radius
    mask[near] *= 1.0 - _chi_profile(rho[near], radius)


def _entry_disks(curve, f1, f2, centers, e):
    """The disk node sets (center, gamma) of one matrix entry, the last
    one at infinity (center None), for an integrand f1 f2 times a weight
    of modulus |P|^-e; the exponents are exact."""
    exponent = dict(zip(curve.branch, curve.a))
    disks = [
        (s, _form_order_at(curve, f1, s) + _form_order_at(curve, f2, s)
         - e * exponent.get(s, 0))
        for s in centers
    ]
    disks.append((None, e * curve.total_exponent - f1.degree - f2.degree - 4))
    for s, gamma in disks:
        if gamma <= -2:
            where = "infinity" if s is None else s
            raise RuntimeError(f"non-integrable exponent {gamma} at {where}")
    return disks


def _poly_eval(curve, z):
    P = np.ones_like(np.asarray(z, dtype=complex))
    for zi, ai in zip(curve.branch, curve.a):
        P = P * (z - zi) ** ai
    return P


def _entries(curve, basis, centers, wpow):
    """Upper-triangle entries that survive the character sum: B entries
    (i, j, m) and H entries (i, j), and each distinct disk node set
    (center, gamma) with the B and H entries that use it.  Building the
    disk keys checks every entry for integrability."""
    N = curve.N
    b_entries, h_entries = [], []
    disks: dict[tuple, tuple[list, list]] = {}
    for i, f1 in enumerate(basis):
        for j in range(i, len(basis)):
            f2 = basis[j]
            if (f1.b + f2.b - wpow) % N == 0:
                m = (f1.b + f2.b - wpow) // N
                b_entries.append((i, j, m))
                for key in _entry_disks(curve, f1, f2, centers, m + Fraction(wpow, N)):
                    disks.setdefault(key, ([], []))[0].append((i, j, m))
            if f1.b == f2.b:
                h_entries.append((i, j))
                for key in _entry_disks(curve, f1, f2, centers, Fraction(2 * f1.b, N)):
                    disks.setdefault(key, ([], []))[1].append((i, j))
    return b_entries, h_entries, disks


def _fill(g_count, b_entries, h_entries, b_values, h_values):
    """B symmetric and H Hermitian from their upper-triangle values."""
    B = np.zeros((g_count, g_count), dtype=complex)
    H = np.zeros((g_count, g_count), dtype=complex)
    for (i, j, _), v in zip(b_entries, b_values):
        B[i, j] = B[j, i] = v
    for (i, j), v in zip(h_entries, h_values):
        H[i, j] = v
        if i != j:
            H[j, i] = np.conj(v)
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


def pairing_matrices(curve: SuperellipticCurve, q) -> BFormReport:
    """Contraction pairing B, Hodge Gram H, and the normalized spectrum.

    ``q`` is a :class:`CurveDifferential`: a pullback from the sphere, or
    one with a w-power.  Entries killed by the deck character are exact
    zeros.  On a three-point curve with q = c dz^2 / prod (z - z_i) over
    its branch points the rest come from twisted periods, elsewhere from
    the quadrature; ``quad_error`` is the change of the entries under the
    path's own refinement.
    """
    if _takes_period_path(curve, q):
        return _period_pairing(curve, q)
    return _quadrature_pairing(curve, q)


# ----------------------------------------------------------- period path

# Gauss-Jacobi nodes per segment; the error estimate is the change from
# this rule to the one with twice as many nodes
_PERIOD_NODES = 32


def _takes_period_path(curve, q) -> bool:
    """Three finite branch points, no w-power, no zeros of q, and q's
    finite poles are the branch points."""
    poles = [complex(z) for z in q.finite_poles]
    return (
        len(curve.branch) == 3
        and q.wpow == 0
        and not tuple(q.zero_orders)
        and len(poles) == 3
        and set(poles) == set(curve.branch)
    )


def _sin_pi(x: Fraction) -> float:
    """sin(pi x), exactly 0 at the integers."""
    r = x % 2
    return 0.0 if r.denominator == 1 else math.sin(math.pi * float(r))


def _twisted_form(e, P, Q):
    """Integral over the plane of u phi conj(u psi), from the periods
    P = (P1, P2) of u phi and Q of u psi (Kita-Yoshida, Math. Nachr. 166,
    1994; Kawai-Lewellen-Tye, Nucl. Phys. B 269, 1986).

    ``e`` = (a, b, c) are the exponents of u at the roles 0, 1, t.  When
    a + b + c is an integer, infinity is unbranched for u, the two
    periods are proportional, and the general form is 0/0.
    """
    a, b, c = e
    s = _sin_pi
    if (a + b + c).denominator == 1:
        return s(a) * s(c) / s(a + c) * P[0] * np.conj(Q[0])
    return (
        s(a) * s(b + c) * P[0] * np.conj(Q[0])
        + s(a) * s(b) * (P[0] * np.conj(Q[1]) + P[1] * np.conj(Q[0]))
        + s(b) * s(a + c) * P[1] * np.conj(Q[1])
    ) / s(a + b + c)


def _segment_periods(curve, basis, roles, e, rows, n):
    """Periods P1 = int_{p0}^{pt} u phi dz and P2 = int_{pt}^{p1} u phi dz
    on straight segments, one pair per row, as an array (2, len(rows)).

    u = prod (z - p)^{e_p} is taken in the affine coordinate
    zeta = (z - p0) / (p1 - p0), tau = zeta(pt), as
    zeta^a (1 - zeta)^b (tau - zeta)^c on the first segment and
    zeta^a (1 - zeta)^b (zeta - tau)^c on the second: positive for real
    0 < tau < 1 and continued from there; the factor |p1 - p0|^(2 + 2 sum e)
    is left to the caller.  A row (forms, r) is
    phi = prod of the forms times prod (z - z_k)^{r_k}.  Each period is a
    Gauss-Jacobi sum matched to the exponents at the segment's ends.
    """
    p0, p1, pt = (curve.branch[k] for k in roles)
    a, b, c = (e[k] for k in roles)
    tau = (pt - p0) / (p1 - p0)
    x1, w1 = _jacobi_rule(n, float(c), float(a))
    x2, w2 = _jacobi_rule(n, float(b), float(c))
    s1, s2 = (x1 + 1.0) / 2.0, (x2 + 1.0) / 2.0
    z = np.concatenate([p0 + (pt - p0) * s1, pt + (p1 - pt) * s2])
    k1 = tau ** float(1 + a + c) * 2.0 ** -float(1 + a + c) * w1 * (1.0 - tau * s1) ** float(b)
    k2 = ((1.0 - tau) ** float(1 + b + c) * 2.0 ** -float(1 + b + c) * w2
          * (tau + (1.0 - tau) * s2) ** float(a))
    F = _form_values(curve, basis, z)
    out = np.empty((2, len(rows)), dtype=complex)
    for k, (forms, r) in enumerate(rows):
        phi = np.ones_like(z)
        for f in forms:
            phi = phi * F[f]
        for zi, ri in zip(curve.branch, r):
            if ri:
                phi = phi * (z - zi) ** ri
        out[0, k] = phi[:n] @ k1
        out[1, k] = phi[n:] @ k2
    return out


def _period_roles(branch) -> tuple[int, int, int]:
    """Indices (p0, p1, pt) of the roles 0, 1, t: pt is opposite the
    longest side, so tau = zeta(pt) has |tau|, |1 - tau| <= 1 and is never
    real outside (0, 1), where the segments would meet the third point."""
    sides = [(abs(branch[i] - branch[j]), (i, j, 3 - i - j))
             for i, j in ((0, 1), (0, 2), (1, 2))]
    return max(sides, key=lambda side: side[0])[1]


def _period_pairing(curve: SuperellipticCurve, q) -> BFormReport:
    """B and H from twisted periods on a three-point curve.

    Each entry is N times the integral of g conj(h), g and h holomorphic
    up to one common multivalued factor: for H, g = f_i P^{-b/N} and
    h = f_j P^{-b/N}; for B, with q = c / Q and Q = prod (z - z_k), the
    phase conj(q)/|q| is conj(c)/|c| Q/|Q|, so g = f_i f_j P^{-m} Q^{1/2}
    and h = Q^{-1/2}.  Both are u phi and u psi with phi, psi polynomial
    and u = prod (z - z_k)^{e_k}, e_k > -1, whose plane integral is the
    period form of ``_twisted_form``.  The entries are computed with n and
    2n nodes per segment, and ``quad_error`` is the largest change.
    """
    basis = holomorphic_basis(curve)
    g_count = len(basis)
    N = curve.N
    # the disk keys are not used here, only their integrability check
    b_entries, h_entries, _ = _entries(curve, basis, list(curve.branch), 0)
    branch = curve.branch
    z0 = 2.0 * max(abs(z) for z in branch) + 1.0
    c = complex(q(z0)) * complex(np.prod([z0 - zi for zi in branch]))
    phase = np.conj(c) / abs(c)

    def order(forms, r, k):
        return sum(_form_order_at(curve, basis[f], branch[k]) for f in forms) + r[k]

    # each entry as (scale, base exponents, g's row, h's row)
    terms = []
    for i, j, m in b_entries:
        base = (Fraction(-1, 2),) * 3
        terms.append((N * phase, base, ((i, j), tuple(1 - m * a for a in curve.a)),
                      ((), (0, 0, 0))))
    for i, j in h_entries:
        base = tuple(Fraction(-basis[i].b * a, N) for a in curve.a)
        terms.append((N, base, ((i,), (0, 0, 0)), ((j,), (0, 0, 0))))

    roles = _period_roles(branch)
    size = abs(branch[roles[1]] - branch[roles[0]])
    values = np.zeros((2, len(terms)), dtype=complex)
    for k, (scale, base, (gf, gr), (hf, hr)) in enumerate(terms):
        # u takes the common integer part of g and h at each point, so that
        # phi and psi are polynomials
        shift = [min(order(gf, gr, p), order(hf, hr, p)) for p in range(3)]
        e = tuple(x + s for x, s in zip(base, shift))
        rows = [(gf, tuple(r - s for r, s in zip(gr, shift))),
                (hf, tuple(r - s for r, s in zip(hr, shift)))]
        for level, n in enumerate((_PERIOD_NODES, 2 * _PERIOD_NODES)):
            P = _segment_periods(curve, basis, roles, e, rows, n)
            values[level, k] = scale * size ** float(2 + 2 * sum(e)) * _twisted_form(
                tuple(e[p] for p in roles), P[:, 0], P[:, 1])
    quad_error = float(np.max(np.abs(values[1] - values[0]), initial=0.0))
    nb = len(b_entries)
    B, H = _fill(g_count, b_entries, h_entries, values[1][:nb], values[1][nb:])
    return _report(curve, q, B, H, quad_error)


# -------------------------------------------------------- quadrature path


def _quadrature_pairing(curve: SuperellipticCurve, q, *, levels: int = 3) -> BFormReport:
    """``pairing_matrices`` by the plane quadrature, for any curve and q.

    Entries are quadratures at the last two of ``levels`` refinement
    levels, with the error estimate taken from their difference.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    basis = holomorphic_basis(curve)
    g_count = len(basis)
    wpow = q.wpow
    N = curve.N

    centers = list(curve.branch)
    for z in [z for z, _ in q.zero_orders] + list(q.finite_poles):
        if z not in centers:
            centers.append(z)

    def phase(z):
        r = q(z)
        mag = np.abs(r)
        return np.where(mag == 0, 1.0 + 0.0j, np.conj(r) / np.maximum(mag, 1e-300))

    # B and H integrands are f1 * f2 (or f1 * conj f2) times a weight that
    # depends only on m (or on the character b)
    def b_weight(P, absP, ph, m):
        w = N * ph
        if m:
            w = w * P ** (-m)
        if wpow:
            w = w * absP ** (-wpow / N)
        return w

    def h_weight(absP, b):
        return N * absP ** (-2.0 * b / N)

    b_entries, h_entries, disks = _entries(curve, basis, centers, wpow)

    def node_sums(node_sets, b_list, h_list):
        """The entries b_list (B) and h_list (H) integrated over the node
        sets, as one matrix per m for B and one matrix for H.  The entries
        sharing a weight (same m, or same character) are one product over
        their rows and columns; per block, P, the phase and each basis
        form are evaluated once."""
        b_index: dict[int, tuple[set, set]] = {}
        for i, j, m in b_list:
            rows, cols = b_index.setdefault(m, (set(), set()))
            rows.add(i)
            cols.add(j)
        b_index = {m: (sorted(r), sorted(c)) for m, (r, c) in b_index.items()}
        h_index: dict[int, set] = {}
        for i, j in h_list:
            h_index.setdefault(basis[i].b, set()).update((i, j))
        h_index = {b: sorted(idx) for b, idx in h_index.items()}
        Bs = {m: np.zeros((g_count, g_count), dtype=complex) for m in b_index}
        Hs = np.zeros((g_count, g_count), dtype=complex)
        for z, w in node_sets:
            P = _poly_eval(curve, z)
            absP = np.abs(P)
            F = _form_values(curve, basis, z)
            ph = phase(z) if b_index else None
            for m, (rows, cols) in b_index.items():
                W = w * b_weight(P, absP, ph, m)
                Bs[m][np.ix_(rows, cols)] += (F[rows] * W) @ F[cols].T
            for b, idx in h_index.items():
                Fb = F[idx]
                Hs[np.ix_(idx, idx)] += (Fb * (w * h_weight(absP, b))) @ Fb.conj().T
        return Bs, Hs

    # only the last two levels are read: the answer and the error estimate;
    # with no entry to integrate no geometry is built
    B = H = np.zeros((g_count, g_count), dtype=complex)
    quad_error = 0.0
    region = _Region(centers) if b_entries or h_entries else None
    for k, level in enumerate(range(max(levels - 2, 0), levels) if region else ()):
        Bs, Hs = node_sums(region._panel_nodes(level), b_entries, h_entries)
        for (c, gamma), (b_users, h_users) in disks.items():
            disk = region._disk_nodes(c, float(gamma), level)
            Bd, Hd = node_sums([disk], b_users, h_users)
            for i, j, m in b_users:
                Bs[m][i, j] += Bd[m][i, j]
            for i, j in h_users:
                Hs[i, j] += Hd[i, j]
        Bl, Hl = _fill(g_count, b_entries, h_entries,
                       [Bs[m][i, j] for i, j, m in b_entries],
                       [Hs[i, j] for i, j in h_entries])
        if k:
            quad_error = float(max(np.max(np.abs(Bl - B)), np.max(np.abs(Hl - H))))
        B, H = Bl, Hl
    return _report(curve, q, B, H, quad_error)

