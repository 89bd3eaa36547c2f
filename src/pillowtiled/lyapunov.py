"""Monte-Carlo estimation of the homological transport exponents.

A random geodesic direction is drawn from the Gauss measure and unfolded
into continued-fraction digits; the digit string R^{a1} L^{a2} R^{a3}...
drives the surface through canonical double-cover states while exact
integer matrices (one per digit, assembled from cached per-state data)
push one orthonormal frame through the invariant and anti-invariant
parts H1+ (+) H1- of first homology.  Growth rates are read off QR
diagonals a la Benettin; everything is normalized by the log-growth of
the tautological 2-vector, whose own exponent is 1 by construction.

The frame is block-diagonal, F = diag(F+, F-), and so is each digit's
float matrix diag(M+, M-), whose blocks are the exact integer products
rounded to floats: a digit is one matrix product and a flush one QR,
whose log|diag R| fill one vector, the H1+ entries first.  In exact
arithmetic the QR of a block-diagonal frame is block-diagonal; the
Householder steps leave about 1e-17 in the off-diagonal blocks of Q,
which are set back to exact zeros after every QR, so the two parts never
mix.  This frame replaced two, one per part, with two products per digit
and two QRs per flush.  On a seed-239 ``mc_certify`` benchmark pass the
QR calls fell from 21,095 to 11,773 and the exponents moved at round-off
(at most 1.5e-11 over 1368 output floats), while the taut times, block
slopes, warnings and verdicts stayed the same.

A certificate reads the invariant spectrum alone, so ``certify_degenerate``
walks H1+ alone: its cycles, digit matrices, frame and QRs leave H1- out,
and when H1+ = 0 it builds and checks its first state, then runs the
tautological loop with no move, digit matrix or QR.  The H1- normals of
the initial frame are still drawn from the stream and dropped, so the
digits, and every H1+ float, are the full run's up to round-off.

The frame is re-orthonormalized once the tautological log-growth since
the last QR reaches ``_RENORM_NATS`` = 12 nats, and at every block
boundary.  Normalized, every exponent of the frame lies in [0, 1] with
the tautological 1 on top, so between flushes each block's condition
number stays at most about e^12 and a QR loses about 2^-52 e^12 ~ 4e-11
of relative accuracy in diag R.  In exact arithmetic the R-diagonal product
over a block does not depend on the flush times, so the exponents depend
on this rule at round-off only; they moved at that level when it replaced
a flush every 20 moves, which made one large digit cost a QR of its own.

Large digits are cheap: each generator permutes the finite set of
canonical states along a cycle, so gen^a factors as (partial walk) x
(full-cycle product)^q.  A full-cycle product C is a parabolic affine
map, some power of which is a multitwist, so (C^k - I)^2 == 0 for a
small k found exactly when the cycle is built; then C^q == C^(q mod k)
(I + (q div k)(C^k - I)) and a digit costs one exact integer
multiply-add per entry, with no matrix product, before any float
touches it; the multiply-add runs on fixed-width integers below an exact
overflow guard (``lattice.Pencil``).  A digit's float matrix is kept
from its second sighting on: most large digits turn up once.  On
``30 7 15 10 28`` over 20k digits, 969 digits are distinct and 342 of
them exceed 64; the walker keeps 499 matrices, 29 of them above 64, and
a ``lyapunov`` run peaks at 95 MB, where keeping every distinct digit
took 117 MB.  One walker serves every seed of a line, so its cycles and
repeated digits are built once per line.  Every walker draws its states
and transitions from the process-wide cache of :mod:`.cocycle`, so those
are built once per process: a later line on the same cover or on a unit
relabelling of it reuses them.  The cycles and digits stay per walker,
so a line's float matrices go with it.  Shared across the process, on
cold in-process ``mc_certify`` benchmark passes (seed 281, 16 alternating
pairs, 2 vCPU), the cycles and the digit memo cut the wall time by about
an eighth (median pair ratio 0.88, 13 of 16) and raised the peak RSS
from 40.6 to 43.8 MB; the cycles alone gave a ratio of 0.94 (10 of 16)
at 41.3 MB.  Sharing would also need a trim of its own, like the state
cache's, to bound a long input.

Runs are bitwise reproducible for a fixed seed (single PCG64 stream for
the dynamics, a second derived stream for the bootstrap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice
from .cocycle import StateCache, shared_state_cache
from .coverings import CyclicCoverSpec, cyclic_to_pillow, is_determinant_locus
from .cylinders import ekz_for_cover
from .orbit import DEFAULT_ORBIT_CAP, OrbitCapExceeded
from .permsurf import PillowCover, orientation_double_cover

__all__ = [
    "LyapunovEstimate",
    "DegeneracyCertificate",
    "run_monte_carlo",
    "certify_degenerate",
]

_DIGIT_CAP = 10**12
_REFRESH_DIGITS = 25  # float continued-fraction digits stay honest this long
_BOOTSTRAP_RESAMPLES = 200
_BLOCKS = 20  # equal segments of a run, for the bootstrap error bars
_RENORM_NATS = 12.0  # tautological log-growth between re-orthonormalizations


class _CyclePowers:
    """Exact products of the per-move matrices around a cycle, on one lattice.

    ``cum[j]`` is the product of the first j moves and C = cum[-1] the
    full-cycle product; ``powers`` holds C^0..C^(k-1) and ``nil`` is
    C^k - I, with nil @ nil == 0.  For q full cycles, m, s = divmod(q, k)
    and P = cum[r] @ C^s, the product is cum[r] @ C^q == P + m (P @ nil);
    the pencil of (P, P @ nil) is cached per (r, s).
    """

    __slots__ = ("cum", "powers", "nil", "_pencils")

    def __init__(self, cum: list[list[list[int]]]):
        self.cum = cum
        self.powers, self.nil = lattice.quasi_unipotent_powers(cum[-1])
        self._pencils: dict[tuple[int, int], lattice.Pencil] = {}

    def product(self, r: int, q: int) -> np.ndarray:
        """cum[r] @ C^q, exactly, as an integer array."""
        m, s = divmod(q, len(self.powers))
        pencil = self._pencils.get((r, s))
        if pencil is None:
            P = lattice.matmul(self.cum[r], self.powers[s])
            pencil = self._pencils[r, s] = lattice.Pencil(P, lattice.matmul(P, self.nil))
        return pencil.at(m)


class _GenCycle:
    """States visited by repeating one generator, with closed-form products.

    ``states[j]`` is the state after j moves (states[0] is the anchor, and
    the move from states[-1] returns to it); ``plus``/``minus`` give the
    exact products of any number of moves on the two eigenlattices, and
    ``minus`` is None when the cycle is built for H1+ alone.
    """

    __slots__ = ("states", "plus", "minus")

    def __init__(self, cache: StateCache, key, gen: str, with_minus: bool = True):
        st = cache.state(key)
        cum_plus = [lattice.eye(st.splitting.dim_plus)]
        cum_minus = [lattice.eye(st.splitting.dim_minus)]
        self.states = [key]
        cur = key
        while True:
            tr = cache.transition(cur, gen)
            cum_plus.append(lattice.matmul(tr.plus, cum_plus[-1]))
            if with_minus:
                cum_minus.append(lattice.matmul(tr.minus, cum_minus[-1]))
            cur = tr.target
            if cur == key:
                break
            self.states.append(cur)
        self.plus = _CyclePowers(cum_plus)
        self.minus = _CyclePowers(cum_minus) if with_minus else None


class _Walker:
    """Digit-level driver over the canonical state graph.

    Everything it builds depends on the cover alone, so one walker can
    serve several runs on that cover, each starting at ``anchor``.  Its
    states and transitions live in the shared cache, which is trimmed
    here, when the walker is created, and not while it walks.  A walker
    built ``with_minus=False`` carries H1+ alone: its cycles, digit
    matrices and frames leave H1- out.
    """

    def __init__(self, cover: PillowCover, with_minus: bool = True):
        o, iota = orientation_double_cover(cover)
        self.cover = cover
        self.with_minus = with_minus
        self.cache = shared_state_cache()
        self.anchor = self.key = self.cache.canonical_key(o, iota)
        st = self.cache.state(self.key)
        self.dim_plus = st.splitting.dim_plus
        self.dim_minus = st.splitting.dim_minus
        self._cycles: dict[tuple, _GenCycle] = {}
        self._seen: set[tuple] = set()
        self._memo: dict[tuple, tuple] = {}

    def digit(self, gen: str, a: int) -> np.ndarray:
        """Float matrix diag(M+, M-) of gen^a from the current state, on
        H1+ (+) H1-, or M+ alone without H1-; advances the state.  A digit
        is kept from its second sighting on: most large digits are seen
        once."""
        memo_key = (self.key, gen, a)
        hit = self._memo.get(memo_key)
        if hit is None:
            ck = (self.key, gen)
            cyc = self._cycles.get(ck)
            if cyc is None:
                cyc = self._cycles[ck] = _GenCycle(self.cache, self.key, gen, self.with_minus)
            q, r = divmod(a, len(cyc.states))
            dp = self.dim_plus
            M = np.zeros((dp + self.dim_minus if self.with_minus else dp,) * 2)
            M[:dp, :dp] = cyc.plus.product(r, q)
            if cyc.minus is not None:
                M[dp:, dp:] = cyc.minus.product(r, q)
            hit = (M, cyc.states[r])
            if memo_key in self._seen:
                self._memo[memo_key] = hit
            else:
                self._seen.add(memo_key)
        self.key = hit[1]
        return hit[0]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Normalized non-negative exponents of one Monte-Carlo run.

    ``lambda_plus`` lists the invariant-part exponents (top of the
    filtration first, one per quotient handle); ``lambda_minus`` the
    anti-invariant ones, whose leading entry is the tautological 1 up to
    sampling error.  Both are clamped below at zero, the exact floor for
    the upper half of a symplectic spectrum.  In the estimates of a
    :class:`DegeneracyCertificate` the walk carried H1+ alone, and
    ``lambda_minus`` and ``stderr_minus`` are ``()``.
    """

    lambda_plus: tuple[float, ...]
    stderr_plus: tuple[float, ...]
    lambda_minus: tuple[float, ...]
    stderr_minus: tuple[float, ...]
    steps: int
    seed: int
    blocks: int
    taut_time: float
    block_slopes: tuple[float, ...]
    warnings: tuple[str, ...]


def _orthonormalize(F, dp: int, mp: int):
    """Q, R of the frame diag(F+, F-), or of F+ alone, F+ in the first dp
    rows and mp columns, with Q's off-diagonal blocks set to the exact
    zeros they are in exact arithmetic."""
    Q, R = np.linalg.qr(F)
    Q[:dp, mp:] = 0.0
    Q[dp:, :mp] = 0.0
    return Q, R


def run_monte_carlo(
    cover: PillowCover,
    steps: int,
    seed: int,
    *,
    _walker: _Walker | None = None,
) -> LyapunovEstimate:
    """Estimate the non-negative exponent spectrum of one cover.

    ``steps`` counts continued-fraction digits, at least ``_BLOCKS``.
    ``_walker`` is internal: a walker over ``cover`` shared by the runs of
    ``_run_seeds``.  A walker without H1- gives ``lambda_minus`` and
    ``stderr_minus`` ``()``, the full run's H1+ floats up to round-off
    and its tautological fields exactly.
    """
    block = _BLOCKS
    if steps < block:
        raise ValueError("steps must be at least the number of blocks")
    if _walker is None:
        walker = _Walker(cover)
    elif _walker.cover != cover:
        raise ValueError("the shared walker was built for another cover")
    else:
        walker = _walker
        walker.key = walker.anchor
    dp, dm = walker.dim_plus, walker.dim_minus
    mp, mm = dp // 2, dm // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    F = np.zeros((dp + dm, mp + mm))
    F[:dp, :mp] = rng.standard_normal((dp, mp))
    F[dp:, mp:] = rng.standard_normal((dm, mm))
    if not walker.with_minus:
        # the H1- normals are drawn all the same, so that the digit stream,
        # and with it every H1+ float, is the full run's
        F, dm, mm = F[:dp, :mp], 0, 0
    # no frame (H1+ = 0 without H1-): the walk is the tautological loop alone,
    # with no move built and no QR
    frame = F.size > 0
    if frame:
        F, _ = _orthonormalize(F, dp, mp)
    vec = rng.standard_normal(2)
    u0, u1 = (vec / np.hypot(*vec)).tolist()  # tautological 2-vector

    logs = np.zeros(mp + mm)
    logs_p, logs_m = logs[:mp], logs[mp:]
    taut = taut_at_flush = 0.0
    boundaries = [steps * (k + 1) // block for k in range(block)]
    bi = 0
    prev = (logs.copy(), 0.0, 0)
    rows = []

    x = 0.0
    digits_since_refresh = _REFRESH_DIGITS  # force an initial draw
    use_T = True
    for step in range(steps):
        if digits_since_refresh >= _REFRESH_DIGITS or x <= 1e-9:
            x = 2.0 ** rng.random() - 1.0
            digits_since_refresh = 0
        a = int(1.0 / x)
        x = 1.0 / x - a
        if a > _DIGIT_CAP:
            a = _DIGIT_CAP
            x = 0.0  # forces a refresh on the next digit
        gen = "T" if use_T else "L"
        use_T = not use_T
        if frame:
            F = walker.digit(gen, a) @ F
        if gen == "T":
            u0 += a * u1
        else:
            u1 += a * u0
        nrm = math.hypot(u0, u1)
        taut += math.log(nrm)
        u0 /= nrm
        u1 /= nrm
        digits_since_refresh += 1
        at_boundary = step + 1 == boundaries[bi]
        if frame and (taut - taut_at_flush >= _RENORM_NATS or at_boundary):
            F, R = _orthonormalize(F, dp, mp)
            logs += np.log(np.abs(np.diag(R)))
            taut_at_flush = taut
        if at_boundary:
            rows.append((logs - prev[0], taut - prev[1], step + 1 - prev[2]))
            prev = (logs.copy(), taut, step + 1)
            bi += 1

    warnings = []
    slopes = tuple(float(r[1]) / r[2] for r in rows)
    mean_slope = sum(slopes) / len(slopes)
    if mean_slope <= 0:
        warnings.append("tautological growth is not positive")
    elif (max(slopes) - min(slopes)) / mean_slope > 0.2:
        warnings.append(
            "tautological slope varies by more than 20% across blocks; "
            "increase steps"
        )

    dl = np.stack([r[0] for r in rows])
    dt = np.array([r[1] for r in rows])
    brng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xB5))))
    idx = brng.integers(0, len(rows), size=(_BOOTSTRAP_RESAMPLES, len(rows)))
    denom = np.maximum(dt[idx].sum(axis=1), 1e-9)[:, None]

    def spectrum(logs, dl):
        if logs.size == 0:
            return (), ()
        lam = np.maximum(logs / taut, 0.0)
        boots = dl[idx].sum(axis=1) / denom
        err = boots.std(axis=0, ddof=1)
        return tuple(float(v) for v in lam), tuple(float(e) for e in err)

    lam_p, err_p = spectrum(logs_p, dl[:, :mp])
    lam_m, err_m = spectrum(logs_m, dl[:, mp:])
    if any(e > 0.1 for e in err_p + err_m):
        warnings.append("bootstrap error above 0.1; increase steps")

    return LyapunovEstimate(
        lambda_plus=lam_p,
        stderr_plus=err_p,
        lambda_minus=lam_m,
        stderr_minus=err_m,
        steps=steps,
        seed=seed,
        blocks=block,
        taut_time=taut,
        block_slopes=slopes,
        warnings=tuple(warnings),
    )


def _run_seeds(
    cover: PillowCover, steps: int, seeds, *, with_minus: bool = True
) -> tuple[LyapunovEstimate, ...]:
    """One run_monte_carlo per seed, all on one walker.

    The walker's states, transitions, cycles and digit memo depend on the
    cover only, and the seed drives only the random stream, so the
    estimates equal those of independent runs.  ``with_minus=False`` walks
    H1+ alone.
    """
    walker = _Walker(cover, with_minus)
    return tuple(run_monte_carlo(cover, steps, s, _walker=walker) for s in seeds)


@dataclass(frozen=True)
class DegeneracyCertificate:
    """Joint verdict of the sampled and exact degeneracy channels.

    Only the invariant spectrum decides, so the runs behind ``estimates``
    walk H1+ alone: their ``lambda_minus`` and ``stderr_minus`` are ``()``.
    """

    epsilon: float
    steps: int
    seeds: tuple[int, ...]
    estimates: tuple[LyapunovEstimate, ...]
    max_lambda_plus: float
    measured_degenerate: bool
    exact_sum: Fraction | None
    exact_degenerate: bool | None
    criterion_degenerate: bool | None
    verdict: str
    contradiction: bool
    report: str


def certify_degenerate(
    target,
    epsilon: float,
    *,
    steps: int = 20_000,
    seeds: tuple[int, ...] = (1, 2, 3),
    orbit_cap: int = DEFAULT_ORBIT_CAP,
) -> DegeneracyCertificate:
    """Decide whether the invariant-part spectrum vanishes.

    ``target`` is a pillowcase cover or a cyclic-cover specification.  The
    Monte-Carlo channel must agree with the exact sum rule (and, for cyclic
    covers, with the closed-form criterion); any disagreement is reported
    as a contradiction and the certificate fails.
    """
    if not (0.0 < epsilon < 0.1):
        raise ValueError("epsilon must lie strictly between 0 and 0.1")
    seeds = tuple(seeds)
    if len(set(seeds)) < 3:
        raise ValueError("need at least three distinct seeds")
    criterion: bool | None = None
    if isinstance(target, PillowCover):
        cover = target
    elif isinstance(target, CyclicCoverSpec):
        cover = cyclic_to_pillow(target)
        criterion = bool(is_determinant_locus(target))
    else:
        raise TypeError("target must be a PillowCover or CyclicCoverSpec")

    estimates = _run_seeds(cover, steps, seeds, with_minus=False)
    maxes = [max(e.lambda_plus) for e in estimates if e.lambda_plus]
    max_lp = max(maxes, default=0.0)
    measured = max_lp < epsilon

    exact_sum: Fraction | None
    try:
        exact_sum = ekz_for_cover(cover, orbit_cap=orbit_cap).lyap_sum
        exact_deg: bool | None = exact_sum == 0
    except OrbitCapExceeded:
        exact_sum = None
        exact_deg = None

    channels = {"monte-carlo": measured}
    if exact_deg is not None:
        channels["sum-rule"] = exact_deg
    if criterion is not None:
        channels["criterion"] = criterion
    agree = len(set(channels.values())) == 1
    if agree:
        verdict = "PASS" if measured else "FAIL"
        report = (
            f"all channels agree: {'degenerate' if measured else 'non-degenerate'}"
            f" (max lambda_plus = {max_lp:.4g}"
            + (f", exact sum = {exact_sum}" if exact_sum is not None else "")
            + ")"
        )
        contradiction = False
    else:
        verdict = "FAILED"
        contradiction = True
        states = ", ".join(
            f"{name}={'degenerate' if val else 'non-degenerate'}"
            for name, val in channels.items()
        )
        report = (
            f"channels disagree: {states}; max lambda_plus = {max_lp:.4g}"
            + (f", exact sum = {exact_sum}" if exact_sum is not None else "")
        )
    return DegeneracyCertificate(
        epsilon=epsilon,
        steps=steps,
        seeds=seeds,
        estimates=estimates,
        max_lambda_plus=max_lp,
        measured_degenerate=measured,
        exact_sum=exact_sum,
        exact_degenerate=exact_deg,
        criterion_degenerate=criterion,
        verdict=verdict,
        contradiction=contradiction,
        report=report,
    )
