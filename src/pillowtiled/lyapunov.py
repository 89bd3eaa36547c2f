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
mix.

All seeds of a line move through the frame pass together.  Each seed's
walk is a generator that owns its run (random stream, continued
fraction, tautological vector, state, frame, log-growth and block rows):
it applies each digit's matrix to its frame as it goes, yields the frame
at a flush, is answered with the frame orthonormalized and that QR's
log|diag R|, and returns its estimate.  One stacked QR per round
orthonormalizes the frames of every seed that flushes in it; LAPACK
factors each frame of a stack on its own, so every float is the seed's
alone, bit for bit.  A line makes 1 + (most flushes of any seed) QR
calls, not one per flush per seed: on frames this small numpy's Python
wrapper, not LAPACK, takes most of a QR's time, which is also why
``_orthonormalize`` forms no triangle R.  A digit is one lookup in the
walker's memo and one ``ndarray.dot``, the same BLAS product as ``@``
with less wrapper around it; an array formed for a digit lives only
until its product with the frame.

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
on this rule at round-off only.

Large digits are cheap: each generator permutes the finite set of
canonical states along a cycle, so gen^a factors as (partial walk) x
(full-cycle product)^q.  A full-cycle product C is a parabolic affine
map, some power of which is a multitwist, so (C^k - I)^2 == 0 for a
small k, found exactly when the cycle is built and bounded by the
surface: k <= e n / (cycle length), e the order of the generator's
permutation and n the number of squares (``GenCycle``).  Then C^q ==
C^(q mod k) (I + (q div k)(C^k - I)), so a digit's matrix is P + m Q for
a pencil (P, Q) of its cycle, built once per partial walk and power of C
below k and kept in the store as float64 arrays (``GenCycle.digit``,
``lattice.Pencil``), and a multiplier m = q div k.  At m = 0 the digit is
the pencil's own array, and no array is formed; past it, one float
multiply-add per entry forms it, exact below 2^53 and a multiply-add on
Python ints rounded once past that, so every digit's matrix is the
exact product rounded.  ``lyapunov 30 7 15 10 28 --steps 20000`` (five
seeds, 100k digits) meets 2297 distinct digits, builds 408 pencils and
forms 6192 arrays, and peaks at 89 MB; a walker that kept the float
matrix of each digit from its second sighting peaked at 126 MB.

Every walker draws its states, transitions, generator cycles and
pencils from the process-wide store, through :mod:`.cocycle`: each is an
exact function of its canonical key, so it is built once while it is
kept, and a later line on the same cover or on a unit relabelling of it
reuses it.  A cycle's H1- products are built only when a walker that
carries H1- first asks for them; a ``certify`` walk multiplies by H1+
pencils and a ``lyapunov`` walk by diag(H1+, H1-) pencils.  The digit
memo stays per walker and holds references only (a pencil, its
multiplier and a target), keyed by the walker's own small state ids.

Runs are bitwise reproducible for a fixed seed (single PCG64 stream for
the dynamics, a second derived stream for the bootstrap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from . import lattice, store
from .cocycle import StateCache
from .coverings import CyclicCoverSpec, cyclic_to_pillow, is_determinant_locus
from .cylinders import ekz_for_cover, ekz_for_spec
from .orbit import DEFAULT_ORBIT_CAP, OrbitCapExceeded
from .permsurf import PillowCover, SizeCapExceeded, orientation_double_cover

__all__ = [
    "LyapunovEstimate",
    "Channel",
    "DegeneracyCertificate",
    "run_monte_carlo",
    "certify_degenerate",
]

_DIGIT_CAP = 10**12
_REFRESH_DIGITS = 25  # float continued-fraction digits stay honest this long
_BOOTSTRAP_RESAMPLES = 200
_BLOCKS = 20  # equal segments of a run, for the bootstrap error bars
_RENORM_NATS = 12.0  # tautological log-growth between re-orthonormalizations
_MAX_SQUARES = 512  # squares of a walker's double cover: pillow degree 128


class _Walker:
    """Digit-level driver over the canonical state graph.

    Everything it builds depends on the cover alone, so one walker serves
    every seed of a line, each starting at ``anchor``, its state 0.  Its
    states, transitions, cycles and pencils are units of the store, which
    drops the least recently used whenever it keeps one, during a walk
    too.  A walk names states by small ints, the walker's own, so that a
    digit is one lookup in the walker's memo, keyed by (state, gen, a) and
    holding references only: the shared pencil of the digit, its
    multiplier and the state it reaches.  Only misses keep anything, and
    a miss in which the store let a unit go empties the memo, so it holds
    no pencil that the store dropped.  A walker built ``with_minus=False``
    carries H1+ alone: its digit matrices and frames leave H1- out, and it
    never asks a cycle for its H1- products.
    """

    def __init__(self, cover: PillowCover | CyclicCoverSpec, with_minus: bool = True):
        cyclic = isinstance(cover, CyclicCoverSpec)
        d = cover.N if cyclic else cover.d  # the cap is checked before a cover is built
        if 4 * d > _MAX_SQUARES:
            raise SizeCapExceeded(f"double cover of {4 * d} squares is past the "
                                  f"Monte-Carlo cap of {_MAX_SQUARES} squares")
        o, iota = orientation_double_cover(cyclic_to_pillow(cover) if cyclic else cover)
        self.with_minus = with_minus
        self.cache = StateCache()
        self.anchor = self.cache.canonical_key(o, iota)
        st = self.cache.state(self.anchor)
        self.dim_plus = st.splitting.dim_plus
        self.dim_minus = st.splitting.dim_minus
        self._keys = [self.anchor]  # state -> canonical key
        self._ids = {self.anchor: 0}  # canonical key -> state
        self._memo: dict[tuple[int, str, int], tuple[lattice.Pencil, int, int]] = {}

    def digit(self, state: int, gen: str, a: int) -> tuple[np.ndarray, int]:
        """(M, target): the float matrix diag(M+, M-) of gen^a from
        ``state`` on H1+ (+) H1-, or M+ alone without H1-, and the state it
        reaches.  M is the shared pencil's own read-only array where the
        pencil's multiplier is 0, and formed afresh otherwise."""
        hit = self._memo.get((state, gen, a))
        if hit is None:
            dropped = store.dropped
            cyc = self.cache.cycle(self._keys[state], gen)
            pencil, m, key = cyc.digit(a, self.with_minus)
            target = self._ids.get(key)
            if target is None:
                target = self._ids[key] = len(self._keys)
                self._keys.append(key)
            if store.dropped != dropped:
                self._memo.clear()
            hit = self._memo[state, gen, a] = (pencil, m, target)
        return hit[0].at(hit[1]), hit[2]


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
    """Q and log|diag R| of a stack of frames diag(F+, F-), or of F+
    alone, F+ in the first dp rows and mp columns, with Q's off-diagonal
    blocks set to the exact zeros they are in exact arithmetic.

    ``np.linalg.qr(F, mode="raw")`` runs LAPACK's factorization
    (``qr_r_raw``) and forms no triangle R: diag R is read off the raw
    factor, and Q is formed by the gufunc that ``np.linalg.qr`` calls for
    it (``qr_reduced``), on the same factor, so Q and diag R are its bits.
    LAPACK factors each frame of the stack on its own, so each Q and R is
    the one frame's bit for bit.  A frame that is not finite raises
    FloatingPointError.
    """
    h, tau = np.linalg.qr(F, mode="raw")
    a = h.swapaxes(-1, -2)  # the raw factor, R on and above its diagonal
    if not np.isfinite(a).all():
        raise FloatingPointError("a Monte-Carlo frame is not finite")
    Q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    Q[..., :dp, mp:] = 0.0
    Q[..., dp:, :mp] = 0.0
    return Q, np.log(np.abs(np.diagonal(a, axis1=-2, axis2=-1)))


def run_monte_carlo(cover: PillowCover, steps: int, seed: int) -> LyapunovEstimate:
    """Estimate the non-negative exponent spectrum of one cover.

    ``steps`` counts continued-fraction digits, at least ``_BLOCKS``.
    """
    return _estimate(_Walker(cover), steps, (seed,))[0]


def _walk(walker: _Walker, steps: int, seed: int):
    """One seed's whole run from the walker's anchor, as a generator.

    It yields its frame before the first digit, applies each digit's float
    matrix to the frame as it goes, and yields it again at each flush: once
    the tautological log-growth since the last flush reaches
    ``_RENORM_NATS``, and at every block end.  Each yield is answered with
    the frame orthonormalized and the log|diag R| of that QR; the first
    answer's growth is dropped.  It returns the run's
    :class:`LyapunovEstimate`.  With no frame (H1+ = 0 without H1-) it
    builds no move and yields nothing.
    """
    dp, dm = walker.dim_plus, walker.dim_minus
    mp, mm = dp // 2, dm // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    F = np.zeros((dp + dm, mp + mm))
    F[:dp, :mp] = rng.standard_normal((dp, mp))
    F[dp:, mp:] = rng.standard_normal((dm, mm))
    if not walker.with_minus:
        # the H1- normals are drawn all the same, so that the digit stream,
        # and with it every H1+ float, is the full run's
        F = F[:dp, :mp]
    frame = F.size > 0
    logs = np.zeros(F.shape[1])
    if frame:
        F, _ = yield F
    vec = rng.standard_normal(2)
    u0, u1 = (vec / np.hypot(*vec)).tolist()  # tautological 2-vector

    state = 0  # the walker's anchor
    taut = taut_at_flush = 0.0
    boundaries = {steps * (k + 1) // _BLOCKS for k in range(_BLOCKS)}
    rows = []
    prev = (logs.copy(), 0.0, 0)
    x = 0.0
    digits_since_refresh = _REFRESH_DIGITS  # force an initial draw
    use_T = True
    for step in range(steps):
        if digits_since_refresh >= _REFRESH_DIGITS or x <= 1e-9:
            x = 2.0 ** rng.random() - 1.0
            digits_since_refresh = 0
        if x == 0.0:  # a draw of 0 or 2**-53: no digit is finite
            a = _DIGIT_CAP + 1
        else:
            a = int(1.0 / x)
            x = 1.0 / x - a
        if a > _DIGIT_CAP:
            a = _DIGIT_CAP
            x = 0.0  # forces a refresh on the next digit
        gen = "T" if use_T else "L"
        use_T = not use_T
        if frame:
            M, state = walker.digit(state, gen, a)
            F = M.dot(F)
            del M  # an array formed for this digit is not kept past its product
        if gen == "T":
            u0 += a * u1
        else:
            u1 += a * u0
        nrm = math.hypot(u0, u1)
        taut += math.log(nrm)
        u0 /= nrm
        u1 /= nrm
        digits_since_refresh += 1
        at_boundary = step + 1 in boundaries
        if taut - taut_at_flush >= _RENORM_NATS or at_boundary:
            if frame:
                F, growth = yield F
                logs += growth
            taut_at_flush = taut
        if at_boundary:
            rows.append((logs - prev[0], taut - prev[1], step + 1 - prev[2]))
            prev = (logs.copy(), taut, step + 1)
    return _summary(logs, mp, rows, taut, steps, seed)


def _estimate(walker: _Walker, steps: int, seeds: tuple[int, ...]) -> tuple[LyapunovEstimate, ...]:
    """One run per seed from the walker's anchor; see :func:`run_monte_carlo`.

    Each round sends every live walk (:func:`_walk`) its reply, takes the
    frames they yield at their next flush, orthonormalizes them with one
    stacked QR and replies to each walk with its own frame and growth; a
    walk that returns leaves with its estimate.  A line makes 1 + (most
    flushes of any seed) QRs, and each run's floats are the seed's alone.
    A walker without H1- gives ``lambda_minus`` and ``stderr_minus`` ``()``,
    the full run's H1+ floats up to round-off and its tautological fields
    exactly.
    """
    if steps < _BLOCKS:
        raise ValueError("steps must be at least the number of blocks")
    dp = walker.dim_plus
    walks = [_walk(walker, steps, seed) for seed in seeds]
    estimates = [None] * len(walks)
    live, replies = range(len(walks)), [None] * len(walks)
    while live:
        frames = []
        for i, reply in zip(live, replies):
            try:
                frames.append(walks[i].send(reply))
            except StopIteration as stop:
                estimates[i] = stop.value
        live = [i for i in live if estimates[i] is None]
        if live:
            replies = zip(*_orthonormalize(np.array(frames), dp, dp // 2))
    return tuple(estimates)


def _summary(logs, mp: int, rows, taut: float, steps: int, seed: int) -> LyapunovEstimate:
    """The estimate of one finished run: ``logs`` holds its log-growth per
    frame column, the H1+ ones first, and ``rows`` the per-block log-growth,
    tautological growth and step count."""
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
    # numpy sums dt[idx] pairwise along its contiguous last axis.  The
    # block sums dl[idx.T].sum(axis=0) make the additions of
    # dl[idx].sum(axis=1) in its order: block after block for a half of
    # two or more columns, at more than twice its speed, and pairwise as
    # for dt for a half of one column, which dl[idx.T] then lays out in
    # memory as dl[idx] does
    denom = np.maximum(dt[idx].sum(axis=1), 1e-9)[:, None]

    def spectrum(logs, dl):
        if logs.size == 0:
            return (), ()
        lam = np.maximum(logs / taut, 0.0)
        boots = dl[idx.T].sum(axis=0) / denom
        err = boots.std(axis=0, ddof=1)
        return tuple(float(v) for v in lam), tuple(float(e) for e in err)

    lam_p, err_p = spectrum(logs[:mp], dl[:, :mp])
    lam_m, err_m = spectrum(logs[mp:], dl[:, mp:])
    if any(e > 0.1 for e in err_p + err_m):
        warnings.append("bootstrap error above 0.1; increase steps")

    return LyapunovEstimate(
        lambda_plus=lam_p,
        stderr_plus=err_p,
        lambda_minus=lam_m,
        stderr_minus=err_m,
        steps=steps,
        seed=seed,
        blocks=_BLOCKS,
        taut_time=taut,
        block_slopes=slopes,
        warnings=tuple(warnings),
    )


def _run_seeds(
    cover: PillowCover | CyclicCoverSpec, steps: int, seeds, *, with_minus: bool = True
) -> tuple[LyapunovEstimate, ...]:
    """One run per seed, all on one walker and through one frame pass.

    The walker's states, transitions, cycles and digit memo depend on the
    cover only, and the seed drives only the random stream, so the
    estimates equal those of independent runs.  ``with_minus=False`` walks
    H1+ alone.
    """
    return _estimate(_Walker(cover, with_minus), steps, tuple(seeds))


@dataclass(frozen=True)
class Channel:
    """One channel of a certificate: its decision, None when the cap it
    names stopped it, and its evidence, the Monte-Carlo max lambda_plus or
    the exact sum (None for the criterion or a stopped channel)."""

    name: str
    degenerate: bool | None
    evidence: float | Fraction | None = None
    cap: str | None = None


def _channel(name: str, decide) -> Channel:
    """The channel ``name``, with the decision and evidence ``decide()`` returns;
    a cap met inside it leaves the channel undecided and does not end the line."""
    try:
        return Channel(name, *decide())
    except (OrbitCapExceeded, SizeCapExceeded) as exc:
        return Channel(name, None, cap=str(exc))


_EVIDENCE = {"monte-carlo": "max lambda_plus = {:.4g}", "sum-rule": "exact sum = {}"}


def _verdict(channels: tuple[Channel, ...]) -> tuple[str, bool, str]:
    """Verdict, contradiction and report: the deciding channels must agree, and
    each capped one is named after them.  When none decides, SizeCapExceeded
    names every cap."""
    decided = [c for c in channels if c.degenerate is not None]
    capped = "".join(f"; {c.name} capped: {c.cap}" for c in channels if c.cap)
    if not decided:
        raise SizeCapExceeded("no channel decides" + capped)
    word = {True: "degenerate", False: "non-degenerate"}
    evidence = ", ".join(_EVIDENCE[c.name].format(c.evidence)
                         for c in decided if c.evidence is not None)
    if len({c.degenerate for c in decided}) == 1:
        degenerate = decided[0].degenerate
        report = f"all channels agree: {word[degenerate]}" + (f" ({evidence})" if evidence else "")
        return "PASS" if degenerate else "FAIL", False, report + capped
    states = ", ".join(f"{c.name}={word[c.degenerate]}" for c in decided)
    return "FAILED", True, f"channels disagree: {states}; {evidence}{capped}"


@dataclass(frozen=True)
class DegeneracyCertificate:
    """Joint verdict of the sampled and exact degeneracy channels.

    ``channels`` holds Monte Carlo, the sum rule and, for a cyclic cover,
    the criterion, in that order.  Only the invariant spectrum decides, so
    the runs behind ``estimates`` walk H1+ alone: their ``lambda_minus``
    and ``stderr_minus`` are ``()``.  A capped Monte-Carlo channel leaves
    ``estimates`` ``()``.
    """

    epsilon: float
    estimates: tuple[LyapunovEstimate, ...]
    channels: tuple[Channel, ...]
    verdict: str
    contradiction: bool
    report: str


def certify_degenerate(target, epsilon: float, *, steps: int = 20_000,
                       seeds: tuple[int, ...] = (1, 2, 3),
                       orbit_cap: int = DEFAULT_ORBIT_CAP) -> DegeneracyCertificate:
    """Decide whether the invariant-part spectrum vanishes.

    ``target`` is a pillowcase cover or a cyclic-cover specification.  The
    channels are Monte Carlo (degenerate when every seed's lambda_plus is
    below ``epsilon``), the exact sum rule and, for a cyclic cover, the
    closed-form criterion.  A channel that meets an orbit or size cap is
    undecided and the report names its cap.  The deciding channels agree on
    PASS (degenerate) or FAIL; any disagreement is a contradiction, FAILED.
    When no channel decides, it raises SizeCapExceeded naming every cap.
    """
    if not (0.0 < epsilon < 0.1):
        raise ValueError("epsilon must lie strictly between 0 and 0.1")
    seeds = tuple(seeds)
    if len(set(seeds)) < 3:
        raise ValueError("need at least three distinct seeds")
    cyclic = isinstance(target, CyclicCoverSpec)
    if not (cyclic or isinstance(target, PillowCover)):
        raise TypeError("target must be a PillowCover or CyclicCoverSpec")
    estimates = []

    def monte_carlo():
        estimates.extend(_run_seeds(target, steps, seeds, with_minus=False))
        max_lp = max((max(e.lambda_plus) for e in estimates if e.lambda_plus), default=0.0)
        return max_lp < epsilon, max_lp

    def sum_rule():
        ekz = ekz_for_spec if cyclic else ekz_for_cover
        exact_sum = ekz(target, orbit_cap=orbit_cap).lyap_sum
        return exact_sum == 0, exact_sum

    rules = [("monte-carlo", monte_carlo), ("sum-rule", sum_rule)]
    if cyclic:
        rules.append(("criterion", lambda: (is_determinant_locus(target), None)))
    channels = tuple(_channel(name, decide) for name, decide in rules)
    return DegeneracyCertificate(epsilon, tuple(estimates), channels, *_verdict(channels))
