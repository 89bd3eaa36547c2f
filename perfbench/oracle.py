"""Closed-form exponents of square-tiled cyclic covers, and output checks.

The reference is independent of the program: for the cyclic cover
(N; a1..a4) and each character k = 1..N-1, let t_i = {k a_i / N} over the
terms with k a_i not divisible by N.  Then h10 = sum t_i - 1 and
h01 = sum (1 - t_i) - 1.  A (1,1) character carries the exponent
2 min_i min(t_i, 1 - t_i); every other character carries only zeros
(Eskin-Kontsevich-Zorich, "Lyapunov spectrum of square-tiled cyclic
covers", JMD 2011; Forni-Matheus-Zorich, "Square-tiled cyclic covers",
JMD 2011).

Each ``check_<command>`` takes one record of the program's JSON output
and returns a list of problems; an empty list means the record is right.
"""

from __future__ import annotations

from fractions import Fraction

# MC exponents must lie within this many bootstrap errors of the oracle,
# plus an absolute floor for exponents clamped at zero (stderr 0 there).
MC_SIGMAS = 5
MC_FLOOR = 0.02
# the tautological exponent of the anti-invariant part is 1 by construction
TAUT_TOL = 0.05
# pairing spectrum: exact zeros on degenerate covers, 1 up to rounding else
THETA_TOL = 1e-6
QUAD_ERROR_MAX = 5e-3


def _character_t(N: int, a, k: int) -> list[Fraction]:
    return [Fraction(k * x % N, N) for x in a if k * x % N]


def character_types(N: int, a) -> list[tuple[int, int]]:
    """(h10, h01) of each character k = 1..N-1."""
    out = []
    for k in range(1, N):
        t = _character_t(N, a, k)
        out.append((int(sum(t)) - 1, int(sum(1 - x for x in t)) - 1))
    return out


def cyclic_exponents(N: int, a) -> tuple[Fraction, ...]:
    """One exponent per character k = 1..N-1; zero unless (1,1)."""
    out = []
    for k, (h10, h01) in zip(range(1, N), character_types(N, a)):
        if (h10, h01) == (1, 1):
            t = _character_t(N, a, k)
            out.append(2 * min(min(x, 1 - x) for x in t))
        else:
            out.append(Fraction(0))
    return tuple(out)


def nonnegative_spectrum(N: int, a) -> list[Fraction]:
    """The g non-negative exponents of the cover, largest first.

    A character contributes (h10 + h01)/2 of them on average over the
    pair k, N-k: its (1,1) exponent, or zeros.
    """
    types = character_types(N, a)
    genus = sum(h10 + h01 for h10, h01 in types) // 2
    positive = [e for e in cyclic_exponents(N, a) if e]
    return sorted(positive, reverse=True) + [Fraction(0)] * (genus - len(positive))


def is_degenerate(N: int, a) -> bool:
    return not any(cyclic_exponents(N, a))


def parse_cyclic(line: str) -> tuple[int, tuple[int, ...]]:
    nums = [int(x) for x in line.split()]
    return nums[0], tuple(nums[1:])


def check_ekz(line: str, record: dict) -> list[str]:
    N, a = parse_cyclic(line)
    got = Fraction(record["lyap_sum"])
    want = sum(cyclic_exponents(N, a), Fraction(0))
    return [] if got == want else [f"lyap_sum {got} != oracle sum {want}"]


def check_orbit(line: str, record: dict) -> list[str]:
    size = len(record["vertices"])
    problems = []
    if record["size"] != size:
        problems.append(f"size {record['size']} != {size} vertices")
    out_edges: dict[tuple[int, str], int] = {}
    for src, gen, dst in record["edges"]:
        if not (0 <= src < size and 0 <= dst < size):
            problems.append(f"edge {src} {gen} {dst} leaves the vertex set")
        out_edges[(src, gen)] = out_edges.get((src, gen), 0) + 1
    for v in range(size):
        for gen in ("S", "T"):
            if out_edges.get((v, gen), 0) != 1:
                problems.append(f"vertex {v} has {out_edges.get((v, gen), 0)} {gen} out-edges")
    if len(record["edges"]) != 2 * size:
        problems.append(f"{len(record['edges'])} edges for {size} vertices")
    return problems


def check_lyapunov(line: str, record: dict) -> list[str]:
    N, a = parse_cyclic(line)
    want = nonnegative_spectrum(N, a)
    problems = []
    for est in record["estimates"]:
        pairs = sorted(zip(est["lambda_plus"], est["stderr_plus"]), reverse=True)
        if len(pairs) != len(want):
            problems.append(f"seed {est['seed']}: {len(pairs)} exponents, oracle has {len(want)}")
            continue
        for (lam, err), ref in zip(pairs, want):
            if abs(lam - float(ref)) > MC_SIGMAS * err + MC_FLOOR:
                problems.append(f"seed {est['seed']}: {lam:.4f} +- {err:.4f} vs oracle {ref}")
        top = max(est["lambda_minus"], default=None)
        if top is None or abs(top - 1.0) > TAUT_TOL:
            problems.append(f"seed {est['seed']}: top lambda_minus {top} is not 1")
    return problems


def check_certify(line: str, record: dict, determinant_locus: bool) -> list[str]:
    """``determinant_locus`` is the program's own closed-form criterion."""
    N, a = parse_cyclic(line)
    degenerate = is_degenerate(N, a)
    problems = []
    if degenerate != determinant_locus:
        problems.append(f"oracle degenerate={degenerate} but is_determinant_locus={determinant_locus}")
    if record["verdict"] != ("PASS" if degenerate else "FAIL"):
        problems.append(f"verdict {record['verdict']} but oracle degenerate={degenerate}")
    if record["criterion"] != degenerate:
        problems.append(f"criterion {record['criterion']} but oracle degenerate={degenerate}")
    if record["exact_sum"] is not None:
        want = sum(cyclic_exponents(N, a), Fraction(0))
        if Fraction(record["exact_sum"]) != want:
            problems.append(f"exact_sum {record['exact_sum']} != oracle sum {want}")
    return problems


def check_bform(line: str, record: dict) -> list[str]:
    """Degenerate covers pair to exact zeros; covers whose oracle spectrum
    contains the exponent 1 reach the contraction bound 1."""
    N, a = parse_cyclic(line)
    exps = cyclic_exponents(N, a)
    problems = []
    for rep in record["reports"]:
        theta = rep["theta"]
        top = max(theta, default=0.0)
        if top > 1.0 + THETA_TOL:
            problems.append(f"theta {top} exceeds 1")
        if not any(exps) and top > THETA_TOL:
            problems.append(f"degenerate cover has theta {top}")
        if max(exps, default=0) == 1 and abs(top - 1.0) > THETA_TOL:
            problems.append(f"max theta {top} should be 1")
        if rep["quad_error"] > QUAD_ERROR_MAX:
            problems.append(f"quad_error {rep['quad_error']} above {QUAD_ERROR_MAX}")
    return problems
