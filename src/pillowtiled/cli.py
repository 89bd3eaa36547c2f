"""Batch command-line front end.

Each subcommand reads one input file (one datum per line, ``#`` comments
allowed), runs the corresponding pipeline per line, and writes a JSON
array (or CSV) of reports.  Lines are processed independently and in
order, so output is deterministic for a given (input, seed).  The JSON
array holds one record per line: the record of datum line i (counted from
0, comments and blank lines skipped) is on output line i + 2, between a
``[`` line and a ``]`` line.  A record holds the pipeline's own objects,
reports, tuples and Fractions among them, and ``formats.json_default``
encodes them for JSON and CSV alike.  A record's encoding transient
follows its text: a record with a top-level sequence longer than
``_PIECE`` items, an orbit graph's vertices or edges, is encoded in
pieces of that many items, since one ``json.dumps`` call holds 18-19
times the text of such a record until it returns (``_json_lines``).

Exit codes: 0 all lines complete and no verdict failed; 2 parse error,
bad arguments (a flag the subcommand does not read among them), or an
unreadable input or unwritable output file; 3 a resource cap was hit (on
``certify``, one in every channel); 4 a certificate contradiction or failed
check.  A parse error or a cap names the number of its line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .bform import SuperellipticCurve, pairing_matrices
from .coverings import (
    CyclicCoverSpec,
    check_bounds,
    cover_report,
    is_determinant_locus,
    locus_metadata,
    sample_base_differential,
)
from .cylinders import ekz_for_spec
from .formats import (
    ParseError,
    iter_input_lines,
    json_default,
    parse_cyclic_line,
    parse_locus_line,
    parse_origami_line,
    parse_pillow_line,
    parse_surface_line,
)
from .lyapunov import _run_seeds, certify_degenerate
from .orbit import DEFAULT_ORBIT_CAP, OrbitCapExceeded, enumerate_orbit, enumerate_state_orbit
from .permsurf import SizeCapExceeded, orientation_double_cover

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_CONTRADICTION = 4

DISC_POINTS = (0.3, 0.2 + 0.7j)

# items of a long top-level record sequence per encoder call (_json_lines)
_PIECE = 16


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    steps: int = 100_000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    epsilon: float = 0.02
    orbit_cap: int = DEFAULT_ORBIT_CAP
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.steps <= 0 or self.orbit_cap <= 0:
            raise ValueError("steps and orbit cap must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not 0.0 < self.epsilon < 0.1:
            raise ValueError("epsilon must lie in (0, 0.1)")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.format!r}")


def _spec_key(s: CyclicCoverSpec) -> list[int]:
    return [s.N, *s.a]


def _cmd_construct(line: str, cfg: RunConfig):
    s = parse_cyclic_line(line)
    rep = cover_report(s)
    return {"spec": _spec_key(s), **vars(rep)}, EXIT_OK


def _cmd_certify(line: str, cfg: RunConfig):
    cert = certify_degenerate(parse_surface_line(line), cfg.epsilon, steps=cfg.steps,
                              seeds=cfg.seeds, orbit_cap=cfg.orbit_cap)
    monte_carlo, sum_rule, *criterion = cert.channels
    record = {
        "input": line,
        "criterion": criterion[0].degenerate if criterion else None,
        "exponents": [e.lambda_plus for e in cert.estimates],
        "stderr": [e.stderr_plus for e in cert.estimates],
        "exact_sum": sum_rule.evidence,
        "warnings": [e.warnings for e in cert.estimates],
        "verdict": cert.verdict,
        "contradiction": cert.contradiction,
        "epsilon": cert.epsilon,
        "max_lambda_plus": monte_carlo.evidence,
        "report": cert.report,
    }
    return record, EXIT_CONTRADICTION if cert.contradiction else EXIT_OK


def _cmd_orbit(line: str, cfg: RunConfig):
    if line.count(";") == 4:
        cover = parse_pillow_line(line)
        o, iota = orientation_double_cover(cover)
        graph = enumerate_state_orbit(o, iota, cap=cfg.orbit_cap)
    else:
        o = parse_origami_line(line)
        graph = enumerate_orbit(o, cap=cfg.orbit_cap)
    record = {
        "input": line,
        "d": graph.d,
        "size": graph.size,
        "vertices": graph.vertices,
        "edges": graph.edges,
    }
    return record, EXIT_OK


def _cmd_ekz(line: str, cfg: RunConfig):
    s = parse_cyclic_line(line)
    rep = ekz_for_spec(s, orbit_cap=cfg.orbit_cap)
    return {"spec": _spec_key(s), **vars(rep)}, EXIT_OK


def _cmd_lyapunov(line: str, cfg: RunConfig):
    estimates = _run_seeds(parse_surface_line(line), cfg.steps, cfg.seeds)
    return {"input": line, "estimates": estimates}, EXIT_OK


def _cmd_bform(line: str, cfg: RunConfig):
    s = parse_cyclic_line(line)
    reports = []
    for t in DISC_POINTS:
        curve = SuperellipticCurve(s.N, (0.0, 1.0, t), s.a[:3])
        q = sample_base_differential((), 4, zeros=(), poles=(t,))
        rep = pairing_matrices(curve, q)
        reports.append(
            {
                "curve": {"N": s.N, "branch": curve.branch, "a": curve.a},
                "q": {"poles": [0.0, 1.0, complex(t), "inf"]},
                "B": rep.B,
                "H": rep.H,
                "theta": rep.theta,
                "quad_error": rep.quad_error,
                "gap": rep.gap,
            }
        )
    return {"spec": _spec_key(s), "reports": reports}, EXIT_OK


def _cmd_bounds(line: str, cfg: RunConfig):
    s = parse_cyclic_line(line)
    rep = cover_report(s)
    verdicts = check_bounds(rep, degenerate=is_determinant_locus(s))
    checks = [
        {"name": v.name, "pass": v.status != "fail", "status": v.status,
         "lhs": v.lhs, "rhs": v.rhs}
        for v in verdicts
    ]
    record = {
        "spec": _spec_key(s),
        "genus": rep.genus,
        "stratum": rep.stratum,
        "n": rep.n,
        "checks": checks,
    }
    failed = any(v.status == "fail" for v in verdicts)
    return record, EXIT_CONTRADICTION if failed else EXIT_OK


def _cmd_locus(line: str, cfg: RunConfig):
    L = parse_locus_line(line)
    meta = locus_metadata(L)
    record = {
        "orders": L.m,
        "k": L.k,
        "degree": L.degree,
        "dim": meta.dim,
        "n": meta.n,
        "target_stratum": meta.target_stratum,
        "genus_y": meta.genus_y,
    }
    return record, EXIT_OK


# each subcommand: its handler, its help text, and the flags it reads; the
# parser gives it these flags alone, so any other flag is a usage error
_COMMANDS = {
    "construct": (_cmd_construct, "cover reports for cyclic data", ("--out", "--format")),
    "certify": (_cmd_certify, "three-channel degeneracy certificates",
                ("--steps", "--seeds", "--epsilon", "--orbit-cap", "--out", "--format")),
    "orbit": (_cmd_orbit, "dump the S,T orbit graph", ("--orbit-cap", "--out", "--format")),
    "ekz": (_cmd_ekz, "exact sum-rule reports", ("--orbit-cap", "--out", "--format")),
    "lyapunov": (_cmd_lyapunov, "Monte-Carlo exponent estimates",
                 ("--steps", "--seeds", "--out", "--format")),
    "bform": (_cmd_bform, "pairing matrices at the disc sample points", ("--out", "--format")),
    "bounds": (_cmd_bounds, "pole-count/degree/unbranched-pole checks", ("--out", "--format")),
    "locus": (_cmd_locus, "metadata for branched-cover loci", ("--out", "--format")),
}


def _cell(value):
    """A CSV cell: a str, number or None as itself, a Fraction as "p/q", the rest as JSON."""
    if not (value is None or isinstance(value, (str, int, float, list, tuple, dict))):
        value = json_default(value)
    return json.dumps(value, default=json_default) if isinstance(value, (list, tuple, dict)) else value


def _write_csv(records: list[dict], stream) -> None:
    if not records:
        return
    writer = csv.DictWriter(stream, fieldnames=list(dict.fromkeys(k for rec in records for k in rec)))
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _cell(v) for k, v in rec.items()})


# a record or a piece of one as JSON text, the text of json.dumps(value,
# sort_keys=True, default=json_default, check_circular=False), from one
# encoder built once
_dumps = json.JSONEncoder(sort_keys=True, default=json_default, check_circular=False).encode


def _json_lines(records: list[dict]) -> str:
    """One JSON array, record i on line i + 2.

    Each record goes through the C encoder (no ``indent``); JSON escapes a
    newline inside a string, so a record never spans two lines.  A record
    is a tree built for its line, so no value holds itself, and
    ``check_circular`` is off: it took a 300-vertex, d = 20 orbit record
    from 1.8 to 2.6 ms (Python 3.11, 2 vCPU).

    The encoder keeps one small string per token until its call returns:
    a 768-vertex orbit record of 62 KB peaked at 18 times its text, a
    156-vertex state-orbit record of 39 KB at 19 times.  So a record with
    a top-level list or tuple longer than ``_PIECE`` is written key by
    key, in sorted order, and each such sequence with one call per
    ``_PIECE`` items, whose array text goes in without its brackets: the
    bytes are those of one call on the record, whose keys are strings.
    The two records then peak at 2.2 and 2.7 times their text, the pieces
    and the joined array; at 32 items a piece, the second peaked at 4.2.
    Every other record keeps the one call, since key by key a short
    ``ekz`` record took 43 µs where the one call takes 14 µs.  All pieces
    are joined once, into the array.  A record of a few hundred KB or
    more gains less, as CPython's encoder caps its own token buffer: a
    list of 1M int pairs encodes at twice its text.
    """
    if not records:
        return "[]\n"
    parts = []
    for record in records:
        parts.append(",\n" if parts else "[\n")
        long = [k for k, v in record.items() if isinstance(v, (list, tuple)) and len(v) > _PIECE]
        if not long:
            parts.append(_dumps(record))
            continue
        sep = "{"
        for key in sorted(record):
            value = record[key]
            parts += (sep, _dumps(key), ": ")
            sep = ", "
            if key in long:
                parts.append("[")
                for i in range(0, len(value), _PIECE):
                    parts += (_dumps(value[i:i + _PIECE])[1:-1], ", ")
                parts[-1] = "]"
            else:
                parts.append(_dumps(value))
        parts.append("}")
    parts.append("\n]\n")
    return "".join(parts)


def run(config: RunConfig) -> int:
    """Process every line of the input file; return the exit status."""
    try:
        text = Path(config.input_path).read_text()
    except OSError as exc:
        print(f"cannot read {config.input_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    handler, results = _COMMANDS[config.command][0], []
    try:
        for number, line in iter_input_lines(text):
            results.append(handler(line, config))
    except ParseError as exc:
        print(f"line {number}: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OrbitCapExceeded, SizeCapExceeded) as exc:
        print(f"line {number}: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_PARSE

    records = [record for record, _ in results]
    contradiction = any(status == EXIT_CONTRADICTION for _, status in results)

    if config.format == "csv":
        buf = io.StringIO()
        _write_csv(records, buf)
        payload = buf.getvalue()
    else:
        payload = _json_lines(records)

    if config.out:
        try:
            Path(config.out).write_text(payload)
        except OSError as exc:
            print(f"cannot write {config.out}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(payload)

    return EXIT_CONTRADICTION if contradiction else EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    flags = {
        "--steps": dict(type=int, default=RunConfig.steps),
        "--seeds": dict(default=",".join(map(str, RunConfig.seeds)),
                        help="comma-separated seed list"),
        "--epsilon": dict(type=float, default=RunConfig.epsilon),
        "--orbit-cap": dict(type=int, default=RunConfig.orbit_cap),
        "--out": dict(default=RunConfig.out),
        "--format": dict(choices=("json", "csv"), default=RunConfig.format),
    }
    parser = argparse.ArgumentParser(
        prog="pillowtiled",
        description="Exact and numerical checks for pillow-tiled covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, names) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="input file, one datum per line")
        for flag in names:
            p.add_argument(flag, **flags[flag])
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    namespace, extra = parser.parse_known_args(argv)
    if extra:
        # name the flags the chosen command does take, not the command list
        subparsers[namespace.command].error(f"unrecognized arguments: {' '.join(extra)}")
    args = vars(namespace)
    args["input_path"] = args.pop("input")
    try:
        if "seeds" in args:
            args["seeds"] = tuple(int(s) for s in str(args["seeds"]).split(",") if s.strip())
        config = RunConfig(**args)
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
