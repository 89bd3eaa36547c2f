"""Text-file parsing, and the JSON hook that encodes report objects.

Line formats:
  pillow cover   ``d; g0; g1; g2; g3``      permutations in cycle notation
  origami        ``d; h; v``
  cyclic datum   ``N a1 a2 a3 a4``
  locus          ``m1 ... mr; k; d; h0; h1; hinf``   (the order list may be empty)

Blank lines and ``#`` comments are skipped.  ``json_default`` lets
``json.dumps`` encode report objects as they are built: Fractions as
``"p/q"`` strings, complex numbers as ``[re, im]`` pairs.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .coverings import CyclicCoverSpec, LocusSpec
from .permsurf import Origami, PillowCover, Stratum
from .permutations import parse_cycles

__all__ = [
    "ParseError",
    "parse_pillow_line",
    "parse_origami_line",
    "parse_cyclic_line",
    "parse_locus_line",
    "parse_surface_line",
    "iter_input_lines",
    "json_default",
]


class ParseError(ValueError):
    pass


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {text!r}") from exc


def _degree(text: str) -> int:
    try:
        d = int(text.strip())
    except ValueError as exc:
        raise ParseError(f"bad degree field {text!r}") from exc
    if d <= 0:
        raise ParseError(f"degree must be positive, got {d}")
    return d


def _perm(text: str, d: int):
    try:
        return parse_cycles(text, d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_pillow_line(line: str) -> PillowCover:
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 5:
        raise ParseError(f"pillow line needs 5 fields, got {len(parts)}: {line!r}")
    d = _degree(parts[0])
    try:
        return PillowCover(d, *(_perm(p, d) for p in parts[1:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_origami_line(line: str) -> Origami:
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 3:
        raise ParseError(f"origami line needs 3 fields, got {len(parts)}: {line!r}")
    d = _degree(parts[0])
    try:
        return Origami(d, _perm(parts[1], d), _perm(parts[2], d))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_cyclic_line(line: str) -> CyclicCoverSpec:
    nums = _ints(line)
    if len(nums) != 5:
        raise ParseError(f"cyclic datum needs 5 integers, got {len(nums)}: {line!r}")
    try:
        return CyclicCoverSpec(nums[0], tuple(nums[1:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_locus_line(line: str) -> LocusSpec:
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 6:
        raise ParseError(f"locus line needs 6 fields, got {len(parts)}: {line!r}")
    m = tuple(_ints(parts[0]))
    try:
        k = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad k field {parts[1]!r}") from exc
    d = _degree(parts[2])
    try:
        return LocusSpec(m, k, tuple(_perm(p, d) for p in parts[3:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_surface_line(line: str):
    """Cyclic datum or explicit pillow cover, selected by the separator."""
    if ";" in line:
        return parse_pillow_line(line)
    return parse_cyclic_line(line)


def iter_input_lines(text: str):
    """(line number, stripped content) for payload lines of an input file."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


def json_default(obj):
    """The ``default`` hook of ``json.dumps``, called on each object json
    cannot encode, which encodes what it returns: a Fraction as ``"p/q"``, a
    complex (numpy's complex128 too) as ``[re, im]``, a Stratum as its kind,
    orders, genus and label, any other dataclass as its fields."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Stratum):
        return {"kind": obj.kind, "orders": obj.orders, "genus": obj.genus, "label": obj.label()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
