"""Permutations on {0, ..., n-1} stored as tuples.

A permutation p is the tuple (p(0), ..., p(n-1)).  Composition follows the
usual function convention: compose(p, q) sends i to p[q[i]], i.e. q acts
first.  User-facing text (cycle strings, CLI files) is 1-indexed; everything
internal is 0-indexed.
"""

from __future__ import annotations

import re

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (compose(p, q))(i) = p(q(i))."""
    return tuple([p[x] for x in q])


def compose_all(*perms: Perm) -> Perm:
    """compose(a, b, c) = a after b after c."""
    if not perms:
        raise ValueError("need at least one permutation")
    out = perms[-1]
    for p in reversed(perms[:-1]):
        out = compose(p, out)
    return out


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def is_permutation(p: tuple) -> bool:
    return sorted(p) == list(range(len(p)))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle starting at its
    smallest element, cycles ordered by smallest element."""
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def is_transitive(perms: list[Perm], n: int) -> bool:
    """Does the group generated by perms act transitively on {0..n-1}?"""
    if n == 0:
        return True
    seen = {0}
    frontier = [0]
    gens = list(perms) + [inverse(p) for p in perms]
    while frontier:
        i = frontier.pop()
        for g in gens:
            j = g[i]
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Perm:
    """Parse a 1-indexed cycle string like "(1 2 3)(4 5)" or "(1,2,3)".

    Entries not mentioned are fixed.  "()" or "id" is the identity.
    """
    text = text.strip()
    if text in ("", "()", "id"):
        return identity(n)
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", text):
        raise ValueError(f"malformed cycle string: {text!r}")
    out = list(range(n))
    touched = set()
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue
        entries = [int(s) - 1 for s in body]
        for e in entries:
            if not 0 <= e < n:
                raise ValueError(f"cycle entry {e + 1} out of range 1..{n}")
            if e in touched:
                raise ValueError(f"entry {e + 1} repeated in {text!r}")
            touched.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            out[a] = b
    return tuple(out)


def format_cycles(p: Perm) -> str:
    """1-indexed cycle string, fixed points dropped."""
    parts = ["(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def random_permutation(n: int, rng) -> Perm:
    return tuple(int(i) for i in rng.permutation(n))
