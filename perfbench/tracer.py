"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each traced public function is replaced, for the length of a ``with
Tracer()`` block, by a wrapper in every pillowtiled module that holds it
(``cocycle.homology_basis`` as well as ``homology.homology_basis``), and
methods on their class.  A span's self time is its duration minus the
time of the traced spans it encloses; busy time counts the outermost
call of a function only.  Exceptions other than the benchmark's budget
alarm count as errors.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import pillowtiled.cli  # noqa: F401  (loads every module; the package alone skips cli)
from pillowtiled import lyapunov

# module, attribute path, as named in the metrics
FUNCTIONS = (
    ("lattice", "matmul"),
    ("lattice", "smith_normal_form"),
    ("homology", "homology_basis"),
    ("homology", "involution_splitting"),
    ("cocycle", "StateCache.state"),
    ("cocycle", "StateCache.transition"),
    ("cocycle", "StateCache.canonical_key"),
    ("lyapunov", "run_monte_carlo"),
    ("lyapunov", "certify_degenerate"),
    ("orbit", "enumerate_state_orbit"),
    ("orbit", "enumerate_orbit"),
    ("orbit", "canonical_perms"),
    ("cylinders", "ekz_for_cover"),
    ("coverings", "cover_report"),
    ("coverings", "is_determinant_locus"),
    ("permsurf", "orientation_double_cover"),
    ("bform", "holomorphic_basis"),
    ("bform", "pairing_matrices"),
    ("cli", "run"),
)
QR = "lyapunov.qr"  # numpy.linalg.qr as called from lyapunov: the QR flushes
STATS = ("calls", "busy_s", "self_s", "errors")

DERIVED = (
    ("lattice.max_bits", "bits"),
    ("homology.s_per_state", "s"),
    ("cocycle.StateCache.state.builds", "count"),
    ("cocycle.StateCache.transition.builds", "count"),
    ("cocycle.transition.hit_ratio", "ratio"),
    ("lyapunov.digits", "count"),
    ("lyapunov.s_per_digit", "s"),
    ("orbit.vertices", "count"),
    ("orbit.s_per_vertex", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in [f"{m}.{f}" for m, f in FUNCTIONS] + [QR]:
        for stat in STATS:
            units[f"{name}.{stat}"] = "s" if stat.endswith("_s") else "count"
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    return units


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


class _Namespace:
    """Stand-in for a module with some attributes overridden."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self, budget_exception: type[BaseException]):
        self._budget_exception = budget_exception
        self.stats = defaultdict(lambda: {s: 0 for s in STATS})
        self.counters = defaultdict(int)
        self._stack: list[list[float]] = []   # [enclosed time] per open span
        self._depth = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _wrap(self, name: str, fn, before=None, after=None):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        budget_exception = self._budget_exception

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_exception:
                raise
            except Exception:
                stats["errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if depth[name] == 0:
                    stats["busy_s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def reset_stack(self) -> None:
        """Drop spans left open by an op that the budget alarm cut short."""
        self._stack.clear()
        self._depth.clear()

    # -- hooks for the derived counters

    def _bits(self, args, result):
        mats = result[:5] if isinstance(result, tuple) else (result,)
        self.counters["max_bits"] = max(self.counters["max_bits"], _max_bits(mats))

    def _state_build(self, args):
        cache, key = args[0], args[1]
        if key not in cache.states:
            self.counters["state_builds"] += 1

    def _transition_build(self, args):
        cache, key, gen = args[0], args[1], args[2]
        if (key, gen) not in cache.transitions:
            self.counters["transition_builds"] += 1

    def _digits(self, args, result):
        self.counters["digits"] += result.steps

    def _vertices(self, args, result):
        self.counters["vertices"] += result.size

    # -- patching

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        hooks = {
            "lattice.matmul": (None, self._bits),
            "lattice.smith_normal_form": (None, self._bits),
            "cocycle.StateCache.state": (self._state_build, None),
            "cocycle.StateCache.transition": (self._transition_build, None),
            "lyapunov.run_monte_carlo": (None, self._digits),
            "orbit.enumerate_state_orbit": (None, self._vertices),
            "orbit.enumerate_orbit": (None, self._vertices),
        }
        modules = [m for n, m in sys.modules.items() if n.startswith("pillowtiled.")]
        for mod_name, path in FUNCTIONS:
            name = f"{mod_name}.{path}"
            module = sys.modules[f"pillowtiled.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name, getattr(cls, meth), *hooks.get(name, (None, None))))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        linalg = _Namespace(np.linalg, qr=self._wrap(QR, np.linalg.qr))
        self._replace(lyapunov, "np", _Namespace(np, linalg=linalg))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # -- results

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in [f"{m}.{f}" for m, f in FUNCTIONS] + [QR]:
            for stat in STATS:
                out[f"{name}.{stat}"] = self.stats[name][stat]
        c = self.counters

        def busy(name: str) -> float:
            return self.stats[name]["busy_s"]

        calls = self.stats["cocycle.StateCache.transition"]["calls"]
        out.update({
            "lattice.max_bits": c["max_bits"],
            "homology.s_per_state": _ratio(
                busy("homology.homology_basis") + busy("homology.involution_splitting"),
                c["state_builds"]),
            "cocycle.StateCache.state.builds": c["state_builds"],
            "cocycle.StateCache.transition.builds": c["transition_builds"],
            "cocycle.transition.hit_ratio": _ratio(calls - c["transition_builds"], calls),
            "lyapunov.digits": c["digits"],
            "lyapunov.s_per_digit": _ratio(busy("lyapunov.run_monte_carlo"), c["digits"]),
            "orbit.vertices": c["vertices"],
            "orbit.s_per_vertex": _ratio(
                busy("orbit.enumerate_state_orbit") + busy("orbit.enumerate_orbit"),
                c["vertices"]),
        })
        return out
