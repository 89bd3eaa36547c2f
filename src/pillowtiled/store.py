"""One byte budget for the process-wide caches.

The orbit memo (:mod:`.orbit`), the sum-rule memo (:mod:`.cylinders`) and
the walkers' state cache (:mod:`.cocycle`) keep what they build here, as
units: a value under one or more keys, weighing the bytes its module
gives it plus the store's own bookkeeping, within 2x of what tracemalloc
counts (``tests/test_store.py``).  A matrix kept as Python ints weighs 16
bytes an entry, and an array its own bytes, with a fixed overhead on top
for a generator cycle's packed exact products (``cocycle._weight``).
The bookkeeping, a ``_Unit``, its ``OrderedDict`` node and an ``index``
entry per key, is a fixed cost that tracemalloc puts at about 120 bytes
a unit and 60 a key, dict growth amortized, on 10^3 to 10^5 units.
No two caches' keys have one shape: packed vertices (bytes), corner classes
(N, a), and states (h, v, iota), moves (state, gen) and cycles ("cycle",
state, gen).  ``index`` maps each key to its unit.

All units together weigh at most ``BUDGET`` bytes.  Keeping a unit makes
it the most recently used, then drops the least recently used until the
total is within the budget, so the bound holds after every keep, during
a walk too; a unit heavier than the budget is not kept, and keeping a
kept value again re-weighs it.  A lookup makes its unit the most
recently used.  A value is a function of its key alone, so a dropped one
is built again, equal: the budget changes time, never output.
``dropped`` counts the units let go, dropped or too heavy, so that a
holder of references into the store can let go of them too.
"""

from __future__ import annotations

from collections import OrderedDict

# bytes that the orbit memo, the sum-rule memo and the state cache keep together
BUDGET = 1 << 26


class _Unit:
    __slots__ = ("value", "nbytes", "keys")

    def __init__(self, value, nbytes: int, keys: tuple):
        self.value, self.nbytes, self.keys = value, nbytes, keys


index: dict = {}  # key -> its unit
_units: OrderedDict[_Unit, None] = OrderedDict()  # the least recently used first
nbytes = 0  # the weight of every kept unit
dropped = 0  # units let go: dropped by a keep or clear(), or too heavy to keep


def get(key):
    """The value kept under ``key``, now the most recently used, or None."""
    unit = index.get(key)
    if unit is None:
        return None
    _units.move_to_end(unit)
    return unit.value


def _forget(unit: _Unit) -> None:
    global nbytes
    # keys first: a unit whose keys went can still be found and dropped
    for key in unit.keys:
        index.pop(key, None)
    del _units[unit]
    nbytes -= unit.nbytes


def keep(keys: tuple, value, weight: int) -> None:
    """Keep ``value`` under ``keys`` as the most recently used unit,
    weighing ``weight`` bytes and its bookkeeping, then drop the least
    recently used units until the store is within ``BUDGET``.  ``keys[0]``
    names the unit: a value kept under it already is re-weighed."""
    global nbytes, dropped
    weight += 120 + 60 * len(keys)  # bookkeeping, as the module docstring measures it
    old = index.get(keys[0])
    if old is not None:
        _forget(old)
    if weight > BUDGET:
        dropped += 1
        return
    unit = _Unit(value, weight, keys)
    # the unit before its keys: an interrupted keep leaves no key on a
    # unit that cannot be dropped
    _units[unit] = None
    nbytes += weight
    for key in keys:
        index[key] = unit
    while nbytes > BUDGET:
        _forget(next(iter(_units)))
        dropped += 1


def clear() -> None:
    """Drop every unit: the caches of all three modules start cold."""
    global nbytes, dropped
    dropped += len(_units)
    index.clear()
    _units.clear()
    nbytes = 0
