"""The one byte budget of the process-wide caches (``pillowtiled.store``).

The orbit memo, the sum-rule memo and the walkers' state cache keep their
units in one least-recently-used store.  These tests check that it never
holds more than its budget, that it refuses a unit heavier than the
budget, and that each cache weighs its units within 2x of what
tracemalloc counts for them.  That output does not depend on the budget
is checked with the other output guards, in
``tests/test_lyapunov.py::test_output_does_not_depend_on_the_budget``.
"""

import gc
import tracemalloc

import pytest

from pillowtiled import cli, cocycle, cylinders, lattice, orbit, store
from pillowtiled.cocycle import StateCache
from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow
from pillowtiled.permsurf import orientation_double_cover


def _kind(key) -> str:
    """Which cache keeps a unit under ``key``, by the key's shape."""
    if isinstance(key, bytes):
        return "orbit"
    if isinstance(key[0], int):
        return "report"
    if key[0] == "cycle":
        return "cycle"
    return "move" if len(key) == 2 else "state"


def kept(kind):
    """What the store holds of one kind, the least recently used first:
    each orbit's (packed vertices, edge targets), or the key of each
    report, state, move or cycle."""
    return [unit.value if kind == "orbit" else unit.keys[0]
            for unit in store._units if _kind(unit.keys[0]) == kind]


def forget(key):
    """Drop the unit kept under ``key``."""
    store._forget(store.index[key])


def weight(key):
    """The bytes the unit under ``key`` weighs in the store."""
    return store.index[key].nbytes


MIXED_BATCH = {
    "ekz": ["5 1 2 2 5", "6 1 1 5 5", "8 1 3 5 7", "5 2 4 4 5", "12 1 5 7 11"],
    "orbit": ["4; (); (1 4 2); (1 4 3 2); (1 4 2 3)", "3; (1 2 3); (1 2)"],
    "certify": ["5 1 2 2 5", "6 1 1 5 5", "5 2 4 4 5"],
    "lyapunov": ["6 1 1 5 5", "5 1 2 2 5"],
}


def test_the_store_never_holds_more_than_its_budget(tmp_path, monkeypatch):
    budget = 200_000  # about half of what one of the Monte-Carlo lines keeps
    monkeypatch.setattr(store, "BUDGET", budget)
    real, held = store.keep, []

    def spy(keys, value, nbytes):
        real(keys, value, nbytes)
        held.append(store.nbytes)

    monkeypatch.setattr(store, "keep", spy)
    dropped = store.dropped
    for command, lines in MIXED_BATCH.items():
        src = tmp_path / f"{command}.txt"
        src.write_text("\n".join(lines) + "\n")
        config = cli.RunConfig(command, str(src), steps=200, seeds=(1, 2, 3),
                               out=str(tmp_path / f"{command}.json"))
        assert cli.run(config) == 0
    assert len(held) > 100 and max(held) <= budget, max(held)
    assert store.dropped > dropped  # the batch did outgrow the budget
    # every key names a kept unit, and the total is the units' own weights
    assert all(store.index[key] is unit for unit in store._units for key in unit.keys)
    assert len(store.index) == sum(len(unit.keys) for unit in store._units)
    assert store.nbytes == sum(unit.nbytes for unit in store._units)


def bookkeeping(n):
    """What the store adds to the weight of a unit kept under ``n`` keys,
    read off a unit of no weight kept under fresh keys and dropped again."""
    keys = tuple(("bookkeeping", i) for i in range(n))
    store.keep(keys, None, 0)
    cost = weight(keys[0])
    forget(keys[0])
    return cost


def own_weight(key):
    """The bytes the unit under ``key`` weighs, less the store's bookkeeping."""
    return weight(key) - bookkeeping(len(store.index[key].keys))


def test_a_unit_heavier_than_the_budget_is_not_kept(monkeypatch):
    # each unit weighs what it is given and its bookkeeping; the weights
    # given here leave the bookkeeping out, so the units weigh the totals
    cost = {n: bookkeeping(n) for n in (1, 2)}

    def keep(keys, value, total):
        store.keep(keys, value, total - cost[len(keys)])

    monkeypatch.setattr(store, "BUDGET", 1000)
    keep(("a",), 1, 600)
    keep(("b", "c"), 2, 400)
    before, dropped = list(store._units), store.dropped
    keep(("d",), 3, 1001)
    assert list(store._units) == before and "d" not in store.index
    assert store.dropped == dropped + 1
    # re-weighing a kept unit past the budget lets it go, and it alone
    keep(("b", "c"), 2, 1001)
    assert [unit.value for unit in store._units] == [1]
    assert not {"b", "c"} & set(store.index) and store.nbytes == 600
    # a keep within the budget drops the least recently used first
    keep(("e",), 4, 300)
    assert store.get("a") == 1
    keep(("f",), 5, 300)
    assert [unit.value for unit in store._units] == [1, 5] and store.nbytes == 900


def test_a_unit_weighs_its_bookkeeping():
    # a unit, its OrderedDict node and one index entry per key: a fixed cost
    # that grows with the keys; the probe leaves nothing behind
    one, three = bookkeeping(1), bookkeeping(3)
    assert 0 < one < three
    assert store.nbytes == 0 and not store.index


def _traced(build):
    """Bytes still allocated after ``build()``, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# a degree-12 cover, and a degree-5 one whose 3-vertex orbit is small
# enough that the store's own bookkeeping is most of its unit
KINDS = ["orbit", "report", "state", "move", "cycle"]
WEIGHED = [pytest.param(kind, CyclicCoverSpec(12, (1, 5, 7, 11)), id=kind) for kind in KINDS]
WEIGHED += [pytest.param(kind, CyclicCoverSpec(5, (1, 2, 2, 5)), id=f"{kind}-5-1-2-2-5")
            for kind in KINDS]


@pytest.mark.parametrize("kind, spec", WEIGHED)
def test_each_weight_is_within_twice_what_tracemalloc_counts(kind, spec):
    cache = StateCache()
    o, iota = orientation_double_cover(cyclic_to_pillow(spec))
    key = cache.canonical_key(o, iota)
    if kind == "orbit":
        traced = _traced(lambda: orbit.enumerate_state_orbit(o, iota))
        weighed = store.nbytes
    elif kind == "report":
        cylinders.ekz_for_spec(spec)
        store.clear()
        orbit.enumerate_state_orbit(o, iota)  # warm: the report alone is new
        before = store.nbytes
        traced = _traced(lambda: cylinders.ekz_for_spec(spec))
        weighed = store.nbytes - before
    elif kind == "state":
        traced = _traced(lambda: cache.state(key))
        weighed = weight(key)
    elif kind == "move":
        cache.transition(key, "T")
        forget((key, "T"))  # its two states stay
        traced = _traced(lambda: cache.transition(key, "T"))
        weighed = weight((key, "T"))
    else:
        cyc = cache.cycle(key, "T")
        n = len(cyc.states)
        forget(("cycle", key, "T"))  # its states and moves stay

        def build():
            cyc = cache.cycle(key, "T")
            for with_minus in (False, True):
                for a in range(1, 8 * n):
                    cyc.digit(a, with_minus)

        traced = _traced(build)
        weighed = weight(("cycle", key, "T"))
    assert traced / 2 <= weighed <= 2 * traced, (traced, weighed)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 7), (94, 94)])
def test_a_packed_matrix_weighs_within_twice_what_tracemalloc_counts(m, n):
    # a cycle keeps its exact products as packed arrays in a list; on a
    # 1x1 one the fixed overhead is nearly all of it, on a 94x94 one the
    # entries (the N = 48 line's diag(H1+, H1-) is 94 wide)
    rows = [[(7 * i + 3 * j) % 11 - 5 for j in range(n)] for i in range(m)]
    kept = []
    traced = _traced(lambda: kept.extend(lattice.pack(rows) for _ in range(100))) / 100
    weighed = cocycle._weight(kept[0])
    assert weighed == 8 * m * n + cocycle._ARRAY
    assert traced / 2 <= weighed <= 2 * traced, (traced, weighed)
