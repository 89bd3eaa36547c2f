import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pillowtiled import permsurf
from pillowtiled.permutations import compose, compose_all, identity, inverse, parse_cycles
from pillowtiled.permsurf import (
    ConnectivityError,
    MonodromyError,
    Origami,
    PillowCover,
    Stratum,
    orientation_double_cover,
    origami_stratum,
    pillow_stratum,
    random_pillow_cover,
    validate_involution,
)
from tests.reference import (
    components,
    conjugated,
    double_cover_orders,
    involution_quotient_stratum,
    reconstruct_pillow_cover,
    zeros,
)


def cyclic_pillow(N, a):
    """Degree-N cover with g_i = (x -> x + a_i); needs sum(a) = 0 mod N."""
    perms = [tuple((x + ai) % N for x in range(N)) for ai in a]
    return PillowCover(N, *perms)


FIVE = cyclic_pillow(5, (1, 2, 2, 5))       # three order-3 points, five poles
TORUS_COVER = cyclic_pillow(2, (1, 1, 1, 1))  # orientable: the square torus
FOUR = cyclic_pillow(4, (1, 1, 1, 1))       # orientable, genus 3


# --- origami strata -------------------------------------------------------

def test_l_origami_stratum():
    o = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))
    s = origami_stratum(o)
    assert s.kind == "abelian"
    assert s.orders == (2,)
    assert s.genus == 2
    assert s.label() == "H(2)"


def test_square_torus_stratum():
    o = Origami(1, (0,), (0,))
    s = origami_stratum(o)
    assert s.orders == (0,)
    assert s.genus == 1


def test_origami_rejects_disconnected():
    with pytest.raises(ConnectivityError):
        Origami(2, (0, 1), (0, 1))


def test_stratum_rejects_a_disconnected_origami():
    with pytest.raises(ConnectivityError):
        origami_stratum(Origami(2, (0, 1), (0, 1), allow_disconnected=True))


# --- pillow covers --------------------------------------------------------

def test_identity_pillow_cover_is_the_pillowcase():
    p = PillowCover(1, (0,), (0,), (0,), (0,))
    s = pillow_stratum(p)
    assert s.kind == "quadratic"
    assert s.orders == (-1, -1, -1, -1)
    assert s.genus == 0
    assert s.label() == "Q(-1^4)"


def test_product_relation_enforced():
    tr = parse_cycles("(1 2)", 3)
    with pytest.raises(MonodromyError):
        PillowCover(3, tr, identity(3), identity(3), identity(3))


def test_intransitive_monodromy_rejected():
    with pytest.raises(ConnectivityError):
        PillowCover(2, *([identity(2)] * 4))


def test_degree5_family_stratum():
    s = pillow_stratum(FIVE)
    assert s.genus == 2
    assert s.orders == (3, 3, 3, -1, -1, -1, -1, -1)
    assert s.num_poles == 5
    assert zeros(s) == (3, 3, 3)


def test_orientable_control_strata():
    s2 = pillow_stratum(TORUS_COVER)
    assert (s2.genus, s2.orders) == (1, (0, 0, 0, 0))
    s4 = pillow_stratum(FOUR)
    assert (s4.genus, s4.orders) == (3, (2, 2, 2, 2))


def test_stratum_relabeling_invariance():
    rng = np.random.default_rng(11)
    from pillowtiled.permutations import random_permutation

    for _ in range(20):
        p = random_pillow_cover(5, rng)
        s = random_permutation(5, rng)
        assert pillow_stratum(conjugated(p, s)) == pillow_stratum(p)


def test_stratum_validates_order_sum():
    with pytest.raises(ValueError):
        Stratum("abelian", (1,), 1)
    with pytest.raises(ValueError):
        Stratum("quadratic", (1, 1, 1), 1)


# --- orientation double cover ---------------------------------------------

def test_double_cover_of_pillowcase_is_torus():
    p = PillowCover(1, (0,), (0,), (0,), (0,))
    o, iota = orientation_double_cover(p)
    assert o.d == 4
    assert o.is_connected()
    s = origami_stratum(o)
    assert s.genus == 1
    assert s.orders == (0, 0, 0, 0)
    assert sorted(iota) == list(range(4))


def test_double_cover_degree5():
    o, iota = orientation_double_cover(FIVE)
    assert o.d == 20
    assert o.is_connected()
    s = origami_stratum(o)
    assert s.genus == 7
    assert s.orders == (4, 4, 4, 0, 0, 0, 0, 0)
    assert s.orders == double_cover_orders(FIVE)


def test_double_cover_orientable_splits():
    o, iota = orientation_double_cover(TORUS_COVER)
    assert o.d == 8
    comps = components(o)
    assert len(comps) == 2
    # iota swaps the two components
    for comp in comps:
        assert all(iota[a] not in comp for a in comp)


# each (h, v, iota) fails one check of validate_involution alone, in its
# order there, with the reversal read as iota.h.iota = h^-1; h and v have
# order above 2, so reversing them is not commuting with them
BROKEN_INVOLUTIONS = {
    "does not square to the identity": ((1, 2, 3, 0), (1, 2, 3, 0), (1, 2, 3, 0)),
    "fixes a square": ((1, 2, 3, 0), (1, 2, 3, 0), (0, 3, 2, 1)),
    "does not reverse h": ((0, 1, 3, 5, 4, 2), (3, 2, 4, 5, 1, 0), (2, 3, 0, 1, 5, 4)),
    "does not reverse v": ((2, 0, 1, 4, 5, 3), (5, 0, 2, 1, 3, 4), (3, 4, 5, 0, 1, 2)),
    "fixes an edge midpoint": ((1, 2, 3, 0), (1, 2, 3, 0), (1, 0, 3, 2)),
}


@pytest.mark.parametrize("message", list(BROKEN_INVOLUTIONS))
def test_each_broken_involution_raises_its_message(message):
    h, v, iota = BROKEN_INVOLUTIONS[message]
    d = len(h)
    held = [
        compose(iota, iota) == identity(d),
        all(iota[i] != i for i in range(d)),
        compose_all(iota, h, iota) == inverse(h),
        compose_all(iota, v, iota) == inverse(v),
        all(compose(h, iota)[i] != i and compose(v, iota)[i] != i for i in range(d)),
    ]
    assert [not ok for ok in held] == [m == message for m in BROKEN_INVOLUTIONS]
    assert compose(h, h) != identity(d) and compose(v, v) != identity(d)
    with pytest.raises(ValueError, match=f"^involution {message}$"):
        validate_involution(Origami(d, h, v), iota)
    # the same message with asserts stripped
    code = (
        "import sys\n"
        "from pillowtiled.permsurf import Origami, validate_involution\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        f"h, v, iota = {(h, v, iota)!r}\n"
        "try:\n"
        "    validate_involution(Origami(len(h), h, v), iota)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(permsurf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (7, f"involution {message}\n"), proc.stderr


def test_double_cover_orders_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = random_pillow_cover(int(rng.integers(1, 7)), rng)
        o, iota = orientation_double_cover(p)
        if o.is_connected():
            assert origami_stratum(o).orders == double_cover_orders(p)


def test_quotient_stratum_round_trip():
    rng = np.random.default_rng(17)
    cases = [FIVE, TORUS_COVER, FOUR, cyclic_pillow(3, (1, 1, 1, 3))]
    cases += [random_pillow_cover(int(rng.integers(1, 8)), rng) for _ in range(30)]
    for p in cases:
        o, iota = orientation_double_cover(p)
        assert involution_quotient_stratum(o, iota) == pillow_stratum(p)


def test_reconstruction_round_trip():
    rng = np.random.default_rng(23)
    cases = [FIVE, TORUS_COVER, FOUR]
    cases += [random_pillow_cover(int(rng.integers(1, 8)), rng) for _ in range(30)]
    for p in cases:
        o, iota = orientation_double_cover(p)
        q = reconstruct_pillow_cover(o, iota)
        assert q == p


def test_components_of_connected_cover():
    o, _ = orientation_double_cover(FIVE)
    assert components(o) == [list(range(20))]


def test_str_round_trip_via_parser():
    text = str(FIVE)
    parts = [s.strip() for s in text.split(";")]
    assert parts[0] == "5"
    perms = [parse_cycles(t, 5) for t in parts[1:]]
    assert PillowCover(5, *perms) == FIVE
