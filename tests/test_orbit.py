"""Orbit enumeration, canonical forms, and involution transport."""

import itertools

import numpy as np
import pytest

from pillowtiled.orbit import (
    OrbitCapExceeded,
    _bfs_labels,
    _relabel,
    apply_generator,
    apply_state_generator,
    canonical_form,
    canonical_labelling,
    canonical_perms,
    canonical_state,
    enumerate_orbit,
    enumerate_state_orbit,
)
from pillowtiled.permsurf import (
    Origami,
    involution_quotient_stratum,
    orientation_double_cover,
    origami_stratum,
    pillow_stratum,
    random_origami,
    reconstruct_pillow_cover,
)
from pillowtiled.permutations import (
    all_permutations,
    compose,
    conjugate,
    identity,
    inverse,
    is_transitive,
    order,
    parse_cycles,
    power,
)
from tests.test_permsurf import FIVE, TORUS_COVER, cyclic_pillow

L3 = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))


def test_torus_is_fixed():
    o = Origami(1, (0,), (0,))
    assert apply_generator(o, "T") == o
    assert enumerate_orbit(o).size == 1


def test_generators_preserve_stratum():
    rng = np.random.default_rng(41)
    for _ in range(100):
        o = random_origami(int(rng.integers(2, 9)), rng)
        s = origami_stratum(o)
        for gen in ("S", "T", "Tinv", "L"):
            assert origami_stratum(apply_generator(o, gen)) == s


def test_s_squared_is_a_relabeling_on_double_covers():
    """S^2 is the half turn; on a double cover the deck involution itself is
    the relabeling that undoes it.  (On bare origamis S^2 genuinely changes
    the surface: (h^-1, v^-1) need not be conjugate to (h, v).)"""
    rng = np.random.default_rng(43)
    from pillowtiled.permsurf import random_pillow_cover

    for _ in range(15):
        p = random_pillow_cover(int(rng.integers(1, 7)), rng)
        o, iota = orientation_double_cover(p)
        state = apply_state_generator(*apply_state_generator(o, iota, "S"), "S")
        assert state[0].h == conjugate(o.h, iota)
        assert state[0].v == conjugate(o.v, iota)
        assert canonical_state(*state) == canonical_state(o, iota)


def test_s_fourth_power_restores_exactly():
    rng = np.random.default_rng(44)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 8)), rng)
        o4 = o
        for _ in range(4):
            o4 = apply_generator(o4, "S")
        assert o4 == o


def test_t_and_tinv_cancel():
    rng = np.random.default_rng(45)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 8)), rng)
        assert apply_generator(apply_generator(o, "T"), "Tinv") == o
        # right-action identity: applying S then L equals T^-1 then S
        assert apply_generator(apply_generator(o, "S"), "L") == \
            apply_generator(apply_generator(o, "Tinv"), "S")


def test_t_power_of_cylinder_widths_fixes():
    rng = np.random.default_rng(46)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 9)), rng)
        w = order(o.h)  # lcm of horizontal cylinder widths
        img = o
        for _ in range(w):
            img = apply_generator(img, "T")
        assert canonical_form(img) == canonical_form(o)


def test_canonical_form_idempotent_and_invariant():
    rng = np.random.default_rng(47)
    from pillowtiled.permutations import random_permutation

    for _ in range(30):
        o = random_origami(int(rng.integers(2, 8)), rng)
        c = canonical_form(o)
        assert canonical_form(c) == c
        s = random_permutation(o.d, rng)
        relabeled = Origami(o.d, conjugate(o.h, s), conjugate(o.v, s))
        assert canonical_form(relabeled) == c


def test_canonical_labelling_relabels_to_the_canonical_perms():
    rng = np.random.default_rng(53)
    cases = [(o.h, o.v) for o in (random_origami(int(rng.integers(2, 8)), rng) for _ in range(20))]
    o, iota = orientation_double_cover(FIVE)
    cases.append((o.h, o.v, iota))
    for perms in cases:
        d = len(perms[0])
        best, label = canonical_labelling(perms, d)
        assert best == canonical_perms(perms, d)
        assert _relabel(perms, label) == best


@pytest.mark.parametrize(
    "perms, ties",
    [(((1, 0), (0, 1)), (0, 1)),
     (((1, 0, 2, 3), (2, 3, 1, 0)), (2, 3))],
    ids=["two-square-cylinder", "four-squares"],
)
def test_canonical_labelling_keeps_the_first_minimal_start(perms, ties):
    # an automorphism gives several starts the same least perms with
    # different labels, hence different relabeling chain maps; the first
    # such start must win (in the second case it is not the least label)
    d = len(perms[0])
    labels = [_bfs_labels(perms, d, s) for s in ties]
    assert len({_relabel(perms, lab) for lab in labels}) == 1
    assert labels[0] != labels[1]
    assert canonical_labelling(perms, d) == (_relabel(perms, labels[0]), labels[0])


def test_orbit_seed_independent():
    g = enumerate_orbit(L3)
    for o2 in g.origamis()[: min(4, g.size)]:
        assert enumerate_orbit(o2).vertices == g.vertices


def brute_force_orbit_size_d3(seed: Origami) -> int:
    """Reachability closure over raw (h,v) pairs, no canonical forms.

    Moves: S, T, and simultaneous conjugation by any of the 6 relabelings.
    Counts conjugacy classes of pairs in the closure.
    """
    perms3 = list(all_permutations(3))
    seen = {(seed.h, seed.v)}
    stack = [(seed.h, seed.v)]
    while stack:
        h, v = stack.pop()
        nbrs = [(h, compose(v, inverse(h))), (v, inverse(h))]
        nbrs += [(conjugate(h, s), conjugate(v, s)) for s in perms3]
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    classes = set()
    for h, v in seen:
        cls = min((conjugate(h, s), conjugate(v, s)) for s in perms3)
        classes.add(cls)
    return len(classes)


def test_l_origami_orbit_matches_brute_force():
    g = enumerate_orbit(L3)
    assert g.size == brute_force_orbit_size_d3(L3)
    # and the orbit covers every 3-square surface reachable in its stratum
    for o in g.origamis():
        assert origami_stratum(o) == origami_stratum(L3)


def test_orbit_cap():
    with pytest.raises(OrbitCapExceeded):
        enumerate_orbit(L3, cap=1)


def test_orbit_graph_is_closed():
    g = enumerate_orbit(L3)
    idx = {w: i for i, w in enumerate(g.vertices)}
    for i, w in enumerate(g.vertices):
        o = Origami(g.d, w[0], w[1])
        for gen in ("S", "T"):
            img = canonical_form(apply_generator(o, gen))
            assert (i, gen, idx[(img.h, img.v)]) in set(g.edges)


def test_state_transport_preserves_quotient():
    for p in [FIVE, TORUS_COVER, cyclic_pillow(3, (1, 1, 1, 3))]:
        o, iota = orientation_double_cover(p)
        base = pillow_stratum(p)
        state = (o, iota)
        rng = np.random.default_rng(3)
        for gen in rng.choice(["S", "T", "Tinv", "L"], size=40):
            state = apply_state_generator(state[0], state[1], str(gen))
            assert involution_quotient_stratum(*state) == base
        # the transported state still reconstructs to a cover of the pillow
        q = reconstruct_pillow_cover(*state)
        assert pillow_stratum(q) == base


def test_state_orbit_members_are_valid_double_covers():
    p = cyclic_pillow(3, (1, 1, 1, 3))
    o, iota = orientation_double_cover(p)
    g = enumerate_state_orbit(o, iota)
    base = pillow_stratum(p)
    for w in g.vertices:
        surf = Origami(g.d, w[0], w[1], allow_disconnected=True)
        assert involution_quotient_stratum(surf, w[2]) == base


def test_state_orbit_seed_independent():
    p = cyclic_pillow(3, (1, 1, 1, 3))
    o, iota = orientation_double_cover(p)
    g = enumerate_state_orbit(o, iota)
    w = g.vertices[g.size // 2]
    surf = Origami(g.d, w[0], w[1], allow_disconnected=True)
    assert enumerate_state_orbit(surf, w[2]).vertices == g.vertices


def test_canonical_state_handles_disconnected():
    o, iota = orientation_double_cover(TORUS_COVER)
    c, i2 = canonical_state(o, iota)
    assert sorted(i2) == list(range(o.d))
    c2, i3 = canonical_state(c, i2)
    assert (c2, i3) == (c, i2)


def test_to_text_stable():
    g = enumerate_orbit(L3)
    assert g.to_text() == enumerate_orbit(L3).to_text()
    assert g.to_text().startswith("d 3\nsize ")
