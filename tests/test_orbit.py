"""Orbit enumeration, canonical forms, and involution transport."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from pillowtiled import cli, orbit, permsurf
from pillowtiled.cli import RunConfig
from pillowtiled.cocycle import chain_map
from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow, iter_specs
from pillowtiled.orbit import (
    OrbitCapExceeded,
    canonical_labelling,
    canonical_perms,
    enumerate_orbit,
    enumerate_state_orbit,
)
from pillowtiled.permsurf import (
    Origami,
    orientation_double_cover,
    origami_stratum,
    pillow_stratum,
    random_origami,
    random_pillow_cover,
    validate_involution,
)
from pillowtiled.permutations import (
    compose,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    parse_cycles,
    random_permutation,
)
from tests.reference import (
    apply_generator,
    apply_state_generator,
    conjugate,
    involution_quotient_stratum,
    order,
    origamis,
    power,
    reconstruct_pillow_cover,
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
        for gen in ("S", "T", "L"):
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
        assert canonical_perms((state[0].h, state[0].v, state[1]), o.d) == \
            canonical_perms((o.h, o.v, iota), o.d)


def test_s_fourth_power_restores_exactly():
    rng = np.random.default_rng(44)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 8)), rng)
        o4 = o
        for _ in range(4):
            o4 = apply_generator(o4, "S")
        assert o4 == o


def test_t_then_s_then_l_is_s():
    # right-action identity: applying S then L equals T^-1 then S
    rng = np.random.default_rng(45)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 8)), rng)
        tsl = apply_generator(apply_generator(apply_generator(o, "T"), "S"), "L")
        assert tsl == apply_generator(o, "S")


@pytest.mark.parametrize("gen", ["Tinv", "X"])
def test_moves_accept_exactly_t_s_and_l(gen):
    # every generator table holds the same three moves
    o, iota = orientation_double_cover(FIVE)
    for move in (lambda: orbit._move(o.h, o.v, gen),
                 lambda: orbit._transport(o.h, o.v, iota, gen),
                 lambda: chain_map(o, gen)):
        with pytest.raises(ValueError, match="unknown generator"):
            move()
    for g in ("T", "S", "L"):
        orbit._move(o.h, o.v, g)
        orbit._transport(o.h, o.v, iota, g)
        chain_map(o, g)


def test_t_power_of_cylinder_widths_fixes():
    rng = np.random.default_rng(46)
    for _ in range(20):
        o = random_origami(int(rng.integers(2, 9)), rng)
        w = order(o.h)  # lcm of horizontal cylinder widths
        img = o
        for _ in range(w):
            img = apply_generator(img, "T")
        assert canonical_perms((img.h, img.v), o.d) == canonical_perms((o.h, o.v), o.d)


def test_canonical_form_idempotent_and_invariant():
    rng = np.random.default_rng(47)
    from pillowtiled.permutations import random_permutation

    for _ in range(30):
        o = random_origami(int(rng.integers(2, 8)), rng)
        c = canonical_perms((o.h, o.v), o.d)
        assert canonical_perms(c, o.d) == c
        s = random_permutation(o.d, rng)
        relabeled = Origami(o.d, conjugate(o.h, s), conjugate(o.v, s))
        assert canonical_perms((relabeled.h, relabeled.v), o.d) == c


# ------------------------------------------------- canonical labelling oracle
# The brute-force labelling: a full BFS and a full relabel from every start
# square, then the least relabeled perms, the first such start winning.


def _bfs_labels(perms, d, start):
    steps = [q for p in perms for q in (p, inverse(p))]
    label = [-1] * d
    label[start] = 0
    queue = [start]
    for x in queue:
        for p in steps:
            if label[p[x]] < 0:
                label[p[x]] = len(queue)
                queue.append(p[x])
    if len(queue) != d:
        raise ValueError("BFS did not reach every square; data is disconnected")
    return label


def _relabel(perms, label):
    out = []
    for p in perms:
        q = [0] * len(label)
        for x, y in enumerate(p):
            q[label[x]] = label[y]
        out.append(tuple(q))
    return tuple(out)


def reference_labelling(perms, d):
    labels = (_bfs_labels(perms, d, start) for start in range(d))
    return min(((_relabel(perms, label), label) for label in labels), key=itemgetter(0))


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
        assert (best, label) == reference_labelling(perms, d)


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
    assert reference_labelling(perms, d) == (_relabel(perms, labels[0]), labels[0])
    assert canonical_labelling(perms, d) == (_relabel(perms, labels[0]), labels[0])


def _random_transitive(rng, k):
    while True:
        d = int(rng.integers(1, 17))
        perms = tuple(random_permutation(d, rng) for _ in range(k))
        if is_transitive(list(perms), d):
            return perms


def _regular_representation(gens):
    """Right multiplications by gens on the group they generate.

    Left multiplications commute with them, so every start square ties.
    """
    n = len(gens[0])
    elements = [identity(n)]
    for g in elements:
        for s in gens:
            gs = compose(g, s)
            if gs not in elements:
                elements.append(gs)
    index = {g: i for i, g in enumerate(elements)}
    return tuple(tuple(index[compose(g, s)] for g in elements) for s in gens)


def _tie_cases():
    cases = [((0,), (0,)), ((0,), (0,), (0,))]
    for d in (2, 3, 6, 9):
        c = tuple((x + 1) % d for x in range(d))
        cases += [(c, identity(d)), (c, power(c, 2)), (power(c, -1), c, identity(d)), (identity(d), c)]
    for gens in ("(1 2 3)", "(1 2)"), ("(1 2)", "(3 4)"), ("(1 2 3 4)", "(1 3)"), ("(1 2 3 4 5)", "(2 5)(3 4)"):
        cases.append(_regular_representation([parse_cycles(g, 5) for g in gens]))
    return cases


def _double_cover_states():
    """States (h, v, iota) of three covers under seeded relabelings."""
    rng = np.random.default_rng(59)
    states = []
    for N, a in ((5, (1, 2, 2, 5)), (7, (1, 3, 3, 7)), (2, (1, 1, 1, 1))):
        o, iota = orientation_double_cover(cyclic_to_pillow(CyclicCoverSpec(N, a)))
        walk = [(o, iota)]
        for gen in ("S", "T", "T", "L", "T", "S"):
            walk.append(apply_state_generator(*walk[-1], gen))
        for surf, i in walk:
            for _ in range(4):
                s = random_permutation(surf.d, rng)
                states.append((conjugate(surf.h, s), conjugate(surf.v, s), conjugate(i, s)))
    return states


def test_orientable_state_meets_only_through_iota():
    o, iota = orientation_double_cover(cyclic_to_pillow(CyclicCoverSpec(2, (1, 1, 1, 1))))
    assert not is_transitive([o.h, o.v], o.d)
    assert is_transitive([o.h, o.v, iota], o.d)


def test_canonical_labelling_matches_the_reference():
    rng = np.random.default_rng(61)
    cases = [_random_transitive(rng, k) for k in (2, 3) for _ in range(300)]
    cases += _tie_cases() + _double_cover_states()
    ties = 0
    for perms in cases:
        d = len(perms[0])
        assert canonical_labelling(perms, d) == reference_labelling(perms, d), perms
        ties += sum(_relabel(perms, _bfs_labels(perms, d, s)) == canonical_perms(perms, d)
                    for s in range(d)) > 1
    assert ties >= len(_tie_cases())


@pytest.mark.parametrize(
    "perms, d, message",
    [(((0,), (0,)), 0, "at least one square"),
     (((0,), (0,)), -1, "at least one square"),
     ((), 3, "at least one permutation"),
     (((1, 2, 0), (0, 1)), 3, "length"),
     (((1, 0), (1, 0, 2)), 2, "length"),
     (((1, 0, 3, 2), (0, 1, 2, 3)), 4, "disconnected")],
    ids=["zero-squares", "negative", "no-perms", "short-perm", "long-perm", "disconnected"],
)
def test_canonical_labelling_rejects_bad_input(perms, d, message):
    with pytest.raises(ValueError, match=message):
        canonical_labelling(perms, d)


class _ReadLog(tuple):
    """A permutation that records each square looked up in it."""

    def __new__(cls, p, log):
        self = super().__new__(cls, p)
        self.log = log
        return self

    def __getitem__(self, x):
        self.log.append(x)
        return super().__getitem__(x)


def test_disconnected_data_raises_from_the_first_start():
    perms = ((1, 0, 3, 2), (0, 1, 2, 3))
    with pytest.raises(ValueError) as ref:
        _bfs_labels(perms, 4, 0)
    read = []
    with pytest.raises(ValueError) as new:
        canonical_labelling(tuple(_ReadLog(p, read) for p in perms), 4)
    assert str(new.value) == str(ref.value)
    # only the component of square 0 was searched
    assert set(read) == {0, 1}


def test_starts_mapped_by_a_found_automorphism_are_skipped():
    # every shift of a 9-cycle is an automorphism: the tie between starts
    # 0 and 1 finds the shift by one, which maps start 0 onto all others
    d = 9
    c = tuple((x + 1) % d for x in range(d))
    read = []
    perms = (_ReadLog(c, read), identity(d))
    assert canonical_labelling(perms, d) == reference_labelling((c, identity(d)), d)
    assert len(read) == 2 * d


def test_bad_input_raises_without_assertions():
    code = (
        "from pillowtiled.orbit import canonical_labelling\n"
        "for perms, d in ((((0,),), 0), ((), 2), (((1, 0), (0,)), 2),\n"
        "                 (((1, 0, 3, 2), (0, 1, 2, 3)), 4)):\n"
        "    try:\n"
        "        canonical_labelling(perms, d)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {perms} on {d} squares')\n"
        "raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(orbit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr


# sha256 of the ekz and orbit JSON below, recorded before early abort was
# added to canonical_labelling; any change to a canonical form, an orbit
# or its vertex order changes it
EXACT_CHANNEL_SHA256 = "80364d806cf89e7b96750942a2d7efff68b0bed93b3b7d0882263164d7e26122"


def _orbit_line(d, perms):
    return "; ".join([str(d), *map(format_cycles, perms)])


def _exact_channel_digest(tmp_path):
    ekz = [" ".join(map(str, (s.N, *s.a))) for N in range(1, 6) for s in iter_specs(N)]
    rng = np.random.default_rng(2014)
    lines = [_orbit_line(6, (o.h, o.v)) for o in (random_origami(6, rng) for _ in range(10))]
    lines += [_orbit_line(4, random_pillow_cover(4, rng).corner_perms()) for _ in range(5)]
    digest = hashlib.sha256()
    for command, batch in (("ekz", ekz), ("orbit", lines)):
        src, out = tmp_path / f"{command}.txt", tmp_path / f"{command}.json"
        src.write_text("\n".join(batch) + "\n")
        assert cli.run(RunConfig(command, str(src), out=str(out))) == 0
        # the digest is of the parsed records, laid out one way, so it
        # pins every value and every order but not the CLI's whitespace
        canonical = json.dumps(json.loads(out.read_text()), indent=2, sort_keys=True)
        digest.update(canonical.encode() + b"\n")
    return digest.hexdigest()


def test_exact_channel_output_is_unchanged(tmp_path):
    start = time.perf_counter()
    assert _exact_channel_digest(tmp_path) == EXACT_CHANNEL_SHA256
    assert time.perf_counter() - start < 3.0


def test_orbit_seed_independent():
    g = enumerate_orbit(L3)
    for o2 in origamis(g)[: min(4, g.size)]:
        assert enumerate_orbit(o2).vertices == g.vertices


def brute_force_orbit_size_d3(seed: Origami) -> int:
    """Reachability closure over raw (h,v) pairs, no canonical forms.

    Moves: S, T, and simultaneous conjugation by any of the 6 relabelings.
    Counts conjugacy classes of pairs in the closure.
    """
    perms3 = list(itertools.permutations(range(3)))
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
    for o in origamis(g):
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
            img = apply_generator(o, gen)
            assert (i, gen, idx[canonical_perms((img.h, img.v), g.d)]) in set(g.edges)


def test_state_transport_preserves_quotient():
    for p in [FIVE, TORUS_COVER, cyclic_pillow(3, (1, 1, 1, 3))]:
        o, iota = orientation_double_cover(p)
        base = pillow_stratum(p)
        state = (o, iota)
        rng = np.random.default_rng(3)
        for gen in rng.choice(["S", "T", "L"], size=40):
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
    # the two tori meet only through iota
    o, iota = orientation_double_cover(TORUS_COVER)
    c = canonical_perms((o.h, o.v, iota), o.d)
    assert sorted(c[2]) == list(range(o.d))
    assert canonical_perms(c, o.d) == c


# ---------------------------------------------------- orbit closure reference
# The closure as it stood before it stepped on canonical tuples: every step
# builds an Origami from the vertex, moves it, canonicalises the image
# through canonical_perms and checks it, on every edge.


def _reference_close(seed, d, step, cap):
    seen = {seed}
    order = [seed]
    frontier = [seed]
    edges = set()
    while frontier:
        nxt = []
        for w in frontier:
            for gen in ("S", "T"):
                img = step(w, gen)
                if img not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(cap)
                    seen.add(img)
                    order.append(img)
                    nxt.append(img)
                edges.add((w, gen, img))
        frontier = nxt
    vertices = tuple(sorted(order))
    index = {w: i for i, w in enumerate(vertices)}
    return orbit.OrbitGraph(d=d, base=seed, vertices=vertices,
                            edges=tuple(sorted((index[a], g, index[b]) for a, g, b in edges)))


def reference_orbit(o, cap=orbit.DEFAULT_ORBIT_CAP):
    stratum = origami_stratum(o)

    def step(w, gen):
        img = apply_generator(Origami(o.d, w[0], w[1]), gen)
        if origami_stratum(img) != stratum:
            raise ArithmeticError("stratum changed along a move")
        return canonical_perms((img.h, img.v), o.d)

    return _reference_close(canonical_perms((o.h, o.v), o.d), o.d, step, cap)


def reference_state_orbit(o, iota, cap=orbit.DEFAULT_ORBIT_CAP):
    validate_involution(o, iota)

    def step(w, gen):
        surf = Origami(o.d, w[0], w[1], allow_disconnected=True)
        img, i2 = apply_state_generator(surf, w[2], gen)
        return canonical_perms((img.h, img.v, i2), o.d)

    return _reference_close(canonical_perms((o.h, o.v, iota), o.d), o.d, step, cap)


def test_orbit_closure_matches_the_reference():
    rng = np.random.default_rng(67)
    origamis = [random_origami(int(rng.integers(2, 8)), rng) for _ in range(60)]
    assert {o.d for o in origamis} == set(range(2, 8))
    for o in origamis:
        assert enumerate_orbit(o) == reference_orbit(o), str(o)
    covers = [random_pillow_cover(int(rng.integers(2, 6)), rng) for _ in range(40)]
    covers += [cyclic_to_pillow(s) for N in range(1, 7) for s in iter_specs(N)]
    assert {p.d for p in covers[:40]} == set(range(2, 6))
    for p in covers:
        state = orientation_double_cover(p)
        assert enumerate_state_orbit(*state) == reference_state_orbit(*state), str(p)


def test_orbit_cap_matches_the_reference():
    o = random_origami(7, np.random.default_rng(71))
    size = enumerate_orbit(o).size
    assert size > 2
    assert enumerate_orbit(o, cap=size) == reference_orbit(o, cap=size)
    for cap in (1, size - 1):
        for enumerate_ in (enumerate_orbit, reference_orbit):
            with pytest.raises(OrbitCapExceeded):
                enumerate_(o, cap=cap)


SEVEN = Origami(7, parse_cycles("(1 2 3)(4 5 6 7)", 7), parse_cycles("(3 4)", 7))


def test_a_stratum_change_along_a_move_raises(monkeypatch):
    move = orbit._move
    calls = []

    def move_off_the_stratum(h, v, gen):
        calls.append(gen)
        if len(calls) == 3:
            # one horizontal cylinder with no vertical twist: only marked points
            return tuple((x + 1) % len(h) for x in range(len(h))), identity(len(h))
        return move(h, v, gen)

    monkeypatch.setattr(orbit, "_move", move_off_the_stratum)
    with pytest.raises(ArithmeticError, match="stratum changed along a move"):
        enumerate_orbit(SEVEN)
    assert len(calls) == 3


def test_a_broken_transported_involution_raises(monkeypatch):
    # iota is not re-cut along the shears, so it stops reversing v
    monkeypatch.setattr(orbit, "_transport", lambda h, v, iota, gen: iota)
    o, iota = orientation_double_cover(FIVE)
    with pytest.raises(ValueError, match="involution does not reverse"):
        enumerate_state_orbit(o, iota)


def test_orbit_checks_raise_without_assertions():
    code = (
        "from pillowtiled import orbit\n"
        "from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow\n"
        "from pillowtiled.permsurf import orientation_double_cover\n"
        "state = orientation_double_cover(cyclic_to_pillow(CyclicCoverSpec(5, (1, 2, 2, 5))))\n"
        "orbit._transport = lambda h, v, iota, gen: iota\n"
        "try:\n"
        "    orbit.enumerate_state_orbit(*state)\n"
        "except ValueError:\n"
        "    raise SystemExit(7)\n"
        "raise SystemExit('a broken involution was accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(orbit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr


def _count_checks(monkeypatch):
    counts = {"Origami.__post_init__": 0, "validate_involution": 0}
    post_init = Origami.__post_init__

    def counted_post_init(self):
        counts["Origami.__post_init__"] += 1
        post_init(self)

    def counted_validate_involution(o, iota):
        counts["validate_involution"] += 1
        validate_involution(o, iota)

    monkeypatch.setattr(Origami, "__post_init__", counted_post_init)
    monkeypatch.setattr(orbit, "validate_involution", counted_validate_involution)
    return counts


@pytest.mark.parametrize("case", ["origami", "state"])
def test_each_vertex_is_checked_at_most_twice(monkeypatch, case):
    state = orientation_double_cover(FIVE)
    counts = _count_checks(monkeypatch)
    g = enumerate_orbit(SEVEN) if case == "origami" else enumerate_state_orbit(*state)
    assert (g.size, len(g.edges)) == ((144, 288) if case == "origami" else (3, 6))
    # every new vertex is checked once, and no edge checks it again
    assert g.size <= counts["Origami.__post_init__"] <= 2 * g.size
    if case == "state":
        assert g.size <= counts["validate_involution"] <= 2 * g.size
    else:
        assert counts["validate_involution"] == 0


def test_transitivity_runs_once_per_vertex(monkeypatch):
    # the Origami check of each new vertex proves it connected, and the
    # stratum of a connected origami does not test it again
    calls = []

    def counted(perms, n):
        calls.append(n)
        return is_transitive(perms, n)

    monkeypatch.setattr(permsurf, "is_transitive", counted)
    seed = Origami(SEVEN.d, SEVEN.h, SEVEN.v)
    g = enumerate_orbit(seed)
    assert g.size == 144
    assert 0 < len(calls) <= g.size + 1


# ------------------------------------------------------------- the orbit memo
# Every test starts from an empty memo (tests/conftest.py).


def _memo_seeds():
    """Seeds of the three kinds with a second, relabelled member of each
    orbit, so that the second seed of a pair hits the memo with a new base."""
    rng = np.random.default_rng(73)
    seeds = []
    origamis = [random_origami(int(rng.integers(2, 8)), rng) for _ in range(40)]
    assert {o.d for o in origamis} == set(range(2, 8))
    for o in origamis:
        moved = apply_generator(o, "T")
        s = random_permutation(o.d, rng)
        seeds += [("origami", (o,)),
                  ("origami", (Origami(o.d, conjugate(moved.h, s), conjugate(moved.v, s)),))]
    covers = [random_pillow_cover(int(rng.integers(2, 6)), rng) for _ in range(30)]
    assert {p.d for p in covers} == set(range(2, 6))
    covers += [cyclic_to_pillow(s) for N in range(1, 7) for s in iter_specs(N)]
    for p in covers:
        o, iota = orientation_double_cover(p)
        seeds += [("state", (o, iota)), ("state", apply_state_generator(o, iota, "S"))]
    return seeds


def _enumerate(kind, args):
    return (enumerate_orbit if kind == "origami" else enumerate_state_orbit)(*args)


def test_a_warm_memo_closes_as_a_cold_one():
    seeds = _memo_seeds()
    cold = []
    for kind, args in seeds:
        orbit._clear_memo()
        cold.append(_enumerate(kind, args))
    orbit._clear_memo()
    warm = [_enumerate(kind, args) for kind, args in seeds]
    assert warm == cold
    # the base is the seed's own canonical tuple, not the first closure's
    assert any(a.base != b.base and a.vertices == b.vertices for a, b in zip(warm[::2], warm[1::2]))
    # each pair met one orbit, which was closed once
    assert len(orbit._memo_order) <= len(seeds) // 2


@pytest.mark.parametrize("case", ["origami", "state"])
def test_a_hit_labels_once_and_checks_nothing(monkeypatch, case):
    g = enumerate_orbit(SEVEN) if case == "origami" else enumerate_state_orbit(*orientation_double_cover(FIVE))
    # another vertex of the orbit, relabelled
    w = next(w for w in g.vertices if w != g.base)
    s = random_permutation(g.d, np.random.default_rng(79))
    h, v, *iota = (conjugate(p, s) for p in w)
    args = (Origami(g.d, h, v, allow_disconnected=True), *iota)
    counts = _count_checks(monkeypatch)
    labelling = canonical_labelling
    labelled = []

    def counted_labelling(perms, d):
        labelled.append(perms)
        return labelling(perms, d)

    def no_move(*args):
        raise AssertionError("a hit moved a vertex")

    monkeypatch.setattr(orbit, "canonical_labelling", counted_labelling)
    monkeypatch.setattr(orbit, "_move", no_move)
    monkeypatch.setattr(orbit, "_transport", no_move)
    hit = _enumerate(case, args)
    assert (hit.vertices, hit.edges) == (g.vertices, g.edges)
    assert hit.base == w
    assert len(labelled) == 1
    assert counts == {"Origami.__post_init__": 0, "validate_involution": 0}


def _memo_state():
    return dict(orbit._memo), list(orbit._memo_order)


def test_a_hit_obeys_the_cap():
    g = enumerate_orbit(SEVEN)
    n = g.size
    assert enumerate_orbit(SEVEN, cap=n) == g
    for cap in (n - 1, 1):
        with pytest.raises(OrbitCapExceeded) as exc:
            enumerate_orbit(SEVEN, cap=cap)
        assert exc.value.cap == cap
    # a closure that raised keeps nothing
    before = _memo_state()
    with pytest.raises(OrbitCapExceeded):
        enumerate_orbit(L3, cap=1)
    with pytest.raises(OrbitCapExceeded):
        enumerate_state_orbit(*orientation_double_cover(FIVE), cap=2)
    assert _memo_state() == before


def test_a_failed_check_keeps_nothing(monkeypatch):
    enumerate_orbit(L3)
    before = _memo_state()
    monkeypatch.setattr(orbit, "_transport", lambda h, v, iota, gen: iota)
    with pytest.raises(ValueError, match="involution does not reverse"):
        enumerate_state_orbit(*orientation_double_cover(FIVE))
    assert _memo_state() == before


def test_the_memo_stays_within_its_budget(monkeypatch):
    budget = 12
    monkeypatch.setattr(orbit, "_MEMO_VERTICES", budget)
    states = [orientation_double_cover(cyclic_to_pillow(s)) for N in range(1, 9) for s in iter_specs(N)]
    first = []
    for state in states:
        first.append(enumerate_state_orbit(*state))
        assert len(orbit._memo) <= budget
        assert len(orbit._memo) == sum(len(v) for v, _ in orbit._memo_order)
    assert len(orbit._memo_order) < len({g.vertices for g in first})
    # the evicted orbits close again, to the same graphs
    assert [enumerate_state_orbit(*state) for state in states] == first
    orbit._clear_memo()
    assert [enumerate_state_orbit(*state) for state in states] == first


def test_a_hit_past_256_squares_unpacks_the_orbit():
    # a 257-square one-cylinder torus cover: labels past one byte
    d = 257
    g = enumerate_orbit(Origami(d, tuple((x + 1) % d for x in range(d)), identity(d)))
    assert g.size == d + 1 and max(map(max, g.vertices[-1])) == d - 1
    w = g.vertices[g.size // 2]
    assert enumerate_orbit(Origami(d, w[0], w[1])) == orbit.OrbitGraph(d, w, g.vertices, g.edges)
    assert len(orbit._memo_order) == 1


def test_an_orbit_larger_than_the_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(orbit, "_MEMO_VERTICES", 100)
    enumerate_orbit(L3)
    before = _memo_state()
    assert enumerate_orbit(SEVEN).size > 100
    assert _memo_state() == before


def test_a_second_run_in_one_process_is_byte_identical(tmp_path):
    # the second run of the same ekz and orbit lines takes every orbit from the memo
    assert _exact_channel_digest(tmp_path) == EXACT_CHANNEL_SHA256
    closed = len(orbit._memo_order)
    assert _exact_channel_digest(tmp_path) == EXACT_CHANNEL_SHA256
    assert len(orbit._memo_order) == closed
