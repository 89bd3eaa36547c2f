import itertools

import pytest

from pillowtiled.permutations import (
    compose,
    compose_all,
    cycles,
    format_cycles,
    identity,
    inverse,
    is_permutation,
    is_transitive,
    parse_cycles,
)
from tests.reference import conjugate, cycle_type, orbits, order, power


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p . q)(i) = p(q(i))
    assert compose(p, q) == (1, 0, 2)
    assert compose_all(p, q) == compose(p, q)
    assert compose_all(p) == p


def test_inverse_and_power():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity(4)
    assert power(p, 0) == identity(4)
    assert power(p, 3) == compose(p, compose(p, p))
    assert power(p, -1) == inverse(p)
    assert power(p, order(p)) == identity(4)


def test_conjugate_relabels_cycles():
    p = parse_cycles("(1 2 3)", 5)
    g = parse_cycles("(1 4)(2 5)", 5)
    assert cycle_type(conjugate(p, g)) == cycle_type(p)
    # g maps 1->4, 2->5, 3->3, so the conjugated cycle is (4 5 3)
    assert conjugate(p, g) == parse_cycles("(3 4 5)", 5)


def test_cycles_ordering_and_formatting():
    p = (1, 0, 2)
    assert cycles(p) == [(0, 1), (2,)]
    assert cycle_type(p) == (2, 1)
    assert format_cycles(p) == "(1 2)"
    assert format_cycles(p, with_fixed=True) == "(1 2)(3)"
    assert format_cycles(identity(3)) == "()"


@pytest.mark.parametrize("text,n,expected", [
    ("(1 2 3)(4 5)", 5, (1, 2, 0, 4, 3)),
    ("(1,2,3)", 3, (1, 2, 0)),
    ("()", 4, (0, 1, 2, 3)),
    ("id", 2, (0, 1)),
])
def test_parse_cycles(text, n, expected):
    assert parse_cycles(text, n) == expected


@pytest.mark.parametrize("text,n", [
    ("(1 2 6)", 5),   # out of range
    ("(1 2)(2 3)", 5),  # repeated entry
    ("(0 1)", 3),     # 1-indexed
    ("1 2 3", 3),     # missing parens
])
def test_parse_cycles_rejects(text, n):
    with pytest.raises(ValueError):
        parse_cycles(text, n)


def test_parse_format_round_trip():
    for p in itertools.permutations(range(5)):
        assert parse_cycles(format_cycles(p), 5) == p


def test_transitivity_and_orbits():
    h = (1, 2, 0, 3)
    v = identity(4)
    assert not is_transitive([h, v], 4)
    assert orbits([h, v], 4) == [[0, 1, 2], [3]]
    assert is_transitive([h, (0, 1, 3, 2)], 4)


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
