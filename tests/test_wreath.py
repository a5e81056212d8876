import random
from math import factorial

import pytest

from groupoidreps.cyclo import Cyc, root_of_unity
from groupoidreps.gkd import gkd_conjugacy_classes
from groupoidreps.perms import perm_sign, reach
from groupoidreps.simples import conjugacy_classes
from groupoidreps.wreath import (
    WreathElem,
    check_presentation,
    embed_lower_rank,
    enum_group,
    generators,
    gkd_elements,
    gkd_generators,
    gkd_member,
    s0_j,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from reference import conjugacy_classes_of, conjugation_orbits


def test_generators():
    s0 = generators(3, 2)[0]
    assert s0.perm == (1, 2) and s0.colors == (1, 0)
    s1 = generators(2, 2)[1]
    assert s1.perm == (2, 1) and s1.colors == (0, 0)
    assert len(generators(5, 1)) == 1


def test_group_order_and_closure():
    for ell, d in [(2, 2), (3, 2), (2, 3), (4, 2), (1, 3)]:
        group = enum_group(ell, d)
        assert len(group) == ell**d * factorial(d)
        members = set(group)
        rng = random.Random(5)
        e = wreath_identity(ell, d)
        pairs = (
            [(a, b) for a in group for b in group]
            if len(group) ** 2 <= 10**4
            else [(rng.choice(group), rng.choice(group)) for _ in range(10**4)]
        )
        for a, b in pairs:
            assert wreath_mul(a, b) in members
        for a in group:
            assert wreath_mul(a, wreath_inv(a)) == e


def test_presentation():
    for ell in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            assert all(c["status"] == "pass" for c in check_presentation(ell, d))


def test_braid_example():
    g = generators(3, 3)
    lhs = wreath_mul(wreath_mul(g[1], g[2]), g[1])
    rhs = wreath_mul(wreath_mul(g[2], g[1]), g[2])
    assert lhs == rhs


def s0_j_word(ell: int, d: int, j: int) -> WreathElem:
    """The same element as s0_j, as the word s_{j-1}...s_1 s_0 s_1...s_{j-1}."""
    gens = generators(ell, d)
    word = list(range(j - 1, 0, -1)) + [0] + list(range(1, j))
    out = wreath_identity(ell, d)
    for i in word:
        out = wreath_mul(out, gens[i])
    return out


def det(x: WreathElem) -> Cyc:
    """Exact determinant of the monomial matrix: sign(perm) * xi^(sum of colors)."""
    value = root_of_unity(x.ell, sum(x.colors))
    return value if perm_sign(x.perm) == 1 else -value


def test_s0_j():
    for ell in (2, 3):
        for d in range(1, 6):
            for j in range(1, d + 1):
                elem = s0_j(ell, d, j)
                assert elem == s0_j_word(ell, d, j)
                power = wreath_identity(ell, d)
                for _ in range(ell):
                    power = wreath_mul(power, elem)
                assert power == wreath_identity(ell, d)
    assert s0_j(2, 3, 1) == generators(2, 3)[0]
    # s_1 s_0 s_1 = diagonal at position 2
    g = generators(3, 2)
    assert wreath_mul(wreath_mul(g[1], g[0]), g[1]) == s0_j(3, 2, 2)
    with pytest.raises(ValueError):
        s0_j(2, 3, 4)


def test_det():
    s0 = generators(2, 2)[0]
    assert det(s0) == Cyc.rational(2, -1)
    s1 = generators(2, 2)[1]
    assert det(s1) == Cyc.rational(2, -1)
    assert det(wreath_identity(3, 2)).is_one()


def test_gkd_membership():
    s0 = generators(2, 2)[0]
    assert not gkd_member(s0, 2)
    assert gkd_member(s0, 1)
    assert len(gkd_elements(2, 2, 2)) == 4
    with pytest.raises(ValueError):
        gkd_member(s0, 3)


def test_gkd_index():
    for ell, d in [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)]:
        for k in range(1, ell + 1):
            if ell % k:
                continue
            assert len(gkd_elements(ell, k, d)) == ell**d * factorial(d) // k


def test_gkd_generators_generate():
    for ell, k, d in [(2, 2, 2), (2, 2, 3), (3, 3, 2), (4, 2, 2), (4, 4, 2), (2, 1, 2)]:
        gens = gkd_generators(ell, k, d)
        assert all(gkd_member(g, k) for g in gens)
        seen = set(gens)
        frontier = list(gens)
        while frontier:
            new = []
            for a in gens:
                for b in frontier:
                    c = wreath_mul(a, b)
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
            frontier = new
        assert len(seen) == ell**d * factorial(d) // k


def test_embed_lower_rank():
    x = WreathElem(2, (2, 1), (1, 0))
    y = embed_lower_rank(x, 4)
    assert y.perm == (2, 1, 3, 4) and y.colors == (1, 0, 0, 0)


def test_serialization():
    x = WreathElem(2, (2, 1), (1, 0))
    assert x.to_json() == {"perm": [2, 1], "colors": [1, 0]}


@pytest.mark.parametrize("ell,d", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
def test_reach_from_the_identity_is_the_whole_group(ell, d):
    def right_multiples(gens):
        return lambda x: (wreath_mul(x, g) for g in gens)

    gens = generators(ell, d)
    e = wreath_identity(ell, d)
    reached = reach([e], right_multiples(gens))
    assert reached == set(enum_group(ell, d))
    assert len(reached) == ell**d * factorial(d)
    # without s_1, position 1 never moves
    fewer = reach([e], right_multiples(gens[:1] + gens[2:]))
    assert len(fewer) < len(reached)
    assert all(x.perm[0] == 1 for x in fewer)


def test_reach_includes_the_seeds_and_stops_on_a_cycle():
    assert reach([], lambda x: [x + 1]) == set()
    assert reach([0], lambda x: [(x + 1) % 5]) == set(range(5))
    assert reach([7, 8], lambda x: []) == {7, 8}


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 2)])
def test_conjugacy_classes_match_a_partition_by_all_conjugates(ell, d):
    # the reference conjugates by every group element, not by the generators
    group = enum_group(ell, d)
    expected, seen = [], set()
    for x in group:
        if x not in seen:
            cls = {wreath_mul(wreath_mul(g, x), wreath_inv(g)) for g in group}
            seen |= cls
            expected.append((x, len(cls)))
    assert conjugacy_classes_of(group, generators(ell, d)) == tuple(expected)


def _assert_closed_form_matches_orbits(closed, members, gens):
    # each representative lies in exactly one orbit, with that orbit's size,
    # and every orbit is hit once
    orbits = [orbit for _first, orbit in conjugation_orbits(members, gens)]
    hits = [0] * len(orbits)
    for rep, size in closed:
        (i,) = [i for i, orbit in enumerate(orbits) if rep in orbit]
        assert size == len(orbits[i]), rep
        hits[i] += 1
    assert hits == [1] * len(orbits)


@pytest.mark.parametrize("ell,d", [(1, 0), (3, 0), (2, 1), (1, 4), (2, 4), (3, 4), (4, 4), (2, 5), (5, 2)])
def test_closed_form_classes_match_the_orbit_route(ell, d):
    _assert_closed_form_matches_orbits(conjugacy_classes(ell, d), enum_group(ell, d), generators(ell, d) if d else [])


@pytest.mark.parametrize(
    "ell,k,d", [(2, 2, 4), (4, 4, 4), (6, 2, 3), (6, 3, 2), (4, 2, 4), (6, 6, 3), (2, 2, 1), (1, 1, 3)]
)
def test_closed_form_gkd_classes_match_the_orbit_route(ell, k, d):
    _assert_closed_form_matches_orbits(gkd_conjugacy_classes(ell, k, d), gkd_elements(ell, k, d), gkd_generators(ell, k, d))


def test_gkd_classes_reject_bad_parameters():
    with pytest.raises(ValueError, match="divisor"):
        gkd_conjugacy_classes(4, 3, 2)
    with pytest.raises(ValueError, match="d >= 1"):
        gkd_conjugacy_classes(2, 2, 0)
