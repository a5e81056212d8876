from math import factorial

import pytest

from groupoidreps.groupoid import (
    canonical_morphism,
    canonical_object,
    component_generators,
    compose,
    hom,
    identity_morphism,
    inverse,
    objects,
    type_of,
)
from reference import all_morphisms


def test_objects():
    assert len(objects(2, 2)) == 4
    assert objects(3, 0) == [()]
    assert len(objects(3, 2)) == 9
    assert objects(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(ResourceWarning):
        objects(10, 8, cap=10**6)


def test_type_of():
    assert type_of((1, 1), 2) == (2, 0)
    assert type_of((1, 2), 2) == (1, 1)
    assert type_of((3, 1, 3), 3) == (1, 0, 2)


def test_hom_sizes():
    assert len(hom((1, 1), (1, 1), 2)) == 2
    ms = hom((1, 2), (2, 1), 2)
    assert len(ms) == 1 and ms[0].perm == (2, 1)
    f = (1, 1, 2, 3)
    assert len(hom(f, f, 3)) == 2
    assert hom((1, 1), (1, 2), 2) == []


def test_hom_nonempty_iff_same_type():
    for f in objects(2, 3):
        for g in objects(2, 3):
            nonempty = bool(hom(f, g, 2))
            assert nonempty == (type_of(f, 2) == type_of(g, 2))


def test_total_counts():
    for ell in (1, 2, 3, 4):
        for d in (0, 1, 2, 3):
            total = sum(len(hom(f, g, ell)) for f in objects(ell, d) for g in objects(ell, d))
            assert total == ell**d * factorial(d)
            assert len(all_morphisms(ell, d)) == total


def test_two_dot_hom_table():
    # the two-color, two-dot hom table: nonzero cells pair equal types
    objs = objects(2, 2)
    sizes = {(f, g): len(hom(f, g, 2)) for f in objs for g in objs}
    assert sizes[(1, 1), (1, 1)] == 2
    assert sizes[(2, 2), (2, 2)] == 2
    assert sizes[(1, 2), (1, 2)] == 1
    assert sizes[(1, 2), (2, 1)] == 1
    assert sizes[(1, 2), (1, 1)] == 0
    # explicit morphisms of the mixed cell: the swap
    m = hom((1, 2), (2, 1), 2)[0]
    assert m.perm == (2, 1)


def test_compose_and_inverse():
    f, g = (1, 2), (2, 1)
    m = hom(f, g, 2)[0]
    assert compose(inverse(m), m) == identity_morphism(f)
    assert compose(m, inverse(m)) == identity_morphism(g)
    assert compose(identity_morphism(g), m) == m
    swap2 = compose(m, hom(g, f, 2)[0])
    assert swap2 == identity_morphism(g)
    with pytest.raises(ValueError):
        compose(m, m)


def test_canonical_object():
    assert canonical_object((2, 1)) == (1, 1, 2)
    assert canonical_object((0, 3)) == (2, 2, 2)
    assert canonical_object((1, 1, 1)) == (1, 2, 3)


def test_canonical_morphism():
    f = (1, 2)
    assert canonical_morphism(f, f, 2) == identity_morphism(f)
    assert canonical_morphism((1, 2), (2, 1), 2).perm == (2, 1)
    m = canonical_morphism((1, 1, 2), (1, 2, 1), 2)
    assert m.perm == (1, 3, 2)
    with pytest.raises(ValueError):
        canonical_morphism((1, 1), (1, 2), 2)


def test_cocycle_law():
    for ell, d in [(2, 3), (3, 2), (2, 4)]:
        objs = objects(ell, d)
        by_type = {}
        for f in objs:
            by_type.setdefault(type_of(f, ell), []).append(f)
        for fs in by_type.values():
            for a in fs:
                for b in fs:
                    for c in fs:
                        lhs = compose(canonical_morphism(b, c, ell), canonical_morphism(a, b, ell))
                        assert lhs == canonical_morphism(a, c, ell)


def test_endos_form_group():
    f = (1, 1, 2)
    ms = hom(f, f, 2)
    assert len(ms) == 2
    table = {(a.perm, b.perm): compose(a, b) for a in ms for b in ms}
    assert all(m in ms for m in table.values())


def test_serialization():
    m = hom((1, 2), (2, 1), 2)[0]
    assert m.to_json() == {"source": [1, 2], "target": [2, 1], "perm": [2, 1]}


def _reached(gens, objs):
    """Every composite of gens onto the identities at objs."""
    reached = {identity_morphism(f) for f in objs}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for s in gens:
            if s.source == x.target and compose(s, x) not in reached:
                reached.add(compose(s, x))
                frontier.append(compose(s, x))
    return reached


@pytest.mark.parametrize("ell,d", [(1, 3), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_component_generators_generate_each_component(ell, d):
    from groupoidreps.tableaux import compositions

    for lam in compositions(ell, d):
        objs = [f for f in objects(ell, d) if type_of(f, ell) == lam]
        gens = component_generators(ell, lam)
        assert all(s.source in objs and s.target in objs for s in gens)
        assert _reached(gens, objs) == {m for f in objs for g in objs for m in hom(f, g, ell)}


def test_component_generators_example():
    # b = (1, 1, 2): anchors to (1, 2, 1) and (2, 1, 1), their inverses, and s_1 at b
    gens = component_generators(2, (2, 1))
    b = (1, 1, 2)
    assert [m.perm for m in gens if m.source == m.target == b] == [(2, 1, 3)]
    anchors = [m for m in gens if m.source == b and m.target != b]
    assert [m.target for m in anchors] == [(1, 2, 1), (2, 1, 1)]
    assert all(inverse(m) in gens for m in anchors)
    assert len(gens) == 5
    # without s_1 the endomorphism group of b is not reached
    assert len(_reached([m for m in gens if m.source != m.target], [b, (1, 2, 1), (2, 1, 1)])) == 9
