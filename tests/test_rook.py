from itertools import combinations, permutations

import pytest

from groupoidreps import rook
from groupoidreps.rook import (
    RookAlgebraElem,
    eps1,
    rook_compose,
    rook_epimorphism_check,
    rook_identity,
    rook_images,
    rook_monoid_order,
)


def rook_elements(d: int) -> list[tuple[int, ...]]:
    """All injective partial maps of {1..d}, sorted."""
    out = []
    points = range(1, d + 1)
    for size in range(d + 1):
        for dom in combinations(points, size):
            for img in permutations(points, size):
                elem = [0] * d
                for x, y in zip(dom, img):
                    elem[x - 1] = y
                out.append(tuple(elem))
    out.sort()
    return out


def test_orders():
    assert rook_monoid_order(2) == 7
    assert rook_monoid_order(3) == 34
    assert rook_monoid_order(4) == 209
    for d in range(5):
        assert len(rook_elements(d)) == rook_monoid_order(d)


def test_composition():
    e1 = eps1(3)
    assert e1 == (0, 2, 3)
    assert rook_compose(e1, e1) == e1  # idempotent
    swap = (2, 1, 3)
    assert rook_compose(swap, e1) == (0, 1, 3)
    assert rook_compose(e1, swap) == (2, 0, 3)
    assert rook_compose(rook_identity(3), e1) == e1


def test_s0_image_squares_to_identity():
    for d in (1, 2, 3):
        t0 = rook_images(d)[0]
        e = RookAlgebraElem.basis(d, rook_identity(d))
        assert t0 * t0 == e


def test_key_proof_identity():
    # eps1 s1 eps1 s1 = s1 eps1 s1 eps1 = identity transformation on {3..d}
    d = 3
    ep = RookAlgebraElem.basis(d, eps1(d))
    s1 = rook_images(d)[1]
    lhs = ep * s1 * ep * s1
    rhs = s1 * ep * s1 * ep
    tail = RookAlgebraElem.basis(d, (0, 0, 3))
    assert lhs == rhs == tail


def test_epimorphism_check():
    for d in (1, 2, 3, 4, 5, 6):
        rep = rook_epimorphism_check(d)
        assert rep["ok"], (d, rep)
        assert rep["dim"] == rook_monoid_order(d)


SPAN_CHECK = "span of generated algebra = |IS_{d}| = {n}"


def _check(rep, name):
    return next(c for c in rep["checks"] if c["name"] == name)


def test_span_check_fails_without_raising_when_s0_maps_to_minus_e(monkeypatch):
    # -e squares to e, so the relation check passes, but (image(s0) + e)/2 = 0
    # is not a rook element, so eps_1 is not derived and the span check fails
    real = rook.rook_images

    def patched(d):
        images = real(d)
        return [RookAlgebraElem.basis(d, rook_identity(d)).scale(-1)] + images[1:]

    monkeypatch.setattr(rook, "rook_images", patched)
    for d in (1, 2, 3):
        rep = rook_epimorphism_check(d)
        assert _check(rep, "(2 eps1 - e)^2 = e")["status"] == "pass"
        assert _check(rep, SPAN_CHECK.format(d=d, n=rook_monoid_order(d)))["status"] == "fail"
        assert not rep["ok"]


@pytest.mark.parametrize("d", [3, 4])
def test_span_check_fails_when_the_last_transposition_maps_to_e(monkeypatch, d):
    # e is a rook element with coefficient 1, but eps_1, s_1..s_(d-2) and e
    # generate a proper submonoid
    real = rook.rook_images
    monkeypatch.setattr(
        rook, "rook_images", lambda d: real(d)[:-1] + [RookAlgebraElem.basis(d, rook_identity(d))]
    )
    rep = rook_epimorphism_check(d)
    assert _check(rep, SPAN_CHECK.format(d=d, n=rook_monoid_order(d)))["status"] == "fail"
    assert rep["dim"] < rook_monoid_order(d)


def test_span_check_rejects_a_generator_with_a_coefficient_other_than_one(monkeypatch):
    # 2 s_1 spans the same line as s_1, but it is not a monoid element
    real = rook.rook_images

    def patched(d):
        images = real(d)
        return images[:1] + [images[1].scale(2)] + images[2:]

    monkeypatch.setattr(rook, "rook_images", patched)
    rep = rook_epimorphism_check(3)
    assert _check(rep, SPAN_CHECK.format(d=3, n=34))["status"] == "fail"
    assert rep["dim"] < 34
