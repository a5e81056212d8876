"""The colored-permutation groupoid on d points with l colors.

Objects are color functions f: {1..d} -> {1..l}, stored as 1-based tuples.
A morphism f -> g is a bijection sigma of {1..d} with g o sigma = f, i.e. a
color-preserving permutation.  Hom sets are nonempty exactly when the two
objects have the same type (the composition counting each color), and then
have lambda! elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from .perms import compose_perms, identity_perm, invert_perm

__all__ = [
    "ColorFn",
    "GMorphism",
    "objects",
    "object_index",
    "type_of",
    "hom",
    "compose",
    "inverse",
    "identity_morphism",
    "canonical_object",
    "canonical_morphism",
    "component_generators",
    "all_morphisms",
]

ColorFn = tuple[int, ...]

DEFAULT_OBJECT_CAP = 10**6


class GMorphism(NamedTuple):
    """A morphism source -> target; perm is one-line 1-based."""

    source: ColorFn
    target: ColorFn
    perm: tuple[int, ...]

    def to_json(self) -> dict:
        return {"source": list(self.source), "target": list(self.target), "perm": list(self.perm)}


@lru_cache(maxsize=None)
def _objects_tuple(ell: int, d: int) -> tuple[ColorFn, ...]:
    return tuple(product(range(1, ell + 1), repeat=d))


def objects(ell: int, d: int, cap: int = DEFAULT_OBJECT_CAP) -> list[ColorFn]:
    """All l^d color functions in lexicographic order."""
    if ell < 1 or d < 0:
        raise ValueError("need ell >= 1 and d >= 0")
    if ell**d > cap:
        raise ResourceWarning(f"object count {ell**d} exceeds cap {cap}")
    return list(_objects_tuple(ell, d))


def object_index(f: ColorFn, ell: int) -> int:
    """Rank of f in the lexicographic enumeration of all ell^d maps."""
    idx = 0
    for c in f:
        idx = idx * ell + (c - 1)
    return idx


def type_of(f: ColorFn, ell: int) -> tuple[int, ...]:
    lam = [0] * ell
    for c in f:
        lam[c - 1] += 1
    return tuple(lam)


def _color_positions(f: ColorFn, ell: int) -> list[list[int]]:
    pos: list[list[int]] = [[] for _ in range(ell)]
    for i, c in enumerate(f, start=1):
        pos[c - 1].append(i)
    return pos


def hom(f: ColorFn, g: ColorFn, ell: int) -> list[GMorphism]:
    """All color-preserving bijections f -> g, sorted by one-line notation."""
    if len(f) != len(g):
        raise ValueError("objects live in different groupoids")
    if type_of(f, ell) != type_of(g, ell):
        return []
    d = len(f)
    fpos = _color_positions(f, ell)
    gpos = _color_positions(g, ell)
    perms_by_color = []
    for c in range(ell):
        src, tgt = fpos[c], gpos[c]
        perms_by_color.append([list(zip(src, assign)) for assign in permutations(tgt)])
    out = []
    for combo in product(*perms_by_color):
        perm = [0] * d
        for pairs in combo:
            for i, j in pairs:
                perm[i - 1] = j
        out.append(GMorphism(f, g, tuple(perm)))
    out.sort(key=lambda m: m.perm)
    return out


def compose(second: GMorphism, first: GMorphism) -> GMorphism:
    """second o first (apply first, then second)."""
    if first.target != second.source:
        raise ValueError("morphisms are not composable")
    return GMorphism(first.source, second.target, compose_perms(second.perm, first.perm))


def inverse(m: GMorphism) -> GMorphism:
    return GMorphism(m.target, m.source, invert_perm(m.perm))


def identity_morphism(f: ColorFn) -> GMorphism:
    return GMorphism(f, f, identity_perm(len(f)))


def canonical_object(lam: tuple[int, ...]) -> ColorFn:
    """The weakly increasing color function of type lam."""
    out: list[int] = []
    for color, count in enumerate(lam, start=1):
        out.extend([color] * count)
    return tuple(out)


def canonical_morphism(f: ColorFn, g: ColorFn, ell: int) -> GMorphism:
    """The unique order-preserving morphism f -> g.

    Within each color class, the i-th smallest position of that color in f
    is sent to the i-th smallest position of that color in g.
    """
    if type_of(f, ell) != type_of(g, ell):
        raise ValueError("objects have different types; hom set is empty")
    d = len(f)
    fpos = _color_positions(f, ell)
    gpos = _color_positions(g, ell)
    perm = [0] * d
    for c in range(ell):
        for i, j in zip(fpos[c], gpos[c]):
            perm[i - 1] = j
    return GMorphism(f, g, tuple(perm))


@lru_cache(maxsize=None)
def component_generators(ell: int, lam: tuple[int, ...]) -> tuple[GMorphism, ...]:
    """Morphisms that generate the component of type lam under composition.

    With b = f_lam: the anchors sigma_(b,f) for the other objects f of type
    lam, their inverses, and s_i at b wherever b_i = b_(i+1).  Every pi: f -> g
    is sigma_(b,g) o w o sigma_(b,f)^(-1) with w in End(b) = S_lam, and the s_i
    generate S_lam.
    """
    b = canonical_object(lam)
    d = len(b)
    out: list[GMorphism] = []
    for f in objects(ell, d):
        if f != b and type_of(f, ell) == lam:
            anchor = canonical_morphism(b, f, ell)
            out += (anchor, inverse(anchor))
    for i in range(1, d):
        if b[i - 1] == b[i]:
            perm = list(range(1, d + 1))
            perm[i - 1], perm[i] = i + 1, i
            out.append(GMorphism(b, b, tuple(perm)))
    return tuple(out)


def all_morphisms(ell: int, d: int, cap: int = DEFAULT_OBJECT_CAP) -> list[GMorphism]:
    """Every morphism, ordered by (source index, target index, perm)."""
    objs = objects(ell, d, cap)
    out = []
    for f in objs:
        for g in objs:
            out.extend(hom(f, g, ell))
    out.sort(key=lambda m: (object_index(m.source, ell), object_index(m.target, ell), m.perm))
    return out
