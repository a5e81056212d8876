"""The colored-permutation groupoid on d points with l colors, and its quotients by color rotation.

Objects are color functions f: {1..d} -> {1..l}, stored as 1-based tuples.
A morphism f -> g is a bijection sigma of {1..d} with g o sigma = f, i.e. a
color-preserving permutation.  Hom sets are nonempty exactly when the two
objects have the same type (the composition counting each color), and then
have lambda! elements.

For k | l the group H_k generated by the color rotation theta_k (shift by
l/k) acts freely on the groupoid (d >= 1); the quotient groupoid has one
object per H_k-orbit.  Each quotient morphism is stored as its unique
representative GMorphism whose source is the chosen orbit representative,
and every object g records the t with g = theta_k^t(rep of its orbit), so
the power of theta_k that moves one object to another is a subtraction.
At k = 1 the quotient is the groupoid itself.

Psi(q), the embedding of the quotient algebra into A_(l,d) by orbit sums,
is the multiset of the k translates theta_k^t(q), a multiplicity being a
coefficient, so a product of orbit sums composes translates, as index data.
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
    "theta_color",
    "theta_object",
    "theta_type",
    "theta_morphism",
    "stabilizer_order",
    "QuotientGroupoid",
    "quotient_groupoid",
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


# ---------------------------------------------------------------------------
# Color rotation and the quotient by H_k
# ---------------------------------------------------------------------------


def theta_color(c: int, shift: int, ell: int) -> int:
    return (c - 1 + shift) % ell + 1


def theta_object(f, shift: int, ell: int):
    return tuple(theta_color(c, shift, ell) for c in f)


def theta_type(lam, shift: int):
    """The color rotation of a type or a multi-partition: new[j] = old[j - shift]."""
    s = -shift % len(lam)
    return tuple(lam[s:]) + tuple(lam[:s])


def theta_morphism(m: GMorphism, shift: int, ell: int) -> GMorphism:
    """Rotation fixes the underlying permutation and moves the endpoints."""
    return GMorphism(
        theta_object(m.source, shift, ell),
        theta_object(m.target, shift, ell),
        m.perm,
    )


def stabilizer_order(x, k: int) -> int:
    """The order of the stabilizer of x, a type or a multi-partition, in the cyclic group of rotations by l/k."""
    ell = len(x)
    return k // len({theta_type(x, t * (ell // k)) for t in range(k)})


class QuotientGroupoid:
    """The quotient of the (l,d) groupoid by the color-rotation group H_k.

    A quotient morphism is its representative GMorphism whose source is the
    representative of its orbit (see normalize).
    """

    def __init__(self, ell: int, k: int, d: int):
        if k < 1 or ell % k != 0:
            raise ValueError("k must be a positive divisor of ell")
        self.ell = ell
        self.k = k
        self.d = d
        self.shift = ell // k  # theta_k shifts colors by this amount
        self.orbits: list[tuple[tuple, ...]] = []
        self.orbit_of: dict[tuple, int] = {}
        # exponent[g] = t with g = theta_k^t(rep of the orbit of g)
        self.exponent: dict[tuple, int] = {}
        objs = objects(ell, d)
        for f in objs:
            if f in self.orbit_of:
                continue
            orbit = [f]
            while (g := theta_object(orbit[-1], self.shift, ell)) != f:
                orbit.append(g)
            start = orbit.index(min(orbit))
            self.orbits.append(tuple(sorted(orbit)))
            for t, g in enumerate(orbit):
                self.orbit_of[g] = len(self.orbits) - 1
                self.exponent[g] = (t - start) % len(orbit)
        # over the objects in order: the index of theta_k(g), and whether g
        # represents its orbit
        self.theta_index = tuple(object_index(theta_object(f, self.shift, ell), ell) for f in objs)
        self.is_rep = tuple(self.exponent[f] == 0 for f in objs)

    def rep(self, oi: int):
        return self.orbits[oi][0]

    def _translate_exponent(self, src, dst) -> int:
        """t with theta_k^t(src) = dst, for src and dst in one orbit."""
        return (self.exponent[dst] - self.exponent[src]) % self.k

    def translate(self, m: GMorphism, t: int) -> GMorphism:
        """theta_k^t(m); m itself when t = 0 mod k."""
        if t % self.k == 0:
            return m
        return theta_morphism(m, t * self.shift, self.ell)

    def normalize(self, m: GMorphism) -> GMorphism:
        """The orbit representative of m whose source is the orbit representative."""
        return self.translate(m, -self.exponent[m.source] % self.k)

    def identity(self, oi: int) -> GMorphism:
        return identity_morphism(self.rep(oi))

    def source_orbit(self, q: GMorphism) -> int:
        return self.orbit_of[q.source]

    def target_orbit(self, q: GMorphism) -> int:
        return self.orbit_of[q.target]

    def hom(self, o1: int, o2: int) -> list[GMorphism]:
        """The quotient morphisms o1 -> o2; distinct targets keep them distinct."""
        src = self.rep(o1)
        out = [m for tgt in self.orbits[o2] for m in hom(src, tgt, self.ell)]
        out.sort(key=lambda q: (q.target, q.perm))
        return out

    def all_qmorphisms(self) -> list[GMorphism]:
        out = []
        for o1 in range(len(self.orbits)):
            for o2 in range(len(self.orbits)):
                out.extend(self.hom(o1, o2))
        return out

    def compose(self, q2: GMorphism, q1: GMorphism) -> GMorphism:
        """q2 o q1; the representative of q2 is translated to match q1's target."""
        if self.target_orbit(q1) != self.source_orbit(q2):
            raise ValueError("quotient morphisms are not composable")
        return compose(self.translate(q2, self._translate_exponent(q2.source, q1.target)), q1)

    def psi(self, q: GMorphism) -> tuple[GMorphism, ...]:
        """Orbit sum in A_(l,d), the embedding of the quotient algebra, as the multiset of the translates of q."""
        return tuple(self.translate(q, t) for t in range(self.k))

    def is_invariant(self, exps: tuple[int, ...]) -> bool:
        """Whether the monomial form with exponent exps[i] on its term with target object i is H_k-invariant.

        theta_k moves the term with target g to the one with target theta_k(g).
        """
        return all(e == exps[t] for e, t in zip(exps, self.theta_index))


@lru_cache(maxsize=None)
def quotient_groupoid(ell: int, k: int, d: int) -> QuotientGroupoid:
    return QuotientGroupoid(ell, k, d)
