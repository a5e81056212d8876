"""The symmetric inverse monoid IS_d and the epimorphism from C[S(2,d)].

A rook element is an injective partial map of {1..d}, stored as a tuple with
0 marking undefined points.  The monoid algebra C[IS_d] (rational
coefficients suffice) receives the type-B group algebra via

    s_i -> s_i,        s_0 -> 2 eps_1 - e,

eps_1 the idempotent identity transformation on {2..d}.  The map is verified
to satisfy every defining relation of S(2,d) and to be surjective.  The image
algebra is unital and holds image(s_0), so it holds (image(s_0) + e)/2 =
eps_1 and the s_i.  Once each of these is confirmed to be a single rook
element with coefficient 1, the image holds the monoid they generate, which
is all of IS_d (Ganyushkin-Mazorchuk 2009, ch. 3; Solomon 2002).  The check
counts the elements that right composition by them reaches from the
identity: reaching |IS_d| = sum_j C(d,j)^2 j! puts a basis of C[IS_d] in the
image, with no linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .perms import adjacent_transposition, reach
from .reporting import record, suite_result

__all__ = [
    "RookElem",
    "rook_compose",
    "rook_identity",
    "eps1",
    "rook_monoid_order",
    "RookAlgebraElem",
    "rook_images",
    "rook_epimorphism_check",
]

RookElem = tuple[int, ...]  # image tuple, 0 = undefined


def rook_identity(d: int) -> RookElem:
    return tuple(range(1, d + 1))


def rook_compose(f: RookElem, g: RookElem) -> RookElem:
    """(f o g)(x) = f(g(x)) where both are defined."""
    out = []
    for x in range(len(g)):
        y = g[x]
        out.append(f[y - 1] if y else 0)
    return tuple(out)


def eps1(d: int) -> RookElem:
    """The identity transformation on {2..d}, undefined at 1."""
    return (0,) + tuple(range(2, d + 1))


def rook_monoid_order(d: int) -> int:
    return sum(comb(d, j) ** 2 * factorial(j) for j in range(d + 1))


class RookAlgebraElem:
    """An exact rational linear combination of rook elements."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[RookElem, Fraction] | None = None):
        self.d = d
        self.terms: dict[RookElem, Fraction] = {}
        if terms:
            for r, c in terms.items():
                if c:
                    self.terms[r] = Fraction(c)

    @staticmethod
    def basis(d: int, elem: RookElem) -> "RookAlgebraElem":
        return RookAlgebraElem(d, {elem: Fraction(1)})

    def __add__(self, other):
        terms = dict(self.terms)
        for r, c in other.terms.items():
            acc = terms.get(r, Fraction(0)) + c
            if acc:
                terms[r] = acc
            else:
                terms.pop(r, None)
        return RookAlgebraElem(self.d, terms)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        c = Fraction(c)
        return RookAlgebraElem(self.d, {r: v * c for r, v in self.terms.items()})

    def __mul__(self, other):
        terms: dict[RookElem, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                key = rook_compose(r1, r2)
                acc = terms.get(key, Fraction(0)) + c1 * c2
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return RookAlgebraElem(self.d, terms)

    def __eq__(self, other):
        return isinstance(other, RookAlgebraElem) and self.d == other.d and self.terms == other.terms


def rook_images(d: int) -> list[RookAlgebraElem]:
    """Images of s_0, s_1, ..., s_{d-1} in C[IS_d]."""
    e = RookAlgebraElem.basis(d, rook_identity(d))
    out = [RookAlgebraElem.basis(d, eps1(d)).scale(2) - e]
    for i in range(1, d):
        out.append(RookAlgebraElem.basis(d, adjacent_transposition(d, i)))
    return out


def rook_epimorphism_check(d: int) -> dict:
    """All S(2,d) relations hold on the images, and the images generate C[IS_d].

    Surjectivity: eps_1 = (image(s_0) + e)/2 and the images of s_1..s_(d-1)
    must each be one rook element with coefficient 1, and right composition
    by them must reach all of IS_d from the identity.  `dim` is the number
    of elements reached, a lower bound on the rank of the image that equals
    it when the check passes.
    """
    images = rook_images(d)
    e = RookAlgebraElem.basis(d, rook_identity(d))
    t0 = images[0]
    checks = [record("(2 eps1 - e)^2 = e", t0 * t0 == e)]
    for i in range(1, d):
        checks.append(record(f"s{i}^2 = e", images[i] * images[i] == e))
    if d >= 2:
        s1 = images[1]
        checks.append(record("s0 s1 s0 s1 = s1 s0 s1 s0", t0 * s1 * t0 * s1 == s1 * t0 * s1 * t0))
        # key identity from the proof: eps1 s1 eps1 s1 = s1 eps1 s1 eps1 = identity on {3..d}
        ep = RookAlgebraElem.basis(d, eps1(d))
        lhs = ep * s1 * ep * s1
        rhs = s1 * ep * s1 * ep
        tail = RookAlgebraElem.basis(d, (0, 0) + tuple(range(3, d + 1)))
        checks.append(record("eps1 s1 eps1 s1 = s1 eps1 s1 eps1", lhs == rhs))
        checks.append(record("eps1 s1 eps1 s1 = identity on {3..d}", lhs == tail))
    for i in range(1, d - 1):
        a, b = images[i], images[i + 1]
        checks.append(record(f"s{i} s{i+1} s{i} = s{i+1} s{i} s{i+1}", a * b * a == b * a * b))
    for i in range(d):
        for j in range(i + 2, d):
            checks.append(record(f"s{i} s{j} = s{j} s{i}", images[i] * images[j] == images[j] * images[i]))

    # surjectivity: the monoid that eps_1 and s_1..s_(d-1), derived from the
    # images, generate lies in the image; distinct rook elements are a basis
    derived = [(t0 + e).scale(Fraction(1, 2))] + images[1:]
    monoid_gens = [r for x in derived for r, c in x.terms.items() if len(x.terms) == 1 and c == 1]
    reached = reach([rook_identity(d)], lambda x: (rook_compose(x, g) for g in monoid_gens))
    target = rook_monoid_order(d)
    checks.append(
        record(
            f"span of generated algebra = |IS_{d}| = {target}",
            len(monoid_gens) == len(derived) and len(reached) == target,
        )
    )

    return suite_result(checks, d=d, dim=len(reached))
