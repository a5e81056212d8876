"""The generalized symmetric group S(l,d) = C_l wr S_d as colored permutations.

An element is a pair (perm, colors): perm is a permutation of {1..d} in
one-line notation and colors[j] is the exponent of xi_l attached to position
j+1.  The associated monomial matrix is P_perm * diag(xi^colors), so each row
and column holds exactly one nonzero entry, an l-th root of unity, and group
multiplication matches matrix multiplication.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from typing import NamedTuple

from .perms import (
    adjacent_transposition,
    all_perms,
    compose_perms,
    identity_perm,
    invert_perm,
)
from .reporting import record

__all__ = [
    "WreathElem",
    "wreath_identity",
    "wreath_mul",
    "wreath_inv",
    "generators",
    "s0_j",
    "check_group_order",
    "enum_group",
    "check_presentation",
    "gkd_member",
    "gkd_elements",
    "gkd_generators",
    "embed_lower_rank",
]

DEFAULT_GROUP_CAP = 10**6


class WreathElem(NamedTuple):
    ell: int
    perm: tuple[int, ...]
    colors: tuple[int, ...]

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "colors": list(self.colors)}


def wreath_identity(ell: int, d: int) -> WreathElem:
    return WreathElem(ell, identity_perm(d), (0,) * d)


def wreath_mul(a: WreathElem, b: WreathElem) -> WreathElem:
    """Product of the monomial matrices: P_a D_a P_b D_b."""
    if a.ell != b.ell or len(a.perm) != len(b.perm):
        raise ValueError("elements come from different groups")
    ell = a.ell
    perm = compose_perms(a.perm, b.perm)
    colors = tuple((a.colors[b.perm[j] - 1] + b.colors[j]) % ell for j in range(len(b.perm)))
    return WreathElem(ell, perm, colors)


def wreath_inv(a: WreathElem) -> WreathElem:
    inv = invert_perm(a.perm)
    colors = tuple((-a.colors[inv[j] - 1]) % a.ell for j in range(len(a.perm)))
    return WreathElem(a.ell, inv, colors)


def generators(ell: int, d: int) -> list[WreathElem]:
    """s_0 (color at position 1) and the adjacent transpositions s_1..s_{d-1}."""
    if d < 1:
        raise ValueError("generators need d >= 1")
    gens = [WreathElem(ell, identity_perm(d), (1 % ell,) + (0,) * (d - 1))]
    for i in range(1, d):
        gens.append(WreathElem(ell, adjacent_transposition(d, i), (0,) * d))
    return gens


def s0_j(ell: int, d: int, j: int) -> WreathElem:
    """The diagonal element with exponent 1 at position j."""
    if not 1 <= j <= d:
        raise ValueError("position out of range")
    colors = [0] * d
    colors[j - 1] = 1 % ell
    return WreathElem(ell, identity_perm(d), tuple(colors))


def check_group_order(ell: int, d: int, cap: int = DEFAULT_GROUP_CAP) -> None:
    """Raise ResourceWarning when |S(l,d)| = l^d * d! exceeds cap."""
    order = ell**d * factorial(d)
    if order > cap:
        raise ResourceWarning(f"group order {order} exceeds cap {cap}")


def enum_group(ell: int, d: int, cap: int = DEFAULT_GROUP_CAP) -> list[WreathElem]:
    """All l^d * d! elements, ordered by (perm, colors)."""
    check_group_order(ell, d, cap)
    out = []
    for perm in all_perms(d):
        for colors in product(range(ell), repeat=d):
            out.append(WreathElem(ell, perm, colors))
    return out


def check_presentation(ell: int, d: int) -> list[dict]:
    """Verify every defining relation of S(l,d) on the concrete generators.

    Relations: s_0^l = e; s_i^2 = e; s_0 s_1 s_0 s_1 = s_1 s_0 s_1 s_0;
    the braid relations s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}; and
    commutation s_i s_j = s_j s_i for |i-j| > 1.
    """
    gens = generators(ell, d)
    e = wreath_identity(ell, d)

    def power(x, n):
        out = e
        for _ in range(n):
            out = wreath_mul(out, x)
        return out

    checks = [record("s0^l = e", power(gens[0], ell) == e)]
    for i in range(1, d):
        checks.append(record(f"s{i}^2 = e", wreath_mul(gens[i], gens[i]) == e))
    if d >= 2:
        s0, s1 = gens[0], gens[1]
        lhs = wreath_mul(wreath_mul(wreath_mul(s0, s1), s0), s1)
        rhs = wreath_mul(wreath_mul(wreath_mul(s1, s0), s1), s0)
        checks.append(record("s0 s1 s0 s1 = s1 s0 s1 s0", lhs == rhs))
    for i in range(1, d - 1):
        a, b = gens[i], gens[i + 1]
        checks.append(
            record(
                f"s{i} s{i+1} s{i} = s{i+1} s{i} s{i+1}",
                wreath_mul(wreath_mul(a, b), a) == wreath_mul(wreath_mul(b, a), b),
            )
        )
    for i in range(d):
        for j in range(i + 2, d):
            a, b = gens[i], gens[j]
            checks.append(record(f"s{i} s{j} = s{j} s{i}", wreath_mul(a, b) == wreath_mul(b, a)))
    return checks


def gkd_member(x: WreathElem, k: int) -> bool:
    """Membership in G(l,k,d): the product of the nonzero entries lies in C_{l/k}.

    Equivalently k divides the sum of the color exponents.  (The permutation
    part is unconstrained: every permutation matrix belongs to G(l,k,d).)
    """
    if k < 1 or x.ell % k != 0:
        raise ValueError("k must be a positive divisor of ell")
    return sum(x.colors) % k == 0


def gkd_elements(ell: int, k: int, d: int, cap: int = DEFAULT_GROUP_CAP) -> list[WreathElem]:
    return [x for x in enum_group(ell, d, cap) if gkd_member(x, k)]


def gkd_generators(ell: int, k: int, d: int) -> list[WreathElem]:
    """A generating set of G(l,k,d): s_1..s_{d-1}, s_0^k, and s_0^{-1} s_1 s_0."""
    if ell % k != 0:
        raise ValueError("k must divide ell")
    gens = generators(ell, d)
    e = wreath_identity(ell, d)
    out = list(gens[1:])
    s0k = e
    for _ in range(k):
        s0k = wreath_mul(s0k, gens[0])
    if s0k != e:
        out.append(s0k)
    if d >= 2:
        out.append(wreath_mul(wreath_mul(wreath_inv(gens[0]), gens[1]), gens[0]))
    if not out:
        out.append(e)
    return out


def embed_lower_rank(x: WreathElem, d: int) -> WreathElem:
    """Embed S(l,d') into S(l,d) for d' <= d via the first d' strands."""
    d0 = len(x.perm)
    if d0 > d:
        raise ValueError("cannot embed into a smaller group")
    perm = x.perm + tuple(range(d0 + 1, d + 1))
    colors = x.colors + (0,) * (d - d0)
    return WreathElem(x.ell, perm, colors)
