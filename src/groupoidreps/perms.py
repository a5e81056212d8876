"""Permutations of {1..d} in one-line notation (1-based tuples).

perm[i-1] is the image of i.  Composition is composition of maps:
compose(a, b) applies b first, then a.  `reach` is the one worklist walk
that every orbit and closure computation of the package runs on.
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations

__all__ = [
    "identity_perm",
    "compose_perms",
    "invert_perm",
    "perm_sign",
    "all_perms",
    "perm_to_word",
    "cycle_type_perm",
    "reach",
]


def identity_perm(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 1))


def compose_perms(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[bi - 1] for bi in b)


def invert_perm(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai - 1] = i + 1
    return tuple(inv)


def perm_sign(a: tuple[int, ...]) -> int:
    """Sign via cycle decomposition."""
    seen = [False] * len(a)
    sign = 1
    for i in range(len(a)):
        if not seen[i]:
            j = i
            clen = 0
            while not seen[j]:
                seen[j] = True
                j = a[j] - 1
                clen += 1
            if clen % 2 == 0:
                sign = -sign
    return sign


def all_perms(d: int):
    """All permutations of {1..d} in lexicographic one-line order."""
    return [tuple(p) for p in _itertools_permutations(range(1, d + 1))]


def adjacent_transposition(d: int, i: int) -> tuple[int, ...]:
    """s_i swapping i and i+1 (1 <= i <= d-1)."""
    p = list(range(1, d + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_to_word(a: tuple[int, ...]) -> list[int]:
    """Indices i with a = s_{i_1} o s_{i_2} o ... o s_{i_m} (applied right to left).

    Produced by bubble sort; the word length equals the inversion number.
    """
    a = list(a)
    rec: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                rec.append(i + 1)
                changed = True
    return rec[::-1]


def cycle_type_perm(lengths) -> tuple[int, ...]:
    """The permutation with consecutive cycles of the given lengths, p -> p + 1 within each and its last point back to its first."""
    perm: list[int] = []
    for r in lengths:
        start = len(perm) + 1
        perm += [*range(start + 1, start + r), start]
    return tuple(perm)


def reach(seeds, step) -> set:
    """Every element reachable from seeds, where step(x) yields the successors of x.

    The seeds are included.  The order of the walk is unspecified.
    """
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        for y in step(frontier.pop()):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached
