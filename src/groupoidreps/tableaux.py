"""Partitions, tableaux and Specht modules in the polytabloid basis.

A Specht module S_mu is spanned by the polytabloids e_T of the standard
Young tableaux T inside the permutation module on row-tabloids.  Young's
natural representation is integral (James, LNM 682): the matrices of the
adjacent transpositions s_1..s_{n-1} are computed over the integers by
straightening s_i * e_T = e_{s_i T} by leading tabloids (see SpechtRep), with
no elimination.  Matrices are tuples of int tuples; a module lifts them into
Q(xi_l) where it builds its action block.

The character of S_mu at a cycle type is the trace of the integer matrix of
one permutation of that type (`specht_character`), cached per pair.

Outer tensor products realize the S_lambda-module S_p attached to a
multi-partition p of a composition lambda: the i-th block of positions acts
on the i-th tensor factor.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from math import factorial
from operator import mul

from .perms import cycle_type_perm, perm_sign, perm_to_word

__all__ = [
    "partitions",
    "compositions",
    "multipartitions",
    "standard_tableaux",
    "hook_length_count",
    "removable_cells",
    "remove_cell",
    "SpechtRep",
    "specht_rep",
    "specht_character",
    "OuterRep",
    "outer_rep",
]

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]
Composition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic (largest part first)."""
    if n < 0:
        raise ValueError("partitions are indexed by nonnegative integers")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def grow(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(maxpart, remaining), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def compositions(ell: int, d: int) -> tuple[Composition, ...]:
    """All compositions of d with ell nonnegative parts, lexicographic."""
    if ell < 1:
        raise ValueError("need at least one part")
    if ell == 1:
        return ((d,),)
    out = []
    for first in range(d + 1):
        for rest in compositions(ell - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


def multipartitions(shape: Composition) -> list[MultiPartition]:
    """All tuples (p_1,...,p_ell) with p_i a partition of shape[i]."""
    return [tuple(choice) for choice in product(*(partitions(n) for n in shape))]


@lru_cache(maxsize=None)
def standard_tableaux(mu: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard Young tableaux of shape mu (entries 1..n), deterministic order.

    Generated by inserting 1..n in increasing order, trying rows top to bottom.
    The count is cross-checked against the hook length formula.
    """
    n = sum(mu)
    rows = len(mu)
    out = []

    def place(t: int, filled: tuple[int, ...], tab: tuple[tuple[int, ...], ...]):
        if t > n:
            out.append(tab)
            return
        for r in range(rows):
            if filled[r] < mu[r] and (r == 0 or filled[r - 1] > filled[r]):
                place(
                    t + 1,
                    filled[:r] + (filled[r] + 1,) + filled[r + 1 :],
                    tab[:r] + (tab[r] + (t,),) + tab[r + 1 :],
                )

    place(1, (0,) * rows, ((),) * rows)
    if len(out) != hook_length_count(mu):
        raise RuntimeError(f"standard tableaux of shape {mu} disagree with the hook length formula")
    return tuple(out)


def hook_length_count(mu: Partition) -> int:
    """Number of standard tableaux of shape mu, by the hook length formula."""
    n = sum(mu)
    prod_hooks = 1
    for r, row_len in enumerate(mu):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for rr in mu[r + 1 :] if rr > c)
            prod_hooks *= arm + leg + 1
    return factorial(n) // prod_hooks


def removable_cells(mu: Partition) -> list[tuple[int, int]]:
    """Cells (row, col), 0-based, whose removal leaves a partition."""
    cells = []
    for r, row_len in enumerate(mu):
        if row_len > 0 and (r + 1 == len(mu) or mu[r + 1] < row_len):
            cells.append((r, row_len - 1))
    return cells


def remove_cell(mu: Partition, cell: tuple[int, int]) -> Partition:
    r, _ = cell
    new = list(mu)
    new[r] -= 1
    if new[r] == 0:
        new.pop(r)
    return tuple(new)


IntMatrix = tuple[tuple[int, ...], ...]


def _row_vector(tab) -> tuple[int, ...]:
    """The tabloid {tab} as the row of each entry 1..n (0-based rows).

    A lexicographically smaller row vector is the larger tabloid; this total
    order refines the dominance order on tabloids.
    """
    rows = [0] * sum(len(row) for row in tab)
    for r, row in enumerate(tab):
        for x in row:
            rows[x - 1] = r
    return tuple(rows)


def _polytabloid(tab) -> dict[tuple[int, ...], int]:
    """e_tab = sum over the column group of sgn(sigma) {sigma tab}, as {row vector: coefficient}.

    A column permutation that fixes the tabloid fixes every entry, so the
    terms are distinct tabloids with coefficients +-1.
    """
    terms = [(1, list(_row_vector(tab)))]
    for c in range(len(tab[0]) if tab else 0):
        col = [row[c] for row in tab if len(row) > c]  # one entry in each of the rows 0..h-1
        moved = []
        for sigma in permutations(range(len(col))):
            sgn = perm_sign(tuple(q + 1 for q in sigma))
            for s0, rows in terms:
                rows = list(rows)
                for x, r in zip(col, sigma):
                    rows[x - 1] = r
                moved.append((s0 * sgn, rows))
        terms = moved
    return {tuple(rows): sgn for sgn, rows in terms}


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x * y for x in r for y in s) for r in a for s in b)


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class SpechtRep:
    """Young's natural representation of S_n on S_mu: integer matrices in the polytabloid basis.

    Straightening by leading tabloids: for a standard tableau T the largest
    tabloid of e_T (in an order refining dominance) is {T}, with coefficient
    1 (Sagan, The Symmetric Group, 2.5), and distinct standard tableaux have
    distinct tabloids.  So the largest tabloid of v = sum_T c_T e_T is {T}
    for the largest T with c_T != 0, and c_T is its coefficient: subtracting
    c_T e_T and repeating yields every coordinate, each an integer.  A
    largest tabloid that is {T} of no standard T means v is not in S_mu.
    The constructor checks the leading tabloids once.
    """

    def __init__(self, shape: Partition):
        self.shape = shape
        self.n = sum(shape)
        self.tableaux = standard_tableaux(shape)
        self.dim = len(self.tableaux)
        polys = [_polytabloid(tab) for tab in self.tableaux]
        leading = {}
        for j, (tab, poly) in enumerate(zip(self.tableaux, polys)):
            top = min(poly)
            if top != _row_vector(tab) or poly[top] != 1:
                raise RuntimeError(f"the largest tabloid of e_T is not {{T}} for the standard tableau {tab}")
            leading[top] = j
        self.gen_matrices: dict[int, IntMatrix] = {}
        for i in range(1, self.n):
            # s_i e_T: the entries i and i+1 swap rows in every tabloid
            moved = ({t[: i - 1] + (t[i], t[i - 1]) + t[i + 1 :]: c for t, c in poly.items()} for poly in polys)
            self.gen_matrices[i] = tuple(zip(*(self._straighten(v, polys, leading) for v in moved)))
        self._perm_cache: dict[tuple[int, ...], IntMatrix] = {}

    def _straighten(self, vec: dict, polys, leading) -> list[int]:
        """The integer coordinates of vec in the standard polytabloid basis."""
        coords = [0] * self.dim
        while vec:
            top = min(vec)
            j = leading.get(top)
            if j is None:
                raise RuntimeError("permuted polytabloid left the Specht module")
            c = coords[j] = vec[top]
            for tbl, a in polys[j].items():
                v = vec.get(tbl, 0) - c * a
                if v:
                    vec[tbl] = v
                else:
                    del vec[tbl]
        return coords

    # -- queries -----------------------------------------------------------

    def matrix_of_perm(self, w: tuple[int, ...]) -> IntMatrix:
        """Matrix of an arbitrary permutation, via its adjacent-transposition word."""
        w = tuple(w)
        cached = self._perm_cache.get(w)
        if cached is not None:
            return cached
        m = _identity(self.dim)
        for i in perm_to_word(w):
            m = _matmul(m, self.gen_matrices[i])
        self._perm_cache[w] = m
        return m

    @cached_property
    def coxeter_relations_hold(self) -> bool:
        """Whether gen_matrices satisfy the Coxeter relations of S_n: (s_i s_j)^m = 1, m = 1 if i = j, 3 if |i - j| = 1, else 2."""
        g, one = self.gen_matrices, _identity(self.dim)
        orders = {(i, j): 1 if i == j else 3 if j == i + 1 else 2 for i in g for j in g if i <= j}
        return all(reduce(_matmul, [_matmul(g[i], g[j])] * m) == one for (i, j), m in orders.items())


@lru_cache(maxsize=None)
def specht_rep(mu: Partition) -> SpechtRep:
    return SpechtRep(tuple(mu))


@lru_cache(maxsize=None)
def specht_character(mu: Partition, cycle_type: tuple[int, ...]) -> int:
    """chi^mu at the permutations of the given cycle lengths: the trace of the matrix of one of them."""
    m = specht_rep(mu).matrix_of_perm(cycle_type_perm(cycle_type))
    return sum(row[i] for i, row in enumerate(m))


class OuterRep:
    """The S_lambda-module S_p for a multi-partition p of shape lambda.

    Positions are grouped into contiguous blocks of sizes lambda_i; the i-th
    block acts on the i-th Kronecker factor (identity elsewhere).
    """

    def __init__(self, p: MultiPartition, lam: Composition):
        if len(p) != len(lam) or any(sum(pi) != li for pi, li in zip(p, lam)):
            raise ValueError("multi-partition does not fit the composition")
        self.p = tuple(tuple(pi) for pi in p)
        self.lam = tuple(lam)
        self.d = sum(lam)
        self.components = [specht_rep(pi) for pi in self.p]
        self.dim = 1
        for c in self.components:
            self.dim *= c.dim
        self.block_start = []
        pos = 0
        for li in lam:
            self.block_start.append(pos)
            pos += li
        self._cache: dict[tuple[int, ...], IntMatrix] = {}

    def _local_perms(self, w: tuple[int, ...]):
        """(Specht factor, the restriction of w to its block) for each block."""
        for comp, start, size in zip(self.components, self.block_start, self.lam):
            local = tuple(w[start + i] - start for i in range(size))
            if any(not (1 <= x <= size) for x in local):
                raise ValueError("permutation does not preserve the blocks")
            yield comp, local

    def matrix_of_blockperm(self, w: tuple[int, ...]) -> IntMatrix:
        """Matrix of a permutation of {1..d} preserving each block."""
        w = tuple(w)
        cached = self._cache.get(w)
        if cached is not None:
            return cached
        m, *rest = [comp.matrix_of_perm(local) for comp, local in self._local_perms(w)]
        for factor in rest:
            m = _kron(m, factor)
        self._cache[w] = m
        return m


@lru_cache(maxsize=None)
def outer_rep(p: MultiPartition, lam: Composition) -> OuterRep:
    return OuterRep(p, lam)
