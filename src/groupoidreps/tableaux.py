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
from itertools import accumulate, permutations, product
from math import factorial, prod

from .perms import perm_sign, perm_to_word

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


IntMatrix = dict[tuple[int, int], int]


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


def _product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product ab of two sparse integer matrices."""
    rows_of_b: dict[int, list[tuple[int, int]]] = {}
    for (k, j), v in b.items():
        rows_of_b.setdefault(k, []).append((j, v))
    out: IntMatrix = {}
    for (i, k), u in a.items():
        for j, v in rows_of_b.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


class SpechtRep:
    """Young's natural representation of S_n on S_mu: sparse integer matrices in the polytabloid basis.

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
            self.gen_matrices[i] = {(r, c): x for c, v in enumerate(moved) for r, x in self._straighten(v, polys, leading).items()}

    def _straighten(self, vec: dict, polys, leading) -> dict[int, int]:
        """The nonzero integer coordinates of vec in the standard polytabloid basis, as {index: coefficient}."""
        coords = {}
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
        """Matrix of an arbitrary permutation: the product of gen_matrices along its adjacent-transposition word."""
        m = {(i, i): 1 for i in range(self.dim)}
        for i in perm_to_word(w):
            m = _product(m, self.gen_matrices[i])
        return m

    @cached_property
    def coxeter_relations_hold(self) -> bool:
        """Whether gen_matrices satisfy the Coxeter relations of S_n: (s_i s_j)^m = 1, m = 1 if i = j, 3 if |i - j| = 1, else 2."""
        g, one = self.gen_matrices, {(i, i): 1 for i in range(self.dim)}
        orders = {(i, j): 1 if i == j else 3 if j == i + 1 else 2 for i in g for j in g if i <= j}
        return all(reduce(_product, [_product(g[i], g[j])] * m) == one for (i, j), m in orders.items())


@lru_cache(maxsize=None)
def specht_rep(mu: Partition) -> SpechtRep:
    return SpechtRep(tuple(mu))


@lru_cache(maxsize=None)
def specht_character(mu: Partition, cycle_type: tuple[int, ...]) -> int:
    """chi^mu at the permutations of the given cycle lengths, by the Murnaghan-Nakayama rule.

    On the beta-set {mu_i + h - i} of mu (h parts), removing a rim hook of
    length r moves a bead b to the free position b - r >= 0, and the hook's
    leg length is the number of beads strictly between them.  So chi^mu(rho)
    is the sum over those moves of (-1)^leg chi^nu(rho less its part r), nu
    the partition left (Sagan, The Symmetric Group, 2nd ed., 4.10;
    James-Kerber, The Representation Theory of the Symmetric Group, 2.4).
    """
    if not cycle_type:
        return 1
    r, h = cycle_type[-1], len(mu)
    beta = {part + h - 1 - i for i, part in enumerate(mu)}
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            moved = sorted(beta - {b} | {b - r}, reverse=True)
            nu = tuple(c - (h - 1 - i) for i, c in enumerate(moved) if c > h - 1 - i)
            total += (-1) ** sum(b - r < c < b for c in beta) * specht_character(nu, cycle_type[:-1])
    return total


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
        self.dim = prod(c.dim for c in self.components)
        self.block_start = list(accumulate(lam, initial=0))[:-1]
        self._cache: dict[tuple[int, ...], IntMatrix] = {}

    def _local_perms(self, w: tuple[int, ...]):
        """(Specht factor, the restriction of w to its block) for each block."""
        for comp, start, size in zip(self.components, self.block_start, self.lam):
            local = tuple(w[start + i] - start for i in range(size))
            if any(not (1 <= x <= size) for x in local):
                raise ValueError("permutation does not preserve the blocks")
            yield comp, local

    def matrix_of_blockperm(self, w: tuple[int, ...]) -> IntMatrix:
        """Matrix of a permutation of {1..d} preserving each block: the Kronecker product of its factors' matrices, the first slowest."""
        w = tuple(w)
        cached = self._cache.get(w)
        if cached is not None:
            return cached
        m = {(0, 0): 1}
        for comp, local in self._local_perms(w):
            n = comp.dim
            m = {(i * n + k, j * n + l): u * v for (i, j), u in m.items() for (k, l), v in comp.matrix_of_perm(local).items()}
        self._cache[w] = m
        return m


@lru_cache(maxsize=None)
def outer_rep(p: MultiPartition, lam: Composition) -> OuterRep:
    return OuterRep(p, lam)
