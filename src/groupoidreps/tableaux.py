"""Partitions, tableaux and Specht modules in the polytabloid basis.

A Specht module S_mu is realized inside the permutation module spanned by
row-tabloids; the basis consists of the polytabloids e_T of standard Young
tableaux T.  Matrices of the adjacent transpositions s_1..s_{n-1} are
computed by expanding s_i * e_T = e_{s_i T} in the tabloid space and solving
exactly against the standard-polytabloid matrix.  Everything is exact over Q.

Outer tensor products realize the S_lambda-module S_p attached to a
multi-partition p of a composition lambda: the i-th block of positions acts
on the i-th tensor factor.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .cyclo import Cyc, LinSolver, Mat
from .perms import adjacent_transposition, perm_sign, perm_to_word

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


def _tabloid(tab) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(row)) for row in tab)


def _column_group(tab):
    """All (sign, entry relabeling dict) for the column group of tab."""
    cols = []
    ncols = max((len(r) for r in tab), default=0)
    for c in range(ncols):
        col = [row[c] for row in tab if len(row) > c]
        cols.append(col)
    combos = [(1, {})]
    for col in cols:
        new_combos = []
        for perm in permutations(range(len(col))):
            sgn = perm_sign(tuple(q + 1 for q in perm))
            mapping = {col[i]: col[perm[i]] for i in range(len(col))}
            for s0, m0 in combos:
                merged = dict(m0)
                merged.update(mapping)
                new_combos.append((s0 * sgn, merged))
        combos = new_combos
    return combos


class SpechtRep:
    """Exact matrices of S_n on the Specht module S_mu in the polytabloid basis."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.n = sum(shape)
        self.tableaux = standard_tableaux(shape)
        self.dim = len(self.tableaux)
        self._tabloid_index: dict = {}
        self._solver = None
        self._basis_vectors = None
        self.gen_matrices: dict[int, Mat] = {}
        self._perm_cache: dict[tuple[int, ...], Mat] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _poly_vector(self, tab) -> list[Cyc]:
        """Coordinates of the polytabloid e_tab in the tabloid basis."""
        vec = {}
        for sgn, relabel in _column_group(tab):
            moved = _tabloid(tuple(tuple(relabel.get(x, x) for x in row) for row in tab))
            vec[moved] = vec.get(moved, 0) + sgn
        out = [Cyc.zero(1)] * len(self._tabloid_index)
        for tbl, coeff in vec.items():
            if coeff:
                out[self._tabloid_index[tbl]] = Cyc.rational(1, coeff)
        return out

    def _build(self):
        # enumerate tabloids by letting S_n act on the canonical filling
        seen = {}
        base = []
        pos = 1
        for row_len in self.shape:
            base.append(tuple(range(pos, pos + row_len)))
            pos += row_len
        from itertools import permutations as iperm

        for p in iperm(range(1, self.n + 1)):
            tab = []
            idx = 0
            for row_len in self.shape:
                tab.append(tuple(p[idx : idx + row_len]))
                idx += row_len
            tbl = _tabloid(tab)
            if tbl not in seen:
                seen[tbl] = len(seen)
        self._tabloid_index = seen
        if self.n == 0:
            self._tabloid_index = {(): 0}
        self._basis_vectors = [self._poly_vector(t) for t in self.tableaux]
        self._solver = LinSolver(1, self._basis_vectors)
        if self._solver.rank != self.dim:
            raise RuntimeError("standard polytabloids must be independent")
        for i in range(1, self.n):
            self.gen_matrices[i] = self._matrix_of(adjacent_transposition(self.n, i))

    def _matrix_of(self, w: tuple[int, ...]) -> Mat:
        """Column j holds the coordinates of w * e_{T_j}."""
        cols = []
        for tab in self.tableaux:
            moved = tuple(tuple(w[x - 1] for x in row) for row in tab)
            coords = self._solver.express(self._poly_vector(moved))
            if coords is None:
                raise RuntimeError("permuted polytabloid left the Specht module")
            cols.append(coords)
        return Mat(1, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)])

    # -- queries -----------------------------------------------------------

    def matrix_of_perm(self, w: tuple[int, ...]) -> Mat:
        """Matrix of an arbitrary permutation, via its adjacent-transposition word."""
        w = tuple(w)
        cached = self._perm_cache.get(w)
        if cached is not None:
            return cached
        m = Mat.identity(1, self.dim)
        for i in perm_to_word(w):
            m = m * self.gen_matrices[i]
        self._perm_cache[w] = m
        return m


@lru_cache(maxsize=None)
def specht_rep(mu: Partition) -> SpechtRep:
    return SpechtRep(tuple(mu))


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
        self._cache: dict[tuple[int, ...], Mat] = {}

    def _local_perms(self, w: tuple[int, ...]):
        """(Specht factor, the restriction of w to its block) for each block."""
        for comp, start, size in zip(self.components, self.block_start, self.lam):
            local = tuple(w[start + i] - start for i in range(size))
            if any(not (1 <= x <= size) for x in local):
                raise ValueError("permutation does not preserve the blocks")
            yield comp, local

    def matrix_of_blockperm(self, w: tuple[int, ...]) -> Mat:
        """Matrix of a permutation of {1..d} preserving each block."""
        w = tuple(w)
        cached = self._cache.get(w)
        if cached is not None:
            return cached
        m = None
        for comp, local in self._local_perms(w):
            factor = comp.matrix_of_perm(local)
            m = factor if m is None else m.kron(factor)
        if m is None:
            m = Mat.identity(1, 1)
        self._cache[w] = m
        return m

    def trace_of_blockperm(self, w: tuple[int, ...]) -> int:
        """tr(A (x) B) = tr A * tr B, an integer: Young's natural representation is integral."""
        t = 1
        for comp, local in self._local_perms(w):
            tr = comp.matrix_of_perm(local).trace().rational_value()
            if tr.denominator != 1:
                raise ArithmeticError(f"Specht matrix of {local} has the non-integral trace {tr}")
            t *= tr.numerator
        return t


@lru_cache(maxsize=None)
def outer_rep(p: MultiPartition, lam: Composition) -> OuterRep:
    return OuterRep(p, lam)
