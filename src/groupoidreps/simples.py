"""Simple modules of the groupoid algebra and their characters.

For a multi-partition p of shape lambda, the module L_p assigns the outer
Specht module S_p to every object of type lambda and zero to every other
object.  A morphism pi: f -> g (both of type lambda) acts through transport
to the canonical object b = f_lambda: the composite

    sigma_(g, b) o pi o sigma_(b, f)

is an endomorphism of b, i.e. an element of the block group S_lambda, and
acts on S_p by its outer-Specht matrix.

Characters are taken through the isomorphism with C[S(l,d)]: the character
of x is the trace of the action of Phi(x), read off its monomial form by
`phi_trace`, the one trace routine (the Gelfand model and the tensor space
use it too).  The diagonal blocks of Phi(x) sit at the objects g constant on
each cycle of x, and there the block acts by sigma_(g, g), an element of
End(g) = prod_c S_(lambda_c).  Its trace is a class function of that
product, so it depends only on the cycle lengths of x in each color of g:
`fixed_objects` lists the fixed objects by that End(g)-class, and each
module takes one block trace per class.  `simple_characters` evaluates
every simple at once, shape by shape: the modules of one shape share each
class's transport to the base, and each exponent-sum vector is reduced once
per walk.  A class function is a tuple in the order of its class list, and
`inner_product` is the one inner product; it reads each value's power-basis
numerators as exponent bins and reduces once per product.

Conjugacy classes come in closed form, with no group enumeration: the classes
of C_l wr S_d are indexed by colored cycle types, the multisets of (cycle
length r, color sum c mod l) with sum r = d, and the centralizer of a class
has order prod (r l)^m m! over its parts (r, c) of multiplicity m (Macdonald,
Symmetric Functions and Hall Polynomials, 2nd ed., ch. I, App. B).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, prod
from operator import add

from .cyclo import Cyc, Mat, intertwiners
from .groupoid import (
    GMorphism,
    canonical_morphism,
    canonical_object,
    component_generators,
    objects,
    type_of,
)
from .reporting import record, suite_result
from .tableaux import (
    compositions,
    multipartitions,
    outer_rep,
    removable_cells,
    remove_cell,
)
from .wreath import (
    WreathElem,
    embed_lower_rank,
    wreath_mul,  # noqa: F401  (unused here; perfbench/tests patch simples.wreath_mul)
)

__all__ = [
    "SimpleModule",
    "all_simples",
    "build_simple",
    "colored_classes",
    "conjugacy_classes",
    "fixed_objects",
    "phi_trace",
    "simple_characters",
    "character_table",
    "inner_product",
    "total_dim_check",
    "young_induction_check",
    "verify_complete",
    "branching_report",
    "removable_node_restrictions",
]


def _lift(ell: int, ints, r0: int = 0, c0: int = 0):
    """The nonzero entries of an integer matrix placed at (r0, c0), as ((i, j), Cyc) in Q(xi_l)."""
    return (((i, j), Cyc.rational(ell, v)) for i, row in enumerate(ints, r0) for j, v in enumerate(row, c0) if v)


class SimpleModule:
    """The simple module L_p, stored block-per-object (the functor view)."""

    def __init__(self, ell: int, d: int, p):
        self.ell = ell
        self.d = d
        self.p = tuple(tuple(pi) for pi in p)
        self.lam = tuple(sum(pi) for pi in self.p)
        if len(self.lam) != ell or sum(self.lam) != d:
            raise ValueError("multi-partition does not match (ell, d)")
        self.outer = outer_rep(self.p, self.lam)
        self.block_dim = self.outer.dim
        self.base = canonical_object(self.lam)
        objs, self._from_base, self._to_base = _shape_transports(ell, self.lam)
        self.objects = list(objs)
        self.block_index = {f: i for i, f in enumerate(self.objects)}
        self.total_dim = self.block_dim * len(self.objects)
        self._mat_cache: dict[tuple[int, ...], Mat] = {}
        self._trace_cache: dict[tuple[int, ...], int] = {}

    # -- the action --------------------------------------------------------

    def transported(self, m: GMorphism) -> tuple[int, ...]:
        """The S_lambda element sigma_(g,b) o pi o sigma_(b,f) for pi = m."""
        to_base, from_base, perm = self._to_base[m.target], self._from_base[m.source], m.perm
        return tuple(to_base[perm[j - 1] - 1] for j in from_base)

    def action_block(self, m: GMorphism) -> Mat:
        """The block matrix of a basis morphism (source and target of type lambda)."""
        w = self.transported(m)
        cached = self._mat_cache.get(w)
        if cached is None:
            lifted = _lift(self.ell, self.outer.matrix_of_blockperm(w))
            cached = self._mat_cache[w] = Mat.from_entries(self.ell, self.block_dim, self.block_dim, lifted)
        return cached

    def act_alg(self, a) -> Mat:
        """Total matrix of an algebra element on the direct sum of blocks."""
        bd = self.block_dim
        entries = []
        for m, coeff in a.terms.items():
            if m.source in self.block_index and m.target in self.block_index:
                r0, c0 = self.block_index[m.target] * bd, self.block_index[m.source] * bd
                entries += ((ij, coeff * v) for ij, v in self.action_block(m).entries(r0, c0))
        return Mat.from_entries(self.ell, self.total_dim, self.total_dim, entries)

    def trace_of(self, w: tuple[int, ...]) -> int:
        """The trace of the S_lambda element w on S_p."""
        t = self._trace_cache.get(w)
        if t is None:
            t = self._trace_cache[w] = self.outer.trace_of_blockperm(w)
        return t

    def block_trace(self, g, perm: tuple[int, ...]) -> int:
        """The trace of the endomorphism of g with permutation perm on its block."""
        return self.trace_of(self.transported(GMorphism(g, g, perm)))

    def char_wreath(self, x: WreathElem) -> Cyc:
        """Character of x in C[S(l,d)]: the trace of the action of Phi(x), by phi_trace."""
        return phi_trace(x, self.block_trace, self.lam)

    def label_json(self) -> list:
        return [list(pi) for pi in self.p]

    def __repr__(self) -> str:
        return f"SimpleModule(ell={self.ell}, d={self.d}, p={self.p}, dim={self.total_dim})"


@lru_cache(maxsize=None)
def _shape_transports(ell: int, lam: tuple[int, ...]) -> tuple[tuple, dict, dict]:
    """Objects of type lam, with the perms of sigma_(b,f) and sigma_(f,b), b = f_lam."""
    base = canonical_object(lam)
    objs = tuple(f for f in objects(ell, sum(lam)) if type_of(f, ell) == lam)
    from_base = {f: canonical_morphism(base, f, ell).perm for f in objs}
    to_base = {f: canonical_morphism(f, base, ell).perm for f in objs}
    return objs, from_base, to_base


@lru_cache(maxsize=None)
def build_simple(ell: int, d: int, p) -> SimpleModule:
    return SimpleModule(ell, d, p)


@lru_cache(maxsize=None)
def all_simples(ell: int, d: int) -> tuple[SimpleModule, ...]:
    """One simple module per multi-partition, compositions in lexicographic order."""
    out = []
    for lam in compositions(ell, d):
        for p in multipartitions(lam):
            out.append(build_simple(ell, d, p))
    return tuple(out)


def _cycle_types(ell: int, d: int):
    """The colored cycle types of S(l,d): tuples of parts (r, c), nondecreasing, with sum r = d."""
    parts = [(r, c) for r in range(1, d + 1) for c in range(ell)]

    def grow(remaining: int, start: int, prefix: tuple):
        if not remaining:
            yield prefix
        for i in range(start, len(parts)):
            if parts[i][0] > remaining:
                break
            yield from grow(remaining - parts[i][0], i, prefix + (parts[i],))

    return grow(d, 0, ())


def colored_classes(ell: int, d: int):
    """(cycle type, representative, class size) for each conjugacy class of S(l,d).

    The representative has consecutive cycles, position p -> p + 1 within
    each and the last strand back to the first, with color c on the first
    strand of each cycle.  The class size is l^d d! / prod (r l)^m m!, m the
    multiplicity of the part (r, c).  The identity's class comes first.
    """
    order = ell**d * factorial(d)
    for cycles in _cycle_types(ell, d):
        perm, colors = [], []
        for r, c in cycles:
            start = len(perm) + 1
            perm += [*range(start + 1, start + r), start]
            colors += [c] + [0] * (r - 1)
        centralizer = prod((r * ell) ** m * factorial(m) for (r, _c), m in Counter(cycles).items())
        yield cycles, WreathElem(ell, tuple(perm), tuple(colors)), order // centralizer


@lru_cache(maxsize=None)
def conjugacy_classes(ell: int, d: int) -> tuple[tuple[WreathElem, int], ...]:
    """(representative, class size) pairs, one per colored cycle type (see colored_classes)."""
    return tuple((rep, size) for _cycles, rep, size in colored_classes(ell, d))


@lru_cache(maxsize=None)
def _colorings(ell: int, m: int) -> tuple[tuple[tuple[int, ...], int, int, tuple[int, ...]], ...]:
    """(n, m!/prod n_a!, sum a n_a, the colors a repeated n_a times) per composition n of m into l parts."""
    out = []
    for n in compositions(ell, m):
        colors = tuple(a for a, na in enumerate(n, 1) for _ in range(na))
        out.append((n, factorial(m) // prod(map(factorial, n)), sum(colors), colors))
    return tuple(out)


@lru_cache(maxsize=1)
def fixed_objects(x: WreathElem) -> dict[tuple[int, ...], tuple]:
    """The objects g with g o perm = g, one representative per End(g)-class.

    g is fixed exactly when it is constant on each cycle of perm.  Cycles of
    one kind (length r, color sum c) are interchangeable, so the colorings
    of a kind with m cycles come in groups, one per composition n of m into
    l parts (n_a cycles of color a), each of m!/prod n_a! objects; a group
    adds c * sum a n_a to the exponent sum_j c_j g(j).  Groups with equal
    cycle lengths in every color give conjugate endomorphisms sigma_(g, g),
    so they are merged: the result maps each type lambda to (g, counts)
    pairs, one per such class, counts[e] being the number of its objects
    with exponent e mod l.  The cache holds one element, since the modules
    evaluated at one element share its groups.
    """
    ell, perm, colors = x
    kinds: dict[tuple[int, int], list[list[int]]] = {}
    seen = [False] * len(perm)
    for start in range(len(perm)):
        cycle, c, p = [], 0, start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            c += colors[p]
            p = perm[p] - 1
        if cycle:
            kinds.setdefault((len(cycle), c % ell), []).append(cycle)
    # per-color cycle lengths -> (colors of the cycles so far, counts per exponent);
    # kinds come in increasing r, so appending keeps each color's lengths sorted
    groups = {((),) * ell: ((), [1] + [0] * (ell - 1))}
    for (r, c), cycles in sorted(kinds.items()):
        merged = {}
        for n, size, weight, coloring in _colorings(ell, len(cycles)):
            added, shift = tuple((r,) * na for na in n), c * weight
            for lengths, (assigned, counts) in groups.items():
                key = tuple(map(add, lengths, added))
                if key not in merged:
                    merged[key] = (assigned + coloring, [0] * ell)
                bins = merged[key][1]
                for e, cnt in enumerate(counts):
                    if cnt:
                        bins[(e + shift) % ell] += size * cnt
        groups = merged
    order = [cycle for _kind, cycles in sorted(kinds.items()) for cycle in cycles]
    out: dict[tuple[int, ...], list] = {}
    for lengths, (assigned, counts) in groups.items():
        g = [0] * len(perm)
        for cycle, a in zip(order, assigned):
            for p in cycle:
                g[p] = a
        out.setdefault(tuple(map(sum, lengths)), []).append((tuple(g), tuple(counts)))
    return {lam: tuple(pairs) for lam, pairs in out.items()}


def phi_trace(x: WreathElem, block_trace, lam=None) -> Cyc:
    """The trace of Phi(x) on a module with one block per object of type lam (None: every object).

    The term of Phi(x) at g is xi^e sigma_(g o perm, g), a diagonal block
    exactly when g o perm = g, and then e = sum_j c_j g(j).  block_trace(g,
    perm) is the integer trace of sigma_(g, g) on the block at g.  The
    module is a functor, so that trace is a class function of End(g) =
    prod_c S_(lambda_c): it depends only on the cycle lengths of perm in each
    color of g.  It is taken once per such class of fixed objects
    (`fixed_objects`), weighted by the class's count in each exponent bin,
    and the bins are reduced once.
    """
    ell, perm = x.ell, x.perm
    groups = fixed_objects(x)
    chosen = groups.get(lam, ()) if lam is not None else chain.from_iterable(groups.values())
    sums = [0] * ell
    for g, counts in chosen:
        tr = block_trace(g, perm)
        if tr:
            for e, n in enumerate(counts):
                sums[e] += tr * n
    return Cyc.from_exponent_sums(ell, sums)


def inner_product(classes, alpha, beta_bar) -> Cyc:
    """(1/|G|) sum_x alpha(x) beta_bar(x) over G, |G| the sum of the class sizes.

    classes is a (representative, size) list, alpha and beta_bar are tuples in
    its order, and beta_bar is beta already conjugated (xi -> xi^(-1)), so a
    character paired with many others is conjugated once.

    A value's numerators are its coefficients at xi^0..xi^(phi(l)-1), so they
    are exponent bins (Fractions over den when den != 1; the bins from
    phi(l) to l - 1 are zero).  size * a_i * b_j goes into bin (i + j) mod l,
    and the bins are reduced and scaled by 1/|G| once.
    """
    ell = classes[0][0].ell
    bins = [0] * ell
    for (_rep, size), a, b in zip(classes, alpha, beta_bar):
        b_bins = _exponent_bins(b)
        for i, ai in enumerate(_exponent_bins(a)):
            if ai:
                ai *= size
                for j, bj in enumerate(b_bins, i):
                    if bj:
                        bins[j % ell] += ai * bj
    return Cyc.from_exponent_sums(ell, bins).scale(Fraction(1, sum(size for _rep, size in classes)))


def _exponent_bins(v: Cyc):
    """The numerators of v as rationals: ints when den = 1, else Fractions over den."""
    return v.num if v.den == 1 else [Fraction(n, v.den) for n in v.num]


def simple_characters(ell: int, d: int, xs):
    """The simple characters of (l, d) at each element of xs, class-major: one tuple per element, in all_simples order.

    Each value is its module's phi_trace.  Each End(g)-class of fixed objects
    of type lambda is transported once, to w, for all modules of shape
    lambda; equal exponent-sum vectors are reduced once and equal values
    share one Cyc.
    """
    shapes: dict[tuple[int, ...], list[SimpleModule]] = {}
    for m in all_simples(ell, d):
        shapes.setdefault(m.lam, []).append(m)
    reduced: dict[tuple[int, ...], Cyc] = {}
    shared: dict[Cyc, Cyc] = {}
    for x in xs:
        groups, row = fixed_objects(x), []
        for lam, mods in shapes.items():
            transported = [
                (mods[0].transported(GMorphism(g, g, x.perm)), [(e, n) for e, n in enumerate(counts) if n])
                for g, counts in groups.get(lam, ())
            ]
            for m in mods:
                bins = [0] * ell
                for w, counts in transported:
                    tr = m.trace_of(w)
                    if tr:
                        for e, n in counts:
                            bins[e] += tr * n
                bins = tuple(bins)
                v = reduced.get(bins)
                if v is None:
                    v = Cyc.from_exponent_sums(ell, bins)
                    v = reduced[bins] = shared.setdefault(v, v)
                row.append(v)
        yield tuple(row)


@lru_cache(maxsize=None)
def character_table(ell: int, d: int) -> tuple[tuple[Cyc, ...], ...]:
    """The simple characters at (l, d), in all_simples order, on conjugacy_classes(l, d).

    One simple_characters walk over the class representatives, so equal
    values share one Cyc, which keeps the cached table small: at (4, 4) its
    11025 entries take 63 distinct values.
    """
    return tuple(zip(*simple_characters(ell, d, [rep for rep, _size in conjugacy_classes(ell, d)])))


def total_dim_check(mod: SimpleModule) -> bool:
    """Total dimension equals (d!/lambda!) * dim S_p exactly."""
    lam_fact = 1
    for li in mod.lam:
        lam_fact *= factorial(li)
    return mod.total_dim == factorial(mod.d) // lam_fact * mod.block_dim


def young_induction_check(mod: SimpleModule, f) -> bool:
    """|S(l,d)| / |G^f| * dim L_p(f) = total dim, G^f the generalized Young subgroup."""
    f = tuple(f)
    if type_of(f, mod.ell) != mod.lam:
        raise ValueError("object type does not match the module's shape")
    gf_order = 1
    for li in mod.lam:
        gf_order *= mod.ell**li * factorial(li)
    group_order = mod.ell**mod.d * factorial(mod.d)
    return group_order // gf_order * mod.block_dim == mod.total_dim


def _commutant_dim(mod: SimpleModule) -> int:
    """Exact dimension of {X : X L(m) = L(m) X for all basis morphisms m}.

    X commutes with every e_f, hence is block diagonal; the unknowns are the
    per-object blocks X_f.  Only the component generators are imposed: they
    generate every morphism, and in any case the commutant of a subset
    contains the full one, so dimension 1 on them proves dimension 1.
    """
    index, bd = mod.block_index, mod.block_dim
    actions = (
        (index[m.source], index[m.target], a, a)
        for m in component_generators(mod.ell, mod.lam)
        for a in [mod.action_block(m)]
    )
    return len(intertwiners(mod.ell, [bd] * len(index), [bd] * len(index), actions))


def verify_complete(ell: int, d: int) -> dict:
    """Completeness: Wedderburn count, irreducibility, pairwise distinctness."""
    mods = all_simples(ell, d)
    checks = []

    total = sum(m.total_dim**2 for m in mods)
    expected = ell**d * factorial(d)
    checks.append(
        record(
            "wedderburn sum of squares",
            total == expected,
            {"sum": total, "group_order": expected, "dims": [m.total_dim for m in mods]},
        )
    )

    eq5 = all(total_dim_check(m) for m in mods)
    checks.append(record("total dim = (d!/lam!) dim S_p", eq5))

    bad = [m.label_json() for m in mods if _commutant_dim(m) != 1]
    checks.append(record("commutant of each simple has dim 1", not bad, {"failures": bad}))

    chars = character_table(ell, d)
    distinct = len({tuple(v.coeffs for v in c) for c in chars})
    checks.append(
        record(
            "characters pairwise distinct",
            distinct == len(mods),
            {"distinct": distinct, "count": len(mods)},
        )
    )
    return suite_result(checks, ell=ell, d=d, simple_count=len(mods))


def removable_node_restrictions(p) -> list[tuple[tuple[int, ...], ...]]:
    """Multi-partitions obtained by removing one removable node from one part."""
    out = []
    for i, part in enumerate(p):
        for cell in removable_cells(part):
            q = list(p)
            q[i] = remove_cell(part, cell)
            out.append(tuple(q))
    return out


def restriction_multiplicities(mod: SimpleModule) -> dict:
    """Decompose the restriction to S(l,d-1) by exact character inner products.

    Maps the label of each constituent to its multiplicity: an int, or the
    exact inner product when that is not an integer (a wrong character).
    """
    labels = [m.p for m in all_simples(mod.ell, mod.d)]
    return _restriction_decomposition(mod.ell, mod.d, _restrictions_bar(mod.ell, mod.d)[labels.index(mod.p)])


def _restrictions_bar(ell: int, d: int) -> list[tuple[Cyc, ...]]:
    """The conjugated restriction of every simple character of (l, d), in all_simples order, on the classes of S(l,d-1)."""
    if d < 1:
        raise ValueError("branching needs d >= 1")
    xs = [embed_lower_rank(y, d) for y, _size in conjugacy_classes(ell, d - 1)]
    return list(zip(*([v.conjugate() for v in row] for row in simple_characters(ell, d, xs))))


def _restriction_decomposition(ell: int, d: int, chi_res_bar) -> dict:
    """restriction_multiplicities from a conjugated restricted character."""
    classes = conjugacy_classes(ell, d - 1)
    mults = {}
    for sub, chi_sub in zip(all_simples(ell, d - 1), character_table(ell, d - 1)):
        val = inner_product(classes, chi_sub, chi_res_bar).conjugate()  # <chi_res, chi_sub> = conj <chi_sub, chi_res>
        if not val.is_zero():
            integral = val.is_rational() and val.rational_value().denominator == 1
            mults[sub.p] = int(val.rational_value()) if integral else val
    return mults


def branching_report(ell: int, d: int) -> dict:
    """Restriction of every simple equals its removable-node multiset, multiplicity-free."""
    checks = []
    mods = all_simples(ell, d)
    for mod, chi_res_bar in zip(mods, _restrictions_bar(ell, d)):
        mults = _restriction_decomposition(ell, d, chi_res_bar)
        expected = removable_node_restrictions(mod.p)
        ok = (
            all(v == 1 for v in mults.values())
            and sorted(mults.keys()) == sorted(expected)
        )
        details = {
            "restriction": sorted([list(map(list, q)) for q in mults.keys()]),
            "expected": sorted([list(map(list, q)) for q in expected]),
        }
        non_integral = sorted([list(map(list, q)) for q, v in mults.items() if not isinstance(v, int)])
        if non_integral:
            details["non_integral"] = non_integral
        checks.append(record(f"branching of {mod.label_json()}", ok, details))
    return suite_result(checks, ell=ell, d=d)
