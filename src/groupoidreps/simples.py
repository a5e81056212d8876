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
End(g) = prod_c S_(lambda_c) whose restriction to color c has the cycle
type mu_c of the cycles of x on which g takes color c.  The module is a
functor, so the block trace is a class function of that product:

    tr sigma_(g, g) = prod_c chi_c(mu_c),

chi_c a class function of S_(lambda_c) (Macdonald, Symmetric Functions and
Hall Polynomials, 2nd ed., App. B).  On L_p it is the Specht character
chi^(p_c), read once per (p_c, mu_c) from the integer matrix of one
permutation of type mu_c (`tableaux.specht_character`).  `fixed_objects`
lists, per type lambda, the per-color cycle types (mu_c) of the fixed
objects with their counts per exponent, without building an object, and
each module takes one block trace per entry.  `simple_characters` evaluates
every simple at once, shape by shape: one trace vector per (lambda, cycle
types), shared by all modules of that shape, and each exponent-sum vector
is reduced once per walk.  A class function is a tuple in the order of its
class list, and `inner_products` is the one inner product; it pairs whole
tables, reading each value's power-basis numerators as exponent bins once,
and reduces once per pair.

Conjugacy classes come in closed form, with no group enumeration: the classes
of C_l wr S_d are indexed by colored cycle types, the multisets of (cycle
length r, color sum c mod l) with sum r = d, and the centralizer of a class
has order prod (r l)^m m! over its parts (r, c) of multiplicity m (Macdonald,
ch. I, App. B).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, repeat
from math import factorial, prod
from operator import add, mul

from .cyclo import Cyc, Mat, intertwiners
from .groupoid import (
    GMorphism,
    canonical_morphism,
    canonical_object,
    component_generators,
    objects,
    type_of,
)
from .perms import cycle_type_perm
from .reporting import record, suite_result
from .tableaux import (
    compositions,
    multipartitions,
    outer_rep,
    partitions,
    removable_cells,
    remove_cell,
    specht_character,
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
    "inner_products",
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
        self.objects = list(_objects_by_type(ell, d)[self.lam])
        self.block_index = {f: i for i, f in enumerate(self.objects)}
        self.total_dim = self.block_dim * len(self.objects)
        self._mat_cache: dict[tuple[int, ...], Mat] = {}

    # -- the action --------------------------------------------------------

    def transported(self, m: GMorphism) -> tuple[int, ...]:
        """The S_lambda element sigma_(g,b) o pi o sigma_(b,f) for pi = m."""
        from_base, to_base = _shape_transports(self.ell, self.lam)
        to_b, from_b, perm = to_base[m.target], from_base[m.source], m.perm
        return tuple(to_b[perm[j - 1] - 1] for j in from_b)

    def action_block(self, m: GMorphism) -> Mat:
        """The block matrix of a basis morphism (source and target of type lambda)."""
        w = self.transported(m)
        cached = self._mat_cache.get(w)
        if cached is None:
            lifted = _lift(self.ell, self.outer.matrix_of_blockperm(w))
            cached = self._mat_cache[w] = Mat.from_entries(self.ell, self.block_dim, self.block_dim, lifted)
        return cached

    def block_trace(self, cycle_types) -> int:
        """The trace on a block of an endomorphism with cycle type cycle_types[c] in color c: prod_c chi^(p_c)."""
        return prod(map(specht_character, self.p, cycle_types))

    def char_wreath(self, x: WreathElem) -> Cyc:
        """Character of x in C[S(l,d)]: the trace of the action of Phi(x), by phi_trace."""
        return phi_trace(x, self.block_trace, self.lam)

    def label_json(self) -> list:
        return [list(pi) for pi in self.p]

    def __repr__(self) -> str:
        return f"SimpleModule(ell={self.ell}, d={self.d}, p={self.p}, dim={self.total_dim})"


@lru_cache(maxsize=None)
def _objects_by_type(ell: int, d: int) -> dict[tuple[int, ...], tuple]:
    """The objects of (l, d) by type, each in lexicographic order."""
    out: dict[tuple[int, ...], list] = {}
    for f in objects(ell, d):
        out.setdefault(type_of(f, ell), []).append(f)
    return {lam: tuple(fs) for lam, fs in out.items()}


@lru_cache(maxsize=None)
def _shape_transports(ell: int, lam: tuple[int, ...]) -> tuple[dict, dict]:
    """The perms of sigma_(b,f) and sigma_(f,b), b = f_lam, for the objects f of type lam.

    Only the action needs them, so a module whose characters alone are read
    never builds them.
    """
    base = canonical_object(lam)
    objs = _objects_by_type(ell, sum(lam))[lam]
    from_base = {f: canonical_morphism(base, f, ell).perm for f in objs}
    to_base = {f: canonical_morphism(f, base, ell).perm for f in objs}
    return from_base, to_base


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
        colors = [v for r, c in cycles for v in (c, *repeat(0, r - 1))]
        centralizer = prod((r * ell) ** m * factorial(m) for (r, _c), m in Counter(cycles).items())
        yield cycles, WreathElem(ell, cycle_type_perm(r for r, _c in cycles), tuple(colors)), order // centralizer


@lru_cache(maxsize=None)
def conjugacy_classes(ell: int, d: int) -> tuple[tuple[WreathElem, int], ...]:
    """(representative, class size) pairs, one per colored cycle type (see colored_classes)."""
    return tuple((rep, size) for _cycles, rep, size in colored_classes(ell, d))


@lru_cache(maxsize=None)
def _colorings(ell: int, m: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(n, m!/prod n_a!, sum a n_a) per composition n of m into l parts."""
    return tuple(
        (n, factorial(m) // prod(map(factorial, n)), sum(map(mul, n, range(1, ell + 1)))) for n in compositions(ell, m)
    )


@lru_cache(maxsize=1)
def fixed_objects(x: WreathElem) -> dict[tuple[int, ...], tuple]:
    """The objects g with g o perm = g, by type and per-color cycle types.

    g is fixed exactly when it is constant on each cycle of perm, and then
    sigma_(g, g) has, in each color c, the cycle type of the cycles of perm
    on which g takes color c.  Cycles of one kind (length r, color sum c)
    are interchangeable, so the colorings of a kind with m cycles come in
    groups, one per composition n of m into l parts (n_a cycles of color a),
    each of m!/prod n_a! objects; a group adds c * sum a n_a to the exponent
    sum_j c_j g(j).  Groups with equal cycle types in every color are
    merged, and no object is built: the result maps each type lambda to
    (cycle types, counts) pairs, cycle_types[c] the nondecreasing lengths
    in color c + 1 and counts[e] the number of such objects with exponent
    e mod l.  The cache holds one element, since the modules evaluated at
    one element share its groups.
    """
    ell, perm, colors = x
    kinds: Counter[tuple[int, int]] = Counter()
    seen = [False] * len(perm)
    for start in range(len(perm)):
        r, c, p = 0, 0, start
        while not seen[p]:
            seen[p] = True
            r += 1
            c += colors[p]
            p = perm[p] - 1
        if r:
            kinds[r, c % ell] += 1
    # per-color cycle lengths -> counts per exponent; kinds come in
    # increasing r, so appending keeps each color's lengths sorted
    groups = {((),) * ell: [1] + [0] * (ell - 1)}
    for (r, c), m in sorted(kinds.items()):
        merged: dict[tuple, list[int]] = {}
        for n, size, weight in _colorings(ell, m):
            added, shift = tuple((r,) * na for na in n), c * weight % ell
            for lengths, counts in groups.items():
                key = tuple(map(add, lengths, added))
                # the counts moved up by shift exponents, times size
                moved = [size * cnt for cnt in counts[-shift:] + counts[:-shift]]
                bins = merged.get(key)
                merged[key] = moved if bins is None else list(map(add, bins, moved))
        groups = merged
    out: dict[tuple[int, ...], list] = {}
    for lengths, counts in groups.items():
        out.setdefault(tuple(map(sum, lengths)), []).append((lengths, tuple(counts)))
    return {lam: tuple(pairs) for lam, pairs in out.items()}


def phi_trace(x: WreathElem, block_trace, lam=None) -> Cyc:
    """The trace of Phi(x) on a module with one block per object of type lam (None: every object).

    The term of Phi(x) at g is xi^e sigma_(g o perm, g), a diagonal block
    exactly when g o perm = g, and then e = sum_j c_j g(j).  The module is a
    functor, so the integer trace of sigma_(g, g) on the block at g is a
    class function of End(g) = prod_c S_(lambda_c): block_trace(cycle_types)
    takes the per-color cycle types of sigma_(g, g).  It is taken once per
    entry of `fixed_objects`, weighted by the entry's count in each exponent
    bin, and the bins are reduced once.
    """
    ell = x.ell
    groups = fixed_objects(x)
    chosen = groups.get(lam, ()) if lam is not None else chain.from_iterable(groups.values())
    sums = [0] * ell
    for cycle_types, counts in chosen:
        tr = block_trace(cycle_types)
        if tr:
            for e, n in enumerate(counts):
                sums[e] += tr * n
    return Cyc.from_exponent_sums(ell, sums)


def inner_products(classes, alphas, betas_bar) -> list[tuple[Cyc, ...]]:
    """<alpha, beta> = (1/|G|) sum_x alpha(x) beta_bar(x) over G for every alpha of alphas and beta_bar of betas_bar.

    classes is a (representative, size) list, |G| the sum of the sizes,
    and each class function a tuple in its order; each beta_bar is beta
    already conjugated (xi -> xi^(-1)), so a character paired with many
    others is conjugated once.  Row i of the result pairs alphas[i] with
    every beta_bar, in order.

    A value's numerators are its coefficients at xi^0..xi^(phi(l)-1), so they
    are exponent bins (Fractions over den when den != 1).  Each class
    function is read once, as one column over the classes per bin (times
    the class size on the alpha side); a pair adds the dot product of
    column i of alpha and column j of beta_bar into bin (i + j) mod l, and
    its bins are reduced and scaled by 1/|G| once.
    """
    ell = classes[0][0].ell
    sizes = [size for _rep, size in classes]
    weight = Fraction(1, sum(sizes))

    def columns(f, weights=None):
        cols = zip(*map(_exponent_bins, f))
        if weights is not None:
            cols = (tuple(map(mul, col, weights)) for col in cols)
        return [(i, col) for i, col in enumerate(cols) if any(col)]

    alpha_cols = [columns(alpha, sizes) for alpha in alphas]
    beta_cols = [columns(beta_bar) for beta_bar in betas_bar]
    out = []
    for a_cols in alpha_cols:
        row = []
        for b_cols in beta_cols:
            bins = [0] * ell
            for i, a in a_cols:
                for j, b in b_cols:
                    bins[(i + j) % ell] += sum(map(mul, a, b))
            row.append(Cyc.from_exponent_sums(ell, bins).scale(weight))
        out.append(tuple(row))
    return out


def _exponent_bins(v: Cyc):
    """The numerators of v as rationals: ints when den = 1, else Fractions over den."""
    return v.num if v.den == 1 else [Fraction(n, v.den) for n in v.num]


@lru_cache(maxsize=None)
def _shape_traces(lam: tuple[int, ...], cycle_types) -> tuple[int, ...]:
    """The block_trace(cycle_types) of every simple of shape lam, in multipartitions(lam) order: products of one Specht character per color."""
    per_color = [[specht_character(mu, t) for mu in partitions(n)] for n, t in zip(lam, cycle_types)]
    return tuple(map(prod, product(*per_color)))


def simple_characters(ell: int, d: int, xs):
    """The simple characters of (l, d) at each element of xs, class-major: one tuple per element, in all_simples order.

    Each value is its module's phi_trace.  The modules of one shape lambda
    read one trace vector per (lambda, cycle types) entry of fixed_objects;
    equal exponent-sum vectors are reduced once and equal values share one
    Cyc.
    """
    shapes = Counter(m.lam for m in all_simples(ell, d))
    reduced: dict[tuple[int, ...], Cyc] = {}
    shared: dict[Cyc, Cyc] = {}
    for x in xs:
        groups, row = fixed_objects(x), []
        for lam, count in shapes.items():
            traced = [
                (_shape_traces(lam, cycle_types), [(e, n) for e, n in enumerate(counts) if n])
                for cycle_types, counts in groups.get(lam, ())
            ]
            for i in range(count):
                bins = [0] * ell
                for traces, counts in traced:
                    tr = traces[i]
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
    return _restriction_multiplicities(mod.ell, mod.d)[labels.index(mod.p)]


def _restriction_multiplicities(ell: int, d: int) -> list[dict]:
    """restriction_multiplicities of every simple of (l, d), in all_simples order, from one inner_products table.

    The restricted characters are read in one simple_characters walk over
    the classes of S(l,d-1), embedded, and paired with the conjugated
    characters of S(l,d-1).
    """
    if d < 1:
        raise ValueError("branching needs d >= 1")
    classes = conjugacy_classes(ell, d - 1)
    restricted = list(zip(*simple_characters(ell, d, [embed_lower_rank(y, d) for y, _size in classes])))
    subs_bar = [[v.conjugate() for v in chi] for chi in character_table(ell, d - 1)]
    out = []
    for row in inner_products(classes, restricted, subs_bar):
        mults = {}
        for sub, val in zip(all_simples(ell, d - 1), row):
            if not val.is_zero():
                integral = val.is_rational() and val.rational_value().denominator == 1
                mults[sub.p] = int(val.rational_value()) if integral else val
        out.append(mults)
    return out


def branching_report(ell: int, d: int) -> dict:
    """Restriction of every simple equals its removable-node multiset, multiplicity-free."""
    checks = []
    mods = all_simples(ell, d)
    for mod, mults in zip(mods, _restriction_multiplicities(ell, d)):
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
