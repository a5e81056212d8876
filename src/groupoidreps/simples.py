"""Simple modules of the groupoid algebra and of its color-rotation quotients, and their characters.

For a multi-partition p of shape lambda, the module L_p assigns the outer
Specht module S_p to every object of type lambda and zero to every other
object.  A morphism pi: f -> g (both of type lambda) acts through transport
to the canonical object b = f_lambda: the composite

    sigma_(g, b) o pi o sigma_(b, f)

is an endomorphism of b, i.e. an element of the block group S_lambda, and
acts on S_p by its outer-Specht matrix.  SimpleModule also carries the
simples L_(p,m) of the quotient by H_k, whose base endomorphisms add a
rotation (see the class); k = m = 1 gives L_p.  Irreducibility is one
commutant solve on the base block (_commutant_dim), and functoriality the
defining relations of End(b) on the block data (_presentation_holds).  One
routine, completeness_checks, reports these and the Wedderburn, dimension
and distinctness checks for both families, from the modules, the group
order and the characters its caller gives; one routine, decompose, splits
restricted characters for branching and for gkd's restriction check.

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
chi^(p_c), computed once per (p_c, mu_c) by the Murnaghan-Nakayama rule
with no matrix built (`tableaux.specht_character`).  `fixed_objects`
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
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product, repeat
from math import factorial, prod
from operator import add, mul

from .cyclo import Cyc, intertwiners, root_of_unity
from .groupoid import (
    GMorphism,
    canonical_morphism,
    canonical_object,
    component_generators,
    identity_morphism,
    objects,
    stabilizer_order,
    theta_morphism,
    theta_object,
    theta_type,
    type_of,
)
from .perms import adjacent_transposition, cycle_type_perm
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
    "completeness_checks",
    "verify_complete",
    "decompose",
    "branching_report",
    "removable_node_restrictions",
]


class SimpleModule:
    """The simple module L_(p,m) of the quotient of A_(l,d) by H_k, stored block per quotient object.

    At k = m = 1 the quotient is the groupoid and L_(p,1) is L_p.  p has
    shape lambda; r is the order of the stabilizer H_k^lambda of lambda
    (generated by the color shift u = l/r, the canonical rotation h of the
    base b = f_lambda), s the order of the stabilizer of p inside it, and
    m in {1..s} indexes a character of that stabilizer.  The blocks sit on
    the quotient objects of the component of lambda, one per anchor object:
    the least object of type lambda in its H_k-orbit, with anchor a_f the
    canonical morphism b -> f.

    The color-preserving part End(b) = S_lambda acts by outer Specht
    matrices on W = V_0 + ... + V_(r/s - 1), V_j a copy of S_(q_j) with
    q_j[c] = p[c + j u], and h by a tensor-slot rotation times the scalar
    omega = xi_l^wrap, wrap = (l/s) m, where it wraps from the last copy to
    the first (M below).  On shapes whose stabilizer fixes p (every case with
    d <= 3) this reduces to the scalar action xi_l^((l/r) t m) on S_p itself.
    action_block(q) is rho~(a_2^-1 o q o a_1) for that action rho~ of End(b),
    so L is functorial exactly when rho~ is a homomorphism (Curtis-Reiner,
    Methods of Representation Theory I, section 11; Stembridge, Pacific J.
    Math. 140, 1989); _presentation_holds reads that from the defining
    relations of End(b).  At k = 1, rho~ of sigma_(g,b) o pi o sigma_(b,f) is
    its outer Specht matrix.
    """

    def __init__(self, ell: int, k: int, d: int, p, m: int):
        if k < 1 or ell % k:
            raise ValueError("k must be a positive divisor of ell")
        self.ell, self.k, self.d = ell, k, d
        self.p = tuple(tuple(pi) for pi in p)
        self.lam = tuple(sum(pi) for pi in self.p)
        if len(self.lam) != ell or sum(self.lam) != d:
            raise ValueError("multi-partition does not match (ell, d)")
        self.r = stabilizer_order(self.lam, k)
        self.s = stabilizer_order(self.p, self.r)
        if not 1 <= m <= self.s:
            raise ValueError("m must lie in {1..s} for the stabilizer order s of p")
        self.m = m
        self.u = ell // self.r
        self.copies = self.r // self.s
        self.wrap = (ell // self.s) * m  # omega = xi^wrap
        self.reps = [outer_rep(theta_type(self.p, -j * self.u), self.lam) for j in range(self.copies)]
        self.outer = self.reps[0]
        self.block_dim = sum(rep.dim for rep in self.reps)
        self.base = canonical_object(self.lam)
        objs = _objects_by_type(ell, d)[self.lam]
        if self.r > 1:
            objs = [f for f in objs if all(f <= theta_object(f, j * self.u, ell) for j in range(1, self.r))]
        self.objects = list(objs)
        self.block_index = {f: i for i, f in enumerate(self.objects)}
        self._mat_cache: dict[tuple, dict[tuple[int, int], Cyc]] = {}

    @property
    def total_dim(self) -> int:
        return self.block_dim * len(self.objects)

    # -- the action --------------------------------------------------------

    @cached_property
    def to_anchor(self) -> dict[tuple, int]:
        """For each object g of the component's orbits, the e with theta_k^e(g) an anchor object."""
        out: dict[tuple, int] = {}
        for f in self.objects:
            for t in range(self.k):
                out.setdefault(theta_object(f, t * (self.ell // self.k), self.ell), -t % self.k)
        return out

    @cached_property
    def anchors(self) -> list[GMorphism]:
        """The anchor a_f: b -> f of each block, in block order."""
        from_base = _shape_transports(self.ell, self.lam)[0]
        return [GMorphism(self.base, f, from_base[f]) for f in self.objects]

    def transported(self, m: GMorphism) -> tuple[int, ...]:
        """The S_lambda element sigma_(g,b) o pi o sigma_(b,f) for pi = m (source and target of type lambda)."""
        from_base, to_base = _shape_transports(self.ell, self.lam)
        to_b, from_b, perm = to_base[m.target], from_base[m.source], m.perm
        return tuple(to_b[perm[j - 1] - 1] for j in from_b)

    def action_block(self, q: GMorphism) -> dict[tuple[int, int], Cyc]:
        """The block of a morphism of the component; any representative of a quotient morphism.

        The block is the {(row, col): Cyc} dict of its nonzero entries, a
        block_dim x block_dim matrix; it is cached, and callers do not mutate it.

        q is translated to leave an anchor a_1; its target is then
        h^t(a_2) for the anchor a_2 of its orbit, so a_2^-1 o q o a_1 is the
        endomorphism h^t o pi of b, pi = transported(q).  One block per (t, pi).
        """
        e = self.to_anchor[q.source]
        if e:
            q = theta_morphism(q, e * (self.ell // self.k), self.ell)
        key = (-self.to_anchor[q.target] % self.k // (self.k // self.r), self.transported(q))
        cached = self._mat_cache.get(key)
        if cached is None:
            cached = self._mat_cache[key] = self._endo_block(*key)
        return cached

    def _endo_block(self, t: int, w: tuple[int, ...]) -> dict[tuple[int, int], Cyc]:
        """rho~(h^t o w) = M^t rho(w), in one pass.

        rho(w) is block diagonal, one integer outer-Specht block per copy
        V_j.  M sends copy j to copy j + 1 along the slot map c -> c + u and
        scales by omega = xi^((l/s) m) where it wraps from the last copy to
        the first.  So M^t sends the block of copy j to copy (j + t) mod
        copies, along the slot map c -> c + t u, scaled by
        omega^((j + t) // copies).  The positions are distinct, so nothing is summed.
        """
        ell, copies = self.ell, self.copies
        offsets = list(accumulate((rep.dim for rep in self.reps), initial=0))
        entries = {}
        for j, rep in enumerate(self.reps):
            scalar = root_of_unity(ell, self.wrap * ((j + t) // copies))
            slot = _slot_rotation([c.dim for c in rep.components], lambda c: (c + t * self.u) % ell)
            row0, col0 = offsets[(j + t) % copies], offsets[j]
            entries.update(((row0 + slot[i], col0 + a), scalar.scale(v)) for (i, a), v in rep.matrix_of_blockperm(w).items())
        return entries

    # -- characters of S(l, d) ----------------------------------------------

    def block_trace(self, cycle_types) -> int:
        """The trace on a block of an endomorphism with cycle type cycle_types[c] in color c: prod_c chi^(p_c)."""
        return prod(map(specht_character, self.p, cycle_types))

    def char_wreath(self, x: WreathElem) -> Cyc:
        """Character of x in C[S(l,d)]: the trace of the action of Phi(x), by phi_trace (k = 1 only)."""
        if self.k != 1:
            raise ValueError("char_wreath reads S(l,d) characters; use gkd.class_character for k > 1")
        return phi_trace(x, self.block_trace, self.lam)

    def label_json(self) -> list:
        return [list(pi) for pi in self.p]

    def __repr__(self) -> str:
        return f"SimpleModule(ell={self.ell}, k={self.k}, d={self.d}, p={self.p}, m={self.m}, dim={self.total_dim})"


def _slot_rotation(dims_src: list[int], source_slot) -> tuple[int, ...]:
    """The tensor-basis map (target slot c) <- (source slot source_slot(c)), as an index map.

    dims_src[c] is the dimension of source factor c (0-based slots); the first
    factor is the slowest index in the Kronecker convention.  Entry a is the
    flat target index of the flat source index a.
    """
    dims_tgt = [dims_src[source_slot(c)] for c in range(len(dims_src))]

    def flatten(idx, dims):
        out = 0
        for b, dim in zip(idx, dims):
            out = out * dim + b
        return out

    return tuple(
        flatten([src_idx[source_slot(c)] for c in range(len(dims_src))], dims_tgt)
        for src_idx in product(*(range(v) for v in dims_src))
    )


def _slot_powers(slots, n: int) -> list[list[tuple[int, ...]]]:
    """Powers 0..n of the rotation with slot map slots[i] from summand i to i + 1 (cyclically): [j][i] composes those of i..i + j - 1."""
    powers = [[tuple(range(len(slot))) for slot in slots]]
    for j in range(n):
        powers.append([tuple(slots[(i + j) % len(slots)][a] for a in t) for i, t in enumerate(powers[-1])])
    return powers


def _equal_along(rows, image, slot) -> bool:
    """Whether the integer block image equals rows carried along the index map slot: image[slot[a], slot[b]] = rows[a, b]."""
    return image == {(slot[a], slot[b]): w for (a, b), w in rows.items()}


def _run_shift(lam: tuple[int, ...], i: int, shift: int) -> int:
    """The position of b = f_lam that has position i's offset in the run of color c + shift, c the color of i."""
    starts = list(accumulate(lam, initial=0))
    c = canonical_object(lam)[i - 1] - 1
    return starts[(c + shift) % len(lam)] + i - starts[c]


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
def build_simple(ell: int, k: int, d: int, p, m: int) -> SimpleModule:
    return SimpleModule(ell, k, d, p, m)


@lru_cache(maxsize=None)
def all_simples(ell: int, d: int) -> tuple[SimpleModule, ...]:
    """One simple module per multi-partition, compositions in lexicographic order."""
    out = []
    for lam in compositions(ell, d):
        for p in multipartitions(lam):
            out.append(build_simple(ell, 1, d, p, 1))
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
    """total_dim * s = (d!/lambda!) dim S_p: the d!/lambda! objects of type lambda fall into free H_k^lambda-orbits of r, one block each, of r/s copies of dim S_p."""
    return mod.total_dim * mod.s == factorial(mod.d) // prod(map(factorial, mod.lam)) * mod.outer.dim


def _endo_generators(mod: SimpleModule) -> list[GMorphism]:
    """Generators of End(b): the s_i inside the color runs of b, and the canonical rotation b -> theta^u(b) (the identity when r = 1)."""
    ell, b = mod.ell, mod.base
    gens = [s for s in component_generators(ell, mod.lam) if s.source == s.target]
    return gens + [canonical_morphism(b, theta_object(b, mod.u, ell), ell)]


def _commutant_dim(mod: SimpleModule) -> int | None:
    """Dimension of the commutant {X : X L(q) = L(q) X for all morphisms q of the component}, solved on the base block.

    Two steps.  First every anchor a_f: b -> f must act as I; else None.
    Then the commutant of the End(b) generators (_endo_generators) on the
    one block at b is solved.  Proof that this bounds the full commutant:
    X commutes with every identity e_f, so it is block diagonal, X = (X_f).
    X_f L(a_f) = L(a_f) X_b with L(a_f) = I forces X_f = X_b, so X -> X_b is
    injective on the commutant, and X_b commutes with L(End(b)).  So the
    dimension is at most the one on the base block, and the identity makes
    it at least 1: a result of 1 proves dimension 1.
    """
    ell, bd = mod.ell, mod.block_dim
    one = {(i, i): Cyc.one(ell) for i in range(bd)}
    if any(mod.action_block(a) != one for a in mod.anchors):
        return None
    actions = ((a, a) for a in map(mod.action_block, _endo_generators(mod)))
    return len(intertwiners(ell, bd, bd, actions))


def _presentation_holds(mod: SimpleModule, gens) -> bool:
    """Whether mod is a functor, from the defining relations of End(b) on the data its blocks are built from.

    End(b) = S_lambda x| <h>: S_lambda is generated by the s_i with
    b_i = b_(i+1), and h = canonical_morphism(b, theta^u(b)) has order r and
    sends position i of color c to the position i' with i's offset in the run
    of color c - u (theta^u(b) has color c where b has c - u), so
    h s_i h^-1 = s_i'.  The Coxeter relations of each S_(lambda_c), s_i s_j =
    s_j s_i across colors, h^r = 1 and h s_i h^-1 = s_i' present End(b)
    (Coxeter-Moser, Generators and Relations for Discrete Groups, 1957;
    Matsumoto, C. R. Acad. Sci. Paris 258, 1964; for the semidirect product,
    D. L. Johnson, Presentations of Groups).  The blocks are built from:
    matrix_of_perm(w), the sparse integer product of gen_matrices along
    perm_to_word(w); matrix_of_blockperm, the Kronecker product of those
    over the colors; and
    _endo_block(t, w) = M^t rho(w), rho(w) those blocks over the copies and M^t
    t steps of the slot map c -> c + u (they compose to c -> c + tu) with
    omega = xi^wrap at each wrap.  The check:
    - gens, less identities, are the s_i, and h when r > 1;
    - the identity of b's orbit acts as I;
    - each Specht factor's gen_matrices satisfy the Coxeter relations, so all
      words of a permutation give one product: matrix_of_perm is a
      homomorphism, and so is rho, the Kronecker product over the colors;
    - M^r = I: r steps of M's slot maps compose to the identity, and the
      r / copies wraps give wrap r / copies = 0 mod l;
    - M rho(s_i) M^-1 = rho(s_i'): on each copy the block of s_i, carried
      along M's slot map to the next copy, is the block of s_i' there.
    The images then define a homomorphism of End(b) (von Dyck) whose value at
    h^t w is M^t rho(w), the block action_block returns, so rho~ is
    multiplicative and L is functorial (SimpleModule).  Nothing is walked, and
    the only products are the integer ones of the Coxeter relations.
    """
    ell, b, r = mod.ell, mod.base, mod.r
    runs = [i for i in range(1, mod.d) if b[i - 1] == b[i]]
    s = {i: GMorphism(b, b, adjacent_transposition(mod.d, i)) for i in runs}
    h = canonical_morphism(b, theta_object(b, mod.u, ell), ell)
    if {g for g in gens if g != identity_morphism(b)} != {*s.values(), *([h] if r > 1 else [])}:
        return False
    unit = identity_morphism(min(theta_object(b, t * (ell // mod.k), ell) for t in range(mod.k)))
    if mod.action_block(unit) != {(i, i): Cyc.one(ell) for i in range(mod.block_dim)}:
        return False
    if not all(spec.coxeter_relations_hold for rep in mod.reps for spec in rep.components):
        return False
    if r == 1:
        return True
    slots = [_slot_rotation([c.dim for c in rep.components], lambda c: (c + mod.u) % ell) for rep in mod.reps]
    powers = _slot_powers(slots, r)
    if powers[r] != powers[0] or mod.wrap * (r // mod.copies) % ell:
        return False
    return all(
        _equal_along(rep.matrix_of_blockperm(s[i].perm), image.matrix_of_blockperm(s[_run_shift(mod.lam, i, -mod.u)].perm), slot)
        for rep, image, slot in zip(mod.reps, mod.reps[1:] + mod.reps[:1], slots)
        for i in runs
    )


def _label_json(mod: SimpleModule) -> dict:
    return {"lambda": list(mod.lam), "p": mod.label_json(), "m": mod.m}


def completeness_checks(mods, order: int, chars) -> list[dict]:
    """The checks that mods are all the simples of a group algebra of dimension order, chars[i] the character of mods[i].

    Each module is functorial (_presentation_holds), the squares of the
    dimensions sum to order (Wedderburn), each total dimension is the one
    total_dim_check predicts, each commutant has dimension 1 (_commutant_dim),
    so each module is simple, and the characters are pairwise distinct, so no
    two are isomorphic.  Simple, pairwise non-isomorphic and summing to
    order in squares, they are all the simples.  The caller gives order
    (l^d d! for S(l,d), l^d d!/k for G(l,k,d)) and the characters on its
    classes, so nothing here depends on the family.
    """
    total = sum(m.total_dim**2 for m in mods)
    bad = [_label_json(m) for m in mods if _commutant_dim(m) != 1]
    distinct = len(set(chars))
    return [
        record("each simple is functorial", all(_presentation_holds(m, _endo_generators(m)) for m in mods)),
        record("wedderburn sum of squares", total == order, {"sum": total, "group_order": order, "dims": [m.total_dim for m in mods]}),
        record("total dim * s = (d!/lam!) dim S_p", all(map(total_dim_check, mods))),
        record("commutant of each simple has dim 1", not bad, {"failures": bad}),
        record("characters pairwise distinct", distinct == len(mods), {"distinct": distinct, "count": len(mods)}),
    ]


def verify_complete(ell: int, d: int) -> dict:
    """The completeness checks of the simples of S(l, d)."""
    mods = all_simples(ell, d)
    checks = completeness_checks(mods, ell**d * factorial(d), character_table(ell, d))
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
    """Decompose the restriction to S(l,d-1) by exact character inner products (k = 1 only).

    Maps the label of each constituent to its multiplicity: an int, or the
    exact inner product when that is not an integer (a wrong character).
    """
    if mod.k != 1:
        raise ValueError("restriction_multiplicities reads S(l,d) branching; gkd.restriction_check covers k > 1")
    labels = [m.p for m in all_simples(mod.ell, mod.d)]
    return _restriction_multiplicities(mod.ell, mod.d)[labels.index(mod.p)]


def _restriction_multiplicities(ell: int, d: int) -> list[dict]:
    """restriction_multiplicities of every simple of (l, d), in all_simples order.

    The restricted characters are read in one simple_characters walk over
    the classes of S(l,d-1), embedded, and decomposed into the characters
    of S(l,d-1).
    """
    if d < 1:
        raise ValueError("branching needs d >= 1")
    classes = conjugacy_classes(ell, d - 1)
    restricted = list(zip(*simple_characters(ell, d, [embed_lower_rank(y, d) for y, _size in classes])))
    return decompose(classes, restricted, {m.p: chi for m, chi in zip(all_simples(ell, d - 1), character_table(ell, d - 1))})


def decompose(classes, chars, constituents: dict) -> list[dict]:
    """Per character of chars, its nonzero inner products with the constituents {key: character}, from one inner_products table.

    A value is an int where it is one, else the exact Cyc (a wrong
    character).  The constituents are conjugated once.
    """
    conjugated = [[v.conjugate() for v in chi] for chi in constituents.values()]
    out = []
    for row in inner_products(classes, chars, conjugated):
        mults = {}
        for key, val in zip(constituents, row):
            if not val.is_zero():
                integral = val.is_rational() and val.rational_value().denominator == 1
                mults[key] = int(val.rational_value()) if integral else val
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
