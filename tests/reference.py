"""Reference routines that the tests compare the library against.

Mat is the dense matrix over Q(xi_l) that the dense routes below use; the
library's one matrix format is the sparse {(row, col): Cyc} dict of the
nonzero entries, and dense and sparse convert between the two; scaled
multiplies a sparse block by a scalar.

kernel_basis is the null space read off the one elimination engine; no
library path needs it, since every solved commutant is one call to
cyclo.intertwiners.  conjugation_orbits and conjugacy_classes_of partition
a group into conjugation orbits by walking them, the route that the
closed-form classes of simples and gkd replace.  cyc_inner_product is the
inner product with one Cyc product and one scale per class, the route that
the batched dot products of simples.inner_products replace.  scan_phi_trace
is the trace of Phi(x) by a scan of every object, the route that the
cycle-type groups of simples.fixed_objects replace; its per-object block
traces are simple_object_trace (sigma_(g, g) transported to the base and
traced on the outer Specht module by outer_block_trace),
model_object_trace (the involutions of g that sigma_(g, g) fixes, signed)
and tensor_object_trace (the basis tensors of block g that it fixes), the
routes that the per-color class functions of simples, gelfand and
schurweyl replace.  two_sided_closure is
the dense span closure of the GL generators: block-diagonal maps {f: Mat}
of their sparse blocks, multiplied block by block on both sides, the route
that the sparse one-sided closure of schurweyl.glk_generated_algebra
replaces.  act_full is the dense
matrix of an algebra element on V^(x d), and morphism_block_matrix the 0/1
matrix of one morphism on its blocks: the routes that the index maps of
schurweyl replace.  ungraded_intertwiners solves X A = B X with one
engine row per entry of every action, the route that the weight grading of
cyclo.intertwiners replaces.  phi_on_generators is Phi as a product of
generator images, an independent route to the closed form of algebra.phi.
cyc_phi_inverse is the inverse DFT of Phi with one Cyc addition per
(color vector, source) and one Cyc product per exponent bucket, the route
that the integer exponent bins of algebra.phi_inverse replace.
to_sparse and to_dense convert between the tests' dense vectors and the
engine's one vector format, {column: Cyc}.  outer_specht_block is the block
of a morphism on a k = 1 simple as the lifted outer-Specht matrix of its
transport to the base, composed from canonical morphisms.
quotient_action_block is the action of a quotient morphism on a quotient
simple as the dense product M^t rho(pi), carried to the base orbit by
Q.compose with the normalized anchors: the routes that the (t, pi)-keyed
blocks of simples.SimpleModule replace.  component_functorial is the
functoriality walk over every morphism of a quotient simple's component,
and end_base_functorial the walk over End(base) alone, with one dense
product per step off the identity: the routes that the relations of
simples._presentation_holds replace; functorial is that check on a module's
own End(base) generators.  component_commutant_dim the commutant solved over the whole component from
its generators, as one block of the component's total dimension
(direct_sum_actions), the route that the base-block solve of
simples._commutant_dim replaces.  all_morphisms lists every morphism of the
groupoid.  The dense rotation module is
rotation_theta, theta as one index map on the whole direct sum of the
rotated simples, and act_total, the dense total x total matrix of x on it,
built from act_alg, the matrix of an algebra element on one simple;
dense_commutes tests theta A = A theta as permuted(A, theta) == A, the
route that gkd._commutes_with_theta replaces, and slot_powers are the slot
maps of theta^j read directly, c -> c - jv, where the rotation check
composes theta's slot maps.  dense_twisted_traces reads tr(theta^j A_x)
off the dense matrix of x, the route that gkd._twisted_traces replaces.  dense_exp_identity checks the exp
identity with dense Mat powers, the route that the row maps of
schurweyl._transvections_are_exponentials replace.  cyc_from_json, mat_zeros,
mat_add, mat_sub, mat_scale and mat_mul are the JSON reader of Cyc, the zero
matrix and Mat arithmetic, and cyc_pow, embed, morphism_element and
idempotent the powers of a Cyc, the field embedding Q(xi_l) -> Q(xi_L) and
single-morphism algebra elements, which only tests use.
"""

from fractions import Fraction
from itertools import accumulate, product
from math import factorial, prod
from operator import mul

from groupoidreps.algebra import AlgElem, phi
from groupoidreps.cyclo import Cyc, SpanBasis, root_of_unity
from groupoidreps import gkd, schurweyl, simples
from groupoidreps.cyclo import intertwiners
from groupoidreps.gelfand import inv_statistic
from groupoidreps.groupoid import (
    GMorphism,
    canonical_morphism,
    compose,
    hom,
    identity_morphism,
    inverse,
    object_index,
    objects,
    quotient_groupoid,
    theta_object,
)
from groupoidreps.simples import _slot_rotation
from groupoidreps.perms import invert_perm, perm_to_word, reach
from groupoidreps.wreath import WreathElem, generators, wreath_inv, wreath_mul


def to_sparse(vec: list[Cyc]) -> dict[int, Cyc]:
    """The nonzero entries of a dense vector, as {column: value}."""
    return {j: c for j, c in enumerate(vec) if not c.is_zero()}


def to_dense(ell: int, n: int, vec: dict[int, Cyc]) -> list[Cyc]:
    """The length-n dense vector with the entries of a sparse one."""
    out = [Cyc.zero(ell)] * n
    for j, c in vec.items():
        out[j] = c
    return out


class Mat:
    """Dense matrix over Q(xi_l), the tests' reference format; the library's is a sparse {(row, col): Cyc} dict."""

    __slots__ = ("ell", "nrows", "ncols", "rows")

    def __init__(self, ell: int, rows):
        rows = tuple(tuple(r) for r in rows)
        self.ell = ell
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self.rows = rows

    @staticmethod
    def identity(ell: int, n: int) -> "Mat":
        z, o = Cyc.zero(ell), Cyc.one(ell)
        return Mat(ell, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_entries(ell: int, nrows: int, ncols: int, entries) -> "Mat":
        """The nrows x ncols matrix whose (i, j) entry is the sum of the values given at (i, j).

        ``entries`` yields ((i, j), value) pairs; zero values are skipped and
        every position not given is zero.
        """
        z = Cyc.zero(ell)
        rows = [[z] * ncols for _ in range(nrows)]
        for (i, j), v in entries:
            if any(v.num):
                row = rows[i]
                w = row[j]
                row[j] = w + v if any(w.num) else v
        return Mat(ell, rows)

    def entries(self):
        """The nonzero entries as ((i, j), value)."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if any(v.num):
                    yield (i, j), v

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.ell == other.ell and self.rows == other.rows

    def trace(self) -> Cyc:
        acc = Cyc.zero(self.ell)
        for i in range(min(self.nrows, self.ncols)):
            acc = acc + self.rows[i][i]
        return acc

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over Q(xi_{self.ell}))"


def dense(ell: int, n: int, block: dict) -> Mat:
    """The n x n dense matrix of a sparse {(row, col): Cyc} block."""
    return Mat.from_entries(ell, n, n, block.items())


def sparse(a: Mat) -> dict:
    """The {(row, col): Cyc} dict of the nonzero entries of a dense matrix, the library's matrix format."""
    return dict(a.entries())


def scaled(block: dict, c: Cyc) -> dict:
    """c times a sparse block, entry by entry."""
    return {key: c * v for key, v in block.items()}


def kernel_basis(ell: int, rows: list[list[Cyc]], ncols: int) -> list[list[Cyc]]:
    """Exact basis of the right null space {x : A x = 0} of dense rows, one dense vector per free column."""
    sb = SpanBasis(ell, ncols)
    for row in rows:
        sb.add(to_sparse(row))
    return [to_dense(ell, ncols, v) for v in sb.kernel()]


def conjugation_orbits(members, gens) -> list[tuple[WreathElem, set]]:
    """(first member, orbit) for each conjugation orbit of the group that gens generate.

    Each orbit is one `reach` walk under conjugation by the generators;
    orbits come in the order of their first members in members.
    """
    gen_pairs = [(g, wreath_inv(g)) for g in gens]

    def conjugates(y):
        return (wreath_mul(wreath_mul(g, y), ginv) for g, ginv in gen_pairs)

    unseen = set(members)
    out = []
    for x in members:
        if x in unseen:
            orbit = reach([x], conjugates)
            unseen -= orbit
            out.append((x, orbit))
    return out


def conjugacy_classes_of(members, gens) -> tuple[tuple[WreathElem, int], ...]:
    """(representative, class size) pairs by walking the conjugation orbits."""
    return tuple((x, len(orbit)) for x, orbit in conjugation_orbits(members, gens))


def cyc_inner_product(classes, alpha, beta_bar) -> Cyc:
    """(1/|G|) sum over classes of size * alpha * beta_bar, one Cyc product and scale per class."""
    acc = Cyc.zero(classes[0][0].ell)
    for (_rep, size), a, b in zip(classes, alpha, beta_bar):
        acc = acc + (a * b).scale(size)
    return acc.scale(Fraction(1, sum(size for _rep, size in classes)))


def scan_phi_trace(x: WreathElem, objs, block_trace) -> Cyc:
    """The trace of Phi(x) by testing g o perm = g at every object g of objs, one block trace each."""
    ell, perm, colors = x.ell, x.perm, x.colors
    sums = [0] * ell
    for g in objs:
        if all(g[p - 1] == c for p, c in zip(perm, g)):
            tr = block_trace(g, perm)
            if tr:
                sums[sum(map(mul, colors, g)) % ell] += tr
    return Cyc.from_exponent_sums(ell, sums)


def outer_block_trace(outer, w: tuple[int, ...]) -> int:
    """The trace of the block permutation w on the outer Specht module: tr(A (x) B) = tr A * tr B."""
    return prod(sum(row[i] for i, row in enumerate(comp.matrix_of_perm(local))) for comp, local in outer._local_perms(w))


def simple_object_trace(mod):
    """block_trace(g, perm) of a simple module: sigma_(g, g) with permutation perm, transported to the base and traced."""
    return lambda g, perm: outer_block_trace(mod.outer, mod.transported(GMorphism(g, g, perm)))


def model_object_trace(model):
    """block_trace(g, perm) of the Gelfand model: the signed count of the involutions w of g that sigma = (g, g, perm) fixes."""

    def block_trace(g, perm):
        sigma, tr = GMorphism(g, g, perm), 0
        for w in model.basis[g]:
            wp = w.perm
            if all(perm[wp[i] - 1] == wp[perm[i] - 1] for i in range(model.d)):
                tr += -1 if inv_statistic(sigma, w) % 2 else 1
        return tr

    return block_trace


def tensor_object_trace(T):
    """block_trace(g, perm) on V^(x d): the number of basis tensors b of block g with b o perm = b."""
    return lambda g, perm: sum(all(b[p - 1] == v for p, v in zip(perm, b)) for b in T.block_of[g])


def blockdiag_identity(T) -> dict:
    """The identity of V^(x d) as the block-diagonal map {f: identity Mat}."""
    return {f: Mat.identity(T.ell, len(bs)) for f, bs in T.block_of.items()}


def blockdiag_mul(x: dict, y: dict) -> dict:
    """The product of two block-diagonal maps, one dense product per block."""
    return {f: mat_mul(x[f], y[f]) for f in x}


def blockdiag_vector(x: dict) -> list[Cyc]:
    """The blocks of x row-major, in sorted order of f: the layout of glk_generated_algebra."""
    return [v for f in sorted(x) for row in x[f].rows for v in row]


def two_sided_closure(T, gens) -> SpanBasis:
    """The span of the unital algebra that gens ({f: sparse block}) generate: x g and g x pushed for every new element x."""
    gens = [{f: dense(T.ell, len(bs), g[f]) for f, bs in T.block_of.items()} for g in gens]
    sb = SpanBasis(T.ell, sum(len(bs) ** 2 for bs in T.block_of.values()))
    frontier = [blockdiag_identity(T)] + list(gens)
    while frontier:
        new = []
        for x in frontier:
            if sb.add(to_sparse(blockdiag_vector(x))):
                new += [blockdiag_mul(x, g) for g in gens]
                new += [blockdiag_mul(g, x) for g in gens]
        frontier = new
    return sb


def morphism_block_matrix(T, m) -> Mat:
    """0/1 matrix of m from block(source) to block(target), the matrix of its index map."""
    pi, one = T.morphism_index_map(m), Cyc.one(T.ell)
    return Mat.from_entries(T.ell, len(pi), len(pi), (((i, j), one) for j, i in enumerate(pi)))


def act_full(T, a: AlgElem) -> Mat:
    """The dense matrix of an algebra element on the whole of V^(x d)."""
    entries = []
    for m, coeff in a.terms.items():
        src, tgt = T.block_of[m.source], T.block_of[m.target]
        entries += (
            ((T.index[tgt[i]], T.index[src[j]]), coeff * v)
            for (i, j), v in morphism_block_matrix(T, m).entries()
        )
    n = len(T.basis)
    return Mat.from_entries(T.ell, n, n, entries)


def phi_on_generators(x: WreathElem) -> AlgElem:
    """Phi(x) computed as a product of generator images (independent route).

    x is factored as D(colors') * perm with perm a word in s_1..s_{d-1} and
    the diagonal part a word in the s_0^(j); the generator images are then
    multiplied in A_(l,d).
    """
    ell, d = x.ell, len(x.perm)
    if d == 0:
        return AlgElem.unit(ell, 0)
    images = [phi(g) for g in generators(ell, d)]
    out = AlgElem.unit(ell, d)
    # left factor: diagonal D(c') with c'_j = colors[perm^{-1}(j)]
    inv = invert_perm(x.perm)
    for j in range(1, d + 1):
        e_j = x.colors[inv[j - 1] - 1]
        if e_j % ell == 0:
            continue
        word = list(range(j - 1, 0, -1)) + [0] + list(range(1, j))
        s0j = AlgElem.unit(ell, d)
        for i in word:
            s0j = s0j * images[i]
        for _ in range(e_j % ell):
            out = out * s0j
    for i in perm_to_word(x.perm):
        out = out * images[i]
    return out


def cyc_phi_inverse(a: AlgElem) -> list[tuple[WreathElem, Cyc]]:
    """The terms of Phi^(-1)(a), sorted by (perm, colors), summed as Cyc values per exponent bucket."""
    ell, d = a.ell, a.d
    by_perm: dict[tuple, list[tuple[tuple, Cyc]]] = {}
    for m, coeff in a.terms.items():
        by_perm.setdefault(m.perm, []).append((m.source, coeff))
    inverse_roots = [root_of_unity(ell, -e) for e in range(ell)]
    norm = Fraction(1, ell**d)
    out: list[tuple[WreathElem, Cyc]] = []
    for perm, terms in by_perm.items():
        for colors in product(range(ell), repeat=d):
            buckets: dict[int, Cyc] = {}
            for source, coeff in terms:
                e = sum(c * s for c, s in zip(colors, source)) % ell
                acc = buckets.get(e)
                buckets[e] = coeff if acc is None else acc + coeff
            y = Cyc.zero(ell)
            for e, total in buckets.items():
                y = y + inverse_roots[e] * total
            if not y.is_zero():
                out.append((WreathElem(ell, perm, colors), y.scale(norm)))
    out.sort(key=lambda t: (t[0].perm, t[0].colors))
    return out


def all_morphisms(ell: int, d: int) -> list[GMorphism]:
    """Every morphism, ordered by (source index, target index, perm)."""
    objs = objects(ell, d)
    out = [m for f in objs for g in objs for m in hom(f, g, ell)]
    out.sort(key=lambda m: (object_index(m.source, ell), object_index(m.target, ell), m.perm))
    return out


def outer_specht_block(mod, m) -> dict:
    """The block of m: f -> g on a k = 1 simple: the outer-Specht matrix of sigma_(g,b) o m o sigma_(b,f), lifted into Q(xi_l), as sparse entries."""
    ell, b = mod.ell, mod.base
    w = compose(canonical_morphism(m.target, b, ell), compose(m, canonical_morphism(b, m.source, ell))).perm
    ints = mod.outer.matrix_of_blockperm(w)
    return {(i, j): Cyc.rational(ell, v) for i, row in enumerate(ints) for j, v in enumerate(row) if v}


def _component(mod):
    """The quotient groupoid of mod and the orbits of its component, with the normalized anchor of each."""
    Q = quotient_groupoid(mod.ell, mod.k, mod.d)
    anchors = {Q.orbit_of[f]: Q.normalize(canonical_morphism(mod.base, f, mod.ell)) for f in mod.objects}
    return Q, anchors


def quotient_action_block(mod, q) -> dict:
    """The matrix of the quotient morphism q on the quotient simple mod, as a
    dense product: q is carried to an endomorphism of the base orbit, which
    acts as M^t rho(pi) with M the rotation matrix multiplied in t times.
    Returns the sparse entries of the product."""
    ell, copies = mod.ell, mod.copies
    Q, anchors = _component(mod)
    offsets = list(accumulate((rep.dim for rep in mod.reps), initial=0))
    omega = root_of_unity(ell, (ell // mod.s) * mod.m)
    rotation = []
    for j, rep in enumerate(mod.reps):
        jn = (j + 1) % copies
        scalar = omega if jn != j + 1 else Cyc.one(ell)
        slot = _slot_rotation([rep.components[c].dim for c in range(ell)], lambda c: (c + mod.u) % ell)
        rotation += (((offsets[jn] + b, offsets[j] + a), scalar) for a, b in enumerate(slot))
    M = Mat.from_entries(ell, mod.block_dim, mod.block_dim, rotation)

    o1, o2 = Q.source_orbit(q), Q.target_orbit(q)
    endo = Q.compose(Q.normalize(inverse(anchors[o2])), Q.compose(q, anchors[o1]))
    at_base = Q.translate(endo, Q._translate_exponent(endo.source, mod.base))
    tgt = at_base.target
    t = Q._translate_exponent(mod.base, tgt) // (mod.k // mod.r)
    pi = compose(canonical_morphism(tgt, mod.base, ell), at_base)
    rho = []
    for rep, pos in zip(mod.reps, offsets):
        rho += (
            ((pos + i, pos + j), Cyc.rational(ell, v))
            for i, row in enumerate(rep.matrix_of_blockperm(pi.perm))
            for j, v in enumerate(row)
            if v
        )
    out = Mat.from_entries(ell, mod.block_dim, mod.block_dim, rho)
    for _ in range(t):
        out = mat_mul(M, out)
    return sparse(out)


def component_morphisms(mod) -> list[GMorphism]:
    """Every quotient morphism between two quotient objects of mod's component."""
    Q, anchors = _component(mod)
    return [q for o1 in anchors for o2 in anchors for q in Q.hom(o1, o2)]


def direct_sum_actions(ell: int, dims, actions) -> tuple[int, list[tuple[dict, dict]]]:
    """Sparse block actions (s, t, A), A from block s to block t, as sparse (A, A) pairs on the direct sum of the blocks.

    The pairs are led by the diagonal matrix that scales block o by o + 1,
    which commutes with X exactly when X is block diagonal, so the commutant
    of the pairs is that of the blocks X_o.  Returns the total dimension and
    the pairs.
    """
    starts = list(accumulate(dims, initial=0))
    n = starts[-1]
    weights = {(i, i): Cyc.rational(ell, o + 1) for o in range(len(dims)) for i in range(starts[o], starts[o + 1])}
    placed = ({(starts[t] + i, starts[s] + j): v for (i, j), v in A.items()} for s, t, A in actions)
    return n, [(weights, weights), *((A, A) for A in placed)]


def component_commutant_dim(mod) -> int:
    """The commutant of mod's action over its whole component, imposed on the normalized component generators.

    One solve on the sum of the blocks, of dimension total_dim (direct_sum_actions).
    """
    Q, anchors = _component(mod)
    index = {o: i for i, o in enumerate(anchors)}
    actions = [(index[Q.source_orbit(q)], index[Q.target_orbit(q)], mod.action_block(q)) for q in gkd._quotient_generators(Q, [mod.lam])]
    n, pairs = direct_sum_actions(mod.ell, [mod.block_dim] * len(index), actions)
    return len(intertwiners(mod.ell, n, n, pairs))


def ungraded_intertwiners(ell: int, n_src: int, n_tgt: int, actions) -> list[dict[int, Cyc]]:
    """The kernel of the system of cyclo.intertwiners with no unknown dropped: one row per entry (r, c) of X A - B X.

    The sparse actions are read through their dense matrices.
    """
    zero = Cyc.zero(ell)
    sb = SpanBasis(ell, n_tgt * n_src)
    for A, B in actions:
        A, B = dense(ell, n_src, A), dense(ell, n_tgt, B)
        a_cols = [[(u, row[c]) for u, row in enumerate(A.rows) if not row[c].is_zero()] for c in range(n_src)]
        b_rows = [[(u, v) for u, v in enumerate(row) if not v.is_zero()] for row in B.rows]
        for (r, b_row), (c, a_col) in product(enumerate(b_rows), enumerate(a_cols)):
            # (X A)[r][c] = sum_u X[r][u] A[u][c];  (B X)[r][c] = sum_u B[r][u] X[u][c]
            row = {r * n_src + u: a for u, a in a_col}
            for u, b in b_row:
                j = u * n_src + c
                row[j] = row.get(j, zero) - b
            sb.add(row)
    return sb.kernel()


def component_functorial(mod) -> bool:
    """L(s o q) = L(s) L(q) for the component generators s, along a walk that reaches every morphism of the component."""
    Q, anchors = _component(mod)

    def act(q):
        return dense(mod.ell, mod.block_dim, mod.action_block(q))

    reached = gkd._closure(Q, gkd._quotient_generators(Q, [mod.lam]), list(anchors), lambda s, x, y: act(y) == mat_mul(act(s), act(x)))
    return reached == set(component_morphisms(mod))


def functorial(mod) -> bool:
    """The report's functoriality verdict on mod: the relations of End(base) on its own generators."""
    return simples._presentation_holds(mod, simples._endo_generators(mod))


def end_base_functorial(mod) -> bool:
    """rho~(id) = I, rho~(s o q) = rho~(s) rho~(q) for the generators s of End(base), and they reach all r prod lambda_c! of it.

    The base's anchor is the identity, so action_block is rho~ on End(base).
    Once rho~(id) = I, a walk step s o q with s = id holds with no product.
    """
    Q = quotient_groupoid(mod.ell, mod.k, mod.d)

    def act(q):
        return dense(mod.ell, mod.block_dim, mod.action_block(q))

    o = Q.orbit_of[mod.base]
    unit = Q.identity(o)
    if act(unit) != Mat.identity(mod.ell, mod.block_dim):
        return False
    gens = [Q.normalize(s) for s in simples._endo_generators(mod)]
    reached = gkd._closure(Q, gens, [o], lambda s, x, y: s == unit or act(y) == mat_mul(act(s), act(x)))
    return reached is not None and len(reached) == mod.r * prod(map(factorial, mod.lam))


def permuted(A: Mat, perm) -> Mat:
    """P A P^-1 for the permutation matrix P with P e_j = e_perm[j] (A square).

    Entry (perm[i], perm[j]) of the result is A[i][j], so A commutes with P
    exactly when permuted(A, perm) == A.
    """
    inv = [0] * len(perm)
    for j, pj in enumerate(perm):
        inv[pj] = j
    return Mat(A.ell, [[row[j] for j in inv] for row in (A.rows[i] for i in inv)])


def act_alg(mod, a) -> Mat:
    """The total matrix of an algebra element on the direct sum of the blocks of a simples.SimpleModule."""
    bd = mod.block_dim
    entries = []
    for m, coeff in a.terms.items():
        if m.source in mod.block_index and m.target in mod.block_index:
            r0, c0 = mod.block_index[m.target] * bd, mod.block_index[m.source] * bd
            entries += (((r0 + i, c0 + j), coeff * v) for (i, j), v in mod.action_block(m).items())
    return Mat.from_entries(mod.ell, mod.total_dim, mod.total_dim, entries)


def rotation_theta(Q, summands) -> tuple[int, ...]:
    """theta on the direct sum of the summands of gkd._rotation_module as one index map.

    Entry a is the basis index that theta sends basis index a to: object f
    of summand j goes to theta(f) in summand j + 1, along the tensor-slot
    rotation c -> c - v of summand j's factors.
    """
    ell, v = Q.ell, Q.shift
    offsets = list(accumulate((simp.total_dim for simp in summands), initial=0))
    theta = [0] * offsets[-1]
    for j, simp in enumerate(summands):
        jn = (j + 1) % len(summands)
        nxt = summands[jn]
        slot = _slot_rotation([c.dim for c in simp.outer.components], lambda c: (c - v) % ell)
        for f in simp.objects:
            r0 = offsets[jn] + nxt.block_index[theta_object(f, v, ell)] * nxt.block_dim
            c0 = offsets[j] + simp.block_index[f] * simp.block_dim
            for a, b in enumerate(slot):
                theta[c0 + a] = r0 + b
    return tuple(theta)


def act_total(summands, x: WreathElem) -> Mat:
    """The dense total x total matrix of x on the direct sum of the summands, from act_alg of Phi(x)."""
    ell, d = summands[0].ell, summands[0].d
    offsets = list(accumulate((simp.total_dim for simp in summands), initial=0))
    a = phi(x, d)
    entries = (((o + i, o + j), v) for simp, o in zip(summands, offsets) for (i, j), v in act_alg(simp, a).entries())
    return Mat.from_entries(ell, offsets[-1], offsets[-1], entries)


def dense_commutes(Q, summands, x: WreathElem) -> bool:
    """Whether theta commutes with the dense matrix of x on the rotation module."""
    A = act_total(summands, x)
    return permuted(A, rotation_theta(Q, summands)) == A


def slot_powers(Q, summands) -> list[list[tuple[int, ...]]]:
    """The slot map of theta^j on the blocks of each summand, j = 0..k-1: the rotation c -> c - jv of its factors."""
    ell, v = Q.ell, Q.shift
    dims = [[c.dim for c in simp.outer.components] for simp in summands]
    return [[_slot_rotation(dim, lambda c: (c - j * v) % ell) for dim in dims] for j in range(Q.k)]


def dense_twisted_traces(theta, act, k: int, xs) -> list[tuple[Cyc, ...]]:
    """tr(theta^j A) = sum_a A[a][theta^j(a)] for j = 0..k-1, A = act(x) the dense matrix of each x of xs."""
    powers = [tuple(range(len(theta)))]
    for _ in range(k - 1):
        powers.append(tuple(theta[a] for a in powers[-1]))
    out = []
    for x in xs:
        A = act(x)
        out.append(tuple(sum((A.rows[a][b] for a, b in enumerate(t)), Cyc.zero(A.ell)) for t in powers))
    return out


def cyc_from_json(data: dict) -> Cyc:
    """The Cyc of a to_json dict."""
    return Cyc(data["order"], tuple(Fraction(s) for s in data["coeffs"]))


def mat_zeros(ell: int, nrows: int, ncols: int) -> Mat:
    """The nrows x ncols zero matrix over Q(xi_l), row by row."""
    z = Cyc.zero(ell)
    return Mat(ell, [[z] * ncols for _ in range(nrows)])


def mat_add(a: Mat, b: Mat) -> Mat:
    """a + b, entry by entry."""
    return Mat(a.ell, [[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def mat_sub(a: Mat, b: Mat) -> Mat:
    """a - b, entry by entry."""
    return Mat(a.ell, [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def mat_scale(a: Mat, c: Cyc) -> Mat:
    """c a, entry by entry."""
    return Mat(a.ell, [[c * v for v in r] for r in a.rows])


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b, each entry a dot product over the nonzero entries of a row of a and a column of b."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in multiplication")
    z = Cyc.zero(a.ell)
    cols = [to_sparse(col) for col in zip(*b.rows)]
    rows = [to_sparse(r).items() for r in a.rows]
    return Mat(a.ell, [[sum((x * col[j] for j, x in r if j in col), z) for col in cols] for r in rows])


def cyc_pow(x: Cyc, n: int) -> Cyc:
    """x^n for n >= 0, by n products."""
    if n < 0:
        raise ValueError("negative powers are not supported; use inverse()")
    out = Cyc.one(x.ell)
    for _ in range(n):
        out = out * x
    return out


def embed(x: Cyc, big_ell: int) -> Cyc:
    """The image of x under the field embedding Q(xi_l) -> Q(xi_L), xi_l -> xi_L^(L/l), for l | L."""
    if big_ell % x.ell:
        raise ValueError("embedding requires the source order to divide the target order")
    return sum((root_of_unity(big_ell, a * (big_ell // x.ell)).scale(c) for a, c in enumerate(x.coeffs)), Cyc.zero(big_ell))


def morphism_element(ell: int, m: GMorphism, coeff: Cyc | None = None) -> AlgElem:
    """The algebra element coeff m (coeff 1 by default)."""
    return AlgElem(ell, len(m.perm), {m: Cyc.one(ell) if coeff is None else coeff})


def idempotent(ell: int, f) -> AlgElem:
    """The identity morphism of the object f as an algebra element."""
    return morphism_element(ell, identity_morphism(tuple(f)))


def dense_exp_identity(T, gens) -> tuple[bool, int]:
    """Whether (I+E_ab)^(x d) = sum_(n<=d) Delta(E_ab)^n / n! for each a != b, by dense powers; and the unit count."""
    ell, one = T.ell, Cyc.one(T.ell)
    ok, units = True, 0
    for (a, b), gen in zip(schurweyl._block_units(T), gens):
        if a == b:
            continue
        units += 1
        for f, bs in T.block_of.items():
            pos, n = T.block_pos[f], len(bs)
            # (I+E_ab) fixes e_x for x != b and sends e_b to e_b + e_a, slot by slot
            images = (product(*((x, a) if x == b else (x,) for x in v)) for v in bs)
            tensor = Mat.from_entries(ell, n, n, (((pos[u], j), one) for j, us in enumerate(images) for u in us))
            term = series = Mat.identity(ell, n)
            for power in range(1, T.d + 1):
                term = mat_scale(mat_mul(term, dense(ell, n, gen[f])), Cyc.rational(ell, Fraction(1, power)))
                series = mat_add(series, term)
            ok = ok and tensor == series
    return ok, units
