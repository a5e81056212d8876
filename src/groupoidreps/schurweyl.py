"""Tensor-space actions and exact double-centralizer verification.

V = C^n splits into color blocks V_1,...,V_l of dimensions k_1,...,k_l; the
d-th tensor power decomposes into blocks G(f) = V_{f(1)} x ... x V_{f(d)}
indexed by color functions, and the groupoid acts by permuting tensor
factors, block f to block g along each morphism.

The group GL_k = GL_(k_1) x ... x GL_(k_l) is replaced, for computation, by
the unital algebra generated by the Leibniz embeddings
Delta(E_ab) = sum_t 1 x..x E_ab x..x 1 of the block matrix units.  Both have
the same commutant on V^(x d) (the enveloping-algebra form of Schur-Weyl
duality, Goodman-Wallach 2009): the group is generated by the transvections
I + tE_ab (a != b in one block) and the diagonal matrices; the transvections
act by (I + tE_ab)^(x d) = exp(t Delta(E_ab)), a polynomial in the nilpotent
Delta(E_ab); and a diagonal g acts by one scalar on each joint eigenspace of
the Delta(E_aa).  The report checks the finite identity
(I + E_ab)^(x d) = sum_(n<=d) Delta(E_ab)^n / n! on every block.
Every solved commutant, the one with the cyclic shift Z adjoined included,
is one call to cyclo.intertwiners, graded by the weights of the Delta(E_aa);
the commutant of the morphism images is counted by orbits instead.  Spans
use the public SpanBasis API on sparse {position: Cyc} vectors, exactly.
The large data stay sparse.  A morphism permutes the tensor basis, so it is
kept as an index map: the commuting walk composes index maps, a GL generator
commutes with it when its entries relabelled along it are those of the
target block, and each image span takes one entry per tensor; a Psi-image
of the shift duality, a sum of k morphisms, is the set of the positions
their index maps give.  Generator rows are read once, as maps
j -> ((k, g_jk), ...); the GL closure and the exp identity multiply sparse
vectors by them, so no matrix product is formed.  Every matrix is a
{(row, col): Cyc} dict of its nonzero entries, as in cyclo.
Whether the central idempotent of a simple p kills V^(x d) is read from
characters: the algebra is semisimple, so it does iff <chi_V, chi_p> = 0,
and chi_V is read off the monomial form of Phi (TensorSpace.character): at
a fixed object g, sigma_(g, g) fixes the basis tensors constant on each of
its cycles, so its trace is prod_c k_c^(number of cycles in color c).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, wraps
from itertools import accumulate, product
from math import prod

from .cyclo import Cyc, SpanBasis, intertwiners
from .gkd import _closure, _quotient_generators
from .groupoid import GMorphism, component_generators, hom, quotient_groupoid, type_of
from .perms import invert_perm
from .reporting import record, suite_result
from .simples import all_simples, character_table, conjugacy_classes, inner_products, phi_trace
from .wreath import WreathElem

__all__ = [
    "TensorSpace",
    "glk_generators",
    "glk_generated_algebra",
    "verify_commuting",
    "verify_double_centralizer",
    "kernel_check",
    "shift_duality_check",
]

DEFAULT_TENSOR_CAP = 4096


class TensorSpace:
    """V^(x d) with its block decomposition over color functions."""

    def __init__(self, ell: int, kvec, d: int, cap: int = DEFAULT_TENSOR_CAP):
        kvec = tuple(kvec)
        if len(kvec) != ell or any(v <= 0 for v in kvec):
            raise ValueError("kvec must have ell strictly positive parts")
        self.ell = ell
        self.kvec = kvec
        self.d = d
        self.n = sum(kvec)
        if self.n**d > cap:
            raise ResourceWarning(f"tensor dimension {self.n**d} exceeds cap {cap}")
        self.coord_color = []
        for color, size in enumerate(kvec, start=1):
            self.coord_color.extend([color] * size)
        self.basis = [tuple(b) for b in product(range(1, self.n + 1), repeat=d)]
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.block_of: dict[tuple, list[tuple]] = {}
        for b in self.basis:
            f = tuple(self.coord_color[x - 1] for x in b)
            self.block_of.setdefault(f, []).append(b)
        self.block_pos: dict[tuple, dict[tuple, int]] = {
            f: {b: i for i, b in enumerate(bs)} for f, bs in self.block_of.items()
        }
        self._memo: dict = {}

    def dim(self) -> int:
        return len(self.basis)

    def block_dim(self, f) -> int:
        return len(self.block_of.get(tuple(f), ()))

    # -- groupoid action -----------------------------------------------------

    def morphism_index_map(self, m: GMorphism) -> tuple[int, ...]:
        """Entry j is the position in block(target) of the image of tensor j of block(source)."""
        tgt_pos, inv = self.block_pos[m.target], invert_perm(m.perm)
        return tuple(tgt_pos[tuple(b[i - 1] for i in inv)] for b in self.block_of[m.source])

    def block_trace(self, cycle_types) -> int:
        """The trace on a block of an endomorphism with cycle type cycle_types[c] in color c.

        It fixes exactly the basis tensors constant on each of its cycles, and
        a cycle in color c takes any of the k_c coordinates of V_c.
        """
        return prod(k ** len(mu) for k, mu in zip(self.kvec, cycle_types))

    def character(self, x: WreathElem) -> Cyc:
        """chi_V(x), the trace of Phi(x) on V^(x d), by phi_trace (every color function is a block)."""
        return phi_trace(x, self.block_trace)


def _once_per_space(build):
    """Memoise build(T) on T, so each TensorSpace builds it once; callers do not mutate it."""

    @wraps(build)
    def memoised(T: TensorSpace):
        if build.__name__ not in T._memo:
            T._memo[build.__name__] = build(T)
        return T._memo[build.__name__]

    return memoised


def _block_units(T: TensorSpace) -> list[tuple[int, int]]:
    """(a, b) for every block matrix unit E_ab, in glk_generators order."""
    out: list[tuple[int, int]] = []
    offset = 0
    for size in T.kvec:
        coords = range(offset + 1, offset + size + 1)
        out += product(coords, coords)
        offset += size
    return out


@_once_per_space
def glk_generators(T: TensorSpace) -> list[dict]:
    """Leibniz embeddings of all block matrix units, as block-diagonal maps.

    Each generator is returned as {f: block f}, a block the {(row, col): Cyc}
    dict of its nonzero entries; the unit is implicit.  An entry counts the
    slots t of the column tensor that E_ab turns into the row tensor: at most
    one for a != b, and the number of b-slots on the diagonal of Delta(E_bb).
    The counts are ints, with one Cyc per count.
    """
    values = {n: Cyc.rational(T.ell, n) for n in range(1, T.d + 1)}
    gens = []
    for a, b in _block_units(T):
        blocks = {}
        for f, bs in T.block_of.items():
            pos = T.block_pos[f]
            counts = Counter(
                (pos[vec[:t] + (a,) + vec[t + 1 :]], j) for j, vec in enumerate(bs) for t in range(T.d) if vec[t] == b
            )
            blocks[f] = {ij: values[n] for ij, n in counts.items()}
        gens.append(blocks)
    return gens


@_once_per_space
def _generator_rows(T: TensorSpace) -> list[dict[int, list[tuple[int, Cyc]]]]:
    """The row maps of each generator: rows[T.index[b]] lists the (k, g_jk) of row j of block f, for b = block_of[f][j]."""
    table = []
    for gen in glk_generators(T):
        rows: dict[int, list[tuple[int, Cyc]]] = {}
        for f, bs in T.block_of.items():
            for (j, k), v in gen[f].items():
                rows.setdefault(T.index[bs[j]], []).append((k, v))
        table.append(rows)
    return table


def glk_generated_algebra(T: TensorSpace) -> SpanBasis:
    """The span of the unital algebra generated by the Leibniz embeddings.

    A block-diagonal X is the vector of its blocks X_f, each row-major, in
    sorted order of f, as in verify_double_centralizer.  Exact span growth
    by right multiplication only.  The span W holds 1, and x g is pushed for
    every element x that enlarged W and every generator g, so W g lies in W
    for each generator; hence W holds every word 1 g_1 ... g_r, and W is the
    generated algebra.  This is the package's one span closure.  Each x is
    the residue along W of a pushed element: the part removed lies in W, so
    its products do too once the closure ends, and the residue is sparser.

    x g sends the entry v of x at (f, i, j) to v g_jk at (f, i, k), read from
    the generators' row maps (_generator_rows), so no matrix product is formed.
    """
    one = Cyc.one(T.ell)
    gens = _generator_rows(T)
    # vector position of (f, i, j) -> (position of (f, i, 0), index of the row tensor j of f)
    cells: list[tuple[int, int]] = []
    identity = {}
    for f in sorted(T.block_of):
        bs = T.block_of[f]
        for i in range(len(bs)):
            base = len(cells)
            identity[base + i] = one
            cells += ((base, T.index[b]) for b in bs)
    sb = SpanBasis(T.ell, len(cells))
    frontier = [identity]
    while frontier:
        x = sb.residue(frontier.pop())
        if sb.add(x):
            frontier += (_times(x, rows, cells) for rows in gens)
    return sb


def _times(x: dict[int, Cyc], rows: dict, cells: list[tuple[int, int]]) -> dict[int, Cyc]:
    """x times a generator's row maps: the entry v of x at p, cells[p] = (base, r), adds v g_rk at base + k."""
    out: dict[int, Cyc] = {}
    for p, v in x.items():
        base, r = cells[p]
        for k, w in rows.get(r, ()):
            y, z = v * w, out.get(base + k)
            out[base + k] = y if z is None else z + y
    return {q: c for q, c in out.items() if any(c.num)}


def _compose_index_maps(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """The index map of A(outer) A(inner): j -> outer[inner[j]]."""
    return tuple(outer[i] for i in inner)


def verify_commuting(T: TensorSpace) -> dict:
    """The groupoid action commutes with the GL generators.

    A `gkd._closure` walk on the k = 1 quotient checks A(s o x) = A(s) A(x) on
    each step and reaches every morphism, so each A(m) is a word in the A(s)
    and A(id).  Those permute the tensor basis, so each step compares index
    maps (`morphism_index_map`), and A(s) G_f = G_g A(s) says that the entry
    map of G_f relabelled along the index map pi of s, {(pi[i], pi[j]): v},
    is that of G_g.
    """
    Q, act = quotient_groupoid(T.ell, 1, T.d), cache(T.morphism_index_map)
    objs, gens = range(len(Q.orbits)), _quotient_generators(Q, sorted({type_of(f, T.ell) for f in T.block_of}))
    reached = _closure(Q, gens, objs, lambda s, x, y: act(y) == _compose_index_maps(act(s), act(x)))
    walked = reached == set(Q.all_qmorphisms())
    steps, gl = gens + [Q.identity(o) for o in objs], glk_generators(T)
    relabelled = all(
        {(pi[i], pi[j]): v for (i, j), v in G[s.source].items()} == G[s.target]
        for s in steps for pi in [act(s)] for G in gl
    )
    return suite_result([record("groupoid action commutes with GL generators", walked and relabelled)])


@_once_per_space
def _image_pair_spans(T: TensorSpace) -> dict:
    """Per ordered object pair with a morphism, (|hom(f, g)|, the span of its action matrices)."""
    out, one = {}, Cyc.one(T.ell)
    objs = sorted(T.block_of)
    for f in objs:
        for g in objs:
            ms = hom(f, g, T.ell)
            if not ms:
                continue
            n_src = T.block_dim(f)
            sb = SpanBasis(T.ell, n_src * T.block_dim(g))
            for m in ms:
                # the 0/1 matrix of m, row-major: entry (pi[j], j) is 1
                sb.add({i * n_src + j: one for j, i in enumerate(T.morphism_index_map(m))})
            out[(f, g)] = (len(ms), sb)
    return out


def verify_double_centralizer(T: TensorSpace) -> dict:
    """Double centralizer: the A-image equals the GL commutant, and vice versa."""
    gens = glk_generators(T)
    objs = sorted(T.block_of)
    checks = []

    # (a)+(b): the A-image equals the commutant of the GL generators,
    # pair of blocks by pair of blocks
    image = _image_pair_spans(T)
    ok_forward = True
    commutant_dim = 0
    image_dim = 0
    for f in objs:
        for g in objs:
            actions = [(gen[f], gen[g]) for gen in gens]
            inter = intertwiners(T.ell, T.block_dim(f), T.block_dim(g), actions)
            commutant_dim += len(inter)
            _n_hom, sb_img = image.get((f, g), (0, None))
            img_rank = sb_img.rank if sb_img else 0
            image_dim += img_rank
            # without a span (no morphism f -> g) only an empty commutant reaches all()
            if len(inter) != img_rank or not all(sb_img.contains(v) for v in inter):
                ok_forward = False
    checks.append(
        record(
            "A-image = commutant(GL) on every block pair",
            ok_forward,
            {"image_dim": image_dim, "commutant_dim": commutant_dim},
        )
    )

    # (c): commutant of the A-image equals the GL-generated algebra.
    # X commutes with every e_f, hence is block diagonal: the unknowns are the
    # blocks X_f.  Only the component generators are imposed: their commutant
    # contains that of the whole A-image, which contains the GL algebra by
    # verify_commuting, so equality with the GL algebra here gives it there.
    # A generator m: f -> g permutes the tensor basis along its index map pi,
    # so X commutes with it iff X_g[pi(u)][pi(v)] = X_f[u][v]: the commutant
    # has one basis element per orbit of the generators on the positions
    # (f, u, v), the orbital basis.  The algebra equals it iff each of its
    # rows is constant on every orbit and its rank is the orbit count.
    starts = dict(zip(objs, accumulate((T.block_dim(f) ** 2 for f in objs), initial=0)))
    parent = list(range(sum(T.block_dim(f) ** 2 for f in objs)))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for m in (m for lam in sorted({type_of(f, T.ell) for f in objs}) for m in component_generators(T.ell, lam)):
        pi, xs, xt = T.morphism_index_map(m), starts[m.source], starts[m.target]
        for u, v in product(range(len(pi)), repeat=2):
            parent[find(xs + u * len(pi) + v)] = find(xt + pi[u] * len(pi) + pi[v])
    orbit = [find(p) for p in range(len(parent))]
    size = Counter(orbit)

    def orbit_constant(row: dict[int, Cyc]) -> bool:
        # each (orbit, value) must fill its orbit: a position left out reads 0
        return all(n == size[o] for (o, _value), n in Counter((orbit[p], c) for p, c in row.items()).items())

    algebra = glk_generated_algebra(T)
    ok_back = algebra.rank == len(size) and all(orbit_constant(row) for row in algebra.rows)
    checks.append(
        record(
            "commutant(A-image) = GL-generated algebra",
            ok_back,
            {"commutant_dim": len(size), "algebra_dim": algebra.rank},
        )
    )

    exp_ok, units = _transvections_are_exponentials(T)
    checks.append(
        record("(I+E_ab)^(x d) = exp Delta(E_ab) for every off-diagonal unit", exp_ok, {"units": units})
    )

    return suite_result(checks, image_dim=image_dim, commutant_dim=commutant_dim)


def _transvections_are_exponentials(T: TensorSpace) -> tuple[bool, int]:
    """(I+E_ab)^(x d) = sum_(n<=d) Delta(E_ab)^n / n! on every block, for every a != b; and the unit count.

    Delta(E_ab)^n / n! sends a basis tensor to the tensors that turn n of its
    b-slots into a, one per subset, so the series is (I+E_ab)^(x d).  Row r
    of the series is e_r times the row maps of Delta(E_ab), d times with the
    1/n factors; row r of (I+E_ab)^(x d) has a 1 at each tensor that turns a
    subset of the a-slots of r into b, the product of (x, or b when x = a).
    """
    one = Cyc.one(T.ell)
    gens = _generator_rows(T)
    ok, units = True, 0
    for (a, b), rows in zip(_block_units(T), gens):
        if a == b:
            continue
        units += 1
        for f, bs in T.block_of.items():
            pos, cells = T.block_pos[f], [(0, T.index[b]) for b in bs]
            for r, v in enumerate(bs):
                term, series = {r: one}, {r: one}
                for n in range(1, T.d + 1):
                    term = {p: c.scale(Fraction(1, n)) for p, c in _times(term, rows, cells).items()}
                    for p, c in term.items():
                        series[p] = series[p] + c if p in series else c
                subsets = product(*((x, b) if x == a else (x,) for x in v))
                ok = ok and {p: c for p, c in series.items() if any(c.num)} == {pos[u]: one for u in subsets}
    return ok, units


def _killed_labels(T: TensorSpace) -> list:
    """Simples killed on V^(x d): some component has more than k_i rows."""
    out = []
    for mod in all_simples(T.ell, T.d):
        if any(len(pi) > ki for pi, ki in zip(mod.p, T.kvec)):
            out.append(mod)
    return out


def kernel_check(T: TensorSpace) -> dict:
    """The kernel of the A-action is the ideal of the too-many-rows simples."""
    ell, d = T.ell, T.d
    checks = []
    kernel_dim = sum(n_hom - sb.rank for n_hom, sb in _image_pair_spans(T).values())

    killed = _killed_labels(T)
    predicted = sum(m.total_dim**2 for m in killed)
    checks.append(
        record(
            "kernel dim = sum of squares over killed labels",
            kernel_dim == predicted,
            {
                "kernel_dim": kernel_dim,
                "predicted": predicted,
                "killed": [m.label_json() for m in killed],
            },
        )
    )

    # per-simple: the algebra is semisimple, so the central idempotent of p
    # kills V^(x d) iff <chi_p, chi_V> = 0, with chi_V one trace per class,
    # conjugated once
    classes = conjugacy_classes(ell, d)
    chi_v_bar = [T.character(rep).conjugate() for rep, _size in classes]
    killed_set = {m.p for m in killed}
    per_simple_ok = all(
        val.is_zero() == (mod.p in killed_set)
        for mod, (val,) in zip(all_simples(ell, d), inner_products(classes, character_table(ell, d), [chi_v_bar]))
    )
    checks.append(record("each predicted-killed simple acts by zero, others nonzero", per_simple_ok))

    return suite_result(checks, kernel_dim=kernel_dim)


def shift_duality_check(ell: int, k: int, m: int, d: int, cap: int = DEFAULT_TENSOR_CAP) -> dict:
    """Duality for G(l,k,d): the invariant algebra versus GL x the shift Z.

    Z maps v_i to v_{i + (l/k) m} (indices mod n = l m), so Z^(x d) permutes
    the tensor basis and is kept as an index map zmap.  Psi(q) sums the k
    translates of q with coefficient 1, and they have distinct sources, so
    it is the 0/1 matrix with ones at the (row, column) positions of their
    index maps: it commutes with Z^(x d) when (zmap[r], zmap[c]) maps that
    set onto itself.  The commutant of the GL generators and Z^(x d) on all
    of V^(x d) is one intertwiners solve, with Z^(x d) and each generator as
    a sparse matrix over the whole space, compared with the span of the
    Psi-images.
    """
    if ell % k != 0:
        raise ValueError("k must divide ell")
    n = ell * m
    T = TensorSpace(ell, (m,) * ell, d, cap)
    Q = quotient_groupoid(ell, k, d)
    checks = []

    shift = (ell // k) * m
    one = Cyc.one(ell)
    dim = len(T.basis)
    # Z^(x d) as an index map: entry a is the index of Z^(x d) applied to basis vector a
    zmap = tuple(T.index[tuple((x - 1 + shift) % n + 1 for x in b)] for b in T.basis)
    Ztensor = {(z, a): one for a, z in enumerate(zmap)}

    def positions(t: GMorphism):
        src, tgt = T.block_of[t.source], T.block_of[t.target]
        return ((T.index[tgt[i]], T.index[src[j]]) for j, i in enumerate(T.morphism_index_map(t)))

    psi_sets = [{rc for t in Q.psi(q) for rc in positions(t)} for q in Q.all_qmorphisms()]

    commutes = all({(zmap[r], zmap[c]) for r, c in P} == P for P in psi_sets)
    checks.append(record("Z^(x d) commutes with the Psi-image", commutes))

    # commutant of <GL generators, Z^(x d)> in one solve, each generator as a
    # block-diagonal dim x dim matrix; the kernel vectors are row-major, r * dim + c
    gl = [
        {(T.index[bs[i]], T.index[bs[j]]): v for f, bs in T.block_of.items() for (i, j), v in gen[f].items()}
        for gen in glk_generators(T)
    ]
    comm = intertwiners(ell, dim, dim, [(A, A) for A in gl + [Ztensor]])
    sb_img = SpanBasis(ell, dim * dim)
    for P in psi_sets:
        sb_img.add({r * dim + c: one for r, c in P})
    equal = len(comm) == sb_img.rank and all(sb_img.contains(v) for v in comm)
    checks.append(
        record(
            "Psi-image = commutant(GL generators + Z^(x d))",
            equal,
            {
                "image_dim": sb_img.rank,
                "commutant_dim": len(comm),
                "quotient_dim": len(psi_sets),
            },
        )
    )

    return suite_result(checks, ell=ell, k=k, m=m, d=d)
