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
All ranks, kernels and commutants are computed by exact Gaussian elimination.
Whether the central idempotent of a simple p kills V^(x d) is read from
characters: the algebra is semisimple, so it does iff <chi_V, chi_p> = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import AlgElem, phi
from .cyclo import Cyc, Mat, SpanBasis, intertwiners, kernel_basis
from .groupoid import GMorphism, component_generators, hom, type_of
from .perms import invert_perm
from .reporting import suite_result
from .simples import ClassFunction, all_simples, character_table, inner_product

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

    def dim(self) -> int:
        return len(self.basis)

    def block_dim(self, f) -> int:
        return len(self.block_of.get(tuple(f), ()))

    # -- groupoid action -----------------------------------------------------

    def morphism_block_matrix(self, m: GMorphism) -> Mat:
        """0/1 matrix of m from block(source) to block(target)."""
        src = self.block_of[m.source]
        tgt_pos = self.block_pos[m.target]
        one = Cyc.one(self.ell)
        inv = invert_perm(m.perm)
        entries = (((tgt_pos[tuple(b[i - 1] for i in inv)], j), one) for j, b in enumerate(src))
        return Mat.from_entries(self.ell, len(tgt_pos), len(src), entries)

    def act_full(self, a: AlgElem) -> Mat:
        """The matrix of an algebra element on the whole of V^(x d)."""
        entries = []
        for m, coeff in a.terms.items():
            src, tgt = self.block_of[m.source], self.block_of[m.target]
            entries += (
                ((self.index[tgt[i]], self.index[src[j]]), coeff * v)
                for (i, j), v in self.morphism_block_matrix(m).entries()
            )
        n = len(self.basis)
        return Mat.from_entries(self.ell, n, n, entries)


def _block_units(T: TensorSpace) -> list[tuple[int, int]]:
    """(a, b) for every block matrix unit E_ab, in glk_generators order."""
    out: list[tuple[int, int]] = []
    offset = 0
    for size in T.kvec:
        coords = range(offset + 1, offset + size + 1)
        out += product(coords, coords)
        offset += size
    return out


def glk_generators(T: TensorSpace) -> list[dict]:
    """Leibniz embeddings of all block matrix units, as block-diagonal maps.

    Each generator is returned as {f: Mat on block f}; the unit is implicit.
    """
    one = Cyc.one(T.ell)
    gens = []
    for a, b in _block_units(T):
        blocks = {}
        for f, bs in T.block_of.items():
            pos = T.block_pos[f]
            entries = (
                ((pos[vec[:t] + (a,) + vec[t + 1 :]], j), one)
                for j, vec in enumerate(bs)
                for t in range(T.d)
                if vec[t] == b
            )
            blocks[f] = Mat.from_entries(T.ell, len(bs), len(bs), entries)
        gens.append(blocks)
    return gens


def _blockdiag_identity(T: TensorSpace) -> dict:
    return {f: Mat.identity(T.ell, len(bs)) for f, bs in T.block_of.items()}


def _blockdiag_mul(x: dict, y: dict) -> dict:
    return {f: x[f] * y[f] for f in x}


def _blockdiag_vector(T: TensorSpace, x: dict) -> list[Cyc]:
    out = []
    for f in sorted(x):
        for row in x[f].rows:
            out.extend(row)
    return out


def glk_generated_algebra(T: TensorSpace) -> list[dict]:
    """Basis of the unital algebra generated by the Leibniz embeddings.

    Closure by exact span growth inside the block-diagonal endomorphisms,
    with early termination when the dimension stabilizes.
    """
    gens = glk_generators(T)
    n_coords = sum(len(bs) ** 2 for bs in T.block_of.values())
    sb = SpanBasis(T.ell, n_coords)
    basis: list[dict] = []

    def push(x: dict) -> bool:
        if sb.add(_blockdiag_vector(T, x)):
            basis.append(x)
            return True
        return False

    push(_blockdiag_identity(T))
    for g in gens:
        push(g)
    frontier = list(basis)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for cand in (_blockdiag_mul(x, g), _blockdiag_mul(g, x)):
                    if push(cand):
                        new.append(cand)
        frontier = new
    return basis


def _intertwiners(T: TensorSpace, gens: list[dict], f, g) -> list[Mat]:
    """Basis of {X: block(f) -> block(g) with X D|_f = D|_g X for all generators}."""
    nf, ng = T.block_dim(f), T.block_dim(g)
    basis = intertwiners(T.ell, [nf], [ng], [(0, 0, gen[f], gen[g]) for gen in gens])
    return [Mat(T.ell, [vec[r * nf : (r + 1) * nf] for r in range(ng)]) for vec in basis]


def verify_commuting(T: TensorSpace) -> dict:
    """The groupoid action commutes with the GL generators."""
    gens = glk_generators(T)
    commute = True
    objs = sorted(T.block_of)
    for f in objs:
        for g in objs:
            for m in hom(f, g, T.ell):
                A = T.morphism_block_matrix(m)
                for gen in gens:
                    if not (A * gen[f]) == (gen[g] * A):
                        commute = False
    checks = [
        {"name": "groupoid action commutes with GL generators", "status": "pass" if commute else "fail"}
    ]
    return suite_result(checks)


def _image_pair_spans(T: TensorSpace) -> dict:
    """Per ordered object pair, the span of the morphism action matrices."""
    out = {}
    objs = sorted(T.block_of)
    for f in objs:
        for g in objs:
            ms = hom(f, g, T.ell)
            if not ms:
                continue
            sb = SpanBasis(T.ell, T.block_dim(f) * T.block_dim(g))
            mats = []
            for m in ms:
                A = T.morphism_block_matrix(m)
                if sb.add([v for row in A.rows for v in row]):
                    mats.append(A)
            out[(f, g)] = (sb, mats)
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
            inter = _intertwiners(T, gens, f, g)
            commutant_dim += len(inter)
            sb_img = image.get((f, g), (None, None))[0]
            img_rank = sb_img.rank if sb_img else 0
            image_dim += img_rank
            if len(inter) != img_rank:
                ok_forward = False
                continue
            if sb_img:
                for X in inter:
                    if not sb_img.contains([v for row in X.rows for v in row]):
                        ok_forward = False
    checks.append(
        {
            "name": "A-image = commutant(GL) on every block pair",
            "status": "pass" if ok_forward else "fail",
            "details": {"image_dim": image_dim, "commutant_dim": commutant_dim},
        }
    )

    # (c): commutant of the A-image equals the GL-generated algebra.
    # X commutes with every e_f, hence is block diagonal: the unknowns are the
    # blocks X_f.  Only the component generators are imposed: their commutant
    # contains that of the whole A-image, which contains the GL algebra by
    # verify_commuting, so equality with the GL algebra here gives it there.
    index = {f: i for i, f in enumerate(objs)}
    dims = [T.block_dim(f) for f in objs]
    actions = (
        (index[m.source], index[m.target], A, A)
        for lam in sorted({type_of(f, T.ell) for f in objs})
        for m in component_generators(T.ell, lam)
        for A in [T.morphism_block_matrix(m)]
    )
    comm_A = intertwiners(T.ell, dims, dims, actions)
    algebra = glk_generated_algebra(T)
    sb_alg = SpanBasis(T.ell, sum(n * n for n in dims))
    for x in algebra:
        sb_alg.add(_blockdiag_vector(T, x))
    ok_back = len(comm_A) == sb_alg.rank and all(sb_alg.contains(v) for v in comm_A)
    checks.append(
        {
            "name": "commutant(A-image) = GL-generated algebra",
            "status": "pass" if ok_back else "fail",
            "details": {"commutant_dim": len(comm_A), "algebra_dim": sb_alg.rank},
        }
    )

    exp_ok, units = _transvections_are_exponentials(T, gens)
    checks.append(
        {
            "name": "(I+E_ab)^(x d) = exp Delta(E_ab) for every off-diagonal unit",
            "status": "pass" if exp_ok else "fail",
            "details": {"units": units},
        }
    )

    return suite_result(checks, image_dim=image_dim, commutant_dim=commutant_dim)


def _transvections_are_exponentials(T: TensorSpace, gens: list[dict]) -> tuple[bool, int]:
    """(I+E_ab)^(x d) = sum_(n<=d) Delta(E_ab)^n / n! on every block, for every a != b.

    Delta(E_ab) is the generator of gens at the position of E_ab.  Returns
    whether the identity holds and the number of units checked.
    """
    ell, one = T.ell, Cyc.one(T.ell)
    ok, units = True, 0
    for (a, b), gen in zip(_block_units(T), gens):
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
                term = (term * gen[f]).scale_cyc(Cyc.rational(ell, Fraction(1, power)))
                series = series + term
            ok = ok and tensor == series
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
    objs = sorted(T.block_of)

    kernel_dim = 0
    for f in objs:
        for g in objs:
            ms = hom(f, g, ell)
            if not ms:
                continue
            sb = SpanBasis(ell, T.block_dim(f) * T.block_dim(g))
            for m in ms:
                A = T.morphism_block_matrix(m)
                sb.add([v for row in A.rows for v in row])
            kernel_dim += len(ms) - sb.rank

    killed = _killed_labels(T)
    predicted = sum(m.total_dim**2 for m in killed)
    checks.append(
        {
            "name": "kernel dim = sum of squares over killed labels",
            "status": "pass" if kernel_dim == predicted else "fail",
            "details": {
                "kernel_dim": kernel_dim,
                "predicted": predicted,
                "killed": [m.label_json() for m in killed],
            },
        }
    )

    # per-simple: the algebra is semisimple, so the central idempotent of p
    # kills V^(x d) iff <chi_V, chi_p> = 0, with chi_V one trace per class
    chi_v = ClassFunction.from_callable(ell, d, lambda x: T.act_full(phi(x, d)).trace())
    killed_set = {m.p for m in killed}
    per_simple_ok = all(
        inner_product(ell, d, chi_v, chi_p).is_zero() == (mod.p in killed_set)
        for mod, chi_p in zip(all_simples(ell, d), character_table(ell, d))
    )
    checks.append(
        {
            "name": "each predicted-killed simple acts by zero, others nonzero",
            "status": "pass" if per_simple_ok else "fail",
        }
    )

    return suite_result(checks, kernel_dim=kernel_dim)


def shift_duality_check(ell: int, k: int, m: int, d: int, cap: int = DEFAULT_TENSOR_CAP) -> dict:
    """Duality for G(l,k,d): the invariant algebra versus GL x the shift Z.

    Z maps v_i to v_{i + (l/k) m} (indices mod n = l m); its d-th tensor power
    is adjoined to the GL generators, and the commutant of the enlarged set is
    compared with the image of the quotient algebra under Psi.
    """
    from .gkd import quotient_groupoid

    if ell % k != 0:
        raise ValueError("k must divide ell")
    n = ell * m
    T = TensorSpace(ell, (m,) * ell, d, cap)
    Q = quotient_groupoid(ell, k, d)
    checks = []

    shift = (ell // k) * m
    one = Cyc.one(ell)
    dim = len(T.basis)
    moved = {b: tuple((x - 1 + shift) % n + 1 for x in b) for b in T.basis}
    Ztensor = Mat.from_entries(ell, dim, dim, (((T.index[moved[b]], T.index[b]), one) for b in T.basis))

    psi_mats = [T.act_full(Q.psi(q)) for q in Q.all_qmorphisms()]

    commutes = all(Ztensor.commutes_with(M) for M in psi_mats)
    checks.append(
        {"name": "Z^(x d) commutes with the Psi-image", "status": "pass" if commutes else "fail"}
    )

    # commutant of <GL generators, Z^(x d)>: start from the per-pair GL
    # commutant and impose commutation with Z inside that span
    gens = glk_generators(T)
    objs = sorted(T.block_of)
    cgl: list[Mat] = []
    for f in objs:
        for g in objs:
            src, tgt = T.block_of[f], T.block_of[g]
            for X in _intertwiners(T, gens, f, g):
                entries = (((T.index[tgt[i]], T.index[src[j]]), v) for (i, j), v in X.entries())
                cgl.append(Mat.from_entries(ell, dim, dim, entries))

    nsq = dim**2
    rows = []
    for X in cgl:
        Df = X * Ztensor - Ztensor * X
        rows.append([v for row in Df.rows for v in row])
    coeff_rows = list(map(list, zip(*rows))) if rows else []
    coeffs = kernel_basis(ell, coeff_rows, len(cgl))
    sb_comm = SpanBasis(ell, nsq)
    for cvec in coeffs:
        acc = Mat.zeros(ell, dim, dim)
        for c, X in zip(cvec, cgl):
            if not c.is_zero():
                acc = acc + X.scale_cyc(c)
        sb_comm.add([v for row in acc.rows for v in row])

    sb_img = SpanBasis(ell, nsq)
    for M in psi_mats:
        sb_img.add([v for row in M.rows for v in row])

    equal = sb_comm.rank == sb_img.rank and all(
        sb_comm.contains(r) for r in sb_img.rows
    )
    checks.append(
        {
            "name": "Psi-image = commutant(GL generators + Z^(x d))",
            "status": "pass" if equal else "fail",
            "details": {
                "image_dim": sb_img.rank,
                "commutant_dim": sb_comm.rank,
                "quotient_dim": len(psi_mats),
            },
        }
    )

    return suite_result(checks, ell=ell, k=k, m=m, d=d)
