"""Tensor-space actions and exact double-centralizer verification.

V = C^n splits into color blocks V_1,...,V_l of dimensions k_1,...,k_l; the
d-th tensor power decomposes into blocks G(f) = V_{f(1)} x ... x V_{f(d)}
indexed by color functions, and the groupoid acts by permuting tensor
factors, block f to block g along each morphism.

The group GL_k is replaced, for computation, by the unital algebra generated
by the Leibniz embeddings Delta(E_ab) = sum_t 1 x..x E_ab x..x 1 of the block
matrix units: it is finitely generated with the same commutant as the
diagonal group action (spot-checked by sampling invertible block matrices).
All ranks, kernels and commutants are computed by exact Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import AlgElem, phi
from .cyclo import Cyc, Mat, SpanBasis, intertwiners, kernel_basis
from .groupoid import GMorphism, hom
from .perms import invert_perm
from .simples import all_simples
from .wreath import enum_group, wreath_inv

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


def glk_generators(T: TensorSpace) -> list[dict]:
    """Leibniz embeddings of all block matrix units, as block-diagonal maps.

    Each generator is returned as {f: Mat on block f}; the unit is implicit.
    """
    one = Cyc.one(T.ell)
    gens = []
    offset = 0
    for size in T.kvec:
        coords = list(range(offset + 1, offset + size + 1))
        for a in coords:
            for b in coords:
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
        offset += size
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
    return {"checks": checks, "ok": commute}


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
    # X commutes with every e_f, hence is block diagonal: the unknowns are the blocks X_f.
    dims = [T.block_dim(f) for f in objs]
    actions = (
        (fi, gi, A, A)
        for fi, f in enumerate(objs)
        for gi, g in enumerate(objs)
        for A in map(T.morphism_block_matrix, hom(f, g, T.ell))
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

    spot = _group_tensor_spotcheck(T, gens)
    checks.append(
        {"name": "sampled g^(x d) commute with the GL commutant", "status": "pass" if spot else "fail"}
    )

    return {
        "checks": checks,
        "image_dim": image_dim,
        "commutant_dim": commutant_dim,
        "ok": ok_forward and ok_back and spot,
    }


def _group_tensor_spotcheck(T: TensorSpace, gens, samples: int = 3, seed: int = 11) -> bool:
    """Sampled invertible block matrices g: g^(x d) lies in commutant(commutant(GL)).

    This spot-checks that replacing the group GL_k by the Leibniz-generated
    algebra did not change the commutant.
    """
    import random

    rng = random.Random(seed)
    ell = T.ell
    objs = sorted(T.block_of)
    inters = []
    for f in objs:
        for g in objs:
            for X in _intertwiners(T, gens, f, g):
                inters.append((f, g, X))
    for _ in range(samples):
        # unitriangular * diagonal(nonzero) * lower-unitriangular is invertible
        blocks = []
        for size in T.kvec:
            up = [[Fraction(1 if i == j else (rng.randint(-2, 2) if j > i else 0)) for j in range(size)] for i in range(size)]
            lo = [[Fraction(1 if i == j else (rng.randint(-2, 2) if j < i else 0)) for j in range(size)] for i in range(size)]
            dg = [[Fraction(rng.choice([1, 2, 3]) if i == j else 0) for j in range(size)] for i in range(size)]
            up_m = Mat.from_fraction_rows(ell, up)
            lo_m = Mat.from_fraction_rows(ell, lo)
            dg_m = Mat.from_fraction_rows(ell, dg)
            blocks.append(up_m * dg_m * lo_m)
        # g acting on V, then on each tensor block
        entries = []
        off = 0
        for b, size in zip(blocks, T.kvec):
            entries += b.entries(off, off)
            off += size
        gv = Mat.from_entries(ell, T.n, T.n, entries).rows
        for f, g, X in inters:
            src, tgt = T.block_of[f], T.block_of[g]
            # (g^(x d) X)[bt][bs] vs (X g^(x d))[bt][bs], computed blockwise
            gX = [
                [
                    _tensor_entry(gv, bt, bm, T.d)
                    for bm in tgt
                ]
                for bt in tgt
            ]
            left = Mat(ell, gX) * X
            gS = Mat(ell, [[_tensor_entry(gv, bs, bm, T.d) for bm in src] for bs in src])
            right = X * gS
            if left != right:
                return False
    return True


def _tensor_entry(gv, row_tuple, col_tuple, d: int) -> Cyc:
    acc = None
    for t in range(d):
        v = gv[row_tuple[t] - 1][col_tuple[t] - 1]
        acc = v if acc is None else acc * v
    if acc is None:
        raise ValueError("tensor entries need d >= 1")
    return acc


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

    # per-simple: the central idempotent of p acts by zero iff p is predicted killed
    group = enum_group(ell, d)
    order = len(group)
    killed_set = {m.p for m in killed}
    per_simple_ok = True
    for mod in all_simples(ell, d):
        n = len(T.basis)
        acc = Mat.zeros(ell, n, n)
        for x in group:
            chi = mod.char_wreath(wreath_inv(x))
            if chi.is_zero():
                continue
            acc = acc + T.act_full(phi(x, d)).scale_cyc(chi)
        acc = acc.scale_cyc(Cyc.rational(ell, Fraction(mod.total_dim, order)))
        is_zero = acc.is_zero()
        if is_zero != (mod.p in killed_set):
            per_simple_ok = False
    checks.append(
        {
            "name": "each predicted-killed simple acts by zero, others nonzero",
            "status": "pass" if per_simple_ok else "fail",
        }
    )

    return {"checks": checks, "kernel_dim": kernel_dim, "ok": all(c["status"] == "pass" for c in checks)}


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

    return {
        "ell": ell,
        "k": k,
        "m": m,
        "d": d,
        "checks": checks,
        "ok": all(c["status"] == "pass" for c in checks),
    }
