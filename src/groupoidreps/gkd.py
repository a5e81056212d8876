"""Color rotation, the quotient groupoid, and the complex reflection groups G(l,k,d).

For k | l the group H_k generated by the color rotation theta_k (shift by
l/k) acts freely on the groupoid (d >= 1); the quotient groupoid has one
object per H_k-orbit.  Each quotient morphism is stored by its unique
representative whose source is the chosen orbit representative.

The algebra of the quotient embeds into A_(l,d) by orbit sums (Psi); its
image is the H_k-invariant subspace and coincides with the span of
Phi(G(l,k,d)), realizing C[G(l,k,d)] inside the groupoid algebra.

Simple modules of the quotient sit over a cross-section Gamma of type
orbits.  Over a shape lambda with stabilizer H_k^lambda of order r, a
multi-partition p with stabilizer of order s carries s simple modules
L_(p,m): the color-preserving part acts by outer Specht matrices on
W = V_0 + ... + V_{r/s-1} (V_j a rotated copy of S_p) and the canonical
rotation acts by a tensor-slot rotation times the scalar xi_l^{(l/s) m}.
On shapes whose stabilizer fixes p (every case with d <= 3) this reduces to
the scalar action xi_l^{(l/r) t m} on S_p itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import factorial
from typing import NamedTuple

from .algebra import AlgElem, _rank_of_phi_images, phi
from .cyclo import (
    Cyc,
    LinSolver,  # noqa: F401  (unused here; perfbench/tests patch gkd.LinSolver)
    Mat,
    intertwiners,
    root_of_unity,
)
from .groupoid import (
    GMorphism,
    canonical_morphism,
    canonical_object,
    component_generators,
    compose,
    hom,
    identity_morphism,
    inverse,
    objects,
    type_of,
)
from .reporting import suite_result
from .simples import all_simples, build_simple
from .tableaux import compositions, multipartitions, outer_rep
from .wreath import (
    WreathElem,
    conjugacy_classes_of,
    gkd_elements,
    gkd_generators,
)

__all__ = [
    "theta_color",
    "theta_object",
    "theta_type",
    "theta_morphism",
    "QuotientGroupoid",
    "quotient_groupoid",
    "gamma_cross_section",
    "QuotientSimpleModule",
    "build_quotient_simple",
    "quotient_labels",
    "quotient_structure_report",
    "reflection_span_check",
    "quotient_simples_check",
    "restriction_check",
    "rotation_eigenspace_check",
    "gkd_conjugacy_classes",
]


def theta_color(c: int, shift: int, ell: int) -> int:
    return (c - 1 + shift) % ell + 1


def theta_object(f, shift: int, ell: int):
    return tuple(theta_color(c, shift, ell) for c in f)


def theta_type(lam, shift: int):
    """Type of the rotated object: new[j] = old[j - shift]."""
    ell = len(lam)
    return tuple(lam[(j - shift) % ell] for j in range(ell))


def theta_morphism(m: GMorphism, shift: int, ell: int) -> GMorphism:
    """Rotation fixes the underlying permutation and moves the endpoints."""
    return GMorphism(
        theta_object(m.source, shift, ell),
        theta_object(m.target, shift, ell),
        m.perm,
    )


class QMorphism(NamedTuple):
    """A quotient morphism, stored by the representative with normalized source."""

    raw: GMorphism


class QuotientGroupoid:
    """The quotient of the (l,d) groupoid by the color-rotation group H_k."""

    def __init__(self, ell: int, k: int, d: int):
        if k < 1 or ell % k != 0:
            raise ValueError("k must be a positive divisor of ell")
        self.ell = ell
        self.k = k
        self.d = d
        self.shift = ell // k  # theta_k shifts colors by this amount
        self.orbits: list[tuple[tuple, ...]] = []
        self.orbit_of: dict[tuple, int] = {}
        for f in objects(ell, d):
            if f in self.orbit_of:
                continue
            orbit = []
            g = f
            while True:
                orbit.append(g)
                g = theta_object(g, self.shift, ell)
                if g == f:
                    break
            orbit_sorted = tuple(sorted(orbit))
            idx = len(self.orbits)
            self.orbits.append(orbit_sorted)
            for g in orbit_sorted:
                self.orbit_of[g] = idx

    # -- objects -----------------------------------------------------------

    def rep(self, oi: int):
        return self.orbits[oi][0]

    def type_stabilizer_order(self, lam) -> int:
        return sum(
            1 for t in range(self.k) if theta_type(lam, t * self.shift) == lam
        )

    def _translate_exponent(self, src, dst) -> int:
        """t with theta_k^t(src) = dst (unique for d >= 1; 0 for d = 0)."""
        g = src
        for t in range(self.k):
            if g == dst:
                return t
            g = theta_object(g, self.shift, self.ell)
        raise ValueError("objects are not in the same orbit")

    def translate(self, m: GMorphism, t: int) -> GMorphism:
        return theta_morphism(m, t * self.shift, self.ell)

    def normalize(self, m: GMorphism) -> QMorphism:
        """The orbit representative of m whose source is the orbit representative."""
        oi = self.orbit_of[m.source]
        t = self._translate_exponent(m.source, self.rep(oi))
        return QMorphism(self.translate(m, t))

    def identity(self, oi: int) -> QMorphism:
        return QMorphism(identity_morphism(self.rep(oi)))

    def source_orbit(self, q: QMorphism) -> int:
        return self.orbit_of[q.raw.source]

    def target_orbit(self, q: QMorphism) -> int:
        return self.orbit_of[q.raw.target]

    def hom(self, o1: int, o2: int) -> list[QMorphism]:
        out = []
        src = self.rep(o1)
        seen = set()
        for tgt in self.orbits[o2]:
            for m in hom(src, tgt, self.ell):
                q = QMorphism(m)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
        out.sort(key=lambda q: (q.raw.target, q.raw.perm))
        return out

    def all_qmorphisms(self) -> list[QMorphism]:
        out = []
        for o1 in range(len(self.orbits)):
            for o2 in range(len(self.orbits)):
                out.extend(self.hom(o1, o2))
        return out

    def compose(self, q2: QMorphism, q1: QMorphism) -> QMorphism:
        """q2 o q1; the representative of q2 is translated to match q1's target."""
        if self.target_orbit(q1) != self.source_orbit(q2):
            raise ValueError("quotient morphisms are not composable")
        t = self._translate_exponent(q2.raw.source, q1.raw.target)
        moved = self.translate(q2.raw, t)
        return QMorphism(compose(moved, q1.raw))

    def inverse(self, q: QMorphism) -> QMorphism:
        return self.normalize(inverse(q.raw))

    def psi(self, q: QMorphism) -> AlgElem:
        """Orbit sum in A_(l,d): the embedding of the quotient algebra."""
        one = Cyc.one(self.ell)
        terms = {}
        m = q.raw
        for t in range(self.k):
            terms[self.translate(m, t)] = one
        return AlgElem(self.ell, self.d, terms)

    def phi_to_quotient(self, x: WreathElem) -> dict[QMorphism, Cyc]:
        """Coordinates of Phi(x) in the quotient basis (x must lie in G(l,k,d))."""
        a = phi(x, self.d)
        coords: dict[QMorphism, Cyc] = {}
        for m, c in a.terms.items():
            q = self.normalize(m)
            prev = coords.get(q)
            if prev is None:
                coords[q] = c
            elif prev != c:
                raise ValueError("Phi image is not H_k-invariant; x is outside G(l,k,d)")
        return coords


@lru_cache(maxsize=None)
def quotient_groupoid(ell: int, k: int, d: int) -> QuotientGroupoid:
    return QuotientGroupoid(ell, k, d)


def gamma_cross_section(ell: int, k: int, d: int) -> list[tuple]:
    """Lexicographically smallest composition in each H_k-orbit of types."""
    shift = ell // k
    out = []
    seen = set()
    for lam in compositions(ell, d):
        if lam in seen:
            continue
        orbit = {theta_type(lam, t * shift) for t in range(k)}
        seen |= orbit
        out.append(min(orbit))
    return sorted(out)


# ---------------------------------------------------------------------------
# Structure checks: endomorphism groups of quotient objects
# ---------------------------------------------------------------------------


def endo_structure(Q: QuotientGroupoid, oi: int) -> dict:
    """Stabilizer order and the Lemma-51 cardinality for one quotient object."""
    f = Q.rep(oi)
    lam = type_of(f, Q.ell)
    r = Q.type_stabilizer_order(lam)
    lam_fact = 1
    for li in lam:
        lam_fact *= factorial(li)
    endos = Q.hom(oi, oi)
    return {
        "representative": list(f),
        "type": list(lam),
        "stabilizer_order": r,
        "endo_count": len(endos),
        "cardinality_ok": len(endos) == r * lam_fact,
    }


def quotient_structure_report(ell: int, k: int, d: int) -> dict:
    """Freeness, object count, endomorphism structure, representative independence."""
    Q = quotient_groupoid(ell, k, d)
    checks = []

    free = all(len(orb) == k for orb in Q.orbits)
    checks.append({"name": "H_k acts freely on objects", "status": "pass" if free else "fail"})
    count_ok = len(Q.orbits) == ell**d // k
    checks.append(
        {
            "name": "object count = l^d / k",
            "status": "pass" if count_ok else "fail",
            "details": {"objects": len(Q.orbits)},
        }
    )

    endo_rows = []
    endo_ok = True
    for oi in range(len(Q.orbits)):
        f = Q.rep(oi)
        lam = type_of(f, ell)
        r = Q.type_stabilizer_order(lam)
        lam_fact = 1
        for li in lam:
            lam_fact *= factorial(li)
        endos = Q.hom(oi, oi)
        ok = len(endos) == r * lam_fact
        # the color-preserving part embeds as a normal subgroup
        inner = {QMorphism(m) for m in hom(f, f, ell)}
        ok = ok and len(inner) == lam_fact
        for q in endos:
            qi = Q.inverse(q)
            if any(Q.compose(Q.compose(q, n), qi) not in inner for n in inner):
                ok = False
                break
        # the canonical rotation generates a cyclic complement of order r
        if r > 1:
            hshift = ell // r
            gen = Q.normalize(
                canonical_morphism(f, theta_object(f, hshift, ell), ell)
            )
            power = Q.identity(oi)
            order = 0
            for step in range(1, r + 1):
                power = Q.compose(gen, power)
                order = step
                if power == Q.identity(oi):
                    break
            ok = ok and order == r and power == Q.identity(oi)
        endo_rows.append({"orbit": list(f), "stabilizer": r, "endos": len(endos), "ok": ok})
        endo_ok = endo_ok and ok
    checks.append(
        {
            "name": "|endo| = |stabilizer| * lam! with normal color-preserving part",
            "status": "pass" if endo_ok else "fail",
            "details": {"orbits": endo_rows},
        }
    )

    total = sum(len(Q.hom(o1, o2)) for o1 in range(len(Q.orbits)) for o2 in range(len(Q.orbits)))
    expected = ell**d * factorial(d) // k
    checks.append(
        {
            "name": "dim A_(l,k,d) = l^d d!/k",
            "status": "pass" if total == expected else "fail",
            "details": {"dim": total, "expected": expected},
        }
    )

    indep = True
    qms = Q.all_qmorphisms()
    for q1 in qms:
        for q2 in qms:
            if Q.target_orbit(q1) != Q.source_orbit(q2):
                continue
            base = Q.compose(q2, q1)
            # recompose from rotated representatives of both factors
            for t1 in range(1, Q.k):
                m1 = Q.translate(q1.raw, t1)
                t = Q._translate_exponent(q2.raw.source, m1.target)
                m2 = Q.translate(q2.raw, t)
                if Q.normalize(compose(m2, m1)) != base:
                    indep = False
    checks.append(
        {
            "name": "quotient composition independent of representatives",
            "status": "pass" if indep else "fail",
        }
    )

    return suite_result(checks, ell=ell, k=k, d=d)


# ---------------------------------------------------------------------------
# Psi and the identification with C[G(l,k,d)]
# ---------------------------------------------------------------------------


def _quotient_generators(Q: QuotientGroupoid, lams) -> list[QMorphism]:
    """The normalized component generators of the types lams, without repeats."""
    return list(dict.fromkeys(Q.normalize(m) for lam in lams for m in component_generators(Q.ell, lam)))


def _closure(Q: QuotientGroupoid, gens: list[QMorphism], objs, holds) -> set | None:
    """Compose gens onto the identities at objs until nothing new appears.

    holds(s, x, s o x) is tested for every morphism x reached and every
    identity or generator s composable with it.  Returns the morphisms
    reached, or None at the first step where holds is false.  When every
    basis morphism is reached, each one is a word in gens, so induction on
    that word carries holds from the generators to all composable pairs.
    """
    by_source: dict[int, list[QMorphism]] = {o: [Q.identity(o)] for o in objs}
    for s in gens:
        by_source[Q.source_orbit(s)].append(s)
    reached = {Q.identity(o) for o in objs}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for s in by_source[Q.target_orbit(x)]:
            y = Q.compose(s, x)
            if not holds(s, x, y):
                return None
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def reflection_span_check(ell: int, k: int, d: int) -> dict:
    Q = quotient_groupoid(ell, k, d)
    checks = []
    qms = Q.all_qmorphisms()
    dim_quotient = len(qms)
    psi = {q: Q.psi(q) for q in qms}

    # Psi injectivity: orbit sums have pairwise disjoint supports.
    supports: set = set()
    overlap = False
    for image in psi.values():
        sup = set(image.terms)
        if supports & sup:
            overlap = True
        supports |= sup
    inj = (not overlap) and len(supports) == ell**d * factorial(d)
    checks.append({"name": "Psi injective (disjoint orbit supports)", "status": "pass" if inj else "fail"})

    # Psi multiplicative on the basis.  Psi(q) lies in e_target A e_source,
    # which gives the zero products of the pairs that do not compose; on the
    # pairs that do, Psi(s) Psi(q) = Psi(s o q) for the generators s suffices.
    in_corner = all(
        Q.orbit_of[m.source] == Q.source_orbit(q) and Q.orbit_of[m.target] == Q.target_orbit(q)
        for q, image in psi.items()
        for m in image.terms
    )
    gens = _quotient_generators(Q, gamma_cross_section(ell, k, d))
    reached = _closure(Q, gens, range(len(Q.orbits)), lambda s, x, y: psi[s] * psi[x] == psi[y])
    mult_ok = in_corner and reached == set(qms)
    checks.append({"name": "Psi multiplicative on the basis", "status": "pass" if mult_ok else "fail"})

    # Phi(G(l,k,d)) lies in the H_k-invariant span (coefficients orbit-constant)
    members = gkd_elements(ell, k, d)
    invariant = True
    for x in members:
        try:
            Q.phi_to_quotient(x)
        except ValueError:
            invariant = False
            break
    checks.append(
        {"name": "Phi(G(l,k,d)) is H_k-invariant", "status": "pass" if invariant else "fail"}
    )

    # exact rank of {Phi(x) : x in G} equals dim A_(l,k,d); with the previous
    # containment this gives span equality.
    rank = _rank_of_phi_images(ell, d, members)
    rank_ok = rank == dim_quotient == ell**d * factorial(d) // k
    checks.append(
        {
            "name": "span Phi(G) = span Psi (exact rank and containment)",
            "status": "pass" if (rank_ok and invariant) else "fail",
            "details": {"rank": rank, "dim": dim_quotient},
        }
    )

    return suite_result(checks, ell=ell, k=k, d=d)


# ---------------------------------------------------------------------------
# Simple modules L_(p,m) of the quotient
# ---------------------------------------------------------------------------


def _rotate_multipartition(p, idx_shift: int):
    """(z.p)_c = p_{z^{-1}(c)} for the color rotation z by idx_shift."""
    ell = len(p)
    return tuple(p[(c - idx_shift) % ell] for c in range(ell))


def _p_stabilizer_order(p, lam_stab_order: int, ell: int) -> int:
    """Order of the stabilizer of p inside H_k^lambda (cyclic, generated by shift l/r)."""
    r = lam_stab_order
    if r == 1:
        return 1
    u = ell // r
    s = 1
    for j in range(1, r):
        if _rotate_multipartition(p, j * u) == p:
            # stabilizer is generated by the smallest such power
            return r // j
    return s


def _slot_rotation(ell_field: int, dims_src: list[int], source_slot, scalar: Cyc) -> Mat:
    """Matrix of the tensor-basis map (target slot c) <- (source slot source_slot(c)).

    dims_src[c] is the dimension of source factor c (0-based slots); the first
    factor is the slowest index in the Kronecker convention.
    """
    nslots = len(dims_src)
    dims_tgt = [dims_src[source_slot(c)] for c in range(nslots)]
    total = 1
    for v in dims_src:
        total *= v

    def flatten(idx, dims):
        out = 0
        for b, dim in zip(idx, dims):
            out = out * dim + b
        return out

    entries = []
    for src_idx in product(*(range(v) for v in dims_src)):
        tgt_idx = [src_idx[source_slot(c)] for c in range(nslots)]
        entries.append(((flatten(tgt_idx, dims_tgt), flatten(src_idx, dims_src)), scalar))
    return Mat.from_entries(ell_field, total, total, entries)


class QuotientSimpleModule:
    """A simple module of the quotient algebra, labelled (lambda, p, m).

    lambda is the Gamma representative of its type orbit, p the chosen
    representative of its H_k^lambda-orbit of multi-partitions, and
    m in {1..s} indexes a character of the stabilizer of p.
    """

    def __init__(self, ell: int, k: int, d: int, p, m: int):
        self.ell, self.k, self.d = ell, k, d
        self.Q = quotient_groupoid(ell, k, d)
        self.p = tuple(tuple(pi) for pi in p)
        self.lam = tuple(sum(pi) for pi in self.p)
        self.r = self.Q.type_stabilizer_order(self.lam)
        self.s = _p_stabilizer_order(self.p, self.r, ell)
        if not 1 <= m <= self.s:
            raise ValueError("m must lie in {1..s} for the stabilizer order s of p")
        self.m = m
        self.base = canonical_object(self.lam)
        self.u = ell // self.r  # color shift of the stabilizer generator h
        # V_j carries the multi-partition q_j with q_j[c] = p[c + j*u]
        self.copies = self.r // self.s
        self.q_parts = [
            tuple(self.p[(c + j * self.u) % ell] for c in range(ell))
            for j in range(self.copies)
        ]
        self.reps = [outer_rep(qp, self.lam) for qp in self.q_parts]
        self.block_dim = sum(rep.dim for rep in self.reps)
        # quotient objects of the component, each anchored at its lex-min
        # object of type lambda
        self.component: list[int] = []
        self.anchor_obj: dict[int, tuple] = {}
        lam_orbit = {theta_type(self.lam, t * self.Q.shift) for t in range(k)}
        for oi in range(len(self.Q.orbits)):
            if type_of(self.Q.rep(oi), ell) in lam_orbit:
                self.component.append(oi)
                cands = [x for x in self.Q.orbits[oi] if type_of(x, ell) == self.lam]
                self.anchor_obj[oi] = min(cands)
        self.base_orbit = self.Q.orbit_of[self.base]
        self.block_index = {oi: i for i, oi in enumerate(self.component)}
        self.total_dim = self.block_dim * len(self.component)
        self._rotation = self._build_rotation()
        self._mat_cache: dict[QMorphism, Mat] = {}
        self._anchors = {
            oi: self.Q.normalize(
                canonical_morphism(self.base, self.anchor_obj[oi], ell)
            )
            for oi in self.component
        }
        self._anchor_inv = {oi: self.Q.inverse(a) for oi, a in self._anchors.items()}

    # -- the endomorphism representation at the base object -----------------

    def _build_rotation(self) -> Mat:
        """Matrix M of the canonical rotation endomorphism of the base orbit."""
        ell = self.ell
        offsets = []
        pos = 0
        for rep in self.reps:
            offsets.append(pos)
            pos += rep.dim
        hmap = lambda c: (c + self.u) % ell  # 0-based slot map
        omega = root_of_unity(ell, (ell // self.s) * self.m)
        entries = []
        for j in range(self.copies):
            jn = (j + 1) % self.copies
            scalar = omega if jn != j + 1 else Cyc.one(ell)
            dims_src = [
                self.reps[j].components[c].dim for c in range(ell)
            ]
            entries += _slot_rotation(ell, dims_src, hmap, scalar).entries(offsets[jn], offsets[j])
        return Mat.from_entries(ell, self.block_dim, self.block_dim, entries)

    def _rho_pi(self, w: tuple[int, ...]) -> Mat:
        """Block-diagonal action of a color-preserving endomorphism of the base."""
        ell = self.ell
        entries = []
        pos = 0
        for rep in self.reps:
            rat = rep.matrix_of_blockperm(w)
            entries += ((ij, Cyc.rational(ell, v.rational_value())) for ij, v in rat.entries(pos, pos))
            pos += rep.dim
        return Mat.from_entries(ell, self.block_dim, self.block_dim, entries)

    def _endo_matrix(self, q: QMorphism) -> Mat:
        """rho~ of an endomorphism of the base orbit: M^t * rho(pi)."""
        raw = q.raw
        t_to_base = self.Q._translate_exponent(raw.source, self.base)
        at_base = self.Q.translate(raw, t_to_base)
        # target is h^t(base) for a unique t in {0..r-1}
        tgt = at_base.target
        t = None
        for cand in range(self.r):
            if theta_object(self.base, cand * self.u, self.ell) == tgt:
                t = cand
                break
        if t is None:
            raise ValueError("endomorphism target is not a stabilizer translate of the base")
        pi = compose(canonical_morphism(tgt, self.base, self.ell), at_base)
        out = self._rho_pi(pi.perm)
        for _ in range(t):
            out = self._rotation * out
        return out

    # -- the module over the whole component --------------------------------

    def action_block(self, q: QMorphism) -> Mat:
        """Matrix of a basis quotient morphism within the component."""
        cached = self._mat_cache.get(q)
        if cached is not None:
            return cached
        o1, o2 = self.Q.source_orbit(q), self.Q.target_orbit(q)
        endo = self.Q.compose(self._anchor_inv[o2], self.Q.compose(q, self._anchors[o1]))
        mat = self._endo_matrix(endo)
        self._mat_cache[q] = mat
        return mat

    @cached_property
    def class_character(self) -> tuple[Cyc, ...]:
        """The character on gkd_conjugacy_classes, in their order, via Psi^(-1) Phi."""
        out = []
        for coords in _class_coordinates(self.ell, self.k, self.d):
            acc = Cyc.zero(self.ell)
            for q, coeff in coords.items():
                o1, o2 = self.Q.source_orbit(q), self.Q.target_orbit(q)
                if o1 == o2 and o1 in self.block_index:
                    acc = acc + coeff * self.action_block(q).trace()
            out.append(acc)
        return tuple(out)

    def label_json(self) -> dict:
        return {"lambda": list(self.lam), "p": [list(pi) for pi in self.p], "m": self.m}

    def __repr__(self) -> str:
        return f"QuotientSimpleModule(ell={self.ell},k={self.k},d={self.d},p={self.p},m={self.m},dim={self.total_dim})"


@lru_cache(maxsize=None)
def build_quotient_simple(ell: int, k: int, d: int, p, m: int) -> QuotientSimpleModule:
    return QuotientSimpleModule(ell, k, d, p, m)


def quotient_labels(ell: int, k: int, d: int) -> list[tuple[tuple, tuple, int]]:
    """All labels (lambda, p, m): lambda in Gamma, p an H_k^lambda-orbit

    representative on multi-partitions of shape lambda, m in {1..s_p}.
    """
    Q = quotient_groupoid(ell, k, d)
    out = []
    for lam in gamma_cross_section(ell, k, d):
        r = Q.type_stabilizer_order(lam)
        u = ell // r
        seen = set()
        for p in multipartitions(lam):
            if p in seen:
                continue
            orbit = {_rotate_multipartition(p, j * u) for j in range(r)}
            seen |= orbit
            rep = min(orbit)
            s = _p_stabilizer_order(rep, r, ell)
            for m in range(1, s + 1):
                out.append((lam, rep, m))
    return out


@lru_cache(maxsize=None)
def gkd_conjugacy_classes(ell: int, k: int, d: int) -> tuple[tuple[WreathElem, int], ...]:
    """Conjugacy classes of G(l,k,d) by orbit partitioning under its generators."""
    return conjugacy_classes_of(gkd_elements(ell, k, d), gkd_generators(ell, k, d))


@lru_cache(maxsize=None)
def _class_coordinates(ell: int, k: int, d: int) -> tuple[dict[QMorphism, Cyc], ...]:
    """Phi of each class representative of G(l,k,d), in the quotient basis."""
    Q = quotient_groupoid(ell, k, d)
    return tuple(Q.phi_to_quotient(rep) for rep, _size in gkd_conjugacy_classes(ell, k, d))


def _gkd_inner_product(ell: int, k: int, d: int, alpha, beta_conj) -> Cyc:
    """(1/|G|) sum_x alpha(x) beta_conj(x), both given per class, beta already conjugated."""
    order = ell**d * factorial(d) // k
    acc = Cyc.zero(ell)
    for (_rep, size), a, b in zip(gkd_conjugacy_classes(ell, k, d), alpha, beta_conj):
        acc = acc + (a * b).scale(size)
    return acc.scale(Fraction(1, order))


def _quotient_commutant_dim(mod: QuotientSimpleModule) -> int:
    """Exact dimension of {X : X L(q) = L(q) X for all basis quotient morphisms q}.

    Only the component generators are imposed, as in simples._commutant_dim.
    """
    Q, index, bd = mod.Q, mod.block_index, mod.block_dim
    actions = (
        (index[Q.source_orbit(q)], index[Q.target_orbit(q)], a, a)
        for q in _quotient_generators(Q, [mod.lam])
        for a in [mod.action_block(q)]
    )
    return len(intertwiners(mod.ell, [bd] * len(index), [bd] * len(index), actions))


def _quotient_functorial(mod: QuotientSimpleModule) -> bool:
    """L(s o q) = L(s) L(q) for the generators s, and they reach every basis q of the component."""
    Q, comp, act = mod.Q, mod.component, mod.action_block
    reached = _closure(Q, _quotient_generators(Q, [mod.lam]), comp, lambda s, x, y: act(y) == act(s) * act(x))
    return reached == {q for o1 in comp for o2 in comp for q in Q.hom(o1, o2)}


def quotient_simples_check(ell: int, k: int, d: int) -> dict:
    """Cross-section property of the L_(p,m): Wedderburn, irreducibility, distinctness."""
    labels = quotient_labels(ell, k, d)
    mods = [build_quotient_simple(ell, k, d, p, m) for (_lam, p, m) in labels]
    checks = []

    functorial = all(_quotient_functorial(m) for m in mods)
    checks.append({"name": "L_(p,m) functorial", "status": "pass" if functorial else "fail"})

    identity_ok = all(
        m.action_block(m.Q.identity(oi)) == Mat.identity(ell, m.block_dim)
        for m in mods
        for oi in m.component
    )
    checks.append({"name": "identity quotient morphisms act as identity", "status": "pass" if identity_ok else "fail"})

    total = sum(m.total_dim**2 for m in mods)
    expected = ell**d * factorial(d) // k
    checks.append(
        {
            "name": "wedderburn sum over (p,m) labels",
            "status": "pass" if total == expected else "fail",
            "details": {"sum": total, "order": expected, "dims": [m.total_dim for m in mods]},
        }
    )

    bad = [m.label_json() for m in mods if _quotient_commutant_dim(m) != 1]
    checks.append(
        {
            "name": "commutant of each L_(p,m) has dim 1",
            "status": "pass" if not bad else "fail",
            "details": {"failures": bad},
        }
    )

    char_vectors = [tuple(v.coeffs for v in m.class_character) for m in mods]
    distinct = len(set(char_vectors)) == len(mods)
    checks.append(
        {"name": "characters pairwise distinct", "status": "pass" if distinct else "fail"}
    )

    return suite_result(checks, ell=ell, k=k, d=d, labels=[m.label_json() for m in mods])


def restriction_check(ell: int, k: int, d: int) -> dict:
    """Restriction of every simple L_p decomposes multiplicity-free into the L_(p,m)."""
    Q = quotient_groupoid(ell, k, d)
    labels = quotient_labels(ell, k, d)
    mods = {(_l, p, m): build_quotient_simple(ell, k, d, p, m) for (_l, p, m) in labels}
    reps = gkd_conjugacy_classes(ell, k, d)
    lpm_conj = {key: [v.conjugate() for v in mod.class_character] for key, mod in mods.items()}
    checks = []
    for simple in all_simples(ell, d):
        chi_res = [simple.char_wreath(rep) for rep, _ in reps]
        # expected labels: transport the shape into Gamma, then take the orbit rep of p
        lam = simple.lam
        lam_star = min(theta_type(lam, t * Q.shift) for t in range(k))
        shifts = [
            t * Q.shift
            for t in range(k)
            if theta_type(lam, t * Q.shift) == lam_star
        ]
        candidates = {_rotate_multipartition(simple.p, sh) for sh in shifts}
        r = Q.type_stabilizer_order(lam_star)
        u = ell // r
        full_orbit = set()
        for cand in candidates:
            full_orbit |= {_rotate_multipartition(cand, j * u) for j in range(r)}
        p_star = min(full_orbit)
        s = _p_stabilizer_order(p_star, r, ell)
        expected = {(lam_star, p_star, m) for m in range(1, s + 1)}
        got = {}
        non_integral = []
        for key in mods:
            val = _gkd_inner_product(ell, k, d, chi_res, lpm_conj[key])
            if not val.is_rational() or val.rational_value().denominator != 1:
                non_integral.append(mods[key].label_json())
            elif not val.is_zero():
                got[key] = int(val.rational_value())
        ok = not non_integral and set(got.keys()) == expected and all(v == 1 for v in got.values())
        details = {
            "constituents": [
                {"label": mods[key].label_json(), "multiplicity": v}
                for key, v in sorted(got.items())
            ]
        }
        if non_integral:
            details["non_integral"] = non_integral
        checks.append(
            {
                "name": f"restriction of L_{simple.label_json()}",
                "status": "pass" if ok else "fail",
                "details": details,
            }
        )
    return suite_result(checks, ell=ell, k=k, d=d)


# ---------------------------------------------------------------------------
# Rotation-eigenspace cross-check for the quotient simples
# ---------------------------------------------------------------------------


def rotation_eigenspace_check(ell: int, k: int, d: int) -> dict:
    """Assemble the direct sum of the rotated simple modules with its color-
    rotation operator theta, split into eigenspaces, and match each eigenspace
    to a directly built quotient simple by exact characters.

    theta commutes with the G(l,k,d)-action and theta^k = 1, so the
    xi_k^m-eigenspace is the image of P_m = (1/k) sum_j xi_k^(-jm) theta^j:
    its dimension is tr(P_m) and its character at x is tr(P_m x).

    Runs for stabilizer-invariant p (h.p = p), which covers every label on
    the tested grid; other p are reported with status skip (the blockwise
    rotation operator needs h.p = p to close up).
    """
    Q = quotient_groupoid(ell, k, d)
    checks = []
    reps_classes = gkd_conjugacy_classes(ell, k, d)
    for lam in gamma_cross_section(ell, k, d):
        r = Q.type_stabilizer_order(lam)
        u = ell // r
        seen = set()
        for p in multipartitions(lam):
            if p in seen:
                continue
            orbit = {_rotate_multipartition(p, j * u) for j in range(r)}
            seen |= orbit
            p0 = min(orbit)
            s = _p_stabilizer_order(p0, r, ell)
            if s != r:
                checks.append(
                    {
                        "name": f"rotation eigenspaces for p={[list(q) for q in p0]}",
                        "status": "skip",
                        "details": {"reason": "p not stabilizer-invariant"},
                    }
                )
                continue
            ok, detail = _rotation_eigenspace_single(Q, lam, p0, reps_classes)
            checks.append(
                {
                    "name": f"rotation eigenspaces for p={[list(q) for q in p0]}",
                    "status": "pass" if ok else "fail",
                    "details": detail,
                }
            )
    return suite_result(checks, ell=ell, k=k, d=d)


def _rotation_module(Q: QuotientGroupoid, lam, p):
    """theta on the direct sum of the simples L_(z^j p) over the types of the
    H_k-orbit of lam, and the matrix of the action of x on that sum."""
    ell, k, d = Q.ell, Q.k, Q.d
    copies = k // Q.type_stabilizer_order(lam)  # number of distinct types in the orbit
    v = Q.shift
    summands = [build_simple(ell, d, _rotate_multipartition(p, j * v)) for j in range(copies)]
    offsets = list(accumulate((simp.total_dim for simp in summands), initial=0))
    total = offsets.pop()

    # theta operator: object f (type of summand j) -> theta(f) in summand j+1,
    # with the tensor-slot rotation on coordinates.
    theta_entries = []
    for j, simp in enumerate(summands):
        jn = (j + 1) % copies
        nxt = summands[jn]
        dims_src = [simp.outer.components[c].dim for c in range(ell)]
        slot = _slot_rotation(ell, dims_src, lambda c: (c - v) % ell, Cyc.one(ell))
        for f in simp.objects:
            tf = theta_object(f, v, ell)
            r0 = offsets[jn] + nxt.block_index[tf] * nxt.block_dim
            c0 = offsets[j] + simp.block_index[f] * simp.block_dim
            theta_entries += slot.entries(r0, c0)
    theta_op = Mat.from_entries(ell, total, total, theta_entries)

    def act_total(x: WreathElem) -> Mat:
        a = phi(x, d)
        entries = (e for simp, o in zip(summands, offsets) for e in simp.act_alg(a).entries(o, o))
        return Mat.from_entries(ell, total, total, entries)

    return theta_op, act_total


def _eigenspace_traces(powers: list[Mat], mats: list[Mat]) -> list[tuple[int, tuple[Cyc, ...]]]:
    """(dim E_m, the traces of mats on E_m) for the xi_k^m-eigenspaces E_m of theta, m = 1..k.

    powers = [theta^0, ..., theta^(k-1)], with theta^k = 1 and theta commuting
    with every matrix of mats.  Then E_m is the image of the idempotent
    P_m = (1/k) sum_j xi_k^(-jm) theta^j, which commutes with each A in mats,
    so dim E_m = tr(P_m) and the trace of A on E_m is tr(P_m A).  Each twisted
    trace tr(theta^j A) is a sum over the nonzero entries of theta^j.
    """
    k, ell = len(powers), powers[0].ell
    zero = Cyc.zero(ell)
    theta_entries = [list(t.entries()) for t in powers]
    unit = [t.trace() for t in powers]
    twisted = [[sum((c * A.rows[b][a] for (a, b), c in ents), zero) for ents in theta_entries] for A in mats]
    out = []
    for m in range(1, k + 1):
        weights = [root_of_unity(ell, -j * (ell // k) * m).scale(Fraction(1, k)) for j in range(k)]

        def project(traces: list[Cyc]) -> Cyc:
            return sum((w * t for w, t in zip(weights, traces)), zero)

        out.append((int(project(unit).rational_value()), tuple(project(tr) for tr in twisted)))
    return out


def _rotation_eigenspace_single(Q: QuotientGroupoid, lam, p, reps_classes) -> tuple[bool, dict]:
    ell, k, d = Q.ell, Q.k, Q.d
    r = Q.type_stabilizer_order(lam)
    theta_op, act_total = _rotation_module(Q, lam, p)

    # twisted equivariance: theta(x . v) = theta(x) . theta(v) for generators,
    # hence theta commutes with the G(l,k,d)-action
    for g in gkd_generators(ell, k, d):
        if not theta_op.commutes_with(act_total(g)):
            return False, {"failure": "theta does not commute with the invariant algebra"}

    # theta^0 .. theta^k, and theta^k = 1
    powers = [Mat.identity(ell, theta_op.nrows)]
    for _ in range(k):
        powers.append(theta_op * powers[-1])
    if powers[k] != powers[0]:
        return False, {"failure": "theta_k does not have order k on the rotation module"}

    # eigenspaces over the k-th roots of unity, matched to the L_(p,m) by characters
    expected = {m: build_quotient_simple(ell, k, d, p, m).class_character for m in range(1, r + 1)}
    hits = dict.fromkeys(expected, 0)
    eigenspaces = _eigenspace_traces(powers[:k], [act_total(rep) for rep, _size in reps_classes])
    for m, (dim, char) in enumerate(eigenspaces, start=1):
        if not dim:
            continue
        matched = [mm for mm, exp in expected.items() if exp == char]
        if len(matched) != 1:
            return False, {"failure": f"eigenspace m={m} does not match a unique L_(p,m)"}
        hits[matched[0]] += 1
    if any(h != k // r for h in hits.values()):
        return False, {"failure": "eigenspace multiplicities do not match k/r"}
    return True, {"eigenspace_dims": [dim for dim, _char in eigenspaces]}
