"""Color rotation, the quotient groupoid, and the complex reflection groups G(l,k,d).

For k | l the group H_k generated by the color rotation theta_k (shift by
l/k) acts freely on the groupoid (d >= 1); the quotient groupoid has one
object per H_k-orbit.  Each quotient morphism is stored as its unique
representative GMorphism whose source is the chosen orbit representative,
and every object g records the t with g = theta_k^t(rep of its orbit), so
the power of theta_k that moves one object to another is a subtraction.

The algebra of the quotient embeds into A_(l,d) by orbit sums (Psi); its
image is the H_k-invariant subspace and coincides with the span of
Phi(G(l,k,d)), realizing C[G(l,k,d)] inside the groupoid algebra.  Psi(q)
is the multiset of its k translates theta_k^t(q), a multiplicity being a
coefficient, so a product of orbit sums composes translates, as index data.

Simple modules of the quotient sit over a cross-section Gamma of type
orbits.  Over a shape lambda with stabilizer H_k^lambda of order r, a
multi-partition p with stabilizer of order s carries s simple modules
L_(p,m): the color-preserving part acts by outer Specht matrices on
W = V_0 + ... + V_{r/s-1} (V_j a rotated copy of S_p) and the canonical
rotation acts by a tensor-slot rotation times the scalar xi_l^{(l/s) m}.
On shapes whose stabilizer fixes p (every case with d <= 3) this reduces to
the scalar action xi_l^{(l/r) t m} on S_p itself.  action_block(q) is
rho~(a_2^-1 o q o a_1) for that action rho~ of End(base), a_o the anchor of
o, so L is functorial exactly when rho~ is multiplicative on End(base), a
group of order r prod lambda_c! (Curtis-Reiner, Methods of Representation
Theory I, section 11; Stembridge, Pacific J. Math. 140, 1989).

The rotation check's theta permutes the basis of the direct sum of the
rotated simples: it takes the block of g in summand j to that of theta^v(g)
in summand j + 1 along one slot map per summand, and is carried as those
slot maps, so theta^k = 1 is a tuple equality of the composed slot maps.
The action A_x is block diagonal over the summands, and theta keeps the
permutation of Phi(x), so the theta-image of its term xi^e sigma with target
g is its term at theta^v(g) (Q.theta_index): theta commutes with A_x exactly
when each term and its image carry equal exponents and blocks equal along
the slot map.  theta^j, j a multiple of the summand count, takes the block
of g to that of theta^(jv)(g) along the composed slot map, so the term xi^e
sigma_(s, g) of Phi(x) adds the integer sum_a M[a][slot(a)] to exponent bin
e of tr(theta^j A_x), M the integer outer-Specht matrix of its transport,
exactly when s = theta^(jv)(g).  No matrix of A_x is built.  The eigenspace
traces weight tr(theta^j A_x) by xi_k^(-jm), a rotation of its bins, and
reduce once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import factorial, gcd, prod
from operator import add

from .algebra import _perm_table, _rank_of_phi_images, phi_form
from .algebra import phi  # noqa: F401  (unused here; perfbench/tests patch gkd.phi)
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
    object_index,
    objects,
    type_of,
)
from .perms import reach
from .reporting import record, skip, suite_result
from .simples import all_simples, build_simple, colored_classes, inner_products, simple_characters
from .tableaux import compositions, multipartitions, outer_rep
from .wreath import WreathElem, gkd_elements, gkd_generators, s0_j, wreath_inv, wreath_mul

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
    """The color rotation of a type or a multi-partition: new[j] = old[j - shift]."""
    ell = len(lam)
    return tuple(lam[(j - shift) % ell] for j in range(ell))


def theta_morphism(m: GMorphism, shift: int, ell: int) -> GMorphism:
    """Rotation fixes the underlying permutation and moves the endpoints."""
    return GMorphism(
        theta_object(m.source, shift, ell),
        theta_object(m.target, shift, ell),
        m.perm,
    )


class QuotientGroupoid:
    """The quotient of the (l,d) groupoid by the color-rotation group H_k.

    A quotient morphism is its representative GMorphism whose source is the
    representative of its orbit (see normalize).
    """

    def __init__(self, ell: int, k: int, d: int):
        if k < 1 or ell % k != 0:
            raise ValueError("k must be a positive divisor of ell")
        self.ell = ell
        self.k = k
        self.d = d
        self.shift = ell // k  # theta_k shifts colors by this amount
        self.orbits: list[tuple[tuple, ...]] = []
        self.orbit_of: dict[tuple, int] = {}
        # exponent[g] = t with g = theta_k^t(rep of the orbit of g)
        self.exponent: dict[tuple, int] = {}
        objs = objects(ell, d)
        for f in objs:
            if f in self.orbit_of:
                continue
            orbit = [f]
            while (g := theta_object(orbit[-1], self.shift, ell)) != f:
                orbit.append(g)
            start = orbit.index(min(orbit))
            self.orbits.append(tuple(sorted(orbit)))
            for t, g in enumerate(orbit):
                self.orbit_of[g] = len(self.orbits) - 1
                self.exponent[g] = (t - start) % len(orbit)
        # over the objects in order: the index of theta_k(g), and whether g
        # represents its orbit
        self.theta_index = tuple(object_index(theta_object(f, self.shift, ell), ell) for f in objs)
        self.is_rep = tuple(self.exponent[f] == 0 for f in objs)

    # -- objects -----------------------------------------------------------

    def rep(self, oi: int):
        return self.orbits[oi][0]

    def type_stabilizer_order(self, lam) -> int:
        # the order of H_k over the size of the orbit of lam
        return self.k // len({theta_type(lam, t * self.shift) for t in range(self.k)})

    def _translate_exponent(self, src, dst) -> int:
        """t with theta_k^t(src) = dst, for src and dst in one orbit."""
        return (self.exponent[dst] - self.exponent[src]) % self.k

    def translate(self, m: GMorphism, t: int) -> GMorphism:
        """theta_k^t(m); m itself when t = 0 mod k."""
        if t % self.k == 0:
            return m
        return theta_morphism(m, t * self.shift, self.ell)

    def normalize(self, m: GMorphism) -> GMorphism:
        """The orbit representative of m whose source is the orbit representative."""
        return self.translate(m, -self.exponent[m.source] % self.k)

    def identity(self, oi: int) -> GMorphism:
        return identity_morphism(self.rep(oi))

    def source_orbit(self, q: GMorphism) -> int:
        return self.orbit_of[q.source]

    def target_orbit(self, q: GMorphism) -> int:
        return self.orbit_of[q.target]

    def hom(self, o1: int, o2: int) -> list[GMorphism]:
        """The quotient morphisms o1 -> o2; distinct targets keep them distinct."""
        src = self.rep(o1)
        out = [m for tgt in self.orbits[o2] for m in hom(src, tgt, self.ell)]
        out.sort(key=lambda q: (q.target, q.perm))
        return out

    def all_qmorphisms(self) -> list[GMorphism]:
        out = []
        for o1 in range(len(self.orbits)):
            for o2 in range(len(self.orbits)):
                out.extend(self.hom(o1, o2))
        return out

    def compose(self, q2: GMorphism, q1: GMorphism) -> GMorphism:
        """q2 o q1; the representative of q2 is translated to match q1's target."""
        if self.target_orbit(q1) != self.source_orbit(q2):
            raise ValueError("quotient morphisms are not composable")
        return compose(self.translate(q2, self._translate_exponent(q2.source, q1.target)), q1)

    def inverse(self, q: GMorphism) -> GMorphism:
        return self.normalize(inverse(q))

    def psi(self, q: GMorphism) -> tuple[GMorphism, ...]:
        """Orbit sum in A_(l,d), the embedding of the quotient algebra, as the multiset of the translates of q."""
        return tuple(self.translate(q, t) for t in range(self.k))

    def is_invariant(self, exps: tuple[int, ...]) -> bool:
        """Whether the monomial form with exponent exps[i] on its term with target object i is H_k-invariant.

        theta_k moves the term with target g to the one with target theta_k(g).
        """
        return all(e == exps[t] for e, t in zip(exps, self.theta_index))

    def phi_to_quotient(self, x: WreathElem) -> dict[GMorphism, Cyc]:
        """Coordinates of Phi(x) in the quotient basis (x must lie in G(l,k,d)).

        Phi(x) is monomial, with exponent e_x(g) on its term with target g;
        when it is H_k-invariant (is_invariant), its coordinates are the terms
        whose source is an orbit representative.
        """
        perm, exps = phi_form(x, self.d)
        if not self.is_invariant(exps):
            raise ValueError("Phi image is not H_k-invariant; x is outside G(l,k,d)")
        _sources, terms, source_index = _perm_table(self.ell, self.d, perm)
        return {
            m: root_of_unity(self.ell, e) for m, e, i in zip(terms, exps, source_index) if self.is_rep[i]
        }


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
    """Endomorphisms, stabilizer order and the Lemma-51 cardinality for one quotient object."""
    f = Q.rep(oi)
    lam = type_of(f, Q.ell)
    r = Q.type_stabilizer_order(lam)
    endos = Q.hom(oi, oi)
    return {
        "endos": endos,
        "representative": list(f),
        "type": list(lam),
        "stabilizer_order": r,
        "endo_count": len(endos),
        "cardinality_ok": len(endos) == r * prod(map(factorial, lam)),
    }


def quotient_structure_report(ell: int, k: int, d: int) -> dict:
    """Freeness, object count, the Lemma-51 cardinality of each End(f), and dim A_(l,k,d).

    Three facts of the quotient hold by construction, so they are unit tests
    rather than checks here:
    - composition is independent of representatives: theta_morphism keeps
      the permutation and compose composes permutations, so theta_k is a
      functor and theta_k^t(s) o theta_k^t(x) normalizes to s o x;
    - N = hom(f, f) is normal in End(f): Q.compose adds target exponents
      mod k, so End(f) -> Z/k is a homomorphism with kernel N;
    - the canonical rotation h of f has order r: order-preserving maps
      compose to order-preserving maps, so h^j = id exactly when
      theta^(jl/r) fixes f, and freeness makes that j = 0 mod r.
    """
    Q = quotient_groupoid(ell, k, d)
    free = all(len(orb) == k for orb in Q.orbits)
    count_ok = len(Q.orbits) == ell**d // k
    endo_rows = [
        {
            "orbit": info["representative"],
            "stabilizer": info["stabilizer_order"],
            "endos": info["endo_count"],
            "ok": info["cardinality_ok"],
        }
        for info in (endo_structure(Q, oi) for oi in range(len(Q.orbits)))
    ]
    total, expected = len(Q.all_qmorphisms()), ell**d * factorial(d) // k
    checks = [
        record("H_k acts freely on objects", free),
        record("object count = l^d / k", count_ok, {"objects": len(Q.orbits)}),
        record("|endo| = |stabilizer| * lam!", all(row["ok"] for row in endo_rows), {"orbits": endo_rows}),
        record("dim A_(l,k,d) = l^d d!/k", total == expected, {"dim": total, "expected": expected}),
    ]
    return suite_result(checks, ell=ell, k=k, d=d)


# ---------------------------------------------------------------------------
# Psi and the identification with C[G(l,k,d)]
# ---------------------------------------------------------------------------


def _quotient_generators(Q: QuotientGroupoid, lams) -> list[GMorphism]:
    """The normalized component generators of the types lams, without repeats."""
    return list(dict.fromkeys(Q.normalize(m) for lam in lams for m in component_generators(Q.ell, lam)))


def _closure(Q: QuotientGroupoid, gens: list[GMorphism], objs, holds) -> set | None:
    """The morphisms that composing gens onto the identities at objs reaches, or None.

    One `reach` walk: the successors of x are s o x for the identity at the
    target of x and every generator s leaving it (the `by_source` table).
    holds(s, x, s o x) is tested for every such step, and the result is None
    once it is false.  When every basis morphism is reached, each one is a
    word in gens, so induction on that word carries holds from the
    generators to all composable pairs.
    """
    by_source: dict[int, list[GMorphism]] = {o: [Q.identity(o)] for o in objs}
    for s in gens:
        by_source[Q.source_orbit(s)].append(s)
    failed = []

    def step(x):
        if failed:
            return
        for s in by_source[Q.target_orbit(x)]:
            y = Q.compose(s, x)
            if not holds(s, x, y):
                failed.append(s)
                return
            yield y

    reached = reach([Q.identity(o) for o in objs], step)
    return None if failed else reached


def reflection_span_check(ell: int, k: int, d: int) -> dict:
    Q = quotient_groupoid(ell, k, d)
    checks = []
    qms = Q.all_qmorphisms()
    dim_quotient = len(qms)
    psi = {q: Q.psi(q) for q in qms}

    # Psi injectivity: orbit sums have pairwise disjoint supports.
    supports = [m for image in psi.values() for m in set(image)]
    inj = len(set(supports)) == len(supports) == ell**d * factorial(d)
    checks.append(record("Psi injective (disjoint orbit supports)", inj))

    # Psi multiplicative on the basis.  Psi(q) lies in e_target A e_source,
    # which gives the zero products of the pairs that do not compose; on the
    # pairs that do, Psi(s) Psi(q) = Psi(s o q) for the generators s suffices.
    in_corner = all(
        Q.orbit_of[m.source] == Q.source_orbit(q) and Q.orbit_of[m.target] == Q.target_orbit(q)
        for q, image in psi.items()
        for m in image
    )

    def product_is_psi(s, x, y) -> bool:
        # the product of two multisets of morphisms is that of their composable compositions
        return Counter(compose(a, b) for a in psi[s] for b in psi[x] if a.source == b.target) == Counter(psi[y])

    gens = _quotient_generators(Q, gamma_cross_section(ell, k, d))
    reached = _closure(Q, gens, range(len(Q.orbits)), product_is_psi)
    mult_ok = in_corner and reached == set(qms)
    checks.append(record("Psi multiplicative on the basis", mult_ok))

    # Phi(G(l,k,d)) lies in the H_k-invariant span (coefficients orbit-constant)
    members = gkd_elements(ell, k, d)
    invariant = all(Q.is_invariant(phi_form(x, d)[1]) for x in members)
    checks.append(record("Phi(G(l,k,d)) is H_k-invariant", invariant))

    # rank of {Phi(x) : x in G}, counted as distinct additive exponent vectors
    # per permutation block (a lower bound, exact when every image is a
    # character), equals dim A_(l,k,d); with the containment above this gives
    # span equality.
    rank = _rank_of_phi_images(ell, d, members)
    rank_ok = rank == dim_quotient == ell**d * factorial(d) // k
    checks.append(
        record(
            "span Phi(G) = span Psi (exact rank and containment)",
            rank_ok and invariant,
            {"rank": rank, "dim": dim_quotient},
        )
    )

    return suite_result(checks, ell=ell, k=k, d=d)


# ---------------------------------------------------------------------------
# Simple modules L_(p,m) of the quotient
# ---------------------------------------------------------------------------


def _p_stabilizer_order(p, lam_stab_order: int, ell: int) -> int:
    """Order of the stabilizer of p inside H_k^lambda (cyclic of order r, generated by shift l/r)."""
    r = lam_stab_order
    return r // len({theta_type(p, j * (ell // r)) for j in range(r)})


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
        self.reps = [outer_rep(theta_type(self.p, -j * self.u), self.lam) for j in range(self.copies)]
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
        self.block_index = {oi: i for i, oi in enumerate(self.component)}
        self.total_dim = self.block_dim * len(self.component)
        self._mat_cache: dict[GMorphism, Mat] = {}
        self._anchors = {
            oi: self.Q.normalize(
                canonical_morphism(self.base, self.anchor_obj[oi], ell)
            )
            for oi in self.component
        }
        self._anchor_inv = {oi: self.Q.inverse(a) for oi, a in self._anchors.items()}

    # -- the endomorphism representation at the base object -----------------

    def _endo_matrix(self, q: GMorphism) -> Mat:
        """rho~ of an endomorphism of the base orbit: M^t * rho(pi), in one pass.

        rho(pi) is block diagonal, one block per copy V_j.  M, the canonical
        rotation endomorphism of the base orbit, sends copy j to copy j + 1
        along the slot map c -> c + u and scales by omega = xi^((l/s) m) where
        it wraps from the last copy to the first.  So M^t sends the block of
        copy j to copy (j + t) mod copies, along the slot map c -> c + t u,
        scaled by omega^((j + t) // copies).
        """
        ell, copies = self.ell, self.copies
        at_base = self.Q.translate(q, self.Q._translate_exponent(q.source, self.base))
        # the target is h^t(base) = theta_k^(t k/r)(base) for a unique t in {0..r-1}
        tgt = at_base.target
        t = self.Q._translate_exponent(self.base, tgt) // (self.k // self.r)
        pi = compose(canonical_morphism(tgt, self.base, ell), at_base)
        offsets = list(accumulate((rep.dim for rep in self.reps), initial=0))
        entries = []
        for j, rep in enumerate(self.reps):
            scalar = root_of_unity(ell, (ell // self.s) * self.m * ((j + t) // copies))
            slot = _slot_rotation([rep.components[c].dim for c in range(ell)], lambda c: (c + t * self.u) % ell)
            row0, col0 = offsets[(j + t) % copies], offsets[j]
            entries += (
                ((row0 + slot[i], col0 + a), scalar.scale(v))
                for i, row in enumerate(rep.matrix_of_blockperm(pi.perm))
                for a, v in enumerate(row)
                if v
            )
        return Mat.from_entries(ell, self.block_dim, self.block_dim, entries)

    # -- the module over the whole component --------------------------------

    def action_block(self, q: GMorphism) -> Mat:
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
                if self.Q.source_orbit(q) in self.block_index:
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
            orbit = {theta_type(p, j * u) for j in range(r)}
            seen |= orbit
            rep = min(orbit)
            for m in range(1, r // len(orbit) + 1):
                out.append((lam, rep, m))
    return out


@lru_cache(maxsize=None)
def gkd_conjugacy_classes(ell: int, k: int, d: int) -> tuple[tuple[WreathElem, int], ...]:
    """(representative, class size) pairs of G(l,k,d), from the classes of S(l,d).

    An S(l,d) class lies in G(l,k,d) when its color sum is 0 mod k, and
    there splits into g = gcd(k, every r_i, every c_i) classes of equal size
    |class| / g, with representatives s_0^j x s_0^(-j) for 0 <= j < g.  The
    number of pieces is the index of G(l,k,d) C(x) in S(l,d), and the color
    sum mod k identifies that quotient with Z/k modulo the sums reached on
    the centralizer C(x): x's cycles give c_i, one color step on every strand
    of a single cycle gives r_i, and swaps of equal cycles give 0.
    """
    if k < 1 or ell % k:
        raise ValueError("k must be a positive divisor of ell")
    if d < 1:
        raise ValueError("G(l,k,d) classes need d >= 1")
    s0 = s0_j(ell, d, 1)
    s0_inv = wreath_inv(s0)
    out = []
    for cycles, x, size in colored_classes(ell, d):
        if sum(c for _r, c in cycles) % k:
            continue
        g = gcd(k, *(v for part in cycles for v in part))
        for _j in range(g):
            out.append((x, size // g))
            x = wreath_mul(wreath_mul(s0, x), s0_inv)
    return tuple(out)


@lru_cache(maxsize=None)
def _class_coordinates(ell: int, k: int, d: int) -> tuple[dict[GMorphism, Cyc], ...]:
    """Phi of each class representative of G(l,k,d) in the quotient basis, its endomorphism terms only."""
    Q = quotient_groupoid(ell, k, d)
    return tuple(
        {q: c for q, c in Q.phi_to_quotient(rep).items() if Q.source_orbit(q) == Q.target_orbit(q)}
        for rep, _size in gkd_conjugacy_classes(ell, k, d)
    )


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


def _endo_generators(mod: QuotientSimpleModule) -> list[GMorphism]:
    """Generators of End(base): the s_i inside its color runs, and its canonical rotation onto theta^u(base)."""
    ell, b = mod.ell, mod.base
    gens = [s for s in component_generators(ell, mod.lam) if s.source == s.target]
    return [mod.Q.normalize(s) for s in gens + [canonical_morphism(b, theta_object(b, mod.u, ell), ell)]]


def _quotient_functorial(mod: QuotientSimpleModule) -> bool:
    """rho~(id) = I, rho~(s o q) = rho~(s) rho~(q) for the generators s of End(base), and they reach all r prod lambda_c! of it.

    The base's anchor is the identity, so action_block is rho~ on End(base);
    this is functoriality on the component (module docstring).  Once
    rho~(id) = I, a walk step s o q with s = id holds with no product.
    """
    Q, act, o = mod.Q, mod.action_block, mod.Q.orbit_of[mod.base]
    unit = Q.identity(o)
    if act(unit) != Mat.identity(mod.ell, mod.block_dim):
        return False
    reached = _closure(Q, _endo_generators(mod), [o], lambda s, x, y: s == unit or act(y) == act(s) * act(x))
    return reached is not None and len(reached) == mod.r * prod(map(factorial, mod.lam))


def quotient_simples_check(ell: int, k: int, d: int) -> dict:
    """Cross-section property of the L_(p,m): Wedderburn, irreducibility, distinctness."""
    labels = quotient_labels(ell, k, d)
    mods = [build_quotient_simple(ell, k, d, p, m) for (_lam, p, m) in labels]
    checks = []

    functorial = all(_quotient_functorial(m) for m in mods)
    checks.append(record("L_(p,m) functorial", functorial))

    identity_ok = all(
        m.action_block(m.Q.identity(oi)) == Mat.identity(ell, m.block_dim)
        for m in mods
        for oi in m.component
    )
    checks.append(record("identity quotient morphisms act as identity", identity_ok))

    total = sum(m.total_dim**2 for m in mods)
    expected = ell**d * factorial(d) // k
    checks.append(
        record(
            "wedderburn sum over (p,m) labels",
            total == expected,
            {"sum": total, "order": expected, "dims": [m.total_dim for m in mods]},
        )
    )

    bad = [m.label_json() for m in mods if _quotient_commutant_dim(m) != 1]
    checks.append(record("commutant of each L_(p,m) has dim 1", not bad, {"failures": bad}))

    char_vectors = [tuple(v.coeffs for v in m.class_character) for m in mods]
    distinct = len(set(char_vectors)) == len(mods)
    checks.append(record("characters pairwise distinct", distinct))

    return suite_result(checks, ell=ell, k=k, d=d)


def restriction_check(ell: int, k: int, d: int) -> dict:
    """Restriction of every simple L_p decomposes multiplicity-free into the L_(p,m)."""
    Q = quotient_groupoid(ell, k, d)
    labels = quotient_labels(ell, k, d)
    mods = {(_l, p, m): build_quotient_simple(ell, k, d, p, m) for (_l, p, m) in labels}
    reps = gkd_conjugacy_classes(ell, k, d)
    lpm_conj = [[v.conjugate() for v in mod.class_character] for mod in mods.values()]
    restricted = list(zip(*simple_characters(ell, d, [rep for rep, _ in reps])))
    checks = []
    for simple, row in zip(all_simples(ell, d), inner_products(reps, restricted, lpm_conj)):
        # expected labels: lambda* is the least shape in the H_k-orbit of p,
        # p* the least orbit member of shape lambda*
        orbit = {theta_type(simple.p, t * Q.shift) for t in range(k)}
        lam_star, p_star = min((tuple(map(sum, q)), q) for q in orbit)
        s = _p_stabilizer_order(p_star, Q.type_stabilizer_order(lam_star), ell)
        expected = {(lam_star, p_star, m) for m in range(1, s + 1)}
        got = {}
        non_integral = []
        for key, val in zip(mods, row):
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
        checks.append(record(f"restriction of L_{simple.label_json()}", ok, details))
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
    rotated_terms = _rotated_terms(Q, [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)])
    for lam, p0, m in quotient_labels(ell, k, d):
        if m != 1:
            continue
        r = Q.type_stabilizer_order(lam)
        name = f"rotation eigenspaces for p={[list(q) for q in p0]}"
        if _p_stabilizer_order(p0, r, ell) != r:
            checks.append(skip(name, "p not stabilizer-invariant"))
            continue
        ok, detail = _rotation_eigenspace_single(Q, lam, p0, rotated_terms)
        checks.append(record(name, ok, detail))
    return suite_result(checks, ell=ell, k=k, d=d)


def _rotation_module(Q: QuotientGroupoid, lam, p):
    """The simples L_(z^j p) over the types of the H_k-orbit of lam, and theta's
    slot map on the blocks of each: entry a of slots[j] is the index that theta
    sends index a of a block of summand j to, in summand j + 1 (cyclically)."""
    ell, d, v = Q.ell, Q.d, Q.shift
    copies = Q.k // Q.type_stabilizer_order(lam)  # number of distinct types in the orbit
    summands = [build_simple(ell, d, theta_type(p, j * v)) for j in range(copies)]
    slots = [_slot_rotation([c.dim for c in simp.outer.components], lambda c: (c - v) % ell) for simp in summands]
    return summands, slots


def _commutes_with_theta(Q: QuotientGroupoid, summands, slots, x: WreathElem) -> bool:
    """theta A_x = A_x theta, term by term: each term of Phi(x) on a summand and
    its theta-image carry equal exponents and blocks equal along the slot map."""
    perm, exps = phi_form(x, Q.d)
    terms = _perm_table(Q.ell, Q.d, perm)[1]
    # per summand, the integer block of the term with target object i, by i
    blocks = [
        {i: simp.outer.matrix_of_blockperm(simp.transported(terms[i])) for i in (object_index(f, Q.ell) for f in simp.objects)}
        for simp in summands
    ]
    for j, slot in enumerate(slots):
        image = blocks[(j + 1) % len(blocks)]
        for i, rows in blocks[j].items():
            t = Q.theta_index[i]
            if exps[i] != exps[t] or any(image[t][slot[a]][slot[b]] != w for a, row in enumerate(rows) for b, w in enumerate(row)):
                return False
    return True


def _rotated_terms(Q: QuotientGroupoid, xs) -> list[list[list[tuple[GMorphism, int]]]]:
    """For each x of xs and j = 0..k-1, the terms xi^e sigma_(s, g) of Phi(x) with s = theta^(jv)(g), as (sigma, e)."""
    out = []
    for x in xs:
        perm, exps = phi_form(x, Q.d)
        _sources, terms, source_index = _perm_table(Q.ell, Q.d, perm)
        per_power, rotated = [], range(len(terms))
        for _j in range(Q.k):
            per_power.append([(m, e) for m, e, i, s in zip(terms, exps, rotated, source_index) if i == s])
            rotated = [Q.theta_index[i] for i in rotated]
        out.append(per_power)
    return out


def _twisted_traces(Q: QuotientGroupoid, summands, powers, rotated_terms) -> list[tuple[tuple[int, ...], ...]]:
    """tr(theta^j A_x), j = 0..k-1, as integer exponent bins (entry e the coefficient of xi^e), from the _rotated_terms of each x.

    powers[j][i] is theta^j's slot map on the blocks of summand i.  The
    trace is zero unless the summand count divides j.
    """
    ell, k = Q.ell, Q.k
    slot_traces: dict[tuple[int, GMorphism], int] = {}  # (j, term) -> its integer trace; terms recur across the xs
    out = []
    for per_power in rotated_terms:
        traces = [(0,) * ell] * k
        for j in range(0, k, len(summands)):
            bins = [0] * ell
            for m, e in per_power[j]:
                t = slot_traces.get((j, m))
                if t is None:
                    t = 0
                    for simp, slot in zip(summands, powers[j]):
                        if m.target in simp.block_index:
                            rows = simp.outer.matrix_of_blockperm(simp.transported(m))
                            t += sum(rows[a][b] for a, b in enumerate(slot))
                    slot_traces[j, m] = t
                bins[e] += t
            traces[j] = tuple(bins)
        out.append(tuple(traces))
    return out


def _eigenspace_traces(twisted) -> list[tuple[int, tuple[Cyc, ...]]]:
    """(dim E_m, the traces on E_m) for the xi_k^m-eigenspaces E_m of theta, m = 1..k.

    twisted[i][j] = tr(theta^j A_i), j = 0..k-1, as exponent bins, for the
    classes of gkd_conjugacy_classes in order, with theta^k = 1 and theta
    commuting with each A_i.  Then E_m is the image of the idempotent
    P_m = (1/k) sum_j xi_k^(-jm) theta^j, which commutes with each A, so the
    trace of A on E_m is tr(P_m A); at the identity class, which comes
    first, that is dim E_m.  The weight xi_k^(-jm) = xi_l^(-jm l/k) rotates
    the bins of the j-th trace, and the rotated bins are reduced and scaled
    by 1/k once per (m, A).
    """
    k, ell = len(twisted[0]), len(twisted[0][0])
    weight = Fraction(1, k)
    out = []
    for m in range(1, k + 1):
        chars = []
        for traces in twisted:
            bins = [0] * ell
            for j, tr in enumerate(traces):
                shift = j * (ell // k) * m % ell  # xi^(-shift) moves bin e to bin e - shift
                bins = list(map(add, bins, tr[shift:] + tr[:shift]))
            chars.append(Cyc.from_exponent_sums(ell, bins).scale(weight))
        out.append((int(chars[0].rational_value()), tuple(chars)))
    return out


def _rotation_eigenspace_single(Q: QuotientGroupoid, lam, p, rotated_terms) -> tuple[bool, dict]:
    ell, k, d = Q.ell, Q.k, Q.d
    r = Q.type_stabilizer_order(lam)
    summands, slots = _rotation_module(Q, lam, p)

    # theta^0 .. theta^k on the blocks of each summand i, the slot maps of
    # summands i, ..., i + j - 1 composed, and theta^k = 1 (theta^k fixes
    # every object, so only the slot maps can fail it)
    powers = [[tuple(range(len(slot))) for slot in slots]]
    for j in range(k):
        powers.append([tuple(slots[(i + j) % len(slots)][a] for a in t) for i, t in enumerate(powers[-1])])
    if powers[k] != powers[0]:
        return False, {"failure": "theta_k does not have order k on the rotation module"}

    # twisted equivariance: theta(x . v) = theta(x) . theta(v) for generators,
    # hence theta commutes with the G(l,k,d)-action
    if not all(_commutes_with_theta(Q, summands, slots, g) for g in gkd_generators(ell, k, d)):
        return False, {"failure": "theta does not commute with the invariant algebra"}

    # eigenspaces over the k-th roots of unity, matched to the L_(p,m) by characters
    expected = {m: build_quotient_simple(ell, k, d, p, m).class_character for m in range(1, r + 1)}
    hits = dict.fromkeys(expected, 0)
    eigenspaces = _eigenspace_traces(_twisted_traces(Q, summands, powers, rotated_terms))
    for m, (_dim, char) in enumerate(eigenspaces, start=1):
        matched = [mm for mm, exp in expected.items() if exp == char]
        if len(matched) != 1:
            return False, {"failure": f"eigenspace m={m} does not match a unique L_(p,m)"}
        hits[matched[0]] += 1
    if any(h != k // r for h in hits.values()):
        return False, {"failure": "eigenspace multiplicities do not match k/r"}
    return True, {"eigenspace_dims": [dim for dim, _char in eigenspaces]}
