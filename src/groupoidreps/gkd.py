"""The complex reflection groups G(l,k,d) through the quotient groupoid.

The quotient of the groupoid by the color-rotation group H_k lives in
groupoid (QuotientGroupoid) and its simples L_(p,m) in simples
(SimpleModule); this module holds the checks of G(l,k,d), and hands its
simples, the order l^d d!/k and the characters class_character to
simples.completeness_checks.  The algebra of the quotient embeds into
A_(l,d) by orbit sums (Psi); its image is the H_k-invariant subspace and
coincides with the span of Phi(G(l,k,d)), realizing C[G(l,k,d)] inside the
groupoid algebra.  The simples sit over a
cross-section Gamma of type orbits, labelled (lambda, p, m).

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
from functools import lru_cache
from math import factorial, gcd, prod
from operator import add

from .algebra import _perm_table, _rank_of_phi_images, phi_form
from .algebra import phi  # noqa: F401  (unused here; perfbench/tests patch gkd.phi)
from .cyclo import (
    Cyc,
    LinSolver,  # noqa: F401  (unused here; perfbench/tests patch gkd.LinSolver)
    root_of_unity,
)
from .groupoid import (
    GMorphism,
    QuotientGroupoid,
    component_generators,
    compose,
    object_index,
    quotient_groupoid,
    stabilizer_order,
    theta_type,
    type_of,
)
from .perms import reach
from .reporting import record, skip, suite_result
from .simples import (
    SimpleModule,
    _equal_along,
    _label_json,
    _slot_powers,
    _slot_rotation,
    all_simples,
    build_simple,
    colored_classes,
    completeness_checks,
    decompose,
    simple_characters,
)
from .tableaux import compositions, multipartitions
from .wreath import WreathElem, gkd_elements, gkd_generators, s0_j, wreath_inv, wreath_mul

__all__ = [
    "gamma_cross_section",
    "phi_to_quotient",
    "class_character",
    "quotient_labels",
    "quotient_structure_report",
    "reflection_span_check",
    "quotient_simples_check",
    "restriction_check",
    "rotation_eigenspace_check",
    "gkd_conjugacy_classes",
]


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
    r = stabilizer_order(lam, Q.k)
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
# Labels and characters of the simples L_(p,m)
# ---------------------------------------------------------------------------


def phi_to_quotient(Q: QuotientGroupoid, x: WreathElem) -> dict[GMorphism, Cyc]:
    """Coordinates of Phi(x) in the quotient basis of Q (x must lie in G(l,k,d)).

    Phi(x) is monomial, with exponent e_x(g) on its term with target g;
    when it is H_k-invariant (Q.is_invariant), its coordinates are the terms
    whose source is an orbit representative.
    """
    perm, exps = phi_form(x, Q.d)
    if not Q.is_invariant(exps):
        raise ValueError("Phi image is not H_k-invariant; x is outside G(l,k,d)")
    _sources, terms, source_index = _perm_table(Q.ell, Q.d, perm)
    return {m: root_of_unity(Q.ell, e) for m, e, i in zip(terms, exps, source_index) if Q.is_rep[i]}


@lru_cache(maxsize=None)
def class_character(mod: SimpleModule) -> tuple[Cyc, ...]:
    """The character of mod on gkd_conjugacy_classes, in their order, via Psi^(-1) Phi."""
    zero, out = Cyc.zero(mod.ell), []
    for coords in _class_coordinates(mod.ell, mod.k, mod.d):
        acc = zero
        for q, coeff in coords.items():
            if q.source in mod.to_anchor:
                acc = acc + coeff * sum((v for (i, j), v in mod.action_block(q).items() if i == j), zero)
        out.append(acc)
    return tuple(out)


def quotient_labels(ell: int, k: int, d: int) -> list[tuple[tuple, tuple, int]]:
    """All labels (lambda, p, m): lambda in Gamma, p an H_k^lambda-orbit representative on multi-partitions of shape lambda, m in {1..s_p}."""
    out = []
    for lam in gamma_cross_section(ell, k, d):
        r = stabilizer_order(lam, k)
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
        {q: c for q, c in phi_to_quotient(Q, rep).items() if Q.source_orbit(q) == Q.target_orbit(q)}
        for rep, _size in gkd_conjugacy_classes(ell, k, d)
    )


def quotient_simples_check(ell: int, k: int, d: int) -> dict:
    """The completeness checks of the simples L_(p,m) of G(l,k,d), one per label."""
    mods = [build_simple(ell, k, d, p, m) for (_lam, p, m) in quotient_labels(ell, k, d)]
    checks = completeness_checks(mods, ell**d * factorial(d) // k, [class_character(m) for m in mods])
    return suite_result(checks, ell=ell, k=k, d=d)


def restriction_check(ell: int, k: int, d: int) -> dict:
    """Restriction of every simple L_p decomposes multiplicity-free into the L_(p,m)."""
    Q = quotient_groupoid(ell, k, d)
    mods = {(_l, p, m): build_simple(ell, k, d, p, m) for (_l, p, m) in quotient_labels(ell, k, d)}
    reps = gkd_conjugacy_classes(ell, k, d)
    restricted = list(zip(*simple_characters(ell, d, [rep for rep, _ in reps])))
    decomposed = decompose(reps, restricted, {key: class_character(mod) for key, mod in mods.items()})
    checks = []
    for simple, mults in zip(all_simples(ell, d), decomposed):
        # expected labels: lambda* is the least shape in the H_k-orbit of p,
        # p* the least orbit member of shape lambda*
        orbit = {theta_type(simple.p, t * Q.shift) for t in range(k)}
        lam_star, p_star = min((tuple(map(sum, q)), q) for q in orbit)
        s = stabilizer_order(p_star, stabilizer_order(lam_star, k))
        expected = {(lam_star, p_star, m) for m in range(1, s + 1)}
        got = {key: v for key, v in mults.items() if isinstance(v, int)}
        non_integral = [_label_json(mods[key]) for key, v in mults.items() if not isinstance(v, int)]
        ok = not non_integral and set(got.keys()) == expected and all(v == 1 for v in got.values())
        details = {
            "constituents": [
                {"label": _label_json(mods[key]), "multiplicity": v}
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
        r = stabilizer_order(lam, k)
        name = f"rotation eigenspaces for p={[list(q) for q in p0]}"
        if stabilizer_order(p0, r) != r:
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
    copies = Q.k // stabilizer_order(lam, Q.k)  # number of distinct types in the orbit
    summands = [build_simple(ell, 1, d, theta_type(p, j * v), 1) for j in range(copies)]
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
            if exps[i] != exps[t] or not _equal_along(rows, image[t], slot):
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
    r = stabilizer_order(lam, k)
    summands, slots = _rotation_module(Q, lam, p)

    # theta^0 .. theta^k on the blocks of each summand i, the slot maps of
    # summands i, ..., i + j - 1 composed, and theta^k = 1 (theta^k fixes
    # every object, so only the slot maps can fail it)
    powers = _slot_powers(slots, k)
    if powers[k] != powers[0]:
        return False, {"failure": "theta_k does not have order k on the rotation module"}

    # twisted equivariance: theta(x . v) = theta(x) . theta(v) for generators,
    # hence theta commutes with the G(l,k,d)-action
    if not all(_commutes_with_theta(Q, summands, slots, g) for g in gkd_generators(ell, k, d)):
        return False, {"failure": "theta does not commute with the invariant algebra"}

    # eigenspaces over the k-th roots of unity, matched to the L_(p,m) by characters
    expected = {m: class_character(build_simple(ell, k, d, p, m)) for m in range(1, r + 1)}
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
