"""The groupoid algebra A_(l,d) and the isomorphism with C[S(l,d)].

A_(l,d) is the span of all groupoid morphisms; the product of two basis
morphisms is their composition when composable and zero otherwise, extended
bilinearly.  The unit is the sum of all identity morphisms e_f.

Phi sends a permutation sigma to the sum of all morphisms with underlying
permutation sigma, and the color generator at position 1 to
sum_f xi^(f(1)) e_f (with f(1) read literally in {1..l}).  On a general
element written as D(c) * sigma this gives the closed form

    Phi(x) = sum_g xi^( sum_j c_j g(j) ) * sigma_(g o sigma, g).

Phi is proved an algebra isomorphism by exact computation.  It is
multiplicative because Phi(x g) = Phi(x) Phi(g) for every element x and every
generator g of a generating set (induction on a word for the second factor).
It preserves the unit, and the matrix of its images in the morphism basis has
full rank l^d * d! (rank is computed blockwise: images of elements sharing an
underlying permutation live in disjoint coordinate blocks).  Its inverse is
the inverse DFT over C_l^d, one permutation block at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cyclo import Cyc, SpanBasis, root_of_unity
from .groupoid import GMorphism, identity_morphism, objects
from .perms import all_perms, compose_perms, invert_perm
from .reporting import suite_result
from .wreath import DEFAULT_GROUP_CAP, WreathElem, enum_group, generators, wreath_identity, wreath_mul

__all__ = [
    "AlgElem",
    "phi",
    "phi_on_generators",
    "phi_inverse",
    "verify_iso",
]


class AlgElem:
    """A finite exact linear combination of groupoid morphisms."""

    __slots__ = ("ell", "d", "terms")

    def __init__(self, ell: int, d: int, terms: dict[GMorphism, Cyc] | None = None):
        self.ell = ell
        self.d = d
        self.terms: dict[GMorphism, Cyc] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def zero(ell: int, d: int) -> "AlgElem":
        return AlgElem(ell, d)

    @staticmethod
    def from_morphism(ell: int, m: GMorphism, coeff: Cyc | None = None) -> "AlgElem":
        c = coeff if coeff is not None else Cyc.one(ell)
        return AlgElem(ell, len(m.perm), {m: c})

    @staticmethod
    def unit(ell: int, d: int) -> "AlgElem":
        one = Cyc.one(ell)
        return AlgElem(ell, d, {identity_morphism(f): one for f in objects(ell, d)})

    @staticmethod
    def idempotent(ell: int, f) -> "AlgElem":
        return AlgElem.from_morphism(ell, identity_morphism(tuple(f)))

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            new = c if acc is None else acc + c
            if new.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = new
        return AlgElem(self.ell, self.d, terms)

    def scale(self, c: Cyc) -> "AlgElem":
        if c.is_zero():
            return AlgElem.zero(self.ell, self.d)
        return AlgElem(self.ell, self.d, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "AlgElem") -> "AlgElem":
        """Bilinear extension of composition; non-composable pairs give zero."""
        self._check(other)
        by_source: dict[tuple, list[tuple[GMorphism, Cyc]]] = {}
        for m, c in self.terms.items():
            by_source.setdefault(m.source, []).append((m, c))
        terms: dict[GMorphism, Cyc] = {}
        for m2, c2 in other.terms.items():
            for m1, c1 in by_source.get(m2.target, ()):
                key = GMorphism(m2.source, m1.target, compose_perms(m1.perm, m2.perm))
                coeff = c1 * c2
                acc = terms.get(key)
                new = coeff if acc is None else acc + coeff
                if new.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = new
        return AlgElem(self.ell, self.d, terms)

    def _check(self, other: "AlgElem") -> None:
        if self.ell != other.ell or self.d != other.d:
            raise ValueError("algebra elements have different parameters")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgElem)
            and self.ell == other.ell
            and self.d == other.d
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> list:
        items = sorted(
            self.terms.items(),
            key=lambda mc: (mc[0].source, mc[0].target, mc[0].perm),
        )
        return [{"morphism": m.to_json(), "coeff": c.to_json()} for m, c in items]

    def __repr__(self) -> str:
        return f"AlgElem(ell={self.ell}, d={self.d}, {len(self.terms)} terms)"


def phi(x: WreathElem, d: int | None = None) -> AlgElem:
    """The closed form Phi(x) = sum_g xi^(sum_i colors_i * g(perm(i))) sigma_(g o perm, g)."""
    from .groupoid import _objects_tuple

    ell = x.ell
    d = len(x.perm) if d is None else d
    perm = x.perm
    colors = x.colors
    terms: dict[GMorphism, Cyc] = {}
    for g in _objects_tuple(ell, d):
        source = tuple(g[p - 1] for p in perm)
        expo = 0
        for c, s in zip(colors, source):
            expo += c * s
        terms[GMorphism(source, g, perm)] = root_of_unity(ell, expo)
    return AlgElem(ell, d, terms)


def phi_on_generators(x: WreathElem) -> AlgElem:
    """Phi(x) computed as a product of generator images (independent route).

    x is factored as D(colors') * perm with perm a word in s_1..s_{d-1} and
    the diagonal part a word in the s_0^(j); the generator images are then
    multiplied in A_(l,d).
    """
    ell, d = x.ell, len(x.perm)
    if d == 0:
        return AlgElem.unit(ell, 0)
    gens = generators(ell, d)
    images = [phi(g) for g in gens]
    from .perms import perm_to_word

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


def phi_inverse(a: AlgElem) -> list[tuple[WreathElem, Cyc]]:
    """The terms of Phi^(-1)(a) in the group basis, sorted by (perm, colors).

    Inverse DFT over C_l^d: the term of Phi(sigma, c) at the morphism
    h -> g with permutation sigma is xi^<c, h>, so by character orthogonality
    y_(sigma, c) = l^(-d) sum a_(h -> g) xi^(-<c, h>) over those morphisms.
    """
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


def _rank_of_phi_images(ell: int, d: int) -> int:
    """Exact rank of {Phi(x)} in the morphism basis, blockwise by permutation."""
    objs = objects(ell, d)
    rank = 0
    for perm in all_perms(d):
        sb = SpanBasis(ell, len(objs))
        for colors in product(range(ell), repeat=d):
            x = WreathElem(ell, perm, colors)
            vec = [Cyc.zero(ell)] * len(objs)
            for i, g in enumerate(objs):
                expo = sum(colors[j] * g[perm[j] - 1] for j in range(d))
                vec[i] = root_of_unity(ell, expo)
            sb.add(vec)
        rank += sb.rank
    return rank


def _generates(gens: list[WreathElem], e: WreathElem, order: int) -> bool:
    """True when right multiplication by gens reaches all `order` elements from e."""
    reached = {e}
    frontier = [e]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = wreath_mul(x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == order


def _multiplicativity_counterexample(
    group: list[WreathElem], gens: list[WreathElem]
) -> dict | None:
    """The first (x, g) in group x gens with Phi(x g) != Phi(x) Phi(g), or None."""
    images = [(g, phi(g)) for g in gens]
    for x in group:
        px = phi(x)
        for g, pg in images:
            if phi(wreath_mul(x, g)) != px * pg:
                return {"x": x.to_json(), "y": g.to_json()}
    return None


def verify_iso(ell: int, d: int, cap: int = DEFAULT_GROUP_CAP) -> dict:
    """Exact proof that Phi is an algebra isomorphism.

    S = generators(l, d) generates G and Phi(x g) = Phi(x) Phi(g) for every
    x in G and g in S, so Phi(xy) = Phi(x) Phi(y) by induction on a word for
    y; Phi(e) = 1 and the exact rank l^d * d! make it an isomorphism.
    """
    from math import factorial

    group = enum_group(ell, d, cap)
    gens = generators(ell, d) if d else []
    generated = _generates(gens, wreath_identity(ell, d), len(group))
    counterexample = _multiplicativity_counterexample(group, gens)
    checks = [
        {
            "name": "phi multiplicative",
            "status": "pass" if generated and counterexample is None else "fail",
            "details": {
                "pairs": len(group) * len(gens),
                "mode": "exhaustive",
                "generators": len(gens),
                "generated": generated,
                **({"counterexample": counterexample} if counterexample else {}),
            },
        }
    ]

    expected = ell**d * factorial(d)
    rank = _rank_of_phi_images(ell, d)
    checks.append(
        {
            "name": "phi bijective (exact rank)",
            "status": "pass" if rank == expected else "fail",
            "details": {"rank": rank, "dim": expected},
        }
    )

    unit_ok = phi(wreath_identity(ell, d)) == AlgElem.unit(ell, d)
    checks.append({"name": "phi preserves unit", "status": "pass" if unit_ok else "fail"})
    return suite_result(checks, ell=ell, d=d)
