"""The groupoid algebra A_(l,d) and the isomorphism with C[S(l,d)].

A_(l,d) is the span of all groupoid morphisms; the product of two basis
morphisms is their composition when composable and zero otherwise, extended
bilinearly.  The unit is the sum of all identity morphisms e_f.

Phi sends a permutation sigma to the sum of all morphisms with underlying
permutation sigma, and the color generator at position 1 to
sum_f xi^(f(1)) e_f (with f(1) read literally in {1..l}).  On a general
element written as D(c) * sigma this gives the closed form

    Phi(x) = sum_g xi^( sum_j c_j g(j) ) * sigma_(g o sigma, g).

Each image is monomial: one term per object g, with the exponent
e_x(g) = sum_j c_j g(j) mod l, which is linear in the colors of g.
`phi_form` returns this data, (sigma, the exponent at each object), and
`phi` builds its AlgElem from it, so the proof below checks the map that
`phi` returns.

Phi is proved an algebra isomorphism by exact integer computation on forms.
It is multiplicative because Phi(x g) = Phi(x) Phi(g) for every element x and
every generator g of a generating set (induction on a word for the second
factor); the product of two monomial images is monomial, with permutation
sigma_x o sigma_g and exponent e_x(g) + e_g(g o sigma_x) at g, so each pair
costs one composition and one exponent addition mod l per object.  It
preserves the unit, and its images have full rank l^d * d!.  Images of
elements sharing an underlying permutation live in one coordinate block, and
there Phi(x) is the function g -> xi^(e_x(g)), a character of C_l^d once its
exponent is confirmed additive on every object.  Distinct characters are
linearly independent (Artin-Dedekind; Lang, Algebra, ch. VI), so the rank is
the number of distinct confirmed exponent vectors: no elimination.  The
inverse of Phi is the inverse DFT over C_l^d, one permutation block at a
time; it runs on integer exponent bins over one denominator per block, with
one reduction per group coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

from .cyclo import Cyc, root_of_unity
from .groupoid import GMorphism, _objects_tuple, identity_morphism, object_index, objects
from .perms import compose_perms, reach
from .reporting import record, suite_result
from .wreath import DEFAULT_GROUP_CAP, WreathElem, enum_group, generators, wreath_identity, wreath_mul

__all__ = [
    "AlgElem",
    "phi",
    "phi_form",
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
    def unit(ell: int, d: int) -> "AlgElem":
        one = Cyc.one(ell)
        return AlgElem(ell, d, {identity_morphism(f): one for f in objects(ell, d)})

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


@lru_cache(maxsize=None)
def _perm_table(ell: int, d: int, perm: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """Over the objects g_i in order: the sources g_i o perm, the morphisms
    g_i o perm -> g_i, and the index of each source."""
    objs = _objects_tuple(ell, d)
    sources = tuple(tuple(g[p - 1] for p in perm) for g in objs)
    morphisms = tuple(GMorphism(s, g, perm) for s, g in zip(sources, objs))
    return sources, morphisms, tuple(object_index(s, ell) for s in sources)


@lru_cache(maxsize=None)
def _roots(ell: int) -> tuple[Cyc, ...]:
    return tuple(root_of_unity(ell, e) for e in range(ell))


def phi_form(x: WreathElem, d: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Phi(x) as monomial data (perm, exps): exps[i] = sum_j colors_j * g_i(perm(j)) mod l.

    Phi(x) = sum_i xi^(exps[i]) sigma_(g_i o perm, g_i) over the objects g_i in
    `objects` order.
    """
    ell = x.ell
    d = len(x.perm) if d is None else d
    colors = x.colors
    return x.perm, tuple([sum(map(mul, colors, s)) % ell for s in _perm_table(ell, d, x.perm)[0]])


def _form_to_alg(ell: int, d: int, form: tuple) -> AlgElem:
    """The AlgElem of a form; its terms are roots of unity, so none is zero."""
    perm, exps = form
    roots = _roots(ell)
    out = AlgElem(ell, d)
    out.terms = dict(zip(_perm_table(ell, d, perm)[1], [roots[e] for e in exps]))
    return out


def phi(x: WreathElem, d: int | None = None) -> AlgElem:
    """The closed form Phi(x) = sum_g xi^(sum_i colors_i * g(perm(i))) sigma_(g o perm, g), from phi_form."""
    d = len(x.perm) if d is None else d
    return _form_to_alg(x.ell, d, phi_form(x, d))


def _form_mul(ell: int, fx: tuple, fy: tuple) -> tuple:
    """The form of Phi(x) Phi(y) from the forms of x and y.

    The term of Phi(x) at g_i composes only with the term of Phi(y) whose
    target is its source g_i o perm_x, so the product has permutation
    perm_x o perm_y and exponent exps_x[i] + exps_y[index of g_i o perm_x].
    """
    (px, ex), (py, ey) = fx, fy
    src = _perm_table(ell, len(px), px)[2]
    return compose_perms(px, py), tuple([(e + ey[s]) % ell for e, s in zip(ex, src)])


def phi_inverse(a: AlgElem) -> list[tuple[WreathElem, Cyc]]:
    """The terms of Phi^(-1)(a) in the group basis, sorted by (perm, colors).

    Inverse DFT over C_l^d: the term of Phi(sigma, c) at the morphism
    h -> g with permutation sigma is xi^<c, h>, so by character orthogonality
    y_(sigma, c) = l^(-d) sum a_(h -> g) xi^(-<c, h>) over those morphisms.
    The sum runs on integer exponent bins, over one denominator D per
    permutation block (the lcm of its coefficients' denominators): the
    numerator of a_(h -> g) at power i adds into bin (i - <c, h>) mod l, and
    each y is reduced once, by from_exponent_sums, and scaled by 1/(l^d D).
    """
    ell, d = a.ell, a.d
    by_perm: dict[tuple, list[tuple[tuple, Cyc]]] = {}
    for m, coeff in a.terms.items():
        by_perm.setdefault(m.perm, []).append((m.source, coeff))
    out: list[tuple[WreathElem, Cyc]] = []
    for perm, terms in by_perm.items():
        den = lcm(*(coeff.den for _source, coeff in terms))
        nums = [(source, [n * (den // coeff.den) for n in coeff.num]) for source, coeff in terms]
        norm = Fraction(1, ell**d * den)
        for colors in product(range(ell), repeat=d):
            bins = [0] * ell
            for source, num in nums:
                e = sum(map(mul, colors, source))
                for i, n in enumerate(num):
                    bins[(i - e) % ell] += n
            y = Cyc.from_exponent_sums(ell, bins)
            if not y.is_zero():
                out.append((WreathElem(ell, perm, colors), y.scale(norm)))
    out.sort(key=lambda t: (t[0].perm, t[0].colors))
    return out


def _rank_of_phi_images(ell: int, d: int, members, forms: list | None = None) -> int:
    """Exact rank of {Phi(x) : x in members} in the morphism basis, by counting characters.

    The images of the members with one permutation live in one block, where
    Phi(x) is the function g -> xi^(e_x(g)) on the objects.  Read
    a_j = e_x(u_j) at the unit objects u_j (color 1 at j, l elsewhere) and
    confirm e_x(g) = sum_j a_j g_j mod l on every object g: the function is
    then the character of C_l^d with exponent vector a.  Distinct characters
    are linearly independent (Artin-Dedekind), so each block contributes the
    number of distinct confirmed vectors.  A member that fails the
    confirmation is not counted, so a faulty Phi can only lower the result,
    which is a lower bound on the rank and equals it when every member is
    confirmed.  `forms` holds the phi_form of each member, in order, when
    the caller already has them.
    """
    objs = _objects_tuple(ell, d)
    units = [object_index(tuple(1 if k == j else ell for k in range(d)), ell) for j in range(d)]
    characters: dict[tuple, tuple] = {}
    blocks: dict[tuple, set] = {}
    for perm, exps in forms if forms is not None else (phi_form(x, d) for x in members):
        a = tuple([exps[i] for i in units])
        chi = characters.get(a)
        if chi is None:
            chi = characters[a] = tuple([sum(map(mul, a, g)) % ell for g in objs])
        if exps == chi:
            blocks.setdefault(perm, set()).add(a)
    return sum(map(len, blocks.values()))


def _multiplicativity_counterexample(
    group: list[WreathElem], gens: list[WreathElem], forms: list, table: list
) -> dict | None:
    """The first (x, g) in group x gens with Phi(x g) != Phi(x) Phi(g), or None, compared as forms.

    forms[i] is the form of group[i], and table[i][j] is the index of group[i] gens[j].
    """
    gen_forms = [phi_form(g) for g in gens]
    for x, fx, row in zip(group, forms, table):
        for g, fg, xg in zip(gens, gen_forms, row):
            if forms[xg] != _form_mul(x.ell, fx, fg):
                return {"x": x.to_json(), "y": g.to_json()}
    return None


def verify_iso(ell: int, d: int, cap: int = DEFAULT_GROUP_CAP) -> dict:
    """Exact proof that Phi is an algebra isomorphism, on the forms of Phi.

    S = generators(l, d) generates G and Phi(x g) = Phi(x) Phi(g) for every
    x in G and g in S, so Phi(xy) = Phi(x) Phi(y) by induction on a word for
    y; each side is a form, the product through _form_mul.  Phi(e) = 1, and
    the rank l^d * d!, counted as distinct additive exponent vectors per
    permutation block (Artin-Dedekind), makes it an isomorphism.  The form of
    each element and each product x g is computed once: the table of product
    indices serves both the generation walk and the multiplicativity check.
    """
    from math import factorial

    group = enum_group(ell, d, cap)
    gens = generators(ell, d) if d else []
    index = {x: i for i, x in enumerate(group)}
    table = [[index[wreath_mul(x, g)] for g in gens] for x in group]
    generated = len(reach([index[wreath_identity(ell, d)]], table.__getitem__)) == len(group)
    forms = [phi_form(x, d) for x in group]
    counterexample = _multiplicativity_counterexample(group, gens, forms, table)
    checks = [
        record(
            "phi multiplicative",
            generated and counterexample is None,
            {
                "pairs": len(group) * len(gens),
                "mode": "exhaustive",
                "generators": len(gens),
                "generated": generated,
                **({"counterexample": counterexample} if counterexample else {}),
            },
        )
    ]

    expected = ell**d * factorial(d)
    rank = _rank_of_phi_images(ell, d, group, forms)
    checks.append(record("phi bijective (exact rank)", rank == expected, {"rank": rank, "dim": expected}))

    unit_ok = phi(wreath_identity(ell, d)) == AlgElem.unit(ell, d)
    checks.append(record("phi preserves unit", unit_ok))
    return suite_result(checks, ell=ell, d=d)
