"""The involutive Gelfand model for the groupoid algebra.

The model space at an object f is spanned by the involutions of the
endomorphism group of f; a morphism sigma: f -> g sends an involution w to
(-1)^inv(sigma, w) * sigma w sigma^(-1), where

    inv(sigma, w) = #{(i, j) : i < j, w(i) = j, sigma(i) > sigma(j)}

counts the 2-cycles of w that sigma inverts.  The resulting module is a
multiplicity-free direct sum of all simple modules; multiplicities are
verified by exact character inner products.

An involution of End(g) = prod_c S_(lambda_c) is one involution per color,
and both the commutation with sigma and inv(sigma, w) split by color, so
the block at g is the outer tensor product of the involution models of the
S_(lambda_c) (Adin-Postnikov-Roichman, J. Algebra 320, 2008).  Its trace at
sigma_(g, g) is the product over colors of the signed count of the
involutions of S_n that commute with one permutation of cycle type mu_c,
enumerated once per mu_c (`_model_trace`).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .cyclo import Cyc
from .groupoid import GMorphism, compose, hom, inverse, objects
from .perms import compose_perms, cycle_type_perm
from .reporting import record, suite_result
from .simples import _exponent_bins, all_simples, conjugacy_classes, inner_products, phi_trace, simple_characters
from .wreath import WreathElem

__all__ = [
    "involutions",
    "inv_statistic",
    "GelfandModel",
    "build_gelfand",
    "verify_gelfand",
]


def involutions(f, ell: int) -> list[GMorphism]:
    """All w in Hom(f, f) with w o w = e_f (the identity included)."""
    f = tuple(f)
    d = len(f)
    return [m for m in hom(f, f, ell) if compose_perms(m.perm, m.perm) == tuple(range(1, d + 1))]


def inv_statistic(sigma: GMorphism, w: GMorphism) -> int:
    """#{(i,j) : i < j, w(i) = j, sigma(i) > sigma(j)}."""
    if w.source != sigma.source or w.source != w.target:
        raise ValueError("w must be an endomorphism of the source of sigma")
    s, wp = sigma.perm, w.perm
    d = len(s)
    return sum(1 for i in range(1, d + 1) if wp[i - 1] > i and s[i - 1] > s[wp[i - 1] - 1])


class GelfandModel:
    """The signed-conjugation module on involutions, one block per object."""

    def __init__(self, ell: int, d: int):
        self.ell = ell
        self.d = d
        self.objects = objects(ell, d)
        self.basis: dict[tuple, list[GMorphism]] = {
            f: involutions(f, ell) for f in self.objects
        }
        self.total_dim = sum(len(ws) for ws in self.basis.values())

    def act_on_involution(self, sigma: GMorphism, w: GMorphism) -> tuple[int, GMorphism]:
        """(sign, sigma w sigma^(-1)); the image is again an involution."""
        conj = compose(compose(sigma, w), inverse(sigma))
        sign = -1 if inv_statistic(sigma, w) % 2 else 1
        return sign, conj

    def block_trace(self, cycle_types) -> int:
        """The trace on a block of an endomorphism with cycle type cycle_types[c] in color c: prod_c _model_trace."""
        return prod(map(_model_trace, cycle_types))

    def char_wreath(self, x: WreathElem) -> Cyc:
        """Trace of the action of Phi(x) on the model, by phi_trace."""
        return phi_trace(x, self.block_trace)


@lru_cache(maxsize=None)
def _model_trace(cycle_type: tuple[int, ...]) -> int:
    """The trace of a permutation sigma of the given cycle lengths on the involution model of S_n.

    sigma w sigma^(-1) = w exactly when sigma w = w sigma, and then w
    contributes its sign (-1)^inv(sigma, w).
    """
    f = (1,) * sum(cycle_type)
    sigma, tr = GMorphism(f, f, cycle_type_perm(cycle_type)), 0
    for w in involutions(f, 1):
        if compose_perms(sigma.perm, w.perm) == compose_perms(w.perm, sigma.perm):
            tr += -1 if inv_statistic(sigma, w) % 2 else 1
    return tr


@lru_cache(maxsize=None)
def build_gelfand(ell: int, d: int) -> GelfandModel:
    return GelfandModel(ell, d)


def verify_gelfand(ell: int, d: int) -> dict:
    """Every simple module appears in the model with multiplicity exactly one."""
    model = build_gelfand(ell, d)
    simples = all_simples(ell, d)
    checks = []

    dim_match = model.total_dim == sum(m.total_dim for m in simples)
    checks.append(
        record(
            "sum of involution counts = sum of simple dims",
            dim_match,
            {"involutions": model.total_dim, "sum_simple_dims": sum(m.total_dim for m in simples)},
        )
    )

    # Each simple character feeds its multiplicity; their per-class sum must
    # equal the model's character.  Class by class, so the model at a
    # representative reads the fixed_objects groups its simples have just read.
    classes = conjugacy_classes(ell, d)
    reps = [rep for rep, _size in classes]
    rows, chi_model = [], []
    for x, row in zip(reps, simple_characters(ell, d, reps)):
        rows.append(row)
        chi_model.append(model.char_wreath(x))
    chi_model_bar = [v.conjugate() for v in chi_model]
    mult_table = []
    all_one = True
    for m, (val,) in zip(simples, inner_products(classes, list(zip(*rows)), [chi_model_bar])):
        val = val.conjugate()  # <chi_M, chi_p> = conj <chi_p, chi_M>
        ok = val.is_rational() and val.rational_value() == 1
        all_one = all_one and ok
        # int() would truncate a rational: only an integer is reported as an int
        exact = int(val.rational_value()) if val.is_rational() and val.den == 1 else str(val.to_json()["coeffs"])
        mult_table.append({"label": m.label_json(), "multiplicity": exact})
    checks.append(record("every simple has multiplicity exactly 1", all_one, {"multiplicities": mult_table}))

    # per class, the power-basis numerators of the simple characters summed
    # as ints (Fractions where a denominator is not 1), then made one Cyc
    chi_sum = [Cyc(ell, map(sum, zip(*map(_exponent_bins, values)))) for values in rows]
    diff_zero = chi_model == chi_sum
    checks.append(record("gelfand character equals sum of simple characters", diff_zero))

    return suite_result(checks, ell=ell, d=d, total_dim=model.total_dim)
