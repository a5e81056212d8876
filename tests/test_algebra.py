import random
from fractions import Fraction
from itertools import permutations

from groupoidreps import algebra
from groupoidreps.algebra import AlgElem, phi, phi_inverse, verify_iso
from groupoidreps.cyclo import Cyc, euler_phi, root_of_unity
from groupoidreps.groupoid import hom, identity_morphism, objects
from groupoidreps.wreath import WreathElem, enum_group, generators, wreath_identity, wreath_mul
from reference import all_morphisms, cyc_phi_inverse, idempotent, morphism_element, phi_on_generators


def test_unit_and_idempotents():
    u = AlgElem.unit(2, 2)
    for x in enum_group(2, 2):
        px = phi(x)
        assert u * px == px
        assert px * u == px
    ef = idempotent(2, (1, 1))
    eg = idempotent(2, (1, 2))
    assert (ef * eg).is_zero()
    assert ef * ef == ef


def test_noncomposable_terms_vanish():
    m = hom((1, 2), (2, 1), 2)[0]
    a = morphism_element(2, m)
    e_other = idempotent(2, (1, 1))
    assert (a * e_other).is_zero()
    assert (e_other * a).is_zero()


def test_product_drops_the_terms_that_cancel():
    # with s the swap of (1, 1): (e + s)(e - s) = e - s + s - s^2, and s^2 = e,
    # so both keys cancel on their second contribution and leave no term
    e, s = hom((1, 1), (1, 1), 1)
    one = Cyc.one(1)
    a = AlgElem(1, 2, {e: one, s: one})
    b = AlgElem(1, 2, {e: one, s: -one})
    assert (a * b).terms == {}
    # no cancellation: (e + s)(e + s) = 2e + 2s
    assert a * a == a.scale(Cyc.rational(1, 2))


def test_scale_by_zero_is_the_zero_element():
    a = phi(generators(2, 2)[1])
    zero = a.scale(Cyc.zero(2))
    assert zero.terms == {} and zero.is_zero()
    assert zero == AlgElem.zero(2, 2)
    assert a.scale(Cyc.one(2)) == a


def test_phi_s0_d1():
    s0 = generators(2, 1)[0]
    expected = AlgElem(
        2,
        1,
        {
            identity_morphism((1,)): Cyc.rational(2, -1),
            identity_morphism((2,)): Cyc.one(2),
        },
    )
    assert phi(s0) == expected


def test_phi_identity_is_unit():
    for ell, d in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        assert phi(wreath_identity(ell, d)) == AlgElem.unit(ell, d)


def test_color_braid_identity():
    # Phi(s0)Phi(s1)Phi(s0)Phi(s1) = sum_f xi^(f(1)+f(2)) e_f
    for ell in (2, 3, 4):
        g = generators(ell, 2)
        lhs = phi(g[0]) * phi(g[1]) * phi(g[0]) * phi(g[1])
        expected = AlgElem(
            ell,
            2,
            {identity_morphism(f): root_of_unity(ell, f[0] + f[1]) for f in objects(ell, 2)},
        )
        assert lhs == expected


def test_phi_closed_form_matches_generator_route():
    rnd = random.Random(1)
    for ell, d in [(1, 3), (2, 2), (2, 3), (3, 2), (4, 2)]:
        group = enum_group(ell, d)
        for x in rnd.sample(group, min(15, len(group))):
            assert phi(x) == phi_on_generators(x)


def test_phi_diagonal_elements():
    # Phi(s_0^(j)) = sum_f xi^(f(j)) e_f
    from groupoidreps.wreath import s0_j

    for ell, d in [(2, 3), (3, 2), (4, 2)]:
        for j in range(1, d + 1):
            expected = AlgElem(
                ell,
                d,
                {identity_morphism(f): root_of_unity(ell, f[j - 1]) for f in objects(ell, d)},
            )
            assert phi(s0_j(ell, d, j)) == expected


def test_verify_iso_rank_detail():
    rep = verify_iso(2, 2)
    rank_check = next(c for c in rep["checks"] if "rank" in c["name"])
    assert rank_check["details"] == {"rank": 8, "dim": 8}


def test_phi_relations_in_algebra():
    # the defining relations hold for the Phi images themselves
    for ell, d in [(2, 3), (3, 2)]:
        imgs = [phi(g) for g in generators(ell, d)]
        unit = AlgElem.unit(ell, d)
        acc = unit
        for _ in range(ell):
            acc = acc * imgs[0]
        assert acc == unit
        for i in range(1, d):
            assert imgs[i] * imgs[i] == unit
        assert imgs[0] * imgs[1] * imgs[0] * imgs[1] == imgs[1] * imgs[0] * imgs[1] * imgs[0]


def test_alg_mul_associative_on_chains():
    # exhaustive over composable chains for small parameters
    for ell, d in [(2, 2), (1, 3), (2, 3), (3, 2)]:
        ms = all_morphisms(ell, d)
        by_source = {}
        for m in ms:
            by_source.setdefault(m.source, []).append(m)
        for a in ms:
            for b in by_source.get(a.target, ()):  # b o a defined
                ab = morphism_element(ell, b) * morphism_element(ell, a)
                for c in by_source.get(b.target, ()):
                    ca = morphism_element(ell, c)
                    lhs = ca * ab
                    rhs = (ca * morphism_element(ell, b)) * morphism_element(ell, a)
                    assert lhs == rhs


def test_verify_iso_grid():
    for ell, d in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 2), (2, 4)]:
        rep = verify_iso(ell, d)
        assert rep["ok"], (ell, d, rep)
        mult = rep["checks"][0]
        assert mult["details"]["mode"] == "exhaustive"
        assert mult["details"]["generated"] is True
        assert mult["details"]["pairs"] == len(enum_group(ell, d)) * d


def test_verify_iso_catches_map_wrong_off_generators(monkeypatch):
    # agrees with phi on e and on the generators, wrong on one element that
    # is not a product of two generators
    ell, d = 2, 3
    gens = generators(ell, d)
    bad = wreath_mul(wreath_mul(gens[0], gens[1]), gens[2])
    assert bad not in {wreath_mul(x, y) for x in gens for y in gens}

    # phi and both verify_iso checks read Phi through phi_form, so the fault
    # goes there: one wrong exponent in the image of bad
    real = algebra.phi_form

    def fake_phi_form(x, d=None):
        perm, exps = real(x, d)
        return (perm, ((exps[0] + 1) % ell,) + exps[1:]) if x == bad else (perm, exps)

    monkeypatch.setattr(algebra, "phi_form", fake_phi_form)
    mult = verify_iso(ell, d)["checks"][0]
    assert mult["name"] == "phi multiplicative"
    assert mult["status"] == "fail"
    assert mult["details"]["generated"] is True
    found = mult["details"]["counterexample"]
    x, y = (WreathElem(ell, tuple(found[k]["perm"]), tuple(found[k]["colors"])) for k in ("x", "y"))
    assert y in gens
    assert bad in (x, wreath_mul(x, y))


def test_verify_iso_fails_both_checks_for_one_wrong_exponent_off_the_units(monkeypatch):
    # one exponent of one image is wrong at an object that is not a unit
    # object (color 1 at j, l elsewhere): multiplicativity and the character
    # count both see it
    ell, d = 2, 3
    objs = objects(ell, d)
    units = {tuple(1 if k == j else ell for k in range(d)) for j in range(d)}
    wrong = next(i for i, g in enumerate(objs) if g not in units)
    bad = enum_group(ell, d)[13]  # any element will do
    real = algebra.phi_form

    def fake_phi_form(x, d=None):
        perm, exps = real(x, d)
        if x != bad:
            return perm, exps
        return perm, exps[:wrong] + ((exps[wrong] + 1) % ell,) + exps[wrong + 1 :]

    monkeypatch.setattr(algebra, "phi_form", fake_phi_form)
    rep = verify_iso(ell, d)
    mult, rank = rep["checks"][0], rep["checks"][1]
    assert (mult["name"], mult["status"]) == ("phi multiplicative", "fail")
    assert rank["name"] == "phi bijective (exact rank)"
    assert rank["status"] == "fail"
    assert rank["details"] == {"rank": 47, "dim": 48}
    assert phi(bad) != algebra._form_to_alg(ell, d, real(bad))
    assert not rep["ok"]


def test_form_product_is_the_algebra_product():
    # _form_mul, which the multiplicativity check uses, against AlgElem.__mul__
    for ell, d in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        group = enum_group(ell, d)
        forms = {x: algebra.phi_form(x) for x in group}
        for x in group:
            for y in group:
                product = algebra._form_mul(ell, forms[x], forms[y])
                assert algebra._form_to_alg(ell, d, product) == phi(x) * phi(y)
                assert product == forms[wreath_mul(x, y)]


def test_verify_iso_rejects_non_generating_set(monkeypatch):
    # without s_1 the remaining generators do not reach all of S(2,3)
    def without_s1(ell, d):
        return [g for i, g in enumerate(generators(ell, d)) if i != 1]

    monkeypatch.setattr(algebra, "generators", without_s1)
    rep = verify_iso(2, 3)
    mult = rep["checks"][0]
    assert mult["status"] == "fail"
    assert mult["details"]["generated"] is False
    assert mult["details"]["generators"] == 2
    assert "counterexample" not in mult["details"]
    assert not rep["ok"]


def test_phi_inverse_round_trip():
    for x in enum_group(2, 2):
        terms = phi_inverse(phi(x))
        assert terms == [(x, Cyc.one(2))]
    # linear combinations round trip too
    a = phi(enum_group(3, 2)[5]).scale(root_of_unity(3, 1)) + phi(enum_group(3, 2)[11])
    terms = phi_inverse(a)
    acc = AlgElem.zero(3, 2)
    for x, c in terms:
        acc = acc + phi(x).scale(c)
    assert acc == a


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for x, c in a.items():
        for y, e in b.items():
            z = wreath_mul(x, y)
            out[z] = out[z] + c * e if z in out else c * e
    return {z: c for z, c in out.items() if not c.is_zero()}


def test_phi_inverse_of_products_is_convolution():
    rnd = random.Random(5)
    for ell, d in [(4, 2), (5, 2), (3, 3), (6, 2)]:
        group = enum_group(ell, d)
        for _ in range(3):
            a = {x: root_of_unity(ell, rnd.randrange(ell)).scale(rnd.randint(1, 3))
                 for x in rnd.sample(group, 3)}
            b = {x: root_of_unity(ell, rnd.randrange(ell)).scale(rnd.randint(-3, -1))
                 for x in rnd.sample(group, 3)}
            pa, pb = AlgElem.zero(ell, d), AlgElem.zero(ell, d)
            for x, c in a.items():
                pa = pa + phi(x).scale(c)
            for x, c in b.items():
                pb = pb + phi(x).scale(c)
            got = phi_inverse(pa * pb)
            assert dict(got) == _convolve(a, b)
            keys = [(z.perm, z.colors) for z, _c in got]
            assert keys == sorted(keys)


def _random_cyc(rnd, ell):
    return Cyc(ell, [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2, 3, 7))) for _ in range(euler_phi(ell))])


def _random_element(rnd, ell, d, full):
    """An arbitrary element on up to two permutation blocks, each full or of at most three terms."""
    perms = list(permutations(range(1, d + 1)))
    terms = {}
    for perm in rnd.sample(perms, min(2, len(perms))):
        block = algebra._perm_table(ell, d, perm)[1]
        chosen = block if full else rnd.sample(block, min(3, len(block)))
        terms.update((m, _random_cyc(rnd, ell)) for m in chosen)
    return AlgElem(ell, d, terms)


def test_phi_inverse_matches_the_cyc_route_on_arbitrary_elements():
    # arbitrary elements, not only Phi-images, with Fraction coefficients over
    # denominators 1, 2, 3 and 7; sparse blocks everywhere, and full blocks
    # too wherever l^d <= 64
    rnd = random.Random(29)
    sizes = [(ell, d) for ell in (1, 2, 3, 4, 5, 6, 8, 12) for d in range(4)] + [(2, 4)]
    for ell, d in sizes:
        assert phi_inverse(AlgElem.zero(ell, d)) == cyc_phi_inverse(AlgElem.zero(ell, d)) == []
        for full in (False, True, True) if ell**d <= 64 else (False,):
            a = _random_element(rnd, ell, d, full)
            assert phi_inverse(a) == cyc_phi_inverse(a), (ell, d)


def test_phi_inverse_reduces_once_per_color_vector_without_cyc_arithmetic(monkeypatch):
    # the inverse DFT sums integer exponent bins: no Cyc addition or product,
    # and one reduction per (block, color vector), each of nonzero bins
    def refuse(*_args):
        raise AssertionError("Cyc arithmetic in phi_inverse")

    reduced = []
    real = Cyc.from_exponent_sums

    def recording(ell, sums):
        reduced.append(list(sums))
        return real(ell, sums)

    a = _random_element(random.Random(3), 4, 2, full=True)
    expected = cyc_phi_inverse(a)
    monkeypatch.setattr(Cyc, "__add__", refuse)
    monkeypatch.setattr(Cyc, "__mul__", refuse)
    monkeypatch.setattr(Cyc, "from_exponent_sums", staticmethod(recording))
    assert phi_inverse(a) == expected
    assert len(reduced) == 2 * 4**2 and all(any(bins) for bins in reduced)
    # the unit of A_(3,1): at colors 1 and 2 the bins are [1, 1, 1], which is
    # 1 + xi + xi^2 = 0, so only the identity is returned
    reduced.clear()
    assert phi_inverse(AlgElem.unit(3, 1)) == [(wreath_identity(3, 1), Cyc.one(3))]
    assert reduced == [[3, 0, 0], [1, 1, 1], [1, 1, 1]]


def test_dim_of_algebra():
    from math import factorial

    for ell, d in [(2, 2), (3, 2), (2, 3)]:
        assert len(all_morphisms(ell, d)) == ell**d * factorial(d)


def test_serialization():
    a = idempotent(2, (1, 2))
    js = a.to_json()
    assert js == [
        {
            "morphism": {"source": [1, 2], "target": [1, 2], "perm": [1, 2]},
            "coeff": {"order": 2, "coeffs": ["1/1"]},
        }
    ]


def test_verify_iso_forms_each_product_once(monkeypatch):
    # the product table feeds both the generation walk and the
    # multiplicativity check, so each x g is formed once
    calls = []
    real = algebra.wreath_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(algebra, "wreath_mul", counting)
    for ell, d in [(2, 3), (3, 2)]:
        calls.clear()
        assert verify_iso(ell, d)["ok"]
        assert len(calls) == len(enum_group(ell, d)) * d
