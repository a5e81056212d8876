from fractions import Fraction

import pytest

from groupoidreps import gelfand
from groupoidreps.algebra import phi
from groupoidreps.cyclo import Cyc, root_of_unity
from groupoidreps.gelfand import GelfandModel, build_gelfand, inv_statistic, involutions, verify_gelfand
from groupoidreps.groupoid import compose, hom, identity_morphism
from groupoidreps.perms import compose_perms, identity_perm
from groupoidreps.simples import all_simples, character_table
from groupoidreps.wreath import WreathElem, enum_group, wreath_identity


def test_involutions():
    assert len(involutions((1, 1), 2)) == 2
    assert len(involutions((1, 2), 2)) == 1
    # involutions of S_3: 4 of them (identity + three transpositions)
    assert len(involutions((1, 1, 1), 1)) == 4


def test_inv_statistic_examples():
    f = (1, 1)
    swap = hom(f, f, 2)[1]
    ident = identity_morphism(f)
    assert inv_statistic(swap, ident) == 0
    assert inv_statistic(swap, swap) == 1
    g = identity_morphism((1, 1, 1))
    for w in involutions((1, 1, 1), 1):
        assert inv_statistic(g, w) == 0


def test_total_dims():
    assert build_gelfand(2, 2).total_dim == 6  # 2 + 1 + 1 + 2
    model = build_gelfand(1, 2)
    assert model.total_dim == 2


def test_conjugation_stays_involutive():
    for ell, d in [(2, 2), (2, 3), (3, 2)]:
        model = build_gelfand(ell, d)
        for f in model.objects:
            for g in model.objects:
                for s in hom(f, g, ell):
                    for w in model.basis[f]:
                        _sign, conj = model.act_on_involution(s, w)
                        assert compose_perms(conj.perm, conj.perm) == identity_perm(d)


def test_signed_action_functorial():
    for ell, d in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        model = build_gelfand(ell, d)
        for f in model.objects:
            for g in model.objects:
                for s1 in hom(f, g, ell):
                    for h in model.objects:
                        for s2 in hom(g, h, ell):
                            s21 = compose(s2, s1)
                            for w in model.basis[f]:
                                sg1, c1 = model.act_on_involution(s1, w)
                                sg2, c2 = model.act_on_involution(s2, c1)
                                sg, c = model.act_on_involution(s21, w)
                                assert (sg, c) == (sg1 * sg2, c2)


def test_character_example():
    model = build_gelfand(1, 2)
    assert model.char_wreath(WreathElem(1, (2, 1), (0, 0))).is_zero()


def test_involution_count_equals_sum_of_dims():
    for ell, d in [(1, 4), (2, 2), (2, 3), (3, 2), (4, 2)]:
        model = build_gelfand(ell, d)
        assert model.total_dim == sum(m.total_dim for m in all_simples(ell, d))


def test_verify_gelfand():
    for ell, d in [(1, 2), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
        rep = verify_gelfand(ell, d)
        assert rep["ok"], (ell, d, rep)


def test_char_wreath_is_diagonal_count_of_phi_action():
    # The trace of Phi(x) counted term by term with act_on_involution.
    for ell, d in [(2, 3), (3, 2)]:
        model = build_gelfand(ell, d)
        for x in enum_group(ell, d):
            trace = Cyc.zero(ell)
            for m, coeff in phi(x).terms.items():
                if m.source != m.target:
                    continue
                for w in model.basis[m.source]:
                    sign, conj = model.act_on_involution(m, w)
                    if conj == w:
                        trace = trace + coeff.scale(sign)
            assert model.char_wreath(x) == trace, x


def test_verify_gelfand_reports_a_rational_multiplicity_exactly(monkeypatch):
    # one more at the identity of (2,2) adds chi_p(1) / |G| = dim_p / 8 to
    # every multiplicity: 9/8 on the four one-dimensional simples and 5/4 on
    # the two-dimensional one, which an int() would truncate to 1
    ell, d = 2, 2
    real = GelfandModel.char_wreath
    unit = wreath_identity(ell, d)
    monkeypatch.setattr(GelfandModel, "char_wreath", lambda self, x: real(self, x) + Cyc.one(ell) if x == unit else real(self, x))
    check = next(c for c in verify_gelfand(ell, d)["checks"] if c["name"] == "every simple has multiplicity exactly 1")
    assert check["status"] == "fail"
    got = {tuple(map(tuple, row["label"])): row["multiplicity"] for row in check["details"]["multiplicities"]}
    assert got == {tuple(map(tuple, m.label_json())): "['5/4']" if m.total_dim == 2 else "['9/8']" for m in all_simples(ell, d)}


def test_verify_gelfand_reports_a_non_rational_multiplicity_exactly(monkeypatch):
    # xi_3 more at the identity of (3,1) adds xi * chi_p(1) / |G| = xi/3 to
    # every multiplicity: 1 + xi/3, reported by its power-basis coordinates
    ell, d = 3, 1
    real = GelfandModel.char_wreath
    unit = wreath_identity(ell, d)
    xi = root_of_unity(ell, 1)
    monkeypatch.setattr(GelfandModel, "char_wreath", lambda self, x: real(self, x) + xi if x == unit else real(self, x))
    check = next(c for c in verify_gelfand(ell, d)["checks"] if c["name"] == "every simple has multiplicity exactly 1")
    assert check["status"] == "fail"
    assert [row["multiplicity"] for row in check["details"]["multiplicities"]] == ["['1/1', '1/3']"] * 3


SUM_CHECK = "gelfand character equals sum of simple characters"


@pytest.mark.parametrize("ell,d", [(2, 2), (3, 2)])
def test_character_sum_check_adds_the_simple_characters_exactly(monkeypatch, ell, d):
    # xi/2 moved from one simple character to another at the first class keeps
    # the sum (Fraction bins that cancel); xi/2 added to one alone breaks it
    table = character_table(ell, d)
    half = root_of_unity(ell, 1).scale(Fraction(1, 2))

    def shifted(shifts):
        rows = [list(chi) for chi in table]
        for i, c in shifts:
            rows[i][0] = rows[i][0] + c
        return tuple(map(tuple, rows))

    for shifts, status in [([(0, half), (1, -half)], "pass"), ([(0, half)], "fail")]:
        # the class-major rows of the bent table, as the simples walk yields them
        monkeypatch.setattr(gelfand, "simple_characters", lambda e, n, xs, t=shifted(shifts): zip(*t))
        check = next(c for c in verify_gelfand(ell, d)["checks"] if c["name"] == SUM_CHECK)
        assert check["status"] == status, shifts
