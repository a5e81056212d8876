from fractions import Fraction
from math import factorial

import pytest

from groupoidreps.cyclo import Cyc, Mat, SpanBasis
from groupoidreps.perms import all_perms, compose_perms, perm_to_word
from groupoidreps.tableaux import (
    OuterRep,
    compositions,
    hook_length_count,
    multipartitions,
    outer_rep,
    partitions,
    removable_cells,
    remove_cell,
    specht_rep,
    standard_tableaux,
)


def test_partitions():
    assert partitions(0) == ((),)
    assert partitions(1) == ((1,),)
    assert len(partitions(4)) == 5
    for n in range(8):
        for mu in partitions(n):
            assert sum(mu) == n
            assert all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))
        assert len(set(partitions(n))) == len(partitions(n))


def test_compositions():
    assert compositions(2, 2) == ((0, 2), (1, 1), (2, 0))
    for ell, d in [(2, 3), (3, 2), (4, 2)]:
        cs = compositions(ell, d)
        assert all(len(c) == ell and sum(c) == d for c in cs)
        assert sorted(cs) == list(cs)


def test_multipartitions():
    assert multipartitions((1, 1)) == [((1,), (1,))]
    assert multipartitions((2, 0)) == [((2,), ()), ((1, 1), ())]
    assert len(multipartitions((2, 1))) == 2


def test_standard_tableaux_counts():
    assert len(standard_tableaux((5,))) == 1
    assert len(standard_tableaux((1, 1, 1))) == 1
    assert len(standard_tableaux((2, 1))) == 2
    for n in range(7):
        for mu in partitions(n):
            assert len(standard_tableaux(mu)) == hook_length_count(mu)


def test_standard_tableaux_are_standard():
    for tab in standard_tableaux((3, 2, 1)):
        for row in tab:
            assert list(row) == sorted(row)
        for c in range(3):
            col = [row[c] for row in tab if len(row) > c]
            assert col == sorted(col)


def test_removable_cells():
    assert removable_cells((3, 1)) == [(0, 2), (1, 0)]
    assert remove_cell((3, 1), (1, 0)) == (3,)
    assert remove_cell((1,), (0, 0)) == ()


def test_specht_small_examples():
    sign = specht_rep((1, 1))
    assert sign.gen_matrices[1].rows[0][0] == Cyc.rational(1, -1)
    triv = specht_rep((4,))
    assert all(m.rows[0][0].is_one() for m in triv.gen_matrices.values())
    two_one = specht_rep((2, 1))
    assert two_one.dim == 2
    assert two_one.gen_matrices[1].trace().is_zero()


def test_specht_coxeter_relations():
    for n in range(6):
        for mu in partitions(n):
            rep = specht_rep(mu)
            eye = Mat.identity(1, rep.dim)
            for i in range(1, n):
                si = rep.gen_matrices[i]
                assert si * si == eye
                for j in range(i + 2, n):
                    sj = rep.gen_matrices[j]
                    assert si * sj == sj * si
            for i in range(1, n - 1):
                a, b = rep.gen_matrices[i], rep.gen_matrices[i + 1]
                assert a * b * a == b * a * b


def test_specht_is_representation():
    rep = specht_rep((2, 2))
    for w1 in all_perms(4)[:8]:
        for w2 in all_perms(4)[-8:]:
            assert rep.matrix_of_perm(compose_perms(w1, w2)) == rep.matrix_of_perm(
                w1
            ) * rep.matrix_of_perm(w2)


def test_sum_of_squares():
    for n in range(7):
        assert sum(hook_length_count(mu) ** 2 for mu in partitions(n)) == factorial(n)


def test_specht_irreducibility():
    # commutant of the matrices has dimension exactly 1 for |mu| <= 5
    for n in range(1, 6):
        for mu in partitions(n):
            rep = specht_rep(mu)
            dm = rep.dim
            sb = SpanBasis(1, dm * dm)
            zero = Cyc.zero(1)
            for i in range(1, n):
                g = rep.gen_matrices[i]
                for r in range(dm):
                    for c in range(dm):
                        row = [zero] * (dm * dm)
                        for t in range(dm):
                            v = g.rows[t][c]
                            if not v.is_zero():
                                row[r * dm + t] = row[r * dm + t] + v
                            w = g.rows[r][t]
                            if not w.is_zero():
                                row[t * dm + c] = row[t * dm + c] - w
                        sb.add(row)
            assert dm * dm - sb.rank == 1, mu


def test_outer_tensor():
    o = outer_rep(((1,), (1,)), (1, 1))
    assert o.dim == 1
    o2 = outer_rep(((2,), (1, 1)), (2, 2))
    assert o2.dim == 1
    m = o2.matrix_of_blockperm((1, 2, 4, 3))
    assert m.rows[0][0] == Cyc.rational(1, -1)
    o3 = outer_rep(((2, 1), (2, 1)), (3, 3))
    assert o3.dim == 4
    with pytest.raises(ValueError):
        outer_rep(((2,), (1,)), (1, 1))


def test_block_traces_are_the_integer_matrix_traces():
    for p, lam in [(((2, 1), (1,)), (3, 1)), (((2,), (1, 1), (1,)), (2, 2, 1)), (((2, 2), ()), (4, 0))]:
        o = outer_rep(p, lam)
        starts = [sum(lam[:i]) for i in range(len(lam))]
        blocks = [set(range(a + 1, a + n + 1)) for a, n in zip(starts, lam)]
        for w in all_perms(sum(lam)):
            if all({w[i - 1] for i in b} == b for b in blocks):
                t = o.trace_of_blockperm(w)
                assert type(t) is int and Cyc.rational(1, t) == o.matrix_of_blockperm(w).trace()


def test_non_integral_block_trace_raises(monkeypatch):
    o = OuterRep(((2,), (1, 1)), (2, 2))
    half = Mat(1, [[Cyc.rational(1, Fraction(1, 2))]])
    monkeypatch.setattr(o.components[1], "matrix_of_perm", lambda w: half)
    with pytest.raises(ArithmeticError):
        o.trace_of_blockperm((1, 2, 4, 3))


def test_perm_word():
    for w in all_perms(4):
        acc = (1, 2, 3, 4)
        for i in perm_to_word(w):
            s = list(range(1, 5))
            s[i - 1], s[i] = s[i], s[i - 1]
            acc = compose_perms(acc, tuple(s))
        assert acc == w
