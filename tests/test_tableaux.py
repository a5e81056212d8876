from itertools import permutations, product
from math import factorial, prod

import pytest

from groupoidreps import tableaux
from groupoidreps.cyclo import Cyc, LinSolver, intertwiners
from groupoidreps.perms import adjacent_transposition, all_perms, compose_perms, perm_sign, perm_to_word
from groupoidreps.tableaux import (
    SpechtRep,
    compositions,
    hook_length_count,
    multipartitions,
    outer_rep,
    partitions,
    removable_cells,
    remove_cell,
    specht_character,
    specht_rep,
    standard_tableaux,
)
from reference import outer_block_trace


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _trace(a):
    return sum(a[i][i] for i in range(len(a)))


def _cycle_type(w):
    """The nondecreasing cycle lengths of a one-line permutation."""
    seen, lengths = set(), []
    for start in range(1, len(w) + 1):
        n, p = 0, start
        while p not in seen:
            seen.add(p)
            n += 1
            p = w[p - 1]
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


def _lift(ell, a):
    """An integer matrix as the sparse {(row, col): Cyc} entries that cyclo.intertwiners reads."""
    return {(i, j): Cyc.rational(ell, v) for i, row in enumerate(a) for j, v in enumerate(row) if v}


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
    assert sign.gen_matrices[1] == ((-1,),)
    triv = specht_rep((4,))
    assert all(m == ((1,),) for m in triv.gen_matrices.values())
    two_one = specht_rep((2, 1))
    assert two_one.dim == 2
    assert _trace(two_one.gen_matrices[1]) == 0
    assert specht_rep(()).matrix_of_perm(()) == ((1,),)


def test_specht_matrices_are_integer_tuples():
    for n in range(6):
        for mu in partitions(n):
            for m in specht_rep(mu).gen_matrices.values():
                assert type(m) is tuple and all(type(row) is tuple for row in m)
                assert all(type(v) is int for row in m for v in row)


def test_specht_coxeter_relations():
    for n in range(6):
        for mu in partitions(n):
            rep = specht_rep(mu)
            eye = _eye(rep.dim)
            for i in range(1, n):
                si = rep.gen_matrices[i]
                assert _mul(si, si) == eye
                for j in range(i + 2, n):
                    sj = rep.gen_matrices[j]
                    assert _mul(si, sj) == _mul(sj, si)
            for i in range(1, n - 1):
                a, b = rep.gen_matrices[i], rep.gen_matrices[i + 1]
                assert _mul(_mul(a, b), a) == _mul(_mul(b, a), b)


def test_specht_is_representation():
    rep = specht_rep((2, 2))
    for w1 in all_perms(4)[:8]:
        for w2 in all_perms(4)[-8:]:
            assert rep.matrix_of_perm(compose_perms(w1, w2)) == _mul(rep.matrix_of_perm(w1), rep.matrix_of_perm(w2))


def test_sum_of_squares():
    for n in range(7):
        assert sum(hook_length_count(mu) ** 2 for mu in partitions(n)) == factorial(n)


def test_specht_irreducibility():
    # the commutant of the lifted generator matrices is one-dimensional for |mu| <= 5
    for n in range(1, 6):
        for mu in partitions(n):
            rep = specht_rep(mu)
            gens = [_lift(2, g) for g in rep.gen_matrices.values()]
            assert len(intertwiners(2, rep.dim, rep.dim, [(g, g) for g in gens])) == 1, mu


def _reference_polytabloid(tab):
    """e_tab by relabelling tab through its column group: {tabloid (rows as sets): coefficient}."""
    cols = [[row[c] for row in tab if len(row) > c] for c in range(len(tab[0]) if tab else 0)]
    vec = {}
    for choice in product(*(permutations(range(len(col))) for col in cols)):
        relabel, sgn = {}, 1
        for col, sigma in zip(cols, choice):
            relabel.update({x: col[s] for x, s in zip(col, sigma)})
            sgn *= perm_sign(tuple(s + 1 for s in sigma))
        tabloid = tuple(frozenset(relabel.get(x, x) for x in row) for row in tab)
        vec[tabloid] = vec.get(tabloid, 0) + sgn
    return vec


def _reference_matrices(mu, ws):
    """For each w, column j holds the LinSolver coordinates of w e_(T_j) = e_(w T_j) over the standard polytabloids."""
    tabs = standard_tableaux(mu)
    n = sum(mu)
    index = {}
    for p in all_perms(n):
        cells = iter(p)
        index.setdefault(tuple(frozenset(next(cells) for _ in range(r)) for r in mu), len(index))

    def sparse(vec):
        return {index[tbl]: Cyc.rational(1, c) for tbl, c in vec.items() if c}

    solver = LinSolver(1, len(index), [sparse(_reference_polytabloid(t)) for t in tabs])
    assert solver.rank == len(tabs)
    out = []
    for w in ws:
        cols = []
        for t in tabs:
            coords = solver.express(sparse(_reference_polytabloid(tuple(tuple(w[x - 1] for x in row) for row in t))))
            assert coords is not None
            cols.append([coords.get(i, Cyc.zero(1)).rational_value() for i in range(len(tabs))])
        out.append(tuple(tuple(col[i] for col in cols) for i in range(len(tabs))))
    return out


def test_specht_matrices_match_the_linsolver_reference():
    # straightening by leading tabloids gives the coordinates that exact
    # elimination over the polytabloid vectors gives, for every shape of size <= 6
    for n in range(7):
        gens = [adjacent_transposition(n, i) for i in range(1, n)]
        ws = all_perms(n)[:: max(1, factorial(n) // 6)]
        for mu in partitions(n):
            rep = specht_rep(mu)
            got = [rep.gen_matrices[i] for i in range(1, n)] + [rep.matrix_of_perm(w) for w in ws]
            assert got == _reference_matrices(mu, gens + ws), mu


def test_wrong_leading_tabloid_raises(monkeypatch):
    # a polytabloid whose largest tabloid has coefficient -1 fails the constructor's check
    real = tableaux._polytabloid
    monkeypatch.setattr(tableaux, "_polytabloid", lambda tab: {t: -c for t, c in real(tab).items()})
    with pytest.raises(RuntimeError, match="largest tabloid"):
        SpechtRep((2, 1))


def test_vector_outside_the_specht_module_raises(monkeypatch):
    # with e_T cut down to its leading tabloid {T}, s_1 moves {T} for T = 13/2
    # to the tabloid with 1 in the second row, which is {T} of no standard T
    monkeypatch.setattr(tableaux, "_polytabloid", lambda tab: {tableaux._row_vector(tab): 1})
    with pytest.raises(RuntimeError, match="left the Specht module"):
        SpechtRep((2, 1))


def test_outer_tensor():
    o = outer_rep(((1,), (1,)), (1, 1))
    assert o.dim == 1
    o2 = outer_rep(((2,), (1, 1)), (2, 2))
    assert o2.dim == 1
    assert o2.matrix_of_blockperm((1, 2, 4, 3)) == ((-1,),)
    o3 = outer_rep(((2, 1), (2, 1)), (3, 3))
    assert o3.dim == 4
    s1 = specht_rep((2, 1)).gen_matrices[1]
    kron = lambda a, b: tuple(tuple(x * y for x in r for y in s) for r in a for s in b)
    assert o3.matrix_of_blockperm((2, 1, 3, 4, 5, 6)) == kron(s1, _eye(2))
    assert o3.matrix_of_blockperm((1, 2, 3, 5, 4, 6)) == kron(_eye(2), s1)
    # a single factor is that factor's cached matrix
    one = outer_rep(((2, 1),), (3,))
    assert one.matrix_of_blockperm((2, 3, 1)) is specht_rep((2, 1)).matrix_of_perm((2, 3, 1))
    with pytest.raises(ValueError):
        outer_rep(((2,), (1,)), (1, 1))


def test_block_traces_are_the_integer_matrix_traces():
    # the trace of a block permutation on S_p is prod_c chi^(p_c) at the cycle
    # type of its c-th block
    for p, lam in [(((2, 1), (1,)), (3, 1)), (((2,), (1, 1), (1,)), (2, 2, 1)), (((2, 2), ()), (4, 0))]:
        o = outer_rep(p, lam)
        starts = [sum(lam[:i]) for i in range(len(lam))]
        blocks = [set(range(a + 1, a + n + 1)) for a, n in zip(starts, lam)]
        for w in all_perms(sum(lam)):
            if all({w[i - 1] for i in b} == b for b in blocks):
                local = [tuple(w[a + i] - a for i in range(n)) for a, n in zip(starts, lam)]
                t = prod(specht_character(pi, _cycle_type(v)) for pi, v in zip(p, local))
                assert type(t) is int and t == _trace(o.matrix_of_blockperm(w)) == outer_block_trace(o, w)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_specht_character_is_the_trace_at_every_permutation_of_its_cycle_type(n):
    for mu in partitions(n):
        rep = specht_rep(mu)
        for w in all_perms(n):
            assert specht_character(mu, _cycle_type(w)) == _trace(rep.matrix_of_perm(w)), (mu, w)
    assert specht_character((2, 1), (3,)) == -1 and specht_character((3, 1), (1, 1, 2)) == 1


def test_perm_word():
    for w in all_perms(4):
        acc = (1, 2, 3, 4)
        for i in perm_to_word(w):
            s = list(range(1, 5))
            s[i - 1], s[i] = s[i], s[i - 1]
            acc = compose_perms(acc, tuple(s))
        assert acc == w
