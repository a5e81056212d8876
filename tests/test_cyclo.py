import copy
import math
import multiprocessing
import operator
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidreps import cyclo
from groupoidreps.cyclo import (
    Cyc,
    LinSolver,
    SpanBasis,
    cyclotomic_poly,
    euler_phi,
    intertwiners,
    root_of_unity,
)
from reference import (
    Mat,
    cyc_from_json,
    cyc_pow,
    dense,
    embed,
    kernel_basis,
    mat_mul,
    permuted,
    sparse,
    to_dense,
    to_sparse,
    ungraded_intertwiners,
)


def rand_cyc(rng, ell):
    return Cyc(ell, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(euler_phi(ell))])


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_poly(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_poly(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_poly(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_poly(6) == (Fraction(1), Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_roots_of_unity_examples():
    assert root_of_unity(2, 1) == Cyc.rational(2, -1)
    assert root_of_unity(4, 2) == Cyc.rational(4, -1)
    s = root_of_unity(3, 0) + root_of_unity(3, 1) + root_of_unity(3, 2)
    assert s.is_zero()
    # result depends only on power mod l
    assert root_of_unity(5, 7) == root_of_unity(5, 2)


def test_from_exponent_sums_matches_scaled_root_sum():
    rng = random.Random(3)
    for ell in (1, 2, 3, 4, 5, 6, 8):
        for _ in range(20):
            sums = [rng.choice([0, 0, 1, -2, Fraction(3, 7)]) for _ in range(ell)]
            expected = Cyc.zero(ell)
            for e, q in enumerate(sums):
                expected = expected + root_of_unity(ell, e).scale(q)
            got = Cyc.from_exponent_sums(ell, sums)
            assert got == expected
            assert all(isinstance(c, Fraction) for c in got.coeffs)


def test_from_exponent_sums_int_fast_path_matches_the_rational_route(monkeypatch):
    # int bins skip _rationals and fold over den 1; the generic route gives the same value
    rng = random.Random(5)
    for ell in range(1, 7):
        for _ in range(30):
            sums = [rng.randint(-9, 9) for _ in range(ell)]
            bins, den = cyclo._rationals(sums)
            generic = cyclo._fold(ell, bins, den)
            got = Cyc.from_exponent_sums(ell, sums)
            assert (got.num, got.den) == (generic.num, generic.den)
            assert all(type(v) is int for v in got.num)
    expected = Cyc(3, [1, 0]) + root_of_unity(3, 1).scale(Fraction(1, 2))
    calls = []
    real = cyclo._rationals
    monkeypatch.setattr(cyclo, "_rationals", lambda values: calls.append(list(values)) or real(values))
    Cyc.from_exponent_sums(3, [1, -2, 0])
    assert calls == []
    assert Cyc.from_exponent_sums(3, [1, Fraction(1, 2), 0]) == expected
    assert calls == [[1, Fraction(1, 2), 0]]


def test_root_orders():
    for ell in range(1, 9):
        for p in range(ell):
            x = root_of_unity(ell, p)
            assert cyc_pow(x, ell).is_one()
            import math

            if 0 < p < ell and math.gcd(p, ell) == 1:
                assert not x.is_one()


def test_field_op_examples():
    for ell in (2, 3, 4, 6):
        x = root_of_unity(ell, 1)
        assert Cyc.one(ell) * x.inverse() == root_of_unity(ell, ell - 1)
    assert (root_of_unity(6, 1) * root_of_unity(6, 5)).is_one()


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(3).inverse()
    with pytest.raises(ValueError):
        cyc_pow(root_of_unity(3, 1), -1)
    with pytest.raises(ValueError):
        Cyc.one(3) + Cyc.one(2)


def test_field_axioms_randomized():
    # >= 10^4 triples per order; exact associativity and distributivity
    for ell in range(1, 7):
        rng = random.Random(100 + ell)
        for _ in range(10_000):
            a, b, c = (rand_cyc(rng, ell) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        x = rand_cyc(rng, ell)
        assert x + Cyc.zero(ell) == x


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-50, max_value=50),
    st.data(),
)
def test_inverse_property(ell, seed, data):
    rng = random.Random(seed)
    x = rand_cyc(rng, ell)
    if x.is_zero():
        return
    assert (x * x.inverse()).is_one()


def test_galois_and_embedding():
    assert root_of_unity(5, 2).conjugate() == root_of_unity(5, 3)
    assert embed(root_of_unity(2, 1), 6) == root_of_unity(6, 3)
    assert embed(root_of_unity(3, 1), 6) == root_of_unity(6, 2)
    with pytest.raises(ValueError):
        embed(root_of_unity(4, 1), 6)


def test_galois_and_embedding_are_ring_maps():
    rng = random.Random(5)
    for ell, t, big in [(3, 2, 6), (4, 3, 8), (5, 2, 10), (8, 5, 8), (12, 7, 24)]:
        for _ in range(10):
            x, y = rand_cyc(rng, ell), rand_cyc(rng, ell)
            assert (x * y).galois(t) == x.galois(t) * y.galois(t)
            assert (x + y).galois(t) == x.galois(t) + y.galois(t)
            assert x.conjugate().conjugate() == x
            assert embed(x * y, big) == embed(x, big) * embed(y, big)
            assert embed(x + y, big) == embed(x, big) + embed(y, big)
        assert root_of_unity(ell, 1).galois(t) == root_of_unity(ell, t)
        assert embed(root_of_unity(ell, 1), big) == root_of_unity(big, big // ell)


def test_json_round_trip():
    x = root_of_unity(12, 5) + Cyc.rational(12, Fraction(3, 7))
    data = x.to_json()
    assert data["order"] == 12
    assert cyc_from_json(data) == x


def apply(ell, rows, vec):
    """The product of the matrix with these rows and a vector."""
    return [sum((a * b for a, b in zip(row, vec)), Cyc.zero(ell)) for row in rows]


def span_rank(ell, rows, ncols):
    sb = SpanBasis(ell, ncols)
    for row in rows:
        sb.add(to_sparse(row))
    return sb.rank


def test_matrix_examples():
    assert span_rank(3, Mat.identity(3, 4).rows, 4) == 4
    assert span_rank(1, [[Cyc.one(1)] * 2] * 2, 2) == 1
    rows = [[Cyc.one(3), root_of_unity(3, 1)]]
    kb = kernel_basis(3, rows, 2)
    assert len(kb) == 1
    # the kernel vector of the free column is (-xi_3, 1)
    v = kb[0]
    assert v == [-root_of_unity(3, 1), Cyc.one(3)]
    assert all(c.is_zero() for c in apply(3, rows, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_rank_nullity(ell, seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rand_cyc(rng, ell) for _ in range(nc)] for _ in range(nr)]
    assert span_rank(ell, rows, nc) + len(kernel_basis(ell, rows, nc)) == nc


def test_span_basis_and_solver():
    sb = SpanBasis(1, 3)
    assert sb.add({0: Cyc.one(1), 2: Cyc.one(1)})
    assert not sb.add({0: Cyc.rational(1, 2), 2: Cyc.rational(1, 2)})
    assert sb.rank == 1
    basis = [[Cyc.one(2), Cyc.zero(2)], [Cyc.one(2), Cyc.one(2)]]
    solver = LinSolver(2, 2, [to_sparse(vec) for vec in basis])
    coords = solver.express({0: Cyc.rational(2, 3), 1: Cyc.rational(2, 2)})
    assert coords is not None
    acc = [Cyc.zero(2), Cyc.zero(2)]
    for c, vec in zip(to_dense(2, 2, coords), basis):
        acc = [a + c * v for a, v in zip(acc, vec)]
    assert acc == [Cyc.rational(2, 3), Cyc.rational(2, 2)]
    assert solver.express({}) == {}


# ---------------------------------------------------------------------------
# The integer-backed core against a Fraction reference, and the echelon engine
# against a dense Gauss-Jordan reference
# ---------------------------------------------------------------------------

REFERENCE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def ref_reduce(ell, poly):
    """Remainder of a Fraction polynomial (low to high) by long division by Phi_l."""
    phi_poly = [Fraction(c) for c in cyclotomic_poly(ell)]
    n = len(phi_poly) - 1
    rem = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, n - len(poly))
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i] / phi_poly[-1]
        for j, p in enumerate(phi_poly):
            rem[i - n + j] -= c * p
    return tuple(rem[:n])


def ref_mul(ell, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(ell, prod)


def dense_rref(rows, is_zero, inv):
    """Textbook Gauss-Jordan on dense rows over any exact field."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        f = inv(rows[r][c])
        rows[r] = [f * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def ref_inverse(ell, a):
    """Solve (multiplication by a) y = 1 over Q with the dense reference."""
    n = len(a)
    unit = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    cols = [ref_mul(ell, a, e) for e in unit]
    aug = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    red, pivots = dense_rref(aug, lambda x: x == 0, lambda x: 1 / x)
    assert pivots == list(range(n))
    return tuple(row[n] for row in red)


def test_integer_core_agrees_with_fraction_reference():
    for ell in REFERENCE_ORDERS:
        rng = random.Random(1000 + ell)
        for _ in range(150):
            a, b = rand_cyc(rng, ell), rand_cyc(rng, ell)
            assert (a * b).coeffs == ref_mul(ell, a.coeffs, b.coeffs)
            assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
            assert (-a).coeffs == tuple(-x for x in a.coeffs)
            if not a.is_zero():
                assert a.inverse().coeffs == ref_inverse(ell, a.coeffs)
            sums = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(ell)]
            expected = ref_reduce(ell, sums)
            assert Cyc.from_exponent_sums(ell, sums).coeffs == expected


def test_canonical_form():
    for ell in REFERENCE_ORDERS:
        rng = random.Random(2000 + ell)
        for _ in range(100):
            a, b, c = (rand_cyc(rng, ell) for _ in range(3))
            x, y = (a + b) * c, a * c + c * b
            assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y))
            assert x.den > 0 and math.gcd(x.den, *x.num) == 1
            assert all(isinstance(v, int) for v in x.num)
            z = x - y
            assert z.is_zero() and z.num == (0,) * euler_phi(ell) and z.den == 1
        assert Cyc(ell, [Fraction(2, 4)] * euler_phi(ell)) == Cyc(ell, [Fraction(1, 2)] * euler_phi(ell))


def test_constructors_accept_only_exact_rationals():
    with pytest.raises(TypeError):
        Cyc(3, [0.5, 1])
    with pytest.raises(TypeError):
        Cyc.rational(2, 0.1)
    with pytest.raises(TypeError):
        Cyc.one(3).scale(0.3)
    with pytest.raises(TypeError):
        Cyc.from_exponent_sums(2, [0.5, 0])
    with pytest.raises(TypeError):
        Cyc(1, ["1/2"])
    x = Cyc(3, [Fraction(1, 2), 1])
    assert x.coeffs == (Fraction(1, 2), Fraction(1))
    assert x.to_json() == {"order": 3, "coeffs": ["1/2", "1/1"]}
    assert cyc_from_json({"order": 3, "coeffs": ["1/2", "1"]}) == x
    assert Cyc.rational(2, Fraction(1, 10)).scale(3).rational_value() == Fraction(3, 10)


def rand_sparse_rows(rng, ell, nrows, ncols):
    zero = Cyc.zero(ell)

    def entry():
        if rng.random() < 0.6:
            return zero
        return root_of_unity(ell, rng.randrange(ell)).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def test_rref_matches_dense_gauss_jordan():
    for ell in (1, 3, 4):
        rng = random.Random(3000 + ell)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            rows = rand_sparse_rows(rng, ell, nrows, ncols)
            if rng.random() < 0.3:  # a dependent row
                rows.append([a + b for a, b in zip(rows[0], rows[-1])])
            expected, pivots = dense_rref(rows, Cyc.is_zero, Cyc.inverse)
            sb = SpanBasis(ell, ncols)
            for row in rows:
                sb.add(to_sparse(row))
            assert sb.rows == [to_sparse(row) for row in expected] and sb.rank == len(pivots)
            kb = kernel_basis(ell, rows, ncols)
            assert len(kb) == ncols - len(pivots)
            assert all(c.is_zero() for vec in kb for c in apply(ell, rows, vec))


def test_kernel_of_an_empty_system_is_the_whole_space():
    kb = kernel_basis(3, [], 2)
    assert kb == [[Cyc.one(3), Cyc.zero(3)], [Cyc.zero(3), Cyc.one(3)]]


def dense_intertwiner_rows(ell, n_src, n_tgt, actions):
    """One dense row per entry (r, c) of X A - B X, the unknowns X row-major."""
    zero = Cyc.zero(ell)
    rows = []
    for A, B in actions:
        for r in range(n_tgt):
            for c in range(n_src):
                row = [zero] * (n_tgt * n_src)
                for u in range(n_src):
                    row[r * n_src + u] = row[r * n_src + u] + A.rows[u][c]
                for u in range(n_tgt):
                    row[u * n_src + c] = row[u * n_src + c] - B.rows[r][u]
                rows.append(row)
    return rows, n_tgt * n_src


GRADED_KINDS = [
    "diagonal A and B",
    "diagonal A only",
    "one off-diagonal entry",
    "diagonal only",
]


def graded_system(rng, ell, kind):
    """A system holding diagonal actions of the given kind, plus random actions unless the kind is "diagonal only".

    The diagonal entries come from a few values, zero among them, so some of
    B[r][r] = A[c][c] hold and some do not.
    """
    zero = Cyc.zero(ell)
    values = [zero, Cyc.one(ell), root_of_unity(ell, 1), Cyc.rational(ell, 2)]
    n_src, n_tgt = rng.randint(2, 4), rng.randint(1, 4)

    def diagonal(n):
        return [[rng.choice(values) if i == j else zero for j in range(n)] for i in range(n)]

    actions = []
    for _ in range(2):
        A, B = diagonal(n_src), diagonal(n_tgt)
        if kind == "diagonal A only":
            B = rand_sparse_rows(rng, ell, n_tgt, n_tgt)
        elif kind == "one off-diagonal entry":
            i = rng.randrange(n_src)
            A[i][(i + 1) % n_src] = values[1]
        actions.append((Mat(ell, A), Mat(ell, B)))
    if kind != "diagonal only":
        for _ in range(rng.randint(1, 2)):
            A, B = rand_sparse_rows(rng, ell, n_src, n_src), rand_sparse_rows(rng, ell, n_tgt, n_tgt)
            actions.append((Mat(ell, A), Mat(ell, B)))
    rng.shuffle(actions)
    return n_src, n_tgt, actions


def random_system(rng, ell):
    n_src, n_tgt = rng.randint(1, 3), rng.randint(1, 3)
    actions = []
    for _ in range(rng.randint(1, 3)):
        A = Mat(ell, rand_sparse_rows(rng, ell, n_src, n_src))
        B = Mat(ell, rand_sparse_rows(rng, ell, n_tgt, n_tgt))
        actions.append((A, B))
    return n_src, n_tgt, actions


def test_intertwiners_match_the_kernel_of_dense_rows():
    # the graded solve returns the very vectors of the ungraded one: the
    # dropped unknowns are pivots whose reduced rows are unit vectors
    for kind, ell in product(["random"] + GRADED_KINDS, (1, 3, 4)):
        rng = random.Random(4000 + ell) if kind == "random" else random.Random(f"{kind} {ell}")
        for _ in range(25):
            if kind == "random":
                n_src, n_tgt, actions = random_system(rng, ell)
            else:
                n_src, n_tgt, actions = graded_system(rng, ell, kind)
            rows, n = dense_intertwiner_rows(ell, n_src, n_tgt, actions)
            pairs = [(sparse(A), sparse(B)) for A, B in actions]
            graded = intertwiners(ell, n_src, n_tgt, pairs)
            assert graded == ungraded_intertwiners(ell, n_src, n_tgt, pairs)
            basis = [to_dense(ell, n, vec) for vec in graded]
            assert basis == kernel_basis(ell, rows, n)
            for vec in basis:
                X = Mat(ell, [vec[r * n_src : (r + 1) * n_src] for r in range(n_tgt)])
                assert all(mat_mul(X, A) == mat_mul(B, X) for A, B in actions)


def test_intertwiners_of_diagonal_actions_alone_insert_no_row(monkeypatch):
    # (A[c][c] - B[r][r]) X[r][c] = 0 for both actions: X[r][c] is free where
    # both diagonals agree and 0 elsewhere, with no engine row
    zero, one, two = Cyc.zero(3), Cyc.one(3), Cyc.rational(3, 2)
    inserted = []
    real = SpanBasis._insert
    monkeypatch.setattr(SpanBasis, "_insert", lambda self, v, width: inserted.append(v) or real(self, v, width))
    first = ({(0, 0): one, (1, 1): two}, {(0, 0): two, (1, 1): one})
    second = ({(1, 1): one}, {})
    assert intertwiners(3, 2, 2, [first]) == [{1: one}, {2: one}]  # X[0][1] and X[1][0]
    assert intertwiners(3, 2, 2, [first, second]) == [{2: one}]  # X[1][0]
    assert inserted == []


def _counting_inverse(monkeypatch):
    calls = []
    real = Cyc.inverse
    monkeypatch.setattr(Cyc, "inverse", lambda self: calls.append(self) or real(self))
    return calls


def _assert_reduced_echelon(sb):
    # each stored row reads 1 at its pivot and 0 at every other pivot, and
    # keeps only nonzero entries
    pivots = sorted(sb._rows)
    for p, vec in zip(pivots, sb.rows):
        assert vec[p].is_one()
        assert not any(q in vec for q in pivots if q != p)
        assert min(vec) == p
        assert not any(c.is_zero() for c in vec.values())


def test_insert_scales_a_non_unit_rational_pivot(monkeypatch):
    def r(q):
        return Cyc.rational(1, q)

    calls = _counting_inverse(monkeypatch)
    sb = SpanBasis(1, 3)
    assert sb._insert({0: r(2), 1: r(1)}, 3)
    assert sb._insert({1: r(2), 2: r(6)}, 3)
    assert calls == [r(2), r(2)]
    _assert_reduced_echelon(sb)
    assert sb.rows == [{0: r(1), 2: r(Fraction(-3, 2))}, {1: r(1), 2: r(3)}]


def test_insert_scales_a_root_of_unity_pivot(monkeypatch):
    xi, one = root_of_unity(3, 1), Cyc.one(3)
    calls = _counting_inverse(monkeypatch)
    sb = SpanBasis(3, 3)
    assert sb._insert({0: xi, 1: one}, 3)
    assert sb._insert({0: one, 1: one, 2: xi}, 3)
    assert calls == [xi, one - xi * xi]  # the second row reduces to pivot 1 - xi^2
    _assert_reduced_echelon(sb)
    assert sb.rows[0][0] == one and 1 not in sb.rows[0]
    assert sb.contains({0: xi, 1: one}) and sb.contains({0: one, 1: one, 2: xi})


def test_insert_takes_no_inverse_at_a_unit_pivot(monkeypatch):
    xi, one = root_of_unity(3, 1), Cyc.one(3)
    calls = _counting_inverse(monkeypatch)
    sb = SpanBasis(3, 2)
    assert sb._insert({0: one, 1: xi}, 2)
    assert sb._insert({1: one}, 2)
    assert not sb._insert({0: one, 1: one}, 2)
    assert calls == []
    _assert_reduced_echelon(sb)
    assert sb.rows == [{0: one}, {1: one}]


def test_insert_negates_a_minus_one_pivot(monkeypatch):
    xi, one = root_of_unity(3, 1), Cyc.one(3)
    calls = _counting_inverse(monkeypatch)
    sb = SpanBasis(3, 3)
    assert sb._insert({0: -one, 1: xi, 2: one}, 3)
    assert calls == []
    assert sb._rows == {0: {1: -xi, 2: -one}}
    _assert_reduced_echelon(sb)
    assert sb.rows == [{0: one, 1: -xi, 2: -one}]
    assert sb.contains({0: -one, 1: xi, 2: one})


def test_intertwiners_with_equal_actions_give_the_commutant():
    # the commutant of the swap on Q(xi_4)^2 is spanned by 1 and the swap
    zero, one = Cyc.zero(4), Cyc.one(4)
    swap = sparse(Mat(4, [[zero, one], [one, zero]]))
    basis = intertwiners(4, 2, 2, [(swap, swap)])
    assert basis == [{1: one, 2: one}, {0: one, 3: one}]  # free columns c, d of [[a, b], [c, d]]


def test_intertwiners_of_no_action_span_the_whole_space():
    one = Cyc.one(3)
    basis = intertwiners(3, 2, 3, [])
    assert basis == [{j: one} for j in range(6)]
    assert intertwiners(3, 0, 0, []) == []


def test_intertwiners_handle_a_zero_size_block():
    # X has no entries when either side is 0, whatever the other side's action
    ell = 3
    rng = random.Random(4100)
    B = Mat(ell, rand_sparse_rows(rng, ell, 3, 3))
    assert intertwiners(ell, 0, 3, [({}, sparse(B))]) == []
    assert intertwiners(ell, 3, 0, [(sparse(B), {})]) == []
    assert dense_intertwiner_rows(ell, 0, 3, [(Mat(ell, []), B)]) == ([], 0)


def test_intertwiners_reject_actions_of_the_wrong_shape():
    one = Cyc.one(1)
    with pytest.raises(ValueError):
        intertwiners(1, 2, 2, [(sparse(Mat.identity(1, 2)), sparse(Mat.identity(1, 3)))])
    with pytest.raises(ValueError):
        intertwiners(1, 2, 1, [(sparse(Mat.identity(1, 2)), sparse(Mat(1, [[one, one]])))])
    with pytest.raises(ValueError):
        intertwiners(1, 1, 2, [(sparse(Mat(1, [[one, one]])), sparse(Mat.identity(1, 2)))])


@pytest.mark.parametrize(
    "side, key",
    [("A", (0, 3)), ("A", (3, 0)), ("A", (-1, 0)), ("B", (0, 2)), ("B", (2, 0)), ("B", (0, -1))],
    ids=["A-col-3", "A-row-3", "A-row-minus-1", "B-col-2", "B-row-2", "B-col-minus-1"],
)
def test_intertwiners_reject_an_entry_outside_its_block(side, key):
    # A acts on the 3-dimensional source and B on the 2-dimensional target: a
    # key of A outside n_src or of B outside n_tgt raises
    one = Cyc.one(3)
    inside = {(0, 0): one, (1, 0): one}
    A, B = ({key: one}, inside) if side == "A" else (inside, {key: one})
    with pytest.raises(ValueError, match="action does not match the block sizes"):
        intertwiners(3, 3, 2, [(A, B)])
    assert intertwiners(3, 3, 2, [(inside, inside)])  # the same sizes with in-range keys solve


@pytest.mark.parametrize("ell", [1, 3, 4])
def test_permuted_is_conjugation_by_the_permutation_matrix(ell):
    # the reference permuted(A, perm) == P A P^-1 for P e_j = e_perm[j], formed with dense products
    rng = random.Random(5000 + ell)
    for n in (1, 2, 4, 5):
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            A = Mat(ell, [[rand_cyc(rng, ell) for _ in range(n)] for _ in range(n)])
            P = Mat.from_entries(ell, n, n, (((pj, j), Cyc.one(ell)) for j, pj in enumerate(perm)))
            P_inv = Mat.from_entries(ell, n, n, (((j, pj), Cyc.one(ell)) for j, pj in enumerate(perm)))
            assert permuted(A, perm) == mat_mul(mat_mul(P, A), P_inv)
            assert (permuted(A, perm) == A) == (mat_mul(P, A) == mat_mul(A, P))
    assert permuted(Mat.identity(ell, 3), (2, 0, 1)) == Mat.identity(ell, 3)


def test_solve_and_express_round_trip():
    for ell in (1, 3, 4):
        rng = random.Random(4000 + ell)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = rand_sparse_rows(rng, ell, nrows, ncols)
            # the rows as a spanning list: express round-trips inside the span
            solver = LinSolver(ell, ncols, [to_sparse(row) for row in rows])
            coeffs = [rand_cyc(rng, ell) for _ in range(nrows)]
            vec = [Cyc.zero(ell)] * ncols
            for c, row in zip(coeffs, rows):
                vec = [a + c * b for a, b in zip(vec, row)]
            coords = solver.express(to_sparse(vec))
            back = [Cyc.zero(ell)] * ncols
            for c, row in zip(to_dense(ell, nrows, coords), rows):
                back = [a + c * b for a, b in zip(back, row)]
            assert back == vec
            # a vector outside the span is refused
            sb = SpanBasis(ell, ncols)
            for row in rows:
                sb.add(to_sparse(row))
            for j in range(ncols):
                unit = {j: Cyc.one(ell)}
                assert (solver.express(unit) is None) == (not sb.contains(unit))


def test_express_keeps_the_in_order_choice():
    one, zero, two = Cyc.one(3), Cyc.zero(3), Cyc.rational(3, 2)
    xi = root_of_unity(3, 1)
    u, w = [one, xi, zero], [zero, one, one]
    basis = [[zero, zero, zero], u, [two * c for c in u], w, [a + b for a, b in zip(u, w)]]
    solver = LinSolver(3, 3, [to_sparse(vec) for vec in basis])
    assert solver.rank == 2
    assert solver.express(to_sparse([two * c for c in u])) == {1: two}
    assert solver.express(to_sparse([a + b for a, b in zip(u, w)])) == {1: one, 3: one}
    assert solver.express({0: one}) is None


def test_engine_rejects_a_column_outside_the_range():
    one = Cyc.one(1)
    for bad in ({2: one}, {0: one, 5: one}, {-1: one}):
        with pytest.raises(ValueError):
            SpanBasis(1, 2).add(bad)
        with pytest.raises(ValueError):
            SpanBasis(1, 2).contains(bad)
        with pytest.raises(ValueError):
            LinSolver(1, 2, [{0: one}, bad])
        with pytest.raises(ValueError):
            LinSolver(1, 2, [{0: one}]).express(bad)
    with pytest.raises(ValueError):
        kernel_basis(1, [[one, one, one]], 2)
    # the last column is inside the range, and an empty vector is the zero vector
    sb = SpanBasis(1, 2)
    assert sb.add({1: one}) and not sb.add({}) and sb.contains({})


def test_engine_does_not_mutate_its_arguments():
    one, two = Cyc.one(1), Cyc.rational(1, 2)
    sb = SpanBasis(1, 3)
    first, second = {0: two, 1: one}, {0: one, 2: Cyc.zero(1)}
    copies = [dict(first), dict(second)]
    assert sb.add(first) and sb.add(second)
    assert sb.contains(first) and not sb.contains({2: one})
    assert [first, second] == copies
    solver = LinSolver(1, 3, [first, second])
    assert solver.express(second) == {1: one}
    assert [first, second] == copies
    # the rows handed out are copies, too
    sb.rows[0].clear()
    assert sb.rank == 2 and sb.contains(first)


def test_kernel_vectors_are_sparse():
    # 1 at the free column, -row_p[c] at each pivot p, nothing else
    ell = 3
    xi, one = root_of_unity(ell, 1), Cyc.one(ell)
    sb = SpanBasis(ell, 5)
    sb.add({0: one, 2: xi})
    sb.add({1: one, 2: one, 4: -xi})
    assert sb.kernel() == [{2: one, 0: -xi, 1: -one}, {3: one}, {4: one, 1: xi}]


def test_values_survive_pickle_deepcopy_and_a_process_pool():
    values = [Cyc.one(3), Cyc.zero(1), root_of_unity(4, 3).scale(Fraction(-5, 6)), rand_cyc(random.Random(5), 5)]
    mats = [Mat(3, [[Cyc.rational(3, Fraction(1, 2)), root_of_unity(3, 1)], [Cyc.zero(3), Cyc.one(3)]])]
    blocks = [sparse(m) for m in mats]  # the library's matrix format
    for v in values + mats + blocks:
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert back == v and type(back) is type(v)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        products = pool.starmap_async(operator.mul, [(v, v) for v in values]).get(timeout=120)
        mat_products = pool.starmap_async(mat_mul, [(m, m) for m in mats]).get(timeout=120)
    assert products == [v * v for v in values] and mat_products == [mat_mul(m, m) for m in mats]
