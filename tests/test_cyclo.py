import copy
import math
import multiprocessing
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidreps.cyclo import (
    Cyc,
    LinSolver,
    Mat,
    SpanBasis,
    cyclotomic_poly,
    euler_phi,
    intertwiners,
    kernel_basis,
    root_of_unity,
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


def test_root_orders():
    for ell in range(1, 9):
        for p in range(ell):
            x = root_of_unity(ell, p)
            assert (x ** ell).is_one()
            import math

            if 0 < p < ell and math.gcd(p, ell) == 1:
                assert not x.is_one()


def test_field_op_examples():
    for ell in (2, 3, 4, 6):
        x = root_of_unity(ell, 1)
        assert (Cyc.one(ell) / x) == root_of_unity(ell, ell - 1)
    assert (root_of_unity(6, 1) * root_of_unity(6, 5)).is_one()


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        Cyc.one(3) / Cyc.zero(3)
    with pytest.raises(ValueError):
        root_of_unity(3, 1) ** -1
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
    assert root_of_unity(2, 1).embed(6) == root_of_unity(6, 3)
    assert root_of_unity(3, 1).embed(6) == root_of_unity(6, 2)
    with pytest.raises(ValueError):
        root_of_unity(4, 1).embed(6)


def test_galois_and_embedding_are_ring_maps():
    rng = random.Random(5)
    for ell, t, big in [(3, 2, 6), (4, 3, 8), (5, 2, 10), (8, 5, 8), (12, 7, 24)]:
        for _ in range(10):
            x, y = rand_cyc(rng, ell), rand_cyc(rng, ell)
            assert (x * y).galois(t) == x.galois(t) * y.galois(t)
            assert (x + y).galois(t) == x.galois(t) + y.galois(t)
            assert x.conjugate().conjugate() == x
            assert (x * y).embed(big) == x.embed(big) * y.embed(big)
            assert (x + y).embed(big) == x.embed(big) + y.embed(big)
        assert root_of_unity(ell, 1).galois(t) == root_of_unity(ell, t)
        assert root_of_unity(ell, 1).embed(big) == root_of_unity(big, big // ell)


def test_json_round_trip():
    x = root_of_unity(12, 5) + Cyc.rational(12, Fraction(3, 7))
    data = x.to_json()
    assert data["order"] == 12
    assert Cyc.from_json(data) == x


def apply(ell, rows, vec):
    """The product of the matrix with these rows and a vector."""
    return [sum((a * b for a, b in zip(row, vec)), Cyc.zero(ell)) for row in rows]


def span_rank(ell, rows, ncols):
    sb = SpanBasis(ell, ncols)
    for row in rows:
        sb.add(list(row))
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
    assert sb.add([Cyc.one(1), Cyc.zero(1), Cyc.one(1)])
    assert not sb.add([Cyc.rational(1, 2), Cyc.zero(1), Cyc.rational(1, 2)])
    assert sb.rank == 1
    basis = [[Cyc.one(2), Cyc.zero(2)], [Cyc.one(2), Cyc.one(2)]]
    solver = LinSolver(2, basis)
    coords = solver.express([Cyc.rational(2, 3), Cyc.rational(2, 2)])
    assert coords is not None
    acc = [Cyc.zero(2), Cyc.zero(2)]
    for c, vec in zip(coords, basis):
        acc = [a + c * v for a, v in zip(acc, vec)]
    assert acc == [Cyc.rational(2, 3), Cyc.rational(2, 2)]
    assert solver.express([Cyc.zero(2), Cyc.zero(2)]) == [Cyc.zero(2), Cyc.zero(2)]


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
    assert Cyc.from_json({"order": 3, "coeffs": ["1/2", "1"]}) == x
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
                sb.add(row)
            assert sb.rows == expected and sb.rank == len(pivots)
            kb = kernel_basis(ell, rows, ncols)
            assert len(kb) == ncols - len(pivots)
            assert all(c.is_zero() for vec in kb for c in apply(ell, rows, vec))


def test_kernel_of_an_empty_system_is_the_whole_space():
    kb = kernel_basis(3, [], 2)
    assert kb == [[Cyc.one(3), Cyc.zero(3)], [Cyc.zero(3), Cyc.one(3)]]


def dense_intertwiner_rows(ell, src_dims, tgt_dims, actions):
    """One dense row per entry (r, c) of X_t A - B X_s, the unknowns X_o row-major in object order."""
    offsets = [0]
    for m, n in zip(tgt_dims, src_dims):
        offsets.append(offsets[-1] + m * n)
    zero = Cyc.zero(ell)
    rows = []
    for s, t, A, B in actions:
        for r in range(tgt_dims[t]):
            for c in range(src_dims[s]):
                row = [zero] * offsets[-1]
                for u in range(src_dims[t]):
                    idx = offsets[t] + r * src_dims[t] + u
                    row[idx] = row[idx] + A.rows[u][c]
                for u in range(tgt_dims[s]):
                    idx = offsets[s] + u * src_dims[s] + c
                    row[idx] = row[idx] - B.rows[r][u]
                rows.append(row)
    return rows, offsets[-1]


def blocks_of(vec, src_dims, tgt_dims):
    """Split a solution vector into its blocks X_o (tgt_o x src_o)."""
    out, pos = [], 0
    for m, n in zip(tgt_dims, src_dims):
        out.append([vec[pos + r * n : pos + (r + 1) * n] for r in range(m)])
        pos += m * n
    return out


def test_intertwiners_match_the_kernel_of_dense_rows():
    for ell in (1, 3, 4):
        rng = random.Random(4000 + ell)
        for _ in range(25):
            nobj = rng.randint(1, 3)
            src_dims = [rng.randint(1, 3) for _ in range(nobj)]
            tgt_dims = [rng.randint(1, 3) for _ in range(nobj)]
            actions = []
            for _ in range(rng.randint(1, 3)):
                s, t = rng.randrange(nobj), rng.randrange(nobj)
                A = Mat(ell, rand_sparse_rows(rng, ell, src_dims[t], src_dims[s]))
                B = Mat(ell, rand_sparse_rows(rng, ell, tgt_dims[t], tgt_dims[s]))
                actions.append((s, t, A, B))
            basis = intertwiners(ell, src_dims, tgt_dims, actions)
            rows, n = dense_intertwiner_rows(ell, src_dims, tgt_dims, actions)
            assert basis == kernel_basis(ell, rows, n)
            for vec in basis:
                X = [Mat(ell, b) for b in blocks_of(vec, src_dims, tgt_dims)]
                assert all(X[t] * A == B * X[s] for s, t, A, B in actions)


def test_intertwiners_with_equal_actions_give_the_commutant():
    # the commutant of the swap on Q(xi_4)^2 is spanned by 1 and the swap
    zero, one = Cyc.zero(4), Cyc.one(4)
    swap = Mat(4, [[zero, one], [one, zero]])
    basis = intertwiners(4, [2], [2], [(0, 0, swap, swap)])
    assert basis == [[zero, one, one, zero], [one, zero, zero, one]]  # free columns c, d of [[a, b], [c, d]]


def test_intertwiners_of_no_action_span_the_whole_space():
    zero, one = Cyc.zero(3), Cyc.one(3)
    basis = intertwiners(3, [2, 1], [1, 2], [])
    assert basis == [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert intertwiners(3, [], [], []) == []


def test_intertwiners_handle_a_zero_size_block():
    ell = 3
    rng = random.Random(4100)
    src_dims, tgt_dims = [0, 2], [3, 2]
    empty = Mat(ell, [])  # src_0 x src_1 has no rows
    B = Mat(ell, rand_sparse_rows(rng, ell, 3, 2))
    B = Mat(ell, [[root_of_unity(ell, 1), Cyc.zero(ell)]] + list(B.rows[1:]))  # B has rank >= 1
    actions = [
        (0, 1, Mat(ell, [[] for _ in range(2)]), Mat(ell, rand_sparse_rows(rng, ell, 2, 3))),
        (1, 0, empty, B),
    ]
    basis = intertwiners(ell, src_dims, tgt_dims, actions)
    rows, n = dense_intertwiner_rows(ell, src_dims, tgt_dims, actions)
    assert n == 4
    assert basis == kernel_basis(ell, rows, n)
    assert len(basis) < 4  # B X_1 = 0 is a real condition although X_0 has no entries


def test_intertwiners_reject_actions_of_the_wrong_shape():
    one = Cyc.one(1)
    with pytest.raises(ValueError):
        intertwiners(1, [2], [2], [(0, 0, Mat.identity(1, 2), Mat.identity(1, 3))])
    with pytest.raises(ValueError):
        intertwiners(1, [2], [1], [(0, 0, Mat.identity(1, 2), Mat(1, [[one, one]]))])


def test_from_entries_sums_repeats_and_skips_zeros():
    zero, one, x = Cyc.zero(3), Cyc.one(3), root_of_unity(3, 1)
    entries = [((0, 0), one), ((1, 2), zero), ((0, 1), x), ((0, 0), x), ((0, 1), -x), ((1, 2), x)]
    m = Mat.from_entries(3, 2, 3, entries)
    assert m == Mat(3, [[one + x, zero, zero], [zero, zero, x]])
    assert list(m.entries()) == [((0, 0), one + x), ((1, 2), x)]
    assert list(m.entries(2, 1)) == [((2, 1), one + x), ((3, 3), x)]
    assert Mat.from_entries(3, 2, 2, []) == Mat.zeros(3, 2, 2)
    assert Mat.from_entries(3, 0, 0, []) == Mat(3, [])


def test_solve_and_express_round_trip():
    for ell in (1, 3, 4):
        rng = random.Random(4000 + ell)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = rand_sparse_rows(rng, ell, nrows, ncols)
            # the rows as a spanning list: express round-trips inside the span
            solver = LinSolver(ell, rows)
            coeffs = [rand_cyc(rng, ell) for _ in range(nrows)]
            vec = [Cyc.zero(ell)] * ncols
            for c, row in zip(coeffs, rows):
                vec = [a + c * b for a, b in zip(vec, row)]
            coords = solver.express(vec)
            back = [Cyc.zero(ell)] * ncols
            for c, row in zip(coords, rows):
                back = [a + c * b for a, b in zip(back, row)]
            assert back == vec
            # a vector outside the span is refused
            sb = SpanBasis(ell, ncols)
            for row in rows:
                sb.add(row)
            for j in range(ncols):
                unit = [Cyc.one(ell) if i == j else Cyc.zero(ell) for i in range(ncols)]
                assert (solver.express(unit) is None) == (not sb.contains(unit))


def test_express_keeps_the_in_order_choice():
    one, zero, two = Cyc.one(3), Cyc.zero(3), Cyc.rational(3, 2)
    xi = root_of_unity(3, 1)
    u, w = [one, xi, zero], [zero, one, one]
    solver = LinSolver(3, [[zero, zero, zero], u, [two * c for c in u], w, [a + b for a, b in zip(u, w)]])
    assert solver.rank == 2
    assert solver.express([two * c for c in u]) == [zero, two, zero, zero, zero]
    assert solver.express([a + b for a, b in zip(u, w)]) == [zero, one, zero, one, zero]
    assert solver.express([one, zero, zero]) is None


def test_engine_rejects_vectors_of_the_wrong_length():
    one = Cyc.one(1)
    with pytest.raises(ValueError):
        SpanBasis(1, 3).add([one, one])
    with pytest.raises(ValueError):
        SpanBasis(1, 2).add([one, one, one])
    with pytest.raises(ValueError):
        SpanBasis(1, 2).contains([one])
    with pytest.raises(ValueError):
        LinSolver(1, [[one, one], [one]])
    with pytest.raises(ValueError):
        LinSolver(1, [[one, one]]).express([one])
    with pytest.raises(ValueError):
        kernel_basis(1, [[one, one], [one]], 2)
    with pytest.raises(ValueError):
        kernel_basis(1, [[one, one]], 3)


def test_values_survive_pickle_deepcopy_and_a_process_pool():
    values = [Cyc.one(3), Cyc.zero(1), root_of_unity(4, 3).scale(Fraction(-5, 6)), rand_cyc(random.Random(5), 5)]
    mats = [Mat(3, [[Cyc.rational(3, Fraction(1, 2)), root_of_unity(3, 1)], [Cyc.zero(3), Cyc.one(3)]])]
    for v in values + mats:
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert back == v and type(back) is type(v)
    pairs = [(v, v) for v in values] + [(m, m) for m in mats]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        products = pool.starmap_async(operator.mul, pairs).get(timeout=120)
    assert products == [a * b for a, b in pairs]
