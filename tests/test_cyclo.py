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


def test_matrix_examples():
    assert Mat.identity(3, 4).rank() == 4
    assert Mat.from_fraction_rows(1, [[1, 1], [1, 1]]).rank() == 1
    m = Mat(3, [[Cyc.one(3), root_of_unity(3, 1)]])
    kb = m.kernel_basis()
    assert len(kb) == 1
    # the kernel vector is (-xi_3, 1) up to scale
    v = kb[0]
    assert (v[0] * root_of_unity(3, 1).inverse() + v[1]).is_zero() or not (
        m.apply(v)[0].is_zero() is False
    )
    assert all(c.is_zero() for c in m.apply(v))


def test_solve_reports_no_solution():
    m = Mat.from_fraction_rows(1, [[1, 0], [1, 0]])
    rhs = [Cyc.one(1), Cyc.rational(1, 2)]
    assert m.solve(rhs) is None
    rhs2 = [Cyc.one(1), Cyc.one(1)]
    x = m.solve(rhs2)
    assert x is not None and m.apply(x) == rhs2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_rank_nullity(ell, seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    m = Mat(ell, [[rand_cyc(rng, ell) for _ in range(nc)] for _ in range(nr)])
    assert m.rank() + len(m.kernel_basis()) == nc


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
