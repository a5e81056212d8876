from bisect import bisect_right
from itertools import accumulate

import pytest

from groupoidreps import schurweyl
from groupoidreps.algebra import AlgElem, phi
from groupoidreps.cyclo import Cyc, SpanBasis, intertwiners
from groupoidreps.groupoid import QuotientGroupoid, quotient_groupoid
from groupoidreps.groupoid import component_generators, compose, hom, identity_morphism, type_of
from groupoidreps.schurweyl import (
    TensorSpace,
    glk_generated_algebra,
    glk_generators,
    kernel_check,
    shift_duality_check,
    verify_commuting,
    verify_double_centralizer,
)
from groupoidreps.simples import all_simples, character_table, conjugacy_classes, inner_products
from groupoidreps.wreath import enum_group, wreath_identity, wreath_inv
from reference import (
    Mat,
    act_full,
    dense,
    dense_exp_identity,
    direct_sum_actions,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_zeros,
    morphism_block_matrix,
    scan_phi_trace,
    sparse,
    tensor_object_trace,
    to_sparse,
    two_sided_closure,
    ungraded_intertwiners,
)

TENSOR_GRID = [
    (1, (2,), 2),
    (1, (2,), 3),
    (2, (1, 1), 2),
    (2, (1, 1), 3),
    (2, (2, 1), 2),
    (2, (2, 2), 2),
]
SHIFT_DUALITY_GRID = [(2, 2, 1, 1), (2, 2, 2, 2), (4, 2, 1, 2)]


def test_blocks_partition_basis():
    T = TensorSpace(2, (2, 1), 2)
    assert T.dim() == 9
    assert sum(len(bs) for bs in T.block_of.values()) == 9
    assert T.block_dim((1, 1)) == 4
    assert T.block_dim((1, 2)) == 2
    assert T.block_dim((2, 2)) == 1


def test_cap():
    with pytest.raises(ResourceWarning):
        TensorSpace(1, (4,), 7, cap=4096)
    TensorSpace(1, (4,), 6, cap=4096)


def test_invalid_tensor_inputs_raise():
    for kvec in [(1, 0), (1,)]:
        with pytest.raises(ValueError, match="strictly positive"):
            TensorSpace(2, kvec, 2)
    with pytest.raises(ValueError, match="k must divide ell"):
        shift_duality_check(4, 3, 1, 2)


def test_morphism_action_functorial():
    T = TensorSpace(2, (2, 1), 2)
    for f in sorted(T.block_of):
        for g in sorted(T.block_of):
            for m1 in hom(f, g, 2):
                a1 = morphism_block_matrix(T, m1)
                for h in sorted(T.block_of):
                    for m2 in hom(g, h, 2):
                        lhs = morphism_block_matrix(T, compose(m2, m1))
                        assert lhs == mat_mul(morphism_block_matrix(T, m2), a1)


def test_identity_acts_as_identity():
    from groupoidreps.groupoid import identity_morphism

    T = TensorSpace(2, (2, 2), 2)
    for f in sorted(T.block_of):
        assert morphism_block_matrix(T, identity_morphism(f)) == Mat.identity(2, T.block_dim(f))


def test_swap_on_one_dim_blocks():
    T = TensorSpace(2, (1, 1), 2)
    m = hom((1, 2), (2, 1), 2)[0]
    blk = morphism_block_matrix(T, m)
    assert blk.nrows == blk.ncols == 1 and blk.rows[0][0].is_one()


def test_glk_algebra_d1_is_full_block_algebra():
    T = TensorSpace(2, (2, 1), 1)
    assert glk_generated_algebra(T).rank == 2 * 2 + 1 * 1


def test_classical_commutant_dim():
    T = TensorSpace(1, (2,), 2)
    rep = verify_double_centralizer(T)
    assert rep["ok"]
    assert rep["commutant_dim"] == 2  # span{1, flip}


def test_commuting_grid():
    for ell, kvec, d in TENSOR_GRID:
        assert verify_commuting(TensorSpace(ell, kvec, d))["ok"], (ell, kvec, d)


def test_double_centralizer_grid():
    for ell, kvec, d in TENSOR_GRID:
        rep = verify_double_centralizer(TensorSpace(ell, kvec, d))
        assert rep["ok"], (ell, kvec, d, rep)


def test_faithful_when_blocks_large():
    rep = verify_double_centralizer(TensorSpace(2, (2, 2), 2))
    assert rep["image_dim"] == 8  # = dim A_(2,2), faithful


def test_kernel_examples():
    assert kernel_check(TensorSpace(2, (1, 1), 2))["kernel_dim"] == 2
    assert kernel_check(TensorSpace(2, (2, 2), 2))["kernel_dim"] == 0
    assert kernel_check(TensorSpace(2, (2, 1), 2))["kernel_dim"] == 1


def test_kernel_grid():
    for ell, kvec, d in TENSOR_GRID:
        rep = kernel_check(TensorSpace(ell, kvec, d))
        assert rep["ok"], (ell, kvec, d, rep)


def test_one_row_survivors_for_unit_blocks():
    # k = (1,...,1): exactly the one-row multi-partitions survive
    T = TensorSpace(2, (1, 1), 3)
    rep = kernel_check(T)
    assert rep["ok"]
    killed = rep["checks"][0]["details"]["killed"]
    for label in killed:
        assert any(len(part) > 1 for part in label)


def test_shift_duality():
    for ell, k, m, d in SHIFT_DUALITY_GRID:
        rep = shift_duality_check(ell, k, m, d)
        assert rep["ok"], (ell, k, m, d, rep)


def test_shift_duality_dims():
    rep = shift_duality_check(2, 2, 2, 2)
    detail = rep["checks"][1]["details"]
    assert detail["image_dim"] == 4 == detail["quotient_dim"]
    rep = shift_duality_check(2, 2, 1, 1)
    assert rep["checks"][1]["details"]["image_dim"] == 1


def _status(rep, name):
    return next(c["status"] for c in rep["checks"] if c["name"] == name)


SHIFT_COMMUTES = "Z^(x d) commutes with the Psi-image"
SHIFT_EQUAL = "Psi-image = commutant(GL generators + Z^(x d))"


def _shift_commutant_in_two_stages(ell, k, m, d):
    # the route the one-call commutant replaced: the per-pair GL commutant
    # lifted to dim x dim matrices X, then the coefficients c with
    # sum_i c_i (X_i Z - Z X_i) = 0 solved by kernel_basis
    T = TensorSpace(ell, (m,) * ell, d)
    n, dim, shift = ell * m, T.dim(), (ell // k) * m
    one = Cyc.one(ell)
    Z = Mat.from_entries(
        ell, dim, dim, (((T.index[tuple((x - 1 + shift) % n + 1 for x in b)], T.index[b]), one) for b in T.basis)
    )
    gens = glk_generators(T)
    cgl = []
    for f, src in sorted(T.block_of.items()):
        for g, tgt in sorted(T.block_of.items()):
            actions = [(gen[f], gen[g]) for gen in gens]
            for vec in intertwiners(ell, len(src), len(tgt), actions):
                # the vector is X row-major: position r * len(src) + c holds X[r][c]
                entries = (((T.index[tgt[p // len(src)]], T.index[src[p % len(src)]]), v) for p, v in vec.items())
                cgl.append(Mat.from_entries(ell, dim, dim, entries))
    rows = [[v for row in mat_sub(mat_mul(X, Z), mat_mul(Z, X)).rows for v in row] for X in cgl]
    out = []
    for cvec in kernel_basis(ell, [list(col) for col in zip(*rows)], len(cgl)):
        acc = mat_zeros(ell, dim, dim)
        for c, X in zip(cvec, cgl):
            acc = mat_add(acc, mat_scale(X, c))
        out.append([v for row in acc.rows for v in row])
    return out


@pytest.mark.parametrize("ell,k,m,d", SHIFT_DUALITY_GRID + [(2, 1, 1, 2), (3, 3, 1, 2), (2, 2, 1, 3)])
def test_shift_commutant_matches_the_two_stage_route(monkeypatch, ell, k, m, d):
    solved = []
    real = schurweyl.intertwiners
    monkeypatch.setattr(schurweyl, "intertwiners", lambda *args: solved.append(real(*args)) or solved[-1])
    rep = shift_duality_check(ell, k, m, d)
    assert rep["ok"]
    (comm,) = solved
    reference = _shift_commutant_in_two_stages(ell, k, m, d)
    sb = SpanBasis(ell, TensorSpace(ell, (m,) * ell, d).dim() ** 2)
    for vec in reference:
        assert sb.add(to_sparse(vec))
    assert len(comm) == sb.rank == rep["checks"][1]["details"]["commutant_dim"]
    assert all(sb.contains(vec) for vec in comm)


@pytest.mark.parametrize("ell,k,m,d", SHIFT_DUALITY_GRID + [(2, 2, 2, 3), (3, 3, 1, 3)])
def test_shift_image_span_matches_the_dense_psi_matrices(monkeypatch, ell, k, m, d):
    # the image span is built from index maps; the flattened dense matrices of
    # the Psi-images (reference.act_full) span the same space
    made = []

    class Recorded(SpanBasis):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(schurweyl, "SpanBasis", Recorded)
    rep = shift_duality_check(ell, k, m, d)
    assert rep["ok"]
    (sb_img,) = made
    T, Q = TensorSpace(ell, (m,) * ell, d), quotient_groupoid(ell, k, d)
    dense = SpanBasis(ell, T.dim() ** 2)
    for q in Q.all_qmorphisms():
        psi = AlgElem(ell, d, {t: Cyc.one(ell) for t in Q.psi(q)})
        dense.add(to_sparse([v for row in act_full(T, psi).rows for v in row]))
    _same_span(sb_img, dense)
    assert sb_img.rank == rep["checks"][1]["details"]["image_dim"]


@pytest.mark.parametrize("ell,k,m,d", SHIFT_DUALITY_GRID)
def test_shift_duality_fails_when_psi_is_not_an_orbit_sum(monkeypatch, ell, k, m, d):
    monkeypatch.setattr(QuotientGroupoid, "psi", lambda self, q: (q,))
    rep = shift_duality_check(ell, k, m, d)
    assert _status(rep, SHIFT_COMMUTES) == _status(rep, SHIFT_EQUAL) == "fail"


@pytest.mark.parametrize("ell,k,m,d", SHIFT_DUALITY_GRID)
def test_shift_duality_fails_without_the_shift(monkeypatch, ell, k, m, d):
    # without Z^(x d) the commutant is that of GL alone: the whole A-image,
    # k times the invariant part on every grid point (k = 2)
    details = shift_duality_check(ell, k, m, d)["checks"][1]["details"]
    real = schurweyl.intertwiners
    monkeypatch.setattr(schurweyl, "intertwiners", lambda e, src, tgt, actions: real(e, src, tgt, actions[:-1]))
    rep = shift_duality_check(ell, k, m, d)
    assert _status(rep, SHIFT_COMMUTES) == "pass"
    assert _status(rep, SHIFT_EQUAL) == "fail"
    assert rep["checks"][1]["details"]["commutant_dim"] == k * details["commutant_dim"]


def test_generators_and_image_spans_are_built_once_per_space():
    # the commuting, double-centralizer and kernel checks of one task share them
    T = TensorSpace(2, (2, 1), 2)
    assert glk_generators(T) is glk_generators(T)
    assert schurweyl._image_pair_spans(T) is schurweyl._image_pair_spans(T)
    other = TensorSpace(2, (2, 1), 2)
    assert glk_generators(other) is not glk_generators(T)
    assert schurweyl._image_pair_spans(other) is not schurweyl._image_pair_spans(T)


@pytest.mark.parametrize("ell,kvec,d", TENSOR_GRID + [(2, (2, 2), 3)])
def test_image_spans_match_the_dense_morphism_matrices(ell, kvec, d):
    # the spans are built from index maps; the rows of the 0/1 matrices give the same ones
    T = TensorSpace(ell, kvec, d)
    for (f, g), (n_hom, sb) in schurweyl._image_pair_spans(T).items():
        ms = hom(f, g, ell)
        dense = SpanBasis(ell, sb.n)
        for m in ms:
            dense.add(to_sparse([v for row in morphism_block_matrix(T, m).rows for v in row]))
        assert n_hom == len(ms) and sb.rank == dense.rank
        assert all(dense.contains(row) for row in sb.rows)


def test_forward_duality_fails_without_the_off_diagonal_generators(monkeypatch):
    # Dropping one generator leaves the commutant unchanged: the others generate
    # gl_k as a Lie algebra for k >= 3, and a Borel subalgebra of gl_2 has the same
    # commutant on V^(x d).  Without both E_12 and E_21 only the torus is left.
    real = schurweyl.glk_generators
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: [g for i, g in enumerate(real(T)) if i not in (1, 2)])
    rep = verify_double_centralizer(TensorSpace(1, (2,), 2))
    assert _status(rep, "A-image = commutant(GL) on every block pair") == "fail"
    assert (rep["image_dim"], rep["commutant_dim"]) == (2, 6)


def _without_last_row(sb):
    out = SpanBasis(sb.ell, sb.n)
    for row in sb.rows[:-1]:
        assert out.add(row)
    return out


def test_backward_duality_fails_without_one_algebra_element(monkeypatch):
    real = schurweyl.glk_generated_algebra
    monkeypatch.setattr(schurweyl, "glk_generated_algebra", lambda T: _without_last_row(real(T)))
    for ell, kvec, d in [(1, (2,), 2), (2, (2, 1), 2)]:
        rep = verify_double_centralizer(TensorSpace(ell, kvec, d))
        assert _status(rep, BACKWARD) == "fail"
        assert _status(rep, "A-image = commutant(GL) on every block pair") == "pass"


BACKWARD = "commutant(A-image) = GL-generated algebra"


def _with_one_orbit_row_changed(sb, change):
    # the first row over two or more positions (one orbit of the RREF of an
    # orbit-constant span) changed at its last position: same rank, same pivots
    out, rows = SpanBasis(sb.ell, sb.n), sb.rows
    i = next(i for i, row in enumerate(rows) if len(row) > 1)
    for j, row in enumerate(rows):
        assert out.add(change(row, max(row)) if j == i else row)
    return out


ROW_CHANGES = {
    "a position left out": lambda row, p: {q: c for q, c in row.items() if q != p},
    "a second value": lambda row, p: {**row, p: row[p] + row[p]},
}


@pytest.mark.parametrize("change", ROW_CHANGES)
def test_backward_duality_fails_for_a_row_not_constant_on_an_orbit(monkeypatch, change):
    # the rank still equals the orbit count, so only the orbit test can fail
    real = schurweyl.glk_generated_algebra
    monkeypatch.setattr(
        schurweyl, "glk_generated_algebra", lambda T: _with_one_orbit_row_changed(real(T), ROW_CHANGES[change])
    )
    for ell, kvec, d in [(1, (2,), 2), (2, (2, 1), 2), (2, (2, 2), 2)]:
        rep = verify_double_centralizer(TensorSpace(ell, kvec, d))
        check = next(c for c in rep["checks"] if c["name"] == BACKWARD)
        assert check["status"] == "fail"
        assert check["details"]["commutant_dim"] == check["details"]["algebra_dim"]


GRADED_POINTS = TENSOR_GRID + [(2, (2, 2), 3), (1, (3,), 3)]


def _recording_intertwiners(monkeypatch):
    solved = []
    real = schurweyl.intertwiners
    monkeypatch.setattr(schurweyl, "intertwiners", lambda *args: solved.append((args, real(*args))) or solved[-1][1])
    return solved


@pytest.mark.parametrize("ell,kvec,d", GRADED_POINTS)
def test_graded_solves_and_orbit_count_match_the_ungraded_reference(monkeypatch, ell, kvec, d):
    # forward: each block pair's graded solve returns the ungraded kernel;
    # backward: the orbit count is the dimension of the commutant of the
    # component generators' 0/1 matrices, and that commutant is the algebra
    solved = _recording_intertwiners(monkeypatch)
    T = TensorSpace(ell, kvec, d)
    rep = verify_double_centralizer(T)
    assert rep["ok"]
    objs = sorted(T.block_of)
    assert len(solved) == len(objs) ** 2
    assert all(graded == ungraded_intertwiners(*args) for args, graded in solved)
    index, dims = {f: i for i, f in enumerate(objs)}, [T.block_dim(f) for f in objs]
    actions = [
        (index[m.source], index[m.target], sparse(morphism_block_matrix(T, m)))
        for lam in sorted({type_of(f, ell) for f in objs})
        for m in component_generators(ell, lam)
    ]
    n, pairs = direct_sum_actions(ell, dims, actions)
    backward = ungraded_intertwiners(ell, n, n, pairs)
    check = next(c for c in rep["checks"] if c["name"] == BACKWARD)
    assert check["details"]["commutant_dim"] == len(backward) == check["details"]["algebra_dim"]
    # X is block diagonal: entry (R, C) of block o moves to the algebra's layout, the blocks X_o row-major in turn
    starts, block_starts = list(accumulate(dims, initial=0)), list(accumulate((n_o * n_o for n_o in dims), initial=0))

    def blockwise(v):
        out = {}
        for p, c in v.items():
            (R, C), o = divmod(p, n), bisect_right(starts, p // n) - 1
            out[block_starts[o] + (R - starts[o]) * dims[o] + C - starts[o]] = c
        return out

    algebra = glk_generated_algebra(T)
    assert all(algebra.contains(blockwise(v)) for v in backward)


@pytest.mark.parametrize("ell,k,m,d", SHIFT_DUALITY_GRID + [(2, 2, 2, 3)])
def test_graded_shift_solve_matches_the_ungraded_reference(monkeypatch, ell, k, m, d):
    solved = _recording_intertwiners(monkeypatch)
    assert shift_duality_check(ell, k, m, d)["ok"]
    ((args, graded),) = solved
    assert graded == ungraded_intertwiners(*args)


def test_duality_solves_insert_only_the_graded_rows(monkeypatch):
    # rows reaching the engine, counted: the ungraded solves, with the backward
    # solve that the orbit count replaced, inserted 69 648 and 34 673 here
    inserted = []
    real = SpanBasis._insert
    monkeypatch.setattr(SpanBasis, "_insert", lambda self, v, width: inserted.append(1) or real(self, v, width))
    assert shift_duality_check(4, 2, 2, 2)["ok"]
    assert len(inserted) == 360
    inserted.clear()
    assert verify_double_centralizer(TensorSpace(2, (2, 2), 3))["ok"]
    assert len(inserted) == 1573


EXP_CHECK = "(I+E_ab)^(x d) = exp Delta(E_ab) for every off-diagonal unit"


def test_exp_identity_counts_the_off_diagonal_units():
    for kvec, units in [((2,), 2), ((1, 1), 0), ((2, 1), 2), ((2, 2), 4)]:
        rep = verify_double_centralizer(TensorSpace(len(kvec), kvec, 2))
        check = next(c for c in rep["checks"] if c["name"] == EXP_CHECK)
        assert (check["status"], check["details"]) == ("pass", {"units": units})


def test_exp_identity_fails_for_a_generator_missing_one_slot(monkeypatch):
    # Delta(E_12) with the last tensor slot left out: right on vectors whose
    # last coordinate is not 2, wrong on the others
    T = TensorSpace(1, (2,), 2)
    one = Cyc.one(T.ell)
    short = {
        f: {
            (T.block_pos[f][vec[:t] + (1,) + vec[t + 1 :]], j): one
            for j, vec in enumerate(bs)
            for t in range(T.d - 1)
            if vec[t] == 2
        }
        for f, bs in T.block_of.items()
    }
    real = schurweyl.glk_generators
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: [short if i == 1 else g for i, g in enumerate(real(T))])
    rep = verify_double_centralizer(T)
    assert _status(rep, EXP_CHECK) == "fail"
    assert not rep["ok"]


@pytest.mark.parametrize("ell,kvec,d", TENSOR_GRID + [(1, (3,), 3), (2, (2, 2), 3)])
def test_exp_identity_on_row_maps_matches_the_dense_powers(ell, kvec, d):
    T = TensorSpace(ell, kvec, d)
    sparse = schurweyl._transvections_are_exponentials(T)
    assert sparse[0] and sparse == dense_exp_identity(T, glk_generators(T))


def test_exp_identity_fails_for_a_generator_entry_of_two(monkeypatch):
    # Delta(E_12) with the entry that sends (2, 2) to (1, 2) doubled
    T = TensorSpace(1, (2,), 2)
    real = schurweyl.glk_generators(T)
    f, bs = next(iter(T.block_of.items()))
    i, j = T.block_pos[f][(1, 2)], T.block_pos[f][(2, 2)]
    bent = [((r, c), v + v if (r, c) == (i, j) else v) for (r, c), v in real[1][f].items()]
    assert (i, j) in {rc for rc, _v in bent}
    doubled = {f: dict(bent)}
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: [doubled if n == 1 else g for n, g in enumerate(real)])
    T = TensorSpace(1, (2,), 2)
    assert schurweyl._block_units(T)[1] == (1, 2)
    assert _status(verify_double_centralizer(T), EXP_CHECK) == "fail"
    assert not dense_exp_identity(T, schurweyl.glk_generators(T))[0]


def _swap_two_images_of(monkeypatch, bad):
    # A(bad) with the images of its first two tensors swapped: still a
    # permutation, but no longer the action of bad
    real = TensorSpace.morphism_index_map

    def perturbed(self, m):
        pi = real(self, m)
        return (pi[1], pi[0]) + pi[2:] if m == bad else pi

    monkeypatch.setattr(TensorSpace, "morphism_index_map", perturbed)


def test_commuting_check_catches_one_perturbed_morphism(monkeypatch):
    # a 3-cycle is not among the component generators s_1, s_2 of the one object (1,1,1)
    T = TensorSpace(1, (2,), 3)
    gens = component_generators(1, (3,))
    bad = next(m for m in hom((1, 1, 1), (1, 1, 1), 1) if m not in gens and m != identity_morphism((1, 1, 1)))
    _swap_two_images_of(monkeypatch, bad)
    assert verify_commuting(T)["checks"][0]["status"] == "fail"


def _all_pairs_commuting(T):
    """The loop verify_commuting ran before its walk: every morphism times every GL generator, two products each."""
    objs = sorted(T.block_of)
    return all(
        mat_mul(A, dense(T.ell, T.block_dim(f), gen[f])) == mat_mul(dense(T.ell, T.block_dim(g), gen[g]), A)
        for f in objs
        for g in objs
        for m in hom(f, g, T.ell)
        for A in [morphism_block_matrix(T, m)]
        for gen in glk_generators(T)
    )


COMMUTING_REFERENCE_POINTS = [(1, (2,), 3), (2, (1, 1), 3), (2, (2, 1), 2), (2, (2, 1), 3), (2, (2, 2), 3)]


@pytest.mark.parametrize("ell,kvec,d", COMMUTING_REFERENCE_POINTS)
def test_commuting_walk_agrees_with_the_all_pairs_loop(ell, kvec, d):
    T = TensorSpace(ell, kvec, d)
    assert _all_pairs_commuting(T)
    assert verify_commuting(T)["ok"]


def test_commuting_check_catches_a_perturbed_morphism_between_two_objects(monkeypatch):
    # (1,2,1) -> (2,1,1) is neither an anchor out of the canonical object
    # (1,1,2) nor the inverse of one, so only the walk's products reach it
    ell, kvec, d = 2, (2, 1), 3
    T = TensorSpace(ell, kvec, d)
    bad = hom((1, 2, 1), (2, 1, 1), ell)[0]
    assert bad not in component_generators(ell, (2, 1))
    _swap_two_images_of(monkeypatch, bad)
    assert not _all_pairs_commuting(T)
    assert verify_commuting(T)["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("ell,kvec,d", TENSOR_GRID + [(2, (2, 2), 3)])
def test_commuting_check_multiplies_once_per_walk_step(monkeypatch, ell, kvec, d):
    # one composition of index maps A(s) A(x) per step of the walk, none per
    # GL generator: at most (generators + 1) x morphisms compositions, the
    # groupoid being the k = 1 quotient
    T = TensorSpace(ell, kvec, d)
    products = []
    real = schurweyl._compose_index_maps
    monkeypatch.setattr(schurweyl, "_compose_index_maps", lambda a, b: products.append(1) or real(a, b))
    assert verify_commuting(T)["ok"]
    assert products
    n_gens = sum(len(component_generators(ell, lam)) for lam in {type_of(f, ell) for f in T.block_of})
    assert len(products) <= (n_gens + 1) * len(QuotientGroupoid(ell, 1, d).all_qmorphisms())


PER_SIMPLE = "each predicted-killed simple acts by zero, others nonzero"


def test_kernel_check_fails_for_one_wrong_character_value(monkeypatch):
    # (2,(1,1),2) kills two simples; one more at the identity class of a killed
    # character makes <chi_V, chi_p> = chi_V(1) / |G| nonzero
    ell, d = 2, 2
    T = TensorSpace(ell, (1, 1), d)
    killed = {m.p for m in schurweyl._killed_labels(T)}
    table = list(character_table(ell, d))
    i = next(i for i, m in enumerate(all_simples(ell, d)) if m.p in killed)
    values = list(table[i])
    e = [rep for rep, _size in conjugacy_classes(ell, d)].index(wreath_identity(ell, d))
    values[e] = values[e] + Cyc.one(ell)
    table[i] = tuple(values)
    monkeypatch.setattr(schurweyl, "character_table", lambda ell, d: tuple(table))
    rep = kernel_check(T)
    assert _status(rep, "kernel dim = sum of squares over killed labels") == "pass"
    assert _status(rep, PER_SIMPLE) == "fail"


def test_kernel_check_fails_for_one_wrong_killed_label(monkeypatch):
    real = schurweyl._killed_labels
    monkeypatch.setattr(schurweyl, "_killed_labels", lambda T: real(T)[1:])
    assert _status(kernel_check(TensorSpace(2, (1, 1), 2)), PER_SIMPLE) == "fail"


@pytest.mark.parametrize("ell,kvec,d", TENSOR_GRID)
def test_idempotent_sum_is_zero_exactly_when_the_inner_product_is(ell, kvec, d):
    # the route the check replaced: sum_x chi_p(x^-1) x, a multiple of the
    # central idempotent of p, summed as matrices on V^(x d)
    T = TensorSpace(ell, kvec, d)
    group = enum_group(ell, d)
    mats = {x: act_full(T, phi(x, d)) for x in group}
    classes = conjugacy_classes(ell, d)
    chi_v = [mats[rep].trace() for rep, _size in classes]
    zero = mat_zeros(ell, T.dim(), T.dim())
    table = character_table(ell, d)
    for mod, (val,) in zip(all_simples(ell, d), inner_products(classes, table, [[v.conjugate() for v in chi_v]])):
        acc = zero
        for x in group:
            acc = mat_add(acc, mat_scale(mats[x], mod.char_wreath(wreath_inv(x))))
        assert (acc == zero) == val.is_zero()


@pytest.mark.parametrize("ell,kvec,d", TENSOR_GRID)
def test_character_is_the_trace_of_the_phi_action(ell, kvec, d):
    T = TensorSpace(ell, kvec, d)
    for rep, _size in conjugacy_classes(ell, d):
        assert T.character(rep) == act_full(T, phi(rep, d)).trace(), rep


@pytest.mark.parametrize(
    "ell,kvec,d", TENSOR_GRID + [(3, (1, 2, 1), 2), (2, (2, 1), 3), (3, (1, 1, 2), 3), (2, (1, 2), 4)]
)
def test_character_matches_the_object_scan_on_every_element(ell, kvec, d):
    # prod_c k_c^(cycles in color c) against the fixed tensors counted block by block
    T = TensorSpace(ell, kvec, d)
    for x in enum_group(ell, d):
        assert T.character(x) == scan_phi_trace(x, T.block_of, tensor_object_trace(T)), x


def _refuse_whole_space_systems(monkeypatch, dim):
    """Make schurweyl's intertwiners and SpanBasis raise on a system over all dim x dim positions of End(V^(x d))."""
    real_intertwiners, real_span = schurweyl.intertwiners, schurweyl.SpanBasis

    def refuse_intertwiners(ell, n_src, n_tgt, actions):
        if (n_src, n_tgt) == (dim, dim):
            raise AssertionError("dim x dim system built")
        return real_intertwiners(ell, n_src, n_tgt, actions)

    def refuse_span(ell, width):
        if width == dim * dim:
            raise AssertionError("dim x dim system built")
        return real_span(ell, width)

    monkeypatch.setattr(schurweyl, "intertwiners", refuse_intertwiners)
    monkeypatch.setattr(schurweyl, "SpanBasis", refuse_span)


def test_kernel_check_builds_no_dense_matrix(monkeypatch):
    # chi_V comes from TensorSpace.character, and the kernel dimension from
    # the index-map image spans, pair of blocks by pair of blocks: no system
    # over all dim x dim positions of End(V^(x d)) is built
    T = TensorSpace(2, (2, 2), 2)
    _refuse_whole_space_systems(monkeypatch, T.dim())
    assert kernel_check(T)["ok"]
    # the guard is live: the shift-duality check on the same space solves its
    # commutant over all of End(V^(x d)) and is refused at intertwiners, and,
    # with intertwiners let through, at the span of the Psi-images
    with pytest.raises(AssertionError, match="dim x dim"):
        shift_duality_check(2, 2, 2, 2)
    monkeypatch.setattr(schurweyl, "intertwiners", intertwiners)
    with pytest.raises(AssertionError, match="dim x dim"):
        shift_duality_check(2, 2, 2, 2)


def _same_span(sb, reference):
    assert sb.rank == reference.rank
    assert all(reference.contains(row) for row in sb.rows)
    assert all(sb.contains(row) for row in reference.rows)


CLOSURE_POINTS = TENSOR_GRID + [(2, (2, 2), 3), (1, (3,), 3)]


@pytest.mark.parametrize("ell,kvec,d", CLOSURE_POINTS)
def test_one_sided_closure_matches_a_two_sided_reference(ell, kvec, d):
    T = TensorSpace(ell, kvec, d)
    _same_span(glk_generated_algebra(T), two_sided_closure(T, glk_generators(T)))


def _first_block_units(T, dropped):
    """Positions in glk_generators of the off-diagonal units E_ab of the first block: all (torus) or a > b (borel)."""
    first = range(1, T.kvec[0] + 1)
    return {
        i
        for i, (a, b) in enumerate(schurweyl._block_units(T))
        if a in first and a != b and (dropped == "torus" or a > b)
    }


FEWER_FIRST = [(1, (2,), 2), (1, (2,), 3), (2, (2, 1), 2)]  # the first points keep their test ids


@pytest.mark.parametrize("dropped", ["torus", "borel"])
@pytest.mark.parametrize(
    "ell,kvec,d", FEWER_FIRST + [p for p in CLOSURE_POINTS if p not in FEWER_FIRST]
)
def test_one_sided_closure_matches_the_reference_on_fewer_generators(monkeypatch, ell, kvec, d, dropped):
    # the generator sets of the forward-duality fault test: the off-diagonal
    # units of the first block dropped (the torus), or its lower ones alone
    # (a Borel set, where the generated algebra is not commutative); with
    # k_1 = 1 nothing is dropped
    T = TensorSpace(ell, kvec, d)
    full = glk_generated_algebra(T).rank
    drop = _first_block_units(T, dropped)
    gens = [g for i, g in enumerate(glk_generators(T)) if i not in drop]
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: gens)
    algebra = glk_generated_algebra(TensorSpace(ell, kvec, d))
    _same_span(algebra, two_sided_closure(T, gens))
    assert (algebra.rank < full) == bool(drop)


@pytest.mark.parametrize("ell,kvec,d", CLOSURE_POINTS)
def test_closure_and_commuting_walk_make_no_matrix_product(ell, kvec, d):
    # the closure multiplies sparse vectors by the generators' row maps, and
    # the walk composes index maps; src/ has no matrix type to multiply
    # (test_source.test_the_library_has_one_matrix_format)
    T = TensorSpace(ell, kvec, d)
    assert glk_generated_algebra(T).rank
    assert verify_commuting(T)["ok"]


@pytest.mark.parametrize("ell,kvec,d", CLOSURE_POINTS)
def test_duality_checks_multiply_no_matrices(ell, kvec, d):
    # the exp identity applies the row maps of Delta(E_ab) to sparse vectors,
    # as the GL closure does; src/ has no matrix type to multiply
    # (test_source.test_the_library_has_one_matrix_format)
    T = TensorSpace(ell, kvec, d)
    assert verify_commuting(T)["ok"] and verify_double_centralizer(T)["ok"] and kernel_check(T)["ok"]
