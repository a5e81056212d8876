import pytest

from groupoidreps import schurweyl
from groupoidreps.algebra import phi
from groupoidreps.cyclo import Cyc, Mat
from groupoidreps.groupoid import component_generators, compose, hom, identity_morphism
from groupoidreps.schurweyl import (
    TensorSpace,
    glk_generated_algebra,
    kernel_check,
    shift_duality_check,
    verify_commuting,
    verify_double_centralizer,
)
from groupoidreps.simples import ClassFunction, all_simples, character_table, inner_product
from groupoidreps.wreath import enum_group, wreath_identity, wreath_inv

TENSOR_GRID = [
    (1, (2,), 2),
    (1, (2,), 3),
    (2, (1, 1), 2),
    (2, (1, 1), 3),
    (2, (2, 1), 2),
    (2, (2, 2), 2),
]


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


def test_morphism_action_functorial():
    T = TensorSpace(2, (2, 1), 2)
    for f in sorted(T.block_of):
        for g in sorted(T.block_of):
            for m1 in hom(f, g, 2):
                a1 = T.morphism_block_matrix(m1)
                for h in sorted(T.block_of):
                    for m2 in hom(g, h, 2):
                        lhs = T.morphism_block_matrix(compose(m2, m1))
                        assert lhs == T.morphism_block_matrix(m2) * a1


def test_identity_acts_as_identity():
    from groupoidreps.groupoid import identity_morphism

    T = TensorSpace(2, (2, 2), 2)
    for f in sorted(T.block_of):
        assert T.morphism_block_matrix(identity_morphism(f)) == Mat.identity(2, T.block_dim(f))


def test_swap_on_one_dim_blocks():
    T = TensorSpace(2, (1, 1), 2)
    m = hom((1, 2), (2, 1), 2)[0]
    blk = T.morphism_block_matrix(m)
    assert blk.nrows == blk.ncols == 1 and blk.rows[0][0].is_one()


def test_glk_algebra_d1_is_full_block_algebra():
    T = TensorSpace(2, (2, 1), 1)
    assert len(glk_generated_algebra(T)) == 2 * 2 + 1 * 1


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
    for ell, k, m, d in [(2, 2, 1, 1), (2, 2, 2, 2), (4, 2, 1, 2)]:
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


def test_forward_duality_fails_without_the_off_diagonal_generators(monkeypatch):
    # Dropping one generator leaves the commutant unchanged: the others generate
    # gl_k as a Lie algebra for k >= 3, and a Borel subalgebra of gl_2 has the same
    # commutant on V^(x d).  Without both E_12 and E_21 only the torus is left.
    real = schurweyl.glk_generators
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: [g for i, g in enumerate(real(T)) if i not in (1, 2)])
    rep = verify_double_centralizer(TensorSpace(1, (2,), 2))
    assert _status(rep, "A-image = commutant(GL) on every block pair") == "fail"
    assert (rep["image_dim"], rep["commutant_dim"]) == (2, 6)


def test_backward_duality_fails_without_one_algebra_element(monkeypatch):
    real = schurweyl.glk_generated_algebra
    monkeypatch.setattr(schurweyl, "glk_generated_algebra", lambda T: real(T)[:-1])
    for ell, kvec, d in [(1, (2,), 2), (2, (2, 1), 2)]:
        rep = verify_double_centralizer(TensorSpace(ell, kvec, d))
        assert _status(rep, "commutant(A-image) = GL-generated algebra") == "fail"
        assert _status(rep, "A-image = commutant(GL) on every block pair") == "pass"


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
        f: Mat.from_entries(
            T.ell,
            len(bs),
            len(bs),
            (
                ((T.block_pos[f][vec[:t] + (1,) + vec[t + 1 :]], j), one)
                for j, vec in enumerate(bs)
                for t in range(T.d - 1)
                if vec[t] == 2
            ),
        )
        for f, bs in T.block_of.items()
    }
    real = schurweyl.glk_generators
    monkeypatch.setattr(schurweyl, "glk_generators", lambda T: [short if i == 1 else g for i, g in enumerate(real(T))])
    rep = verify_double_centralizer(T)
    assert _status(rep, EXP_CHECK) == "fail"
    assert not rep["ok"]


def test_commuting_check_catches_one_perturbed_morphism(monkeypatch):
    # a 3-cycle is not among the component generators s_1, s_2 of the one object (1,1,1)
    T = TensorSpace(1, (2,), 3)
    gens = component_generators(1, (3,))
    bad = next(m for m in hom((1, 1, 1), (1, 1, 1), 1) if m not in gens and m != identity_morphism((1, 1, 1)))
    real = TensorSpace.morphism_block_matrix

    def perturbed(self, m):
        A = real(self, m)
        return A + Mat.from_entries(self.ell, A.nrows, A.ncols, [((0, 0), Cyc.one(self.ell))]) if m == bad else A

    monkeypatch.setattr(TensorSpace, "morphism_block_matrix", perturbed)
    assert verify_commuting(T)["checks"][0]["status"] == "fail"


PER_SIMPLE = "each predicted-killed simple acts by zero, others nonzero"


def test_kernel_check_fails_for_one_wrong_character_value(monkeypatch):
    # (2,(1,1),2) kills two simples; one more at the identity class of a killed
    # character makes <chi_V, chi_p> = chi_V(1) / |G| nonzero
    ell, d = 2, 2
    T = TensorSpace(ell, (1, 1), d)
    killed = {m.p for m in schurweyl._killed_labels(T)}
    table = list(character_table(ell, d))
    i = next(i for i, m in enumerate(all_simples(ell, d)) if m.p in killed)
    values = dict(table[i].values)
    e = wreath_identity(ell, d)
    values[e] = values[e] + Cyc.one(ell)
    table[i] = ClassFunction(ell, d, values)
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
    mats = {x: T.act_full(phi(x, d)) for x in group}
    chi_v = ClassFunction.from_callable(ell, d, lambda x: mats[x].trace())
    zero = Mat.zeros(ell, T.dim(), T.dim())
    for mod, chi_p in zip(all_simples(ell, d), character_table(ell, d)):
        acc = zero
        for x in group:
            acc = acc + mats[x].scale_cyc(mod.char_wreath(wreath_inv(x)))
        assert (acc == zero) == inner_product(ell, d, chi_v, chi_p).is_zero()
