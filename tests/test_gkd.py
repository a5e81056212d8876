from itertools import permutations
from math import factorial, prod

import pytest

from groupoidreps import gkd, groupoid, simples
from groupoidreps.cli import GKD_GRID, ISO_GRID
from groupoidreps.cyclo import Cyc, LinSolver, root_of_unity
from groupoidreps.gkd import (
    class_character,
    restriction_check,
    endo_structure,
    gamma_cross_section,
    gkd_conjugacy_classes,
    rotation_eigenspace_check,
    quotient_labels,
    quotient_structure_report,
    reflection_span_check,
    quotient_simples_check,
)
from groupoidreps.groupoid import (
    GMorphism,
    QuotientGroupoid,
    canonical_morphism,
    canonical_object,
    component_generators,
    compose,
    hom,
    identity_morphism,
    inverse,
    quotient_groupoid,
    stabilizer_order,
    theta_morphism,
    theta_object,
    theta_type,
    type_of,
)
from groupoidreps.simples import SimpleModule, _commutant_dim, all_simples, build_simple, inner_products
from groupoidreps.tableaux import OuterRep, SpechtRep, multipartitions
from groupoidreps.wreath import generators, wreath_identity
import reference
from reference import (
    Mat,
    act_total,
    component_commutant_dim,
    component_functorial,
    component_morphisms,
    dense,
    dense_commutes,
    dense_twisted_traces,
    end_base_functorial,
    functorial,
    int_dense,
    int_matmul,
    kernel_basis,
    mat_scale,
    mat_sub,
    quotient_action_block,
    rotation_theta,
    scaled,
    slot_powers,
    sparse,
    to_sparse,
)

GRID = [
    (2, 2, 1),
    (2, 2, 2),
    (2, 2, 3),
    (3, 3, 1),
    (3, 3, 2),
    (3, 3, 3),
    (4, 2, 2),
    (4, 4, 2),
    (2, 1, 2),
    (4, 2, 1),
]
FUNCTORIAL = "each simple is functorial"
COMMUTANT = "commutant of each simple has dim 1"
DIMENSION = "total dim * s = (d!/lam!) dim S_p"


def test_theta_examples():
    assert theta_object((1, 2), 1, 2) == (2, 1)
    assert theta_type((2, 0), 1) == (0, 2)
    # theta_k applied k times is the identity
    f = (1, 3, 2)
    out = f
    for _ in range(3):
        out = theta_object(out, 1, 3)
    assert out == f
    m = canonical_morphism((1, 2), (2, 1), 2)
    tm = theta_morphism(m, 1, 2)
    assert tm.perm == m.perm and tm.source == (2, 1) and tm.target == (1, 2)


def test_translate_by_a_multiple_of_k_returns_its_argument():
    Q = quotient_groupoid(4, 2, 2)
    for q in Q.all_qmorphisms():
        for t in (0, 2, -2, 4):
            assert Q.translate(q, t) is q
        moved = Q.translate(q, 1)
        assert moved != q and Q.translate(moved, 1) == q


def test_two_color_two_dot_quotient():
    Q = quotient_groupoid(2, 2, 2)
    assert len(Q.orbits) == 2
    types = sorted(type_of(Q.rep(i), 2) for i in range(2))
    assert types == [(1, 1), (2, 0)]
    for i in range(2):
        for j in range(2):
            assert len(Q.hom(i, j)) == (2 if i == j else 0)
    infos = [endo_structure(Q, i) for i in range(2)]
    by_type = {tuple(info["type"]): info for info in infos}
    assert by_type[(2, 0)]["stabilizer_order"] == 1  # endos form S_2
    assert by_type[(1, 1)]["stabilizer_order"] == 2  # endos form H_2
    assert all(info["cardinality_ok"] for info in infos)
    assert all(info["endos"] == Q.hom(i, i) and info["endo_count"] == 2 for i, info in enumerate(infos))


def test_one_object_case():
    Q = quotient_groupoid(2, 2, 1)
    assert len(Q.orbits) == 1
    assert len(Q.hom(0, 0)) == 1


def test_total_quotient_dimension():
    Q = quotient_groupoid(2, 2, 2)
    assert len(Q.all_qmorphisms()) == 4


def test_psi_unit_and_example():
    Q = quotient_groupoid(2, 2, 1)
    assert Q.psi(Q.identity(0)) == (identity_morphism((1,)), identity_morphism((2,)))


def test_structure_reports():
    for ell, k, d in GRID:
        rep = quotient_structure_report(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_reflection_span():
    for ell, k, d in GRID + [(3, 1, 2)]:
        rep = reflection_span_check(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_invalid_quotient_inputs_raise():
    for ell, k in [(4, 3), (2, 0)]:
        with pytest.raises(ValueError, match="positive divisor"):
            QuotientGroupoid(ell, k, 2)
    # the two orbits of (2,2,2) have different types, so nothing composes across them
    Q = quotient_groupoid(2, 2, 2)
    with pytest.raises(ValueError, match="not composable"):
        Q.compose(Q.identity(1), Q.identity(0))
    _lam, p, m = quotient_labels(2, 2, 2)[0]
    with pytest.raises(ValueError, match="stabilizer order"):
        SimpleModule(2, 2, 2, p, build_simple(2, 2, 2, p, m).s + 1)


def test_phi_to_quotient_rejects_nonmembers():
    from groupoidreps.wreath import generators

    Q = quotient_groupoid(2, 2, 2)
    s0 = generators(2, 2)[0]
    with pytest.raises(ValueError):
        gkd.phi_to_quotient(Q, s0)


def test_span_check_fails_when_phi_form_is_patched_at_one_object(monkeypatch):
    # one exponent moved at the object (1, 1), whose orbit is {(1, 1), (2, 2)}:
    # every Phi(x) then differs on the two terms of one H_2-orbit
    ell, k, d = 2, 2, 2
    assert reflection_span_check(ell, k, d)["ok"]
    real = gkd.phi_form

    def patched(x, n=None):
        perm, exps = real(x, n)
        return perm, ((exps[0] + 1) % ell,) + exps[1:]

    monkeypatch.setattr(gkd, "phi_form", patched)
    statuses = {c["name"]: c["status"] for c in reflection_span_check(ell, k, d)["checks"]}
    assert statuses["Phi(G(l,k,d)) is H_k-invariant"] == "fail"
    assert statuses["span Phi(G) = span Psi (exact rank and containment)"] == "fail"
    assert statuses["Psi multiplicative on the basis"] == "pass"


@pytest.mark.parametrize("ell,k,d", [(2, 2, 3), (4, 2, 2)])
def test_quotient_characters_are_orthonormal(ell, k, d):
    classes = gkd_conjugacy_classes(ell, k, d)
    chars = [class_character(build_simple(ell, k, d, p, m)) for _lam, p, m in quotient_labels(ell, k, d)]
    gram = inner_products(classes, chars, [[v.conjugate() for v in psi] for psi in chars])
    for i, row in enumerate(gram):
        assert row == tuple(Cyc.rational(ell, 1 if i == j else 0) for j in range(len(chars))), i


def test_labels_222():
    labels = quotient_labels(2, 2, 2)
    assert len(labels) == 4
    mods = [build_simple(2, 2, 2, p, m) for (_l, p, m) in labels]
    assert [m.total_dim for m in mods] == [1, 1, 1, 1]
    # the two labels over ((1),(1)) are distinguished by the sign of the
    # color-swapping endomorphism
    pair = [m for m in mods if m.p == ((1,), (1,))]
    assert len(pair) == 2
    Q = quotient_groupoid(2, 2, 2)
    oi = Q.orbit_of[pair[0].objects[0]]
    rot = [q for q in Q.hom(oi, oi) if q != Q.identity(oi)][0]
    vals = sorted(str(m.action_block(rot)[0, 0].coeffs) for m in pair)
    assert vals == [str((Cyc.rational(2, -1)).coeffs), str((Cyc.one(2)).coeffs)]


def test_quotient_simple_repr_names_its_label_and_dimension():
    mod = build_simple(2, 2, 2, ((1,), (1,)), 2)
    assert repr(mod) == "SimpleModule(ell=2, k=2, d=2, p=((1,), (1,)), m=2, dim=1)"


def test_quotient_simples():
    for ell, k, d in GRID:
        rep = quotient_simples_check(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_label_count_matches_class_count():
    for ell, k, d in GRID:
        labels = quotient_labels(ell, k, d)
        assert len(labels) == len(gkd_conjugacy_classes(ell, k, d))


def test_restriction():
    for ell, k, d in GRID:
        rep = restriction_check(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_class_characters_match_a_fresh_computation():
    # the shared per-class tables equal sum coeff * tr(action_block(q)) over
    # the quotient coordinates of Phi(x), recomputed for every class representative
    for ell, k, d in [(2, 2, 2), (3, 3, 2), (4, 2, 2)]:
        Q = quotient_groupoid(ell, k, d)
        for _lam, p, m in quotient_labels(ell, k, d):
            mod = build_simple(ell, k, d, p, m)
            component = {Q.orbit_of[f] for f in mod.objects}
            fresh = []
            for rep, _size in gkd_conjugacy_classes(ell, k, d):
                acc = Cyc.zero(ell)
                for q, coeff in gkd.phi_to_quotient(Q, rep).items():
                    if Q.source_orbit(q) == Q.target_orbit(q) and Q.source_orbit(q) in component:
                        acc = acc + coeff * dense(ell, mod.block_dim, mod.action_block(q)).trace()
                fresh.append(acc)
            assert class_character(mod) == tuple(fresh), (ell, k, d, p, m)


def test_restriction_check_reads_the_shared_table(monkeypatch):
    ell, k, d = 2, 2, 2
    _lam, p, m = quotient_labels(ell, k, d)[0]
    mod = build_simple(ell, k, d, p, m)
    table = list(class_character(mod))
    # adding |G(2,2,2)| = 4 at the identity class shifts an integer multiplicity by dim L_p
    reps = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    identity_class = reps.index(wreath_identity(ell, d))
    table[identity_class] = table[identity_class] + Cyc.rational(ell, 4)
    _patch_class_character(monkeypatch, mod, tuple(table))
    rep = restriction_check(ell, k, d)
    assert any(c["status"] == "fail" for c in rep["checks"])


def test_rotation_eigenspaces():
    for ell, k, d in GRID:
        rep = rotation_eigenspace_check(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_gamma_cross_section():
    gamma = gamma_cross_section(2, 2, 2)
    assert gamma == [(0, 2), (1, 1)]
    # one representative per orbit, covering all types
    from groupoidreps.tableaux import compositions

    shift = 1
    covered = set()
    for lam in gamma:
        covered |= {theta_type(lam, t) for t in range(2)}
    assert covered == set(compositions(2, 2))


def test_off_grid_clifford_labels():
    # lambda = (2,2) at (2,2,4): the label set uses orbit representatives and
    # stabilizer characters, matching the 13 conjugacy classes of W(D_4)
    labels = quotient_labels(2, 2, 4)
    assert len(labels) == 13
    assert len(gkd_conjugacy_classes(2, 2, 4)) == 13


def test_restriction_check_reports_a_non_integral_multiplicity(monkeypatch):
    ell, k, d = 2, 2, 2
    _lam, p, m = quotient_labels(ell, k, d)[0]
    mod = build_simple(ell, k, d, p, m)
    table = list(class_character(mod))
    # 2 is not a multiple of |G(2,2,2)| = 4: the multiplicity of this label moves by a half
    reps = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    identity_class = reps.index(wreath_identity(ell, d))
    table[identity_class] = table[identity_class] + Cyc.rational(ell, 2)
    _patch_class_character(monkeypatch, mod, tuple(table))
    rep = restriction_check(ell, k, d)
    # the shift is dim L_p / 2, so exactly the simples of odd dimension see a half
    flagged = [c for c in rep["checks"] if "non_integral" in c["details"]]
    odd = [f"restriction of L_{s.label_json()}" for s in all_simples(ell, d) if s.total_dim % 2]
    assert [c["name"] for c in flagged] == odd
    assert all(c["status"] == "fail" and c["details"]["non_integral"] == [gkd._label_json(mod)] for c in flagged)


def test_quotient_commutant_check_fails_for_a_module_acting_trivially(monkeypatch):
    ell, k, d = 2, 2, 3
    mods = [build_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    mod = next(m for m in mods if m.block_dim > 1)
    class_character(mod)  # tabulated before the action is replaced, so the cache stays right
    monkeypatch.setattr(mod, "action_block", lambda q: sparse(Mat.identity(ell, mod.block_dim)))
    rep = quotient_simples_check(ell, k, d)
    check = next(c for c in rep["checks"] if c["name"] == COMMUTANT)
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [gkd._label_json(mod)]


def _patch_class_character(monkeypatch, mod, table):
    """class_character reads table for mod and the true character for every other module."""
    real = gkd.class_character
    monkeypatch.setattr(gkd, "class_character", lambda other: table if other is mod else real(other))


def _status(rep, name):
    return next(c["status"] for c in rep["checks"] if c["name"] == name)


SPAN_CHECK = "span Phi(G) = span Psi (exact rank and containment)"


@pytest.mark.parametrize("ell,k,d", [(2, 2, 3), (3, 3, 2), (4, 4, 2)])
def test_span_check_fails_for_an_exponent_vector_that_is_not_additive(monkeypatch, ell, k, d):
    # Phi(e) becomes xi * Phi(e): the exponent 1 on every object is affine,
    # not additive, in the colors.  Its span and its H_k-invariance are those
    # of the true image, but the character count leaves it out.  With k
    # not dividing d, the vector read at the unit objects, (1, ..., 1), is
    # not that of a member, so only the additivity test can reject it.  The
    # span check reads each member's form once, through gkd's phi_form.
    real = gkd.phi_form
    unit = wreath_identity(ell, d)

    def fake_phi_form(x, d=None):
        perm, exps = real(x, d)
        return (perm, tuple((e + 1) % ell for e in exps)) if x == unit else (perm, exps)

    assert _status(reflection_span_check(ell, k, d), SPAN_CHECK) == "pass"
    monkeypatch.setattr(gkd, "phi_form", fake_phi_form)
    rep = reflection_span_check(ell, k, d)
    assert _status(rep, "Phi(G(l,k,d)) is H_k-invariant") == "pass"
    assert _status(rep, SPAN_CHECK) == "fail"
    details = next(c["details"] for c in rep["checks"] if c["name"] == SPAN_CHECK)
    assert details["rank"] == details["dim"] - 1


@pytest.mark.parametrize("ell,k,d", [(2, 2, 4), (3, 3, 3), (4, 2, 2), (4, 4, 2), (3, 1, 3)])
def test_normalized_component_generators_generate_the_quotient(ell, k, d):
    Q = quotient_groupoid(ell, k, d)
    gens = gkd._quotient_generators(Q, gamma_cross_section(ell, k, d))
    reached = gkd._closure(Q, gens, range(len(Q.orbits)), lambda s, x, y: True)
    assert reached == set(Q.all_qmorphisms())


def _non_generator(Q, morphisms, gens):
    """A basis morphism that is neither an identity nor one of gens."""
    ids = {Q.identity(o) for o in range(len(Q.orbits))}
    return next(q for q in morphisms if q not in ids and q not in set(gens))


def test_psi_check_catches_psi_wrong_off_generators(monkeypatch):
    ell, k, d = 2, 2, 3
    Q = quotient_groupoid(ell, k, d)
    bad = _non_generator(Q, Q.all_qmorphisms(), gkd._quotient_generators(Q, gamma_cross_section(ell, k, d)))
    real = QuotientGroupoid.psi
    # each translate listed twice: Psi(bad) scaled by 2
    monkeypatch.setattr(QuotientGroupoid, "psi", lambda self, q: real(self, q) * 2 if q == bad else real(self, q))
    rep = reflection_span_check(ell, k, d)
    # the supports are untouched, so only the product check sees the fault
    assert _status(rep, "Psi injective (disjoint orbit supports)") == "pass"
    assert _status(rep, "Psi multiplicative on the basis") == "fail"


@pytest.mark.parametrize("fault", ["outside its corner", "scaled"])
def test_psi_check_catches_a_wrong_identity_image(monkeypatch, fault):
    # At (2,1,1) the components are single objects with no generators, so no
    # product reaches their identities.  Psi(e_0) + e_(2), an extra identity
    # at Q.rep(1), is still idempotent and multiplies correctly with
    # everything composable: only the support check sees it.  2 Psi(e_0),
    # each translate listed twice, is seen only by the identity step, Psi(e_0)^2.
    ell, k, d = 2, 1, 1
    Q = quotient_groupoid(ell, k, d)
    e0 = Q.identity(0)
    real = QuotientGroupoid.psi
    wrong = {
        "outside its corner": lambda image: image + (identity_morphism(Q.rep(1)),),
        "scaled": lambda image: image * 2,
    }[fault]
    monkeypatch.setattr(QuotientGroupoid, "psi", lambda self, q: wrong(real(self, q)) if q == e0 else real(self, q))
    rep = reflection_span_check(ell, k, d)
    assert _status(rep, "Psi multiplicative on the basis") == "fail"
    # the extra identity lies in the support of Psi(e_1) too
    expected = "fail" if fault == "outside its corner" else "pass"
    assert _status(rep, "Psi injective (disjoint orbit supports)") == expected


def test_generator_checks_reject_a_non_generating_set(monkeypatch):
    # without the s_i at the base objects the endomorphism groups are not reached
    real = gkd.component_generators
    for module in (gkd, simples):
        monkeypatch.setattr(module, "component_generators", lambda ell, lam: [m for m in real(ell, lam) if m.source != m.target])
    assert _status(reflection_span_check(2, 2, 3), "Psi multiplicative on the basis") == "fail"
    assert _status(quotient_simples_check(2, 2, 3), FUNCTORIAL) == "fail"


def test_reference_walk_catches_action_wrong_off_generators(monkeypatch):
    ell, k, d = 2, 2, 3
    mods = [build_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    mod = next(m for m in mods if m.block_dim > 1)
    class_character(mod)  # tabulated before the action is replaced, so the cache stays right
    Q = quotient_groupoid(ell, k, d)
    bad = _non_generator(Q, component_morphisms(mod), gkd._quotient_generators(Q, [mod.lam]))
    real = mod.action_block
    two = Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "action_block", lambda q: scaled(real(q), two) if q == bad else real(q))
    assert not end_base_functorial(mod) and not component_functorial(mod)
    # the report reads the action at the identity alone: the relations are
    # checked on the data the blocks are built from, and action_block builds
    # every block from that data, which this fault bypasses
    rep = quotient_simples_check(ell, k, d)
    assert _status(rep, FUNCTORIAL) == "pass"
    assert _status(rep, COMMUTANT) == "pass"


@pytest.mark.parametrize("ell,k,d", [(2, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_functoriality_fails_when_the_identity_does_not_act_as_identity(monkeypatch, ell, k, d):
    # the walk takes a step s o q with s = id as holding, so rho~(id) = I is
    # tested on its own; here rho~(id) = -I and every other block is unchanged
    mods = [build_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    mod = mods[-1]
    class_character(mod)  # tabulated before the action is replaced, so the cache stays right
    Q = quotient_groupoid(ell, k, d)
    unit = Q.identity(Q.orbit_of[mod.base])
    real, minus = mod.action_block, Cyc.rational(ell, -1)
    monkeypatch.setattr(mod, "action_block", lambda q: scaled(real(q), minus) if q == unit else real(q))
    assert not functorial(mod)
    assert _status(quotient_simples_check(ell, k, d), FUNCTORIAL) == "fail"
    monkeypatch.undo()
    assert functorial(mod)


@pytest.mark.parametrize("ell,k,d", [(2, 2, 3), (3, 3, 2), (3, 1, 3)])
def test_functoriality_walk_multiplies_only_on_non_identity_steps(monkeypatch, ell, k, d):
    # the reference End(base) walk: rho~(id) = I is read once, so a step from the identity needs no product
    steps, products = [], []
    walk, mul = gkd._closure, reference.mat_mul
    monkeypatch.setattr(
        gkd, "_closure", lambda Q, gens, objs, holds: walk(Q, gens, objs, lambda s, x, y: steps.append(s) or holds(s, x, y))
    )
    monkeypatch.setattr(reference, "mat_mul", lambda a, b: products.append(1) or mul(a, b))
    for _lam, p, m in quotient_labels(ell, k, d):
        mod = build_simple(ell, k, d, p, m)
        Q = quotient_groupoid(ell, k, d)
        unit = Q.identity(Q.orbit_of[mod.base])
        steps.clear()
        products.clear()
        assert end_base_functorial(mod)
        assert unit in steps and len(products) == sum(s != unit for s in steps) < len(steps)


def _fresh_copy(mod) -> SimpleModule:
    """mod built again outside every cache: its own blocks, outer reps and Specht reps (one per partition)."""
    fresh = SimpleModule(mod.ell, mod.k, mod.d, mod.p, mod.m)
    specs = {}
    fresh.reps = [OuterRep(rep.p, rep.lam) for rep in mod.reps]
    for rep in fresh.reps:
        rep.components = [specs.setdefault(c.shape, SpechtRep(c.shape)) for c in rep.components]
    fresh.outer = fresh.reps[0]
    return fresh


def _with_generator(mod, change):
    """A fresh copy of mod whose first Specht factor on 2 or more points has s_1 replaced by change(s_1); None if there is none."""
    fresh = _fresh_copy(mod)
    spec = next((c for rep in fresh.reps for c in rep.components if c.n >= 2), None)
    if spec is None:
        return None
    spec.gen_matrices[1] = change(spec.gen_matrices[1])
    return fresh


def _entry_changed(mod):
    # entry (0, 0) of s_1 plus one; an entry that becomes 0 leaves the dict
    def change(g):
        g = {**g, (0, 0): g.get((0, 0), 0) + 1}
        return {key: v for key, v in g.items() if v}

    return _with_generator(mod, change)


def _generator_negated(mod):
    return _with_generator(mod, lambda g: {key: -v for key, v in g.items()})


def _omega_changed(mod):
    fresh = _fresh_copy(mod)
    fresh.wrap += 1
    return fresh


MUTANTS = [_entry_changed, _generator_negated, _omega_changed]


@pytest.mark.parametrize("ell,k,d", [*GKD_GRID, (2, 2, 4), (4, 2, 3), (3, 3, 4)])
def test_end_base_walk_agrees_with_the_component_walk(ell, k, d):
    # action_block(q) is rho~ of a2^-1 o q o a1, so functoriality on the
    # component is multiplicativity of rho~ on End(base); the relations of
    # End(base) give the same verdict as the walk, on the true modules and
    # on each fault in the data their blocks are built from
    for _lam, p, m in quotient_labels(ell, k, d):
        mod = build_simple(ell, k, d, p, m)
        assert functorial(mod) and end_base_functorial(mod) and component_functorial(mod), mod
        for mutant in filter(None, (fault(mod) for fault in MUTANTS)):
            assert functorial(mutant) == end_base_functorial(mutant), (mutant, mutant.reps, mutant.wrap)


@pytest.mark.parametrize("ell,k,d", [(2, 1, 4), (2, 2, 4), (3, 3, 4)])
def test_presentation_check_reads_only_the_identity_block(monkeypatch, ell, k, d):
    # no walk: action_block is read once, at the identity of the base's orbit
    Q = quotient_groupoid(ell, k, d)
    for _lam, p, m in quotient_labels(ell, k, d):
        mod, read = _fresh_copy(build_simple(ell, k, d, p, m)), []
        monkeypatch.setattr(mod, "action_block", lambda q, real=mod.action_block, read=read: read.append(q) or real(q))
        assert functorial(mod) and read == [Q.identity(Q.orbit_of[mod.base])]


def test_both_walks_reject_a_block_wrong_inside_end_base(monkeypatch):
    ell, k, d = 2, 2, 4
    mod = build_simple(ell, k, d, ((1,), (1, 1, 1)), 1)
    Q = quotient_groupoid(ell, k, d)
    o = Q.orbit_of[mod.base]
    bad = _non_generator(Q, Q.hom(o, o), [Q.normalize(s) for s in simples._endo_generators(mod)])
    real, two = mod.action_block, Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "action_block", lambda q: scaled(real(q), two) if q == bad else real(q))
    assert not end_base_functorial(mod)
    assert not component_functorial(mod)


@pytest.mark.parametrize(
    "fault,p", [(_entry_changed, ((2, 1), (1,))), (_generator_negated, ((2, 1), (1,))), (_omega_changed, ((2,), (1, 1)))]
)
def test_presentation_check_rejects_each_fault_in_the_block_data(fault, p):
    # at (2,2,4), p = ((2,1),(1)) has a Specht factor on 3 points, where s_1
    # is in a braid relation; p = ((2),(1,1)) has r = 2 and s = 1, so
    # omega = 1 and omega xi has omega^r != 1
    mod = build_simple(2, 2, 4, p, 1)
    assert functorial(_fresh_copy(mod))
    mutant = fault(mod)
    assert not functorial(mutant) and not end_base_functorial(mutant)


def test_a_negated_generator_breaks_only_the_braid_relation():
    # S_(3,1): of the relations (s_i s_j)^m_ij = 1, only (s_1 s_2)^3 = 1 involves s_1 an odd number of times
    mod = build_simple(2, 1, 4, ((3, 1), ()), 1)
    spec = _generator_negated(mod).outer.components[0]
    g = {i: int_dense(m, spec.dim) for i, m in spec.gen_matrices.items()}
    one = int_matmul(g[1], g[1])

    def power(a, n):
        return a if n == 1 else int_matmul(power(a, n - 1), a)

    broken = [(i, j) for i in g for j in g if i <= j and power(int_matmul(g[i], g[j]), 1 if i == j else 3 if j == i + 1 else 2) != one]
    assert one == tuple(tuple(int(a == b) for b in range(spec.dim)) for a in range(spec.dim))
    assert broken == [(1, 2)] and not spec.coxeter_relations_hold
    assert not functorial(_generator_negated(mod))


def test_presentation_check_needs_the_conjugation_shift_c_minus_u(monkeypatch):
    # h maps position i of color c to the run of color c - u; at r = 2 the
    # shifts c - u and c + u agree, at r = 3 they do not
    real = simples._run_shift
    at_r3 = [build_simple(3, 3, 6, p, m) for _lam, p, m in quotient_labels(3, 3, 6)]
    at_r2 = [build_simple(2, 2, 4, p, m) for _lam, p, m in quotient_labels(2, 2, 4)]
    assert all(map(functorial, at_r3 + at_r2))
    monkeypatch.setattr(simples, "_run_shift", lambda lam, i, shift: real(lam, i, -shift))
    assert not all(map(functorial, at_r3))
    assert all(map(functorial, at_r2))


@pytest.mark.parametrize("ell,k,d", [(2, 2, 2), (3, 3, 3), (2, 2, 4), (4, 4, 2)])
def test_functoriality_walk_needs_the_canonical_rotation(monkeypatch, ell, k, d):
    # without it the walk stays in hom(base, base) = prod S_(lambda_c), a
    # proper subgroup of End(base) exactly where r > 1
    real = simples._endo_generators
    monkeypatch.setattr(simples, "_endo_generators", lambda mod: real(mod)[:-1])
    mods = [build_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    assert [functorial(mod) for mod in mods] == [mod.r == 1 for mod in mods]
    assert _status(quotient_simples_check(ell, k, d), FUNCTORIAL) == "fail"


@pytest.mark.parametrize("ell,k,d", [(2, 2, 3), (3, 1, 3), (2, 1, 3)])
def test_functoriality_walk_needs_every_transposition(monkeypatch, ell, k, d):
    # here r = 1 on every shape, so End(base) = prod S_(lambda_c), and one
    # adjacent transposition fewer generates a proper subgroup of it
    real = simples._endo_generators
    mods = [build_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    assert all(mod.r == 1 for mod in mods)
    dropped = 0
    for mod in mods:
        for i in range(len(real(mod)) - 1):
            monkeypatch.setattr(simples, "_endo_generators", lambda mod, i=i: real(mod)[:i] + real(mod)[i + 1 :])
            assert not functorial(mod), (mod, i)
            dropped += 1
        monkeypatch.setattr(simples, "_endo_generators", real)
    assert dropped


def test_end_base_blocks_pin_the_wrap_exponent_and_the_slot_map(monkeypatch):
    # (4,4,8), p = ((2),(1,1),(2),(1,1)): r = 4, s = 2 and copies = 2, so the
    # wrap from the last copy to the first scales by omega = xi^((l/s) m) = -1.
    # (3,3,9), p = ((2,1),(2,1),(3)): r = 3 and copies = 3 with two factors of
    # dimension 2, so at t = 2 the slot map c -> c + 2u moves indices other
    # than c -> c + u does.
    # Each groupoid is built for this test alone, outside the lru cache.
    for ell, k, d, p, copies in [(4, 4, 8, ((2,), (1, 1), (2,), (1, 1)), 2), (3, 3, 9, ((2, 1), (2, 1), (3,)), 3)]:
        Q = QuotientGroupoid(ell, k, d)
        monkeypatch.setattr(reference, "quotient_groupoid", lambda *_args, Q=Q: Q)
        mod = SimpleModule(ell, k, d, p, 1)
        assert (mod.copies, mod.block_dim) == (copies, sum(rep.dim for rep in mod.reps))
        o = Q.orbit_of[mod.base]
        endos = Q.hom(o, o)
        assert len(endos) == mod.r * prod(map(factorial, mod.lam))
        for q in endos:
            assert mod.action_block(q) == quotient_action_block(mod, q), q


def test_rotation_check_skips_a_p_that_is_not_stabilizer_invariant():
    # at (2,2,4), p = ([1,1],[2]) has shape (2,2), fixed by the rotation, but p is not
    rep = rotation_eigenspace_check(2, 2, 4)
    skipped = [c for c in rep["checks"] if c["status"] == "skip"]
    assert [c["name"] for c in skipped] == ["rotation eigenspaces for p=[[1, 1], [2]]"]
    assert skipped[0]["details"] == {"reason": "p not stabilizer-invariant"}
    assert rep["ok"]
    assert all(c["status"] == "pass" for c in rep["checks"] if c not in skipped)


def _rotation_failures(ell, k, d):
    """{p: failure} for the rotation checks that fail."""
    rep = rotation_eigenspace_check(ell, k, d)
    return {c["name"]: c["details"]["failure"] for c in rep["checks"] if c["status"] == "fail"}


def test_rotation_check_fails_for_generators_outside_gkd(monkeypatch):
    # the color generator of S(2,2) lies outside G(2,2,2): theta turns its
    # scalar xi^f(1) into xi^(f(1)+1) on every block, so it anticommutes with theta
    rep = rotation_eigenspace_check(2, 2, 2)  # tabulates classes and simples before the patch
    monkeypatch.setattr(gkd, "gkd_generators", lambda ell, k, d: generators(ell, d))
    failures = _rotation_failures(2, 2, 2)
    assert sorted(failures) == sorted(c["name"] for c in rep["checks"])
    assert set(failures.values()) == {"theta does not commute with the invariant algebra"}


def test_rotation_check_fails_for_theta_of_the_wrong_order(monkeypatch):
    # the first slot map with its first two entries swapped: at (2,2,4) every
    # label whose blocks have dimension >= 2 has two summands with identity
    # slot maps, so theta^2 becomes that transposition, not 1; a label with
    # 1-dimensional blocks has no two entries to swap and still passes
    ell, k, d = 2, 2, 4
    rep = rotation_eigenspace_check(ell, k, d)
    real = gkd._rotation_module

    def swapped(Q, lam, p):
        summands, (first, *rest) = real(Q, lam, p)
        return summands, [(first[1], first[0], *first[2:]) if len(first) > 1 else first, *rest]

    monkeypatch.setattr(gkd, "_rotation_module", swapped)
    Q = quotient_groupoid(ell, k, d)
    wide = {
        f"rotation eigenspaces for p={[list(q) for q in p]}"
        for lam, p in _invariant_labels(Q)
        if len(gkd._rotation_module(Q, lam, p)[1][0]) > 1
    }
    assert len(wide) == 4
    failures = _rotation_failures(ell, k, d)
    assert set(failures) == wide
    assert set(failures.values()) == {"theta_k does not have order k on the rotation module"}
    assert rep["ok"]


def test_rotation_check_fails_for_one_wrong_character_value(monkeypatch):
    # L_(p,1) of every p gets one wrong class value: its eigenspace matches no label
    ell, k, d = 2, 2, 2
    rep = rotation_eigenspace_check(ell, k, d)
    real = gkd.class_character

    def perturbed(mod):
        table = list(real(mod))
        if mod.m == 1:
            table[0] = table[0] + Cyc.one(ell)
        return tuple(table)

    monkeypatch.setattr(gkd, "class_character", perturbed)
    failures = _rotation_failures(ell, k, d)
    assert sorted(failures) == sorted(c["name"] for c in rep["checks"])
    assert all(f.startswith("eigenspace m=") and f.endswith("does not match a unique L_(p,m)") for f in failures.values())


def test_rotation_check_fails_for_wrong_multiplicities(monkeypatch):
    # with the projector weights xi_2^(-2jm) = 1 both projectors are (1 + theta)/2:
    # at p = ([1],[1]) the one eigenspace is counted twice for one L_(p,m) and
    # never for the other; where r = 1 both eigenspaces match L_(p,1) anyway.
    # The weight xi_k^(-2jm) is the weight of eigenspace 2m, so the fault
    # reports E_(2m mod k) in place of each E_m.
    rotation_eigenspace_check(2, 2, 2)  # builds the L_(p,m) with the true roots of unity
    real = gkd._eigenspace_traces

    def doubled(twisted):
        out, k = real(twisted), len(twisted[0])
        return [out[(2 * m - 1) % k] for m in range(1, k + 1)]

    monkeypatch.setattr(gkd, "_eigenspace_traces", doubled)
    assert _rotation_failures(2, 2, 2) == {
        "rotation eigenspaces for p=[[1], [1]]": "eigenspace multiplicities do not match k/r"
    }


def test_rotation_check_fails_for_a_zero_dimensional_eigenspace(monkeypatch):
    # the first eigenspace is reported empty: its zero character matches no L_(p,m)
    ell, k, d = 2, 2, 2
    rep = rotation_eigenspace_check(ell, k, d)
    real = gkd._eigenspace_traces

    def emptied(twisted):
        (_dim, char), *rest = real(twisted)
        return [(0, tuple(Cyc.zero(ell) for _ in char))] + rest

    monkeypatch.setattr(gkd, "_eigenspace_traces", emptied)
    failures = _rotation_failures(ell, k, d)
    assert sorted(failures) == sorted(c["name"] for c in rep["checks"])
    assert set(failures.values()) == {"eigenspace m=1 does not match a unique L_(p,m)"}


def _invariant_labels(Q):
    """(lambda, p) for lambda in Gamma and every p that the rotation check runs on."""
    for lam in gamma_cross_section(Q.ell, Q.k, Q.d):
        r = stabilizer_order(lam, Q.k)
        for p in multipartitions(lam):
            if stabilizer_order(p, r) == r:
                yield lam, p


def _permutation_matrix(ell, perm):
    """The matrix P with P e_a = e_perm[a]."""
    n = len(perm)
    return Mat.from_entries(ell, n, n, (((b, a), Cyc.one(ell)) for a, b in enumerate(perm)))


@pytest.mark.parametrize("ell,k,d", [(2, 2, 2), (3, 3, 2), (4, 2, 2), (2, 2, 4), (3, 3, 3), (4, 4, 2)])
def test_rotation_theta_is_a_bijection_of_the_basis(ell, k, d):
    Q = quotient_groupoid(ell, k, d)
    for lam, p in _invariant_labels(Q):
        summands, slots = gkd._rotation_module(Q, lam, p)
        assert all(sorted(slot) == list(range(len(slot))) for slot in slots)
        theta = rotation_theta(Q, summands)
        assert sorted(theta) == list(range(len(theta)))
        assert act_total(summands, wreath_identity(ell, d)) == Mat.identity(ell, len(theta))


def _eigenspaces_by_kernel_basis(theta, k, mats):
    """The route the check replaced: a basis of each kernel of theta - xi_k^m, and each
    A in mats expressed in it."""
    ell, n = theta.ell, theta.nrows
    out = []
    for m in range(1, k + 1):
        shifted = mat_sub(theta, mat_scale(Mat.identity(ell, n), root_of_unity(ell, (ell // k) * m)))
        basis = kernel_basis(ell, [list(row) for row in shifted.rows], n)
        solver = LinSolver(ell, n, [to_sparse(vec) for vec in basis])
        traces = []
        for A in mats:
            tr = Cyc.zero(ell)
            for i, vec in enumerate(basis):
                image = [sum((a * b for a, b in zip(row, vec)), Cyc.zero(ell)) for row in A.rows]
                tr = tr + solver.express(to_sparse(image)).get(i, Cyc.zero(ell))
            traces.append(tr)
        out.append((len(basis), tuple(traces)))
    return out


# at (3,3,3), p = ([1],[1],[1]) has three eigenspaces with distinct characters,
# which tells the xi_3-eigenspace from the xi_3^2 one
@pytest.mark.parametrize("ell,k,d", [(2, 2, 2), (3, 3, 2), (4, 2, 2), (2, 2, 4), (3, 3, 3), (4, 4, 2)])
def test_projector_traces_match_explicit_eigenspaces(ell, k, d):
    Q = quotient_groupoid(ell, k, d)
    classes = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    labels = list(_invariant_labels(Q))
    assert labels
    for lam, p in labels:
        summands, _slots = gkd._rotation_module(Q, lam, p)
        theta = rotation_theta(Q, summands)
        mats = [act_total(summands, x) for x in classes]
        reference = _eigenspaces_by_kernel_basis(_permutation_matrix(ell, theta), k, mats)
        twisted = gkd._twisted_traces(Q, summands, slot_powers(Q, summands), gkd._rotated_terms(Q, classes))
        assert gkd._eigenspace_traces(twisted) == reference


@pytest.mark.parametrize("ell,k,d", [*GKD_GRID, (2, 2, 4), (4, 2, 3)])
def test_twisted_traces_read_from_phi_match_the_dense_matrices(ell, k, d):
    # tr(theta^j A_x) from the monomial terms of Phi(x) and the cached blocks
    # equals sum_a A[a][theta^j(a)] on the dense total x total matrix of x
    Q = quotient_groupoid(ell, k, d)
    classes = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    rotated_terms = gkd._rotated_terms(Q, classes)
    for lam, p in _invariant_labels(Q):
        summands, _slots = gkd._rotation_module(Q, lam, p)
        traces = gkd._twisted_traces(Q, summands, slot_powers(Q, summands), rotated_terms)
        twisted = [tuple(Cyc.from_exponent_sums(ell, bins) for bins in tr) for tr in traces]
        dense = dense_twisted_traces(rotation_theta(Q, summands), lambda x: act_total(summands, x), k, classes)
        assert twisted == dense, (lam, p)


@pytest.mark.parametrize("ell,k,d", [*GKD_GRID, (2, 2, 4), (4, 2, 3)])
def test_term_wise_commutation_matches_the_dense_route(ell, k, d):
    # theta A_g = A_g theta read from the terms of Phi(g) and the slot maps
    # gives the verdict of permuted(A_g, theta) == A_g on the dense matrix, for
    # the generators of G(l,k,d) (all commute) and of S(l,d); for k > 1 the
    # color generator of S(l,d) lies outside G(l,k,d) and fails on both routes
    Q = quotient_groupoid(ell, k, d)
    verdicts = {"G(l,k,d)": [], "S(l,d)": []}
    for lam, p in _invariant_labels(Q):
        summands, slots = gkd._rotation_module(Q, lam, p)
        for group, gens in (("G(l,k,d)", gkd.gkd_generators(ell, k, d)), ("S(l,d)", generators(ell, d))):
            for g in gens:
                verdict = gkd._commutes_with_theta(Q, summands, slots, g)
                assert verdict == dense_commutes(Q, summands, g), (lam, p, g)
                verdicts[group].append(verdict)
    assert verdicts["G(l,k,d)"] and all(verdicts["G(l,k,d)"])
    assert (False in verdicts["S(l,d)"]) == (k > 1)


# Facts of the quotient that hold by construction, so quotient_structure_report
# leaves them out: exhaustive unit tests of QuotientGroupoid.translate/compose,
# hom and the canonical rotation.


def test_term_wise_commutation_reads_the_slot_maps():
    # at (2,2,4), p = ((), (3, 1)) has two summands with 3-dimensional blocks
    # and identity slot maps; swapping two indices of the first relabels the
    # block of some generator of G(2,2,4) wrongly, while the identity, whose
    # blocks are identity matrices, still commutes
    Q = quotient_groupoid(2, 2, 4)
    summands, slots = gkd._rotation_module(Q, (0, 4), ((), (3, 1)))
    assert slots == [(0, 1, 2), (0, 1, 2)]
    gens = gkd.gkd_generators(2, 2, 4)
    assert all(gkd._commutes_with_theta(Q, summands, slots, g) for g in gens)
    swapped = [(1, 0, 2), (0, 1, 2)]
    assert not all(gkd._commutes_with_theta(Q, summands, swapped, g) for g in gens)
    assert gkd._commutes_with_theta(Q, summands, swapped, wreath_identity(2, 4))


@pytest.mark.parametrize("ell,k,d", [*GKD_GRID, (2, 2, 4), (4, 2, 3)])
def test_identity_class_comes_first(ell, k, d):
    # the rotation check reads dim E_m as the eigenspace character at the first class
    assert gkd_conjugacy_classes(ell, k, d)[0] == (wreath_identity(ell, d), 1)


def _all_pairs_independence(Q):
    """Every composable pair of quotient morphisms, recomposed from each rotated representative."""
    qms = Q.all_qmorphisms()
    by_source = {}
    for q in qms:
        by_source.setdefault(Q.source_orbit(q), []).append(q)
    for q1 in qms:
        for q2 in by_source.get(Q.target_orbit(q1), []):
            for t1 in range(1, Q.k):
                m1 = Q.translate(q1, t1)
                m2 = Q.translate(q2, Q._translate_exponent(q2.source, m1.target))
                if Q.normalize(compose(m2, m1)) != Q.compose(q2, q1):
                    return False
    return True


def _canonical_rotation(Q, oi):
    """The order-preserving endomorphism of orbit oi onto theta^(l/r) of its representative."""
    f = Q.rep(oi)
    r = stabilizer_order(type_of(f, Q.ell), Q.k)
    return Q.normalize(canonical_morphism(f, theta_object(f, Q.ell // r, Q.ell), Q.ell))


def _color_preserving(f, ell):
    """hom(f, f) by brute force: the permutations sigma with f o sigma = f."""
    return {
        GMorphism(f, f, perm)
        for perm in permutations(range(1, len(f) + 1))
        if all(f[j - 1] == c for c, j in zip(f, perm))
    }


def _all_pairs_endo_rows(Q):
    """Per orbit, the Lemma-51 count and every endomorphism conjugating every color-preserving one."""
    ell, rows = Q.ell, []
    for oi in range(len(Q.orbits)):
        info = endo_structure(Q, oi)
        f = Q.rep(oi)
        inner = set(hom(f, f, ell))
        ok = info["cardinality_ok"] and len(inner) == prod(map(factorial, info["type"]))
        ok = ok and all(Q.compose(Q.compose(q, n), Q.normalize(inverse(q))) in inner for q in info["endos"] for n in inner)
        rows.append({"orbit": list(f), "stabilizer": info["stabilizer_order"], "endos": info["endo_count"], "ok": ok})
    return rows


ENDO_CHECK = "|endo| = |stabilizer| * lam!"
STRUCTURE_REFERENCE_POINTS = [(3, 1, 4), (2, 2, 4), (4, 2, 3), (3, 3, 3), (6, 3, 2)]
STRUCTURE_POINTS = STRUCTURE_REFERENCE_POINTS + [(1, 1, 3), (2, 2, 1), (4, 4, 2)]


@pytest.mark.parametrize("ell,k,d", STRUCTURE_POINTS)
def test_quotient_composition_is_independent_of_representatives(ell, k, d):
    # theta_morphism keeps the permutation and compose composes permutations,
    # so theta_k is a functor and theta_k^t(s) o theta_k^t(x) normalizes to s o x
    assert _all_pairs_independence(quotient_groupoid(ell, k, d))


@pytest.mark.parametrize("ell,k,d", STRUCTURE_POINTS)
def test_color_preserving_endomorphisms_are_the_kernel_of_the_target_exponent(ell, k, d):
    # Q.compose adds target exponents mod k, so End(f) -> Z/k is a homomorphism;
    # its kernel is hom(f, f), which is therefore normal in End(f)
    Q = quotient_groupoid(ell, k, d)
    for oi in range(len(Q.orbits)):
        f, endos = Q.rep(oi), set(Q.hom(oi, oi))
        products = {(a, b): Q.compose(b, a) for a in endos for b in endos}
        assert set(products.values()) == endos
        exponent = {q: Q.exponent[q.target] for q in endos}
        assert all(exponent[ba] == (exponent[a] + exponent[b]) % k for (a, b), ba in products.items())
        inner = set(groupoid.hom(f, f, ell))
        assert inner == _color_preserving(f, ell)
        assert {q for q in endos if exponent[q] == 0} == inner


@pytest.mark.parametrize("ell,k,d", STRUCTURE_POINTS)
def test_canonical_rotation_has_order_r(ell, k, d):
    # order-preserving maps compose to order-preserving maps, so h^j = id exactly
    # when theta^(j l/r) fixes f; freeness makes that j = 0 mod r
    Q = quotient_groupoid(ell, k, d)
    for oi in range(len(Q.orbits)):
        r = stabilizer_order(type_of(Q.rep(oi), ell), k)
        h, power = _canonical_rotation(Q, oi), Q.identity(oi)
        for j in range(1, r + 1):
            power = Q.compose(h, power)
            assert (power == Q.identity(oi)) == (j == r)


def _endo_walks(Q, oi):
    """What the s_i moved to the representative f reach in End(f), and what they reach with the canonical rotation."""
    ell, f = Q.ell, Q.rep(oi)
    lam = type_of(f, ell)
    a = canonical_morphism(canonical_object(lam), f, ell)
    n_gens = [compose(a, compose(s, inverse(a))) for s in component_generators(ell, lam) if s.source == s.target]
    walk = lambda gens: gkd._closure(Q, gens, [oi], lambda s, x, y: True)
    return walk(n_gens), walk(n_gens + [_canonical_rotation(Q, oi)])


@pytest.mark.parametrize("ell,k,d", STRUCTURE_REFERENCE_POINTS)
def test_structure_walks_agree_with_the_all_pairs_loops(ell, k, d):
    # the report's rows hold only the Lemma-51 count; the all-pairs rows also
    # need normality by conjugation.  The generator walks show that
    # N = hom(f, f) and the canonical rotation together generate End(f).
    Q = quotient_groupoid(ell, k, d)
    rep = quotient_structure_report(ell, k, d)
    endo = next(c for c in rep["checks"] if c["name"] == ENDO_CHECK)
    assert endo["details"]["orbits"] == _all_pairs_endo_rows(Q)
    assert endo["status"] == "pass"
    for oi in range(len(Q.orbits)):
        inner, endos = _endo_walks(Q, oi)
        assert inner == set(hom(Q.rep(oi), Q.rep(oi), ell)) and endos == set(Q.hom(oi, oi))


def test_independence_check_catches_theta_wrong_on_one_morphism(monkeypatch):
    ell, k, d = 2, 2, 3
    Q = quotient_groupoid(ell, k, d)
    bad = _non_generator(Q, Q.all_qmorphisms(), gkd._quotient_generators(Q, gamma_cross_section(ell, k, d)))
    real = QuotientGroupoid.translate

    def translate(self, m, t):
        out = real(self, m, t)
        return out._replace(perm=out.perm[::-1]) if m == bad and t % self.k else out

    monkeypatch.setattr(QuotientGroupoid, "translate", translate)
    with pytest.raises(AssertionError):
        test_quotient_composition_is_independent_of_representatives(ell, k, d)
    # the report composes nothing, so only the unit test sees the fault
    assert quotient_structure_report(ell, k, d)["ok"]


@pytest.mark.parametrize("ell,k,d,f", [(2, 1, 4, (1, 1, 1, 2)), (2, 2, 4, (1, 1, 2, 2))])
def test_normality_check_catches_one_wrong_color_preserving_morphism(monkeypatch, ell, k, d, f):
    # one element of hom(f, f) other than a transposition is replaced by a map that mixes colors
    Q = quotient_groupoid(ell, k, d)
    assert Q.exponent[f] == 0
    real = groupoid.hom
    members = real(f, f, ell)
    bad = next(m for m in members if sum(a != i for i, a in enumerate(m.perm, start=1)) > 2)
    wrong = bad._replace(perm=bad.perm[::-1])
    assert wrong not in members
    monkeypatch.setattr(groupoid, "hom", lambda g, h, ell: [wrong if m == bad else m for m in real(g, h, ell)])
    with pytest.raises(AssertionError):
        test_color_preserving_endomorphisms_are_the_kernel_of_the_target_exponent(ell, k, d)


def test_endo_check_catches_a_dropped_morphism(monkeypatch):
    ell, k, d = 2, 2, 4
    Q = quotient_groupoid(ell, k, d)
    f = (1, 1, 2, 2)
    real = groupoid.hom
    monkeypatch.setattr(groupoid, "hom", lambda g, h, ell: real(g, h, ell)[1:] if (g, h) == (f, f) else real(g, h, ell))
    rep = quotient_structure_report(ell, k, d)
    assert _status(rep, ENDO_CHECK) == "fail"
    rows = next(c for c in rep["checks"] if c["name"] == ENDO_CHECK)["details"]["orbits"]
    assert [row["orbit"] for row in rows if not row["ok"]] == [list(f)]


@pytest.mark.parametrize("ell,k,d", STRUCTURE_POINTS)
def test_structure_report_composes_within_the_walk_bounds(monkeypatch, ell, k, d):
    # The report's checks count objects and morphisms: it walks nothing and
    # composes nothing, so both bounds are zero.
    def forbidden(*args):
        raise AssertionError("quotient_structure_report composed a morphism or walked")

    for module in (gkd, groupoid):
        monkeypatch.setattr(module, "compose", forbidden)
    monkeypatch.setattr(gkd, "_closure", forbidden)
    rep = quotient_structure_report(ell, k, d)
    assert rep["ok"] and len(rep["checks"]) == 4


@pytest.mark.parametrize("ell,k,d", [*GKD_GRID, (2, 2, 4), (4, 2, 3)])
def test_quotient_action_blocks_match_the_dense_rotation_product(ell, k, d):
    # every morphism of every component, including the labels with two copies V_j
    for _lam, p, m in quotient_labels(ell, k, d):
        mod = build_simple(ell, k, d, p, m)
        for q in component_morphisms(mod):
            assert mod.action_block(q) == quotient_action_block(mod, q)




IDENTITY_POINTS = [*GKD_GRID, (2, 2, 4), (4, 2, 3), (3, 3, 4)]


def test_identities_read_one_cached_block_the_identity_matrix():
    # at every object of every module, anchor or not, id_f is carried to the block key
    # (0, identity) and that block is I: the completeness checks compare it
    # with I once, in _presentation_holds, for all of them.  The modules are
    # built fresh, so their block caches hold only what the identities read.
    mods = [SimpleModule(ell, 1, d, m.p, 1) for ell, d in ISO_GRID for m in all_simples(ell, d)]
    mods += [SimpleModule(ell, k, d, p, m) for ell, k, d in IDENTITY_POINTS for _lam, p, m in quotient_labels(ell, k, d)]
    for mod in mods:
        one = sparse(Mat.identity(mod.ell, mod.block_dim))
        assert all(mod.action_block(identity_morphism(f)) == one for f in mod.to_anchor), mod
        assert list(mod._mat_cache) == [(0, tuple(range(1, mod.d + 1)))], mod
        assert simples.total_dim_check(mod), mod


def test_dimension_check_fails_for_a_module_with_one_anchor_removed(monkeypatch):
    # (2,2,3), p = ((1,), (2,)): three anchors; without one, total_dim * s
    # falls short of (d!/lam!) dim S_p
    ell, k, d, p = 2, 2, 3, ((1,), (2,))
    real = gkd.build_simple
    short = SimpleModule(ell, k, d, p, 1)
    assert len(short.objects) == 3 and simples.total_dim_check(short)
    short.objects.pop()
    assert not simples.total_dim_check(short)
    monkeypatch.setattr(gkd, "build_simple", lambda *args: short if args == (ell, k, d, p, 1) else real(*args))
    assert _status(quotient_simples_check(ell, k, d), DIMENSION) == "fail"
    monkeypatch.undo()
    assert _status(quotient_simples_check(ell, k, d), DIMENSION) == "pass"


def test_every_anchor_acts_as_identity_and_the_base_commutant_is_one():
    # on every module of the simples and gkd grids; the full component solve agrees
    mods = [m for ell, d in ISO_GRID for m in all_simples(ell, d)]
    mods += [build_simple(ell, k, d, p, m) for ell, k, d in GKD_GRID for _lam, p, m in quotient_labels(ell, k, d)]
    assert len(mods) == 195
    for mod in mods:
        one = sparse(Mat.identity(mod.ell, mod.block_dim))
        assert all(mod.action_block(a) == one for a in mod.anchors), mod
        assert _commutant_dim(mod) == component_commutant_dim(mod) == 1, mod


def test_the_blocks_the_commutant_reads_are_sparse_and_in_range(monkeypatch):
    # the {(row, col): Cyc} contract of cyclo.intertwiners: every block that
    # _commutant_dim reads has its keys inside block_dim x block_dim and no
    # zero value, on every module of the simples and gkd grids and two points beyond
    mods = [m for ell, d in ISO_GRID for m in all_simples(ell, d)]
    mods += [build_simple(ell, k, d, p, m) for ell, k, d in [*GKD_GRID, (2, 2, 4), (4, 2, 3)] for _lam, p, m in quotient_labels(ell, k, d)]
    for mod in mods:
        read = []
        monkeypatch.setattr(mod, "action_block", lambda q, real=mod.action_block, read=read: read.append(real(q)) or read[-1])
        assert _commutant_dim(mod) == 1, mod
        n = mod.block_dim
        assert len(read) == len(mod.anchors) + len(simples._endo_generators(mod)), mod
        for block in read:
            assert all(0 <= i < n and 0 <= j < n for i, j in block), mod
            assert all(v.ell == mod.ell and not v.is_zero() for v in block.values()), mod


def test_commutant_check_fails_for_one_anchor_scaled_by_two(monkeypatch):
    # a k = 2 module with two blocks: the full component solve still finds
    # dimension 1, the anchor step of the base-block routine does not pass it
    ell, k, d = 2, 2, 3
    mod = build_simple(ell, k, d, ((1,), (2,)), 1)
    assert len(mod.anchors) == 3
    class_character(mod)  # tabulated before the action is replaced, so the cache stays right
    anchor = mod.anchors[1]
    real, two = mod.action_block, Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "action_block", lambda q: scaled(real(q), two) if q == anchor else real(q))
    assert component_commutant_dim(mod) == 1
    assert _commutant_dim(mod) is None
    check = next(c for c in quotient_simples_check(ell, k, d)["checks"] if c["name"] == COMMUTANT)
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [gkd._label_json(mod)]


def test_commutant_check_fails_for_end_base_generators_acting_trivially(monkeypatch):
    # (2,2,4), p = ((1,), (2, 1)): four blocks of dim 2, anchors untouched
    ell, k, d = 2, 2, 4
    mod = build_simple(ell, k, d, ((1,), (2, 1)), 1)
    class_character(mod)  # tabulated before the action is replaced, so the cache stays right
    gens = set(simples._endo_generators(mod))
    real = mod.action_block
    monkeypatch.setattr(mod, "action_block", lambda q: sparse(Mat.identity(ell, mod.block_dim)) if q in gens else real(q))
    assert _commutant_dim(mod) == mod.block_dim**2 == 4
    check = next(c for c in quotient_simples_check(ell, k, d)["checks"] if c["name"] == COMMUTANT)
    assert check["details"]["failures"] == [gkd._label_json(mod)]
