from types import SimpleNamespace

import pytest

from groupoidreps import gkd
from groupoidreps.cyclo import Cyc, LinSolver, Mat, kernel_basis, root_of_unity
from groupoidreps.gkd import (
    build_quotient_simple,
    restriction_check,
    endo_structure,
    gamma_cross_section,
    gkd_conjugacy_classes,
    rotation_eigenspace_check,
    quotient_groupoid,
    quotient_labels,
    quotient_structure_report,
    reflection_span_check,
    quotient_simples_check,
    theta_morphism,
    theta_object,
    theta_type,
)
from groupoidreps.groupoid import canonical_morphism, identity_morphism, type_of
from groupoidreps.simples import all_simples
from groupoidreps.tableaux import multipartitions
from groupoidreps.wreath import generators, wreath_identity

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


def test_one_object_case():
    Q = quotient_groupoid(2, 2, 1)
    assert len(Q.orbits) == 1
    assert len(Q.hom(0, 0)) == 1


def test_total_quotient_dimension():
    Q = quotient_groupoid(2, 2, 2)
    assert len(Q.all_qmorphisms()) == 4


def test_psi_unit_and_example():
    Q = quotient_groupoid(2, 2, 1)
    ps = Q.psi(Q.identity(0))
    assert ps.terms == {
        identity_morphism((1,)): Cyc.one(2),
        identity_morphism((2,)): Cyc.one(2),
    }


def test_structure_reports():
    for ell, k, d in GRID:
        rep = quotient_structure_report(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_reflection_span():
    for ell, k, d in GRID + [(3, 1, 2)]:
        rep = reflection_span_check(ell, k, d)
        assert rep["ok"], (ell, k, d, rep)


def test_phi_to_quotient_rejects_nonmembers():
    from groupoidreps.wreath import generators

    Q = quotient_groupoid(2, 2, 2)
    s0 = generators(2, 2)[0]
    with pytest.raises(ValueError):
        Q.phi_to_quotient(s0)


def test_labels_222():
    labels = quotient_labels(2, 2, 2)
    assert len(labels) == 4
    mods = [build_quotient_simple(2, 2, 2, p, m) for (_l, p, m) in labels]
    assert [m.total_dim for m in mods] == [1, 1, 1, 1]
    # the two labels over ((1),(1)) are distinguished by the sign of the
    # color-swapping endomorphism
    pair = [m for m in mods if m.p == ((1,), (1,))]
    assert len(pair) == 2
    Q = pair[0].Q
    oi = pair[0].component[0]
    rot = [q for q in Q.hom(oi, oi) if q != Q.identity(oi)][0]
    vals = sorted(str(m.action_block(rot).rows[0][0].coeffs) for m in pair)
    assert vals == [str((Cyc.rational(2, -1)).coeffs), str((Cyc.one(2)).coeffs)]


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
            mod = build_quotient_simple(ell, k, d, p, m)
            fresh = []
            for rep, _size in gkd_conjugacy_classes(ell, k, d):
                acc = Cyc.zero(ell)
                for q, coeff in Q.phi_to_quotient(rep).items():
                    if Q.source_orbit(q) == Q.target_orbit(q) and Q.source_orbit(q) in mod.block_index:
                        acc = acc + coeff * mod.action_block(q).trace()
                fresh.append(acc)
            assert mod.class_character == tuple(fresh), (ell, k, d, p, m)


def test_restriction_check_reads_the_shared_table(monkeypatch):
    ell, k, d = 2, 2, 2
    _lam, p, m = quotient_labels(ell, k, d)[0]
    mod = build_quotient_simple(ell, k, d, p, m)
    table = list(mod.class_character)
    # adding |G(2,2,2)| = 4 at the identity class shifts an integer multiplicity by dim L_p
    reps = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    identity_class = reps.index(wreath_identity(ell, d))
    table[identity_class] = table[identity_class] + Cyc.rational(ell, 4)
    monkeypatch.setattr(mod, "class_character", tuple(table))
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
    mod = build_quotient_simple(ell, k, d, p, m)
    table = list(mod.class_character)
    # 2 is not a multiple of |G(2,2,2)| = 4: the multiplicity of this label moves by a half
    reps = [rep for rep, _size in gkd_conjugacy_classes(ell, k, d)]
    identity_class = reps.index(wreath_identity(ell, d))
    table[identity_class] = table[identity_class] + Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "class_character", tuple(table))
    rep = restriction_check(ell, k, d)
    # the shift is dim L_p / 2, so exactly the simples of odd dimension see a half
    flagged = [c for c in rep["checks"] if "non_integral" in c["details"]]
    odd = [f"restriction of L_{s.label_json()}" for s in all_simples(ell, d) if s.total_dim % 2]
    assert [c["name"] for c in flagged] == odd
    assert all(c["status"] == "fail" and c["details"]["non_integral"] == [mod.label_json()] for c in flagged)


def test_quotient_commutant_check_fails_for_a_module_acting_trivially(monkeypatch):
    ell, k, d = 2, 2, 3
    mods = [build_quotient_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    mod = next(m for m in mods if m.block_dim > 1)
    mod.class_character  # tabulated before the action is replaced, so the cache stays right
    monkeypatch.setattr(mod, "action_block", lambda q: Mat.identity(ell, mod.block_dim))
    rep = quotient_simples_check(ell, k, d)
    check = next(c for c in rep["checks"] if c["name"] == "commutant of each L_(p,m) has dim 1")
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [mod.label_json()]


def _status(rep, name):
    return next(c["status"] for c in rep["checks"] if c["name"] == name)


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
    real = gkd.QuotientGroupoid.psi
    two = Cyc.rational(ell, 2)
    monkeypatch.setattr(gkd.QuotientGroupoid, "psi", lambda self, q: real(self, q).scale(two) if q == bad else real(self, q))
    rep = reflection_span_check(ell, k, d)
    # the supports are untouched, so only the product check sees the fault
    assert _status(rep, "Psi injective (disjoint orbit supports)") == "pass"
    assert _status(rep, "Psi multiplicative on the basis") == "fail"


@pytest.mark.parametrize("fault", ["outside its corner", "scaled"])
def test_psi_check_catches_a_wrong_identity_image(monkeypatch, fault):
    # At (2,1,1) the components are single objects with no generators, so no
    # product reaches their identities.  Psi(e_0) + e_(2) is still idempotent
    # and multiplies correctly with everything composable: only the support
    # check sees it.  2 Psi(e_0) is seen only by the identity step, Psi(e_0)^2.
    from groupoidreps.algebra import AlgElem

    ell, k, d = 2, 1, 1
    Q = quotient_groupoid(ell, k, d)
    e0 = Q.identity(0)
    real = gkd.QuotientGroupoid.psi
    wrong = {
        "outside its corner": lambda image: image + AlgElem.idempotent(ell, Q.rep(1)),
        "scaled": lambda image: image.scale(Cyc.rational(ell, 2)),
    }[fault]
    monkeypatch.setattr(gkd.QuotientGroupoid, "psi", lambda self, q: wrong(real(self, q)) if q == e0 else real(self, q))
    assert _status(reflection_span_check(ell, k, d), "Psi multiplicative on the basis") == "fail"


def test_generator_checks_reject_a_non_generating_set(monkeypatch):
    # without the s_i at the base objects the endomorphism groups are not reached
    real = gkd.component_generators
    monkeypatch.setattr(gkd, "component_generators", lambda ell, lam: [m for m in real(ell, lam) if m.source != m.target])
    assert _status(reflection_span_check(2, 2, 3), "Psi multiplicative on the basis") == "fail"
    assert _status(quotient_simples_check(2, 2, 3), "L_(p,m) functorial") == "fail"


def test_functoriality_check_catches_action_wrong_off_generators(monkeypatch):
    ell, k, d = 2, 2, 3
    mods = [build_quotient_simple(ell, k, d, p, m) for _lam, p, m in quotient_labels(ell, k, d)]
    mod = next(m for m in mods if m.block_dim > 1)
    mod.class_character  # tabulated before the action is replaced, so the cache stays right
    Q, comp = mod.Q, mod.component
    bad = _non_generator(Q, [q for o1 in comp for o2 in comp for q in Q.hom(o1, o2)], gkd._quotient_generators(Q, [mod.lam]))
    real = mod.action_block
    two = Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "action_block", lambda q: real(q).scale_cyc(two) if q == bad else real(q))
    rep = quotient_simples_check(ell, k, d)
    # the generators and identities act as before, so only functoriality sees the fault
    assert _status(rep, "L_(p,m) functorial") == "fail"
    assert _status(rep, "commutant of each L_(p,m) has dim 1") == "pass"
    assert _status(rep, "identity quotient morphisms act as identity") == "pass"


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
    # 2 theta commutes with the action as theta does, but (2 theta)^3 = 8
    rep = rotation_eigenspace_check(3, 3, 2)
    real = gkd._slot_rotation
    monkeypatch.setattr(gkd, "_slot_rotation", lambda ell, dims, slot, scalar: real(ell, dims, slot, scalar.scale(2)))
    failures = _rotation_failures(3, 3, 2)
    assert sorted(failures) == sorted(c["name"] for c in rep["checks"])
    assert set(failures.values()) == {"theta_k does not have order k on the rotation module"}


def test_rotation_check_fails_for_one_wrong_character_value(monkeypatch):
    # L_(p,1) of every p gets one wrong class value: its eigenspace matches no label
    ell, k, d = 2, 2, 2
    rep = rotation_eigenspace_check(ell, k, d)
    real = gkd.build_quotient_simple

    def perturbed(ell, k, d, p, m):
        table = list(real(ell, k, d, p, m).class_character)
        if m == 1:
            table[0] = table[0] + Cyc.one(ell)
        return SimpleNamespace(class_character=tuple(table))

    monkeypatch.setattr(gkd, "build_quotient_simple", perturbed)
    failures = _rotation_failures(ell, k, d)
    assert sorted(failures) == sorted(c["name"] for c in rep["checks"])
    assert all(f.startswith("eigenspace m=") and f.endswith("does not match a unique L_(p,m)") for f in failures.values())


def test_rotation_check_fails_for_wrong_multiplicities(monkeypatch):
    # with the projector weights xi_2^(-2jm) = 1 both projectors are (1 + theta)/2:
    # at p = ([1],[1]) the one eigenspace is counted twice for one L_(p,m) and
    # never for the other; where r = 1 both eigenspaces match L_(p,1) anyway
    rotation_eigenspace_check(2, 2, 2)  # builds the L_(p,m) with the true roots of unity
    real = gkd.root_of_unity
    monkeypatch.setattr(gkd, "root_of_unity", lambda ell, power: real(ell, 2 * power))
    assert _rotation_failures(2, 2, 2) == {
        "rotation eigenspaces for p=[[1], [1]]": "eigenspace multiplicities do not match k/r"
    }


def _invariant_labels(Q):
    """(lambda, p) for lambda in Gamma and every p that the rotation check runs on."""
    for lam in gamma_cross_section(Q.ell, Q.k, Q.d):
        r = Q.type_stabilizer_order(lam)
        for p in multipartitions(lam):
            if gkd._p_stabilizer_order(p, r, Q.ell) == r:
                yield lam, p


def _eigenspaces_by_kernel_basis(theta, k, mats):
    """The route the check replaced: a basis of each kernel of theta - xi_k^m, and each
    A in mats expressed in it."""
    ell, n = theta.ell, theta.nrows
    out = []
    for m in range(1, k + 1):
        shifted = theta - Mat.identity(ell, n).scale_cyc(root_of_unity(ell, (ell // k) * m))
        basis = kernel_basis(ell, [list(row) for row in shifted.rows], n)
        solver = LinSolver(ell, basis)
        traces = []
        for A in mats:
            tr = Cyc.zero(ell)
            for i, vec in enumerate(basis):
                image = [sum((a * b for a, b in zip(row, vec)), Cyc.zero(ell)) for row in A.rows]
                tr = tr + solver.express(image)[i]
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
        theta, act = gkd._rotation_module(Q, lam, p)
        powers = [Mat.identity(ell, theta.nrows)]
        for _ in range(k - 1):
            powers.append(theta * powers[-1])
        mats = [act(x) for x in classes]
        assert gkd._eigenspace_traces(powers, mats) == _eigenspaces_by_kernel_basis(theta, k, mats)
