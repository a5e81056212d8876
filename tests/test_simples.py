import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from groupoidreps import simples, tableaux
from groupoidreps.algebra import phi
from groupoidreps.cli import BRANCHING_GRID, GELFAND_WINDOW, GKD_GRID, ISO_GRID
from groupoidreps.cyclo import Cyc
from groupoidreps.gelfand import build_gelfand, verify_gelfand
from groupoidreps.gkd import gkd_conjugacy_classes
from groupoidreps.groupoid import canonical_morphism, compose, hom, identity_morphism, objects, type_of
from groupoidreps.simples import (
    _slot_rotation,
    SimpleModule,
    all_simples,
    branching_report,
    build_simple,
    character_table,
    conjugacy_classes,
    fixed_objects,
    inner_products,
    phi_trace,
    removable_node_restrictions,
    restriction_multiplicities,
    simple_characters,
    total_dim_check,
    verify_complete,
)
from groupoidreps.wreath import enum_group, generators, wreath_identity, wreath_inv, wreath_mul
from reference import (
    Mat,
    act_alg,
    cyc_inner_product,
    component_commutant_dim,
    dense,
    mat_mul,
    model_object_trace,
    outer_specht_block,
    scaled,
    scan_phi_trace,
    simple_object_trace,
    sparse,
)

# the (l, d) points of the default simples, branching, gelfand and gkd grids
GRID_POINTS = sorted(set(ISO_GRID + BRANCHING_GRID + GELFAND_WINDOW + [(ell, d) for ell, _k, d in GKD_GRID]))


def test_dimensions_by_example():
    assert sorted(m.total_dim for m in all_simples(2, 2)) == [1, 1, 1, 1, 2]
    assert sorted(m.total_dim for m in all_simples(1, 3)) == [1, 1, 2]
    assert sorted(m.total_dim for m in all_simples(3, 1)) == [1, 1, 1]


def test_trivial_component_module():
    mod = build_simple(2, 1, 3, ((3,), ()), 1)
    assert mod.total_dim == 1
    f = mod.objects[0]
    for m in hom(f, f, 2):
        assert mod.action_block(m) == sparse(Mat.identity(2, 1))


def test_mixed_color_module():
    mod = build_simple(2, 1, 2, ((1,), (1,)), 1)
    assert mod.block_dim == 1 and mod.total_dim == 2
    assert len(mod.objects) == 2


def test_identity_blocks():
    for mod in all_simples(2, 2):
        for f in mod.objects:
            assert mod.action_block(identity_morphism(f)) == sparse(Mat.identity(2, mod.block_dim))


def test_functoriality_exhaustive():
    for ell, d in [(2, 2), (2, 3), (3, 2)]:
        for mod in all_simples(ell, d):
            objs = mod.objects

            def act(q, mod=mod):
                return dense(ell, mod.block_dim, mod.action_block(q))

            for f in objs:
                for g in objs:
                    for m1 in hom(f, g, ell):
                        a1 = act(m1)
                        for h in objs:
                            for m2 in hom(g, h, ell):
                                lhs = act(compose(m2, m1))
                                assert lhs == mat_mul(act(m2), a1)


def test_eq5_total_dims():
    for ell, d in [(1, 4), (2, 2), (2, 3), (3, 2), (4, 2)]:
        for mod in all_simples(ell, d):
            assert total_dim_check(mod)


def test_total_dim_example_d4():
    mod = build_simple(2, 1, 4, ((2, 1), (1,)), 1)
    assert mod.block_dim == 2 and mod.total_dim == 8  # (4!/(3! 1!)) * 2


def young_induction_check(mod: SimpleModule, f) -> bool:
    """|S(l,d)| / |G^f| * dim L_p(f) = total dim, G^f the generalized Young subgroup."""
    f = tuple(f)
    if type_of(f, mod.ell) != mod.lam:
        raise ValueError("object type does not match the module's shape")
    gf_order = 1
    for li in mod.lam:
        gf_order *= mod.ell**li * factorial(li)
    group_order = mod.ell**mod.d * factorial(mod.d)
    return group_order // gf_order * mod.block_dim == mod.total_dim


def test_young_induction_index():
    for mod in all_simples(2, 3):
        for f in mod.objects:
            assert young_induction_check(mod, f)
    mod = build_simple(2, 1, 2, ((1,), (1,)), 1)
    assert young_induction_check(mod, (1, 2))


def test_characters_examples():
    s0, s1 = generators(2, 2)
    m11 = build_simple(2, 1, 2, ((1,), (1,)), 1)
    assert m11.char_wreath(s0).is_zero()
    msign = build_simple(2, 1, 2, ((1, 1), ()), 1)
    assert msign.char_wreath(s1) == Cyc.rational(2, -1)
    for mod in all_simples(2, 2):
        assert mod.char_wreath(wreath_identity(2, 2)) == Cyc.rational(2, mod.total_dim)


def test_characters_constant_on_classes():
    # chi(s x s^-1) = chi(x) for every x and every generator s; the generators
    # generate the group, so each character is constant on every class.
    cases = [(mod.char_wreath, ell, d) for ell, d in [(2, 2), (2, 3), (3, 2)] for mod in all_simples(ell, d)]
    cases += [(build_gelfand(ell, d).char_wreath, ell, d) for ell, d in [(2, 3), (3, 2)]]
    for chi, ell, d in cases:
        gens = generators(ell, d)
        for x in enum_group(ell, d):
            value = chi(x)
            for s in gens:
                assert chi(wreath_mul(wreath_mul(s, x), wreath_inv(s))) == value, (chi, x, s)


def test_character_table_makes_no_transport(monkeypatch):
    # the block traces are class functions of the per-color cycle types, so
    # no fixed object is transported to the base; the per-object transports
    # of the reference scan give the same table
    def refuse(self, m):
        raise AssertionError("transported")

    for ell, d in [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]:
        monkeypatch.setattr(SimpleModule, "transported", refuse)
        table = character_table.__wrapped__(ell, d)
        monkeypatch.undo()
        reps = [rep for rep, _size in conjugacy_classes(ell, d)]
        assert table == tuple(tuple(scan_phi_trace(x, m.objects, simple_object_trace(m)) for x in reps) for m in all_simples(ell, d))


@pytest.mark.parametrize("ell,d", [(1, 3), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_shape_grouped_characters_equal_char_wreath_at_every_class(ell, d):
    reps = [rep for rep, _size in conjugacy_classes(ell, d)]
    mods = all_simples(ell, d)
    rows = list(simple_characters(ell, d, reps))
    assert rows == [tuple(m.char_wreath(x) for m in mods) for x in reps]
    assert character_table.__wrapped__(ell, d) == tuple(zip(*rows))


def test_character_table_follows_all_simples_order():
    for ell, d in [(2, 2), (3, 2)]:
        table = character_table(ell, d)
        assert character_table(ell, d) is table
        reps = [rep for rep, _size in conjugacy_classes(ell, d)]
        assert table == tuple(tuple(m.char_wreath(x) for x in reps) for m in all_simples(ell, d))


def test_character_table_shares_equal_values():
    table = character_table(3, 2)
    values = [v for chi in table for v in chi]
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 2)])
def test_simple_characters_are_orthonormal(ell, d):
    classes = conjugacy_classes(ell, d)
    table = character_table(ell, d)
    gram = inner_products(classes, table, [[v.conjugate() for v in psi] for psi in table])
    for i, row in enumerate(gram):
        assert row == tuple(Cyc.rational(ell, 1 if i == j else 0) for j in range(len(table))), i


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 3), (4, 3), (5, 2), (6, 2)])
def test_inner_product_matches_the_cyc_product_reference_on_every_table_pair(ell, d):
    classes = conjugacy_classes(ell, d)
    table = character_table(ell, d)
    table_bar = [[v.conjugate() for v in psi] for psi in table]
    gram = inner_products(classes, table, table_bar)
    assert gram == [tuple(cyc_inner_product(classes, chi, psi_bar) for psi_bar in table_bar) for chi in table]


@pytest.mark.parametrize("ell,d", [(1, 2), (3, 2), (4, 2), (5, 1), (6, 2)])
def test_inner_product_matches_the_reference_on_rational_denominators(ell, d):
    # class functions whose values have den != 1 enter as Fraction bins; the
    # 1/7 keeps every coefficient off the integers
    rng = random.Random(ell * 10 + d)
    classes = conjugacy_classes(ell, d)
    n = len(Cyc.one(ell).num)

    def value():
        return Cyc(ell, [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) + Fraction(1, 7) for _ in range(n)])

    alphas = [[value() for _ in classes] for _ in range(5)]
    betas_bar = [[value() for _ in classes] for _ in range(4)]
    got = inner_products(classes, alphas, betas_bar)
    assert got == [tuple(cyc_inner_product(classes, alpha, beta_bar) for beta_bar in betas_bar) for alpha in alphas]


def test_inner_product_forms_no_cyc_product_and_scales_once(monkeypatch):
    ell, d = 4, 3
    classes = conjugacy_classes(ell, d)
    chi, psi = character_table(ell, d)[3:5]
    psi_bar = [v.conjugate() for v in psi]
    counts = {"mul": 0, "scale": 0}
    real_mul, real_scale = Cyc.__mul__, Cyc.scale

    def counted(name, real):
        def wrapper(self, other):
            counts[name] += 1
            return real(self, other)

        return wrapper

    monkeypatch.setattr(Cyc, "__mul__", counted("mul", real_mul))
    monkeypatch.setattr(Cyc, "scale", counted("scale", real_scale))
    ((val,),) = inner_products(classes, [chi], [psi_bar])
    assert counts == {"mul": 0, "scale": 1}
    gram = inner_products(classes, [chi, psi], [psi_bar, psi_bar, psi_bar])
    assert counts == {"mul": 0, "scale": 7}  # one per value
    monkeypatch.undo()
    assert val == cyc_inner_product(classes, chi, psi_bar)
    assert gram[0] == (val,) * 3


def test_trivial_character():
    # the trivial module lives on the all-color-l component (xi^(l c) = 1)
    mod = build_simple(2, 1, 2, ((), (2,)), 1)
    assert all(mod.char_wreath(rep).is_one() for rep, _size in conjugacy_classes(2, 2))
    # on the all-color-1 component the diagonal part acts by its determinant
    from groupoidreps.wreath import generators

    mod = build_simple(2, 1, 2, ((2,), ()), 1)
    assert mod.char_wreath(generators(2, 2)[0]) == Cyc.rational(2, -1)


def test_conjugacy_class_sizes():
    for ell, d in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        classes = conjugacy_classes(ell, d)
        assert sum(size for _rep, size in classes) == ell**d * factorial(d)


def test_phi_action_representation():
    rnd = random.Random(3)
    group = enum_group(2, 2)
    for mod in all_simples(2, 2):
        for _ in range(10):
            x, y = rnd.choice(group), rnd.choice(group)
            lhs = mat_mul(act_alg(mod, phi(x)), act_alg(mod, phi(y)))
            assert lhs == act_alg(mod, phi(wreath_mul(x, y)))


def test_verify_complete_grid():
    for ell, d in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]:
        rep = verify_complete(ell, d)
        assert rep["ok"], (ell, d, rep)


def test_removable_nodes():
    assert removable_node_restrictions(((2,), (1,))) == [((1,), (1,)), ((2,), ())]
    assert removable_node_restrictions(((3,), ())) == [((2,), ())]


def test_branching_examples():
    mults = restriction_multiplicities(build_simple(2, 1, 2, ((1,), (1,)), 1))
    assert mults == {((1,), ()): 1, ((), (1,)): 1}
    mults = restriction_multiplicities(build_simple(2, 1, 3, ((3,), ()), 1))
    assert mults == {((2,), ()): 1}


def test_branching_is_only_for_k_1():
    # a G(2,2,3) module is not an S(2,3) module: its label alone would name the k = 1 answer
    with pytest.raises(ValueError, match="k > 1"):
        restriction_multiplicities(build_simple(2, 2, 3, ((1,), (2,)), 1))


def test_branching_grid():
    for ell, d in [(2, 2), (2, 3), (3, 2)]:
        rep = branching_report(ell, d)
        assert rep["ok"], (ell, d, rep)


def test_char_wreath_is_trace_of_phi_action():
    for ell, d in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        group = enum_group(ell, d)
        for mod in all_simples(ell, d):
            for x in group:
                assert mod.char_wreath(x) == act_alg(mod, phi(x)).trace(), (mod.p, x)


def _grouped_and_scanned(ell, d, elements):
    """(grouped, scanned) traces of every simple and the Gelfand model at each element."""
    model = build_gelfand(ell, d)
    for x in elements:
        yield model.char_wreath(x), scan_phi_trace(x, model.objects, model_object_trace(model))
        for mod in all_simples(ell, d):
            yield mod.char_wreath(x), scan_phi_trace(x, mod.objects, simple_object_trace(mod))


@pytest.mark.parametrize("ell,d", GRID_POINTS)
def test_grouped_traces_match_the_object_scan_on_the_grid(ell, d):
    # at every class representative of S(l,d), and of each G(l,k,d) of the gkd grid
    elements = [rep for rep, _size in conjugacy_classes(ell, d)]
    elements += [rep for e, k, n in GKD_GRID if (e, n) == (ell, d) for rep, _size in gkd_conjugacy_classes(e, k, n)]
    for grouped, scanned in _grouped_and_scanned(ell, d, elements):
        assert grouped == scanned


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 2), (4, 2), (1, 0), (3, 0), (3, 3), (2, 4)])
def test_grouped_traces_match_the_object_scan_on_every_element(ell, d):
    # the per-color class functions against the per-object traces: the
    # transport to the base for the simples, the commuting involutions for
    # the model
    for grouped, scanned in _grouped_and_scanned(ell, d, enum_group(ell, d)):
        assert grouped == scanned


def _cycles(perm):
    """The cycles of a one-line permutation, as lists of 0-based positions."""
    seen, out = set(), []
    for start in range(len(perm)):
        cycle, p = [], start
        while p not in seen:
            seen.add(p)
            cycle.append(p)
            p = perm[p] - 1
        if cycle:
            out.append(cycle)
    return out


def _color_cycle_lengths(perm, g, ell):
    """For each color, the sorted lengths of the cycles of perm on which g takes that color."""
    return tuple(tuple(sorted(len(c) for c in _cycles(perm) if g[c[0]] == a)) for a in range(1, ell + 1))


FIXED_OBJECT_POINTS = [(1, 3), (2, 0), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (5, 2)]


@pytest.mark.parametrize("ell,d", FIXED_OBJECT_POINTS)
def test_fixed_objects_match_a_brute_force_grouping(ell, d):
    for x in enum_group(ell, d):
        groups = fixed_objects(x)
        assert sum(map(sum, (counts for pairs in groups.values() for _g, counts in pairs))) == ell ** len(_cycles(x.perm))
        got = Counter()
        for lam, pairs in groups.items():
            keys = [cycle_types for cycle_types, _counts in pairs]
            assert len(set(keys)) == len(keys)  # merged: one entry per End(g)-class
            for cycle_types, counts in pairs:
                assert tuple(map(sum, cycle_types)) == lam
                got.update({(lam, cycle_types, e): n for e, n in enumerate(counts) if n})
        expected = Counter(
            (type_of(g, ell), _color_cycle_lengths(x.perm, g, ell), sum(c * v for c, v in zip(x.colors, g)) % ell)
            for g in objects(ell, d)
            if all(g[p - 1] == c for p, c in zip(x.perm, g))
        )
        assert got == expected, x


def test_phi_trace_takes_one_block_trace_per_group():
    for ell, d in [(2, 3), (3, 2), (4, 2)]:
        for x in enum_group(ell, d):
            for lam in [None, *fixed_objects(x)]:
                calls = []
                phi_trace(x, lambda cycle_types: calls.append(cycle_types) or 1, lam)
                groups = fixed_objects(x)
                chosen = groups[lam] if lam is not None else [pair for pairs in groups.values() for pair in pairs]
                assert calls == [cycle_types for cycle_types, _counts in chosen]


def test_character_table_computes_fixed_objects_once_per_class():
    # one simple_characters walk: every module of every shape at one
    # representative reads the groups of one fixed_objects call
    fixed_objects.cache_clear()
    character_table.__wrapped__(4, 4)
    info = fixed_objects.cache_info()
    assert info.misses == len(conjugacy_classes(4, 4))
    assert info.hits == 0


def test_branching_report_computes_fixed_objects_once_per_class():
    # every simple of S(2,3) is restricted in one walk, so each embedded
    # representative is one fixed_objects call
    ell, d = 2, 3
    character_table(ell, d - 1)
    fixed_objects.cache_clear()
    assert branching_report(ell, d)["ok"]
    info = fixed_objects.cache_info()
    assert info.misses == len(conjugacy_classes(ell, d - 1))
    assert info.hits == 0


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 3)])
def test_verify_gelfand_computes_fixed_objects_once_per_class(ell, d):
    # the simple characters and the model's character are read class by class,
    # so the model hits the one-entry cache that the simples have just filled
    character_table.cache_clear()
    fixed_objects.cache_clear()
    assert verify_gelfand(ell, d)["ok"]
    info = fixed_objects.cache_info()
    assert info.misses == info.hits == len(conjugacy_classes(ell, d))


def test_transports_are_canonical_morphisms():
    ell, d = 3, 3
    for mod in all_simples(ell, d):
        assert mod.objects == [f for f in objects(ell, d) if type_of(f, ell) == mod.lam]
        from_base, to_base = simples._shape_transports(ell, mod.lam)
        for f in mod.objects:
            assert from_base[f] == canonical_morphism(mod.base, f, ell).perm
            assert to_base[f] == canonical_morphism(f, mod.base, ell).perm


def _check(rep, name):
    return next(c for c in rep["checks"] if c["name"] == name)


def test_commutant_check_fails_for_a_module_acting_trivially(monkeypatch):
    # with every morphism acting as the identity on blocks of dim 2, the commutant has dim 4
    ell, d = 2, 3
    mod = next(m for m in all_simples(ell, d) if m.block_dim > 1)
    monkeypatch.setattr(mod, "action_block", lambda m: sparse(Mat.identity(ell, mod.block_dim)))
    check = _check(verify_complete(ell, d), "commutant of each simple has dim 1")
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [simples._label_json(mod)]


def test_branching_reports_a_non_integral_multiplicity(monkeypatch):
    # adding 1 at the identity class of one S(2,1) character shifts its inner
    # product with a restricted character by dim / |S(2,1)| = 1/2 for a dim-1 simple
    ell, d = 2, 2
    table = character_table(ell, d - 1)
    reps = [rep for rep, _size in conjugacy_classes(ell, d - 1)]
    bent = list(table[0])
    i = reps.index(wreath_identity(ell, d - 1))
    bent[i] = bent[i] + Cyc.one(ell)
    patched = {(ell, d - 1): (tuple(bent),) + table[1:]}
    real = simples.character_table
    monkeypatch.setattr(simples, "character_table", lambda e, n: patched.get((e, n)) or real(e, n))
    rep = branching_report(ell, d)
    flagged = [c for c in rep["checks"] if "non_integral" in c["details"]]
    odd = [f"branching of {m.label_json()}" for m in all_simples(ell, d) if m.total_dim % 2]
    assert [c["name"] for c in flagged] == odd
    sub = [list(map(list, all_simples(ell, d - 1)[0].p))]
    assert all(c["status"] == "fail" and c["details"]["non_integral"] == sub for c in flagged)


@pytest.fixture
def fresh_character_caches():
    """Empty the caches that hold character values before and after a test that bends one."""
    caches = [simples.character_table, simples._shape_traces, tableaux.specht_character]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_wrong_specht_character_value_fails_the_branching_and_gelfand_checks(monkeypatch, fresh_character_caches):
    # chi^(2,1) is -1 at a 3-cycle; reading 0 there at the one cycle type
    # (3,) bends every simple character of S(l,3) with a (2,1) color part
    real = simples.specht_character
    assert real((2, 1), (3,)) == -1
    monkeypatch.setattr(simples, "specht_character", lambda mu, t: 0 if (mu, t) == ((2, 1), (3,)) else real(mu, t))
    failed = [c["name"] for c in branching_report(1, 4)["checks"] if c["status"] == "fail"]
    assert failed == ["branching of [[4]]", "branching of [[2, 2]]", "branching of [[1, 1, 1, 1]]"]
    for ell in (1, 2, 3):
        statuses = {c["name"]: c["status"] for c in verify_gelfand(ell, 3)["checks"]}
        assert statuses["every simple has multiplicity exactly 1"] == "fail"
        assert statuses["gelfand character equals sum of simple characters"] == "fail"


SIGN_DROPPED = """
import contextlib, inspect, io, json
from functools import lru_cache
from groupoidreps import cli, simples, tableaux

source = inspect.getsource(tableaux.specht_character.__wrapped__)
sign = "(-1) ** sum(b - r < c < b for c in beta) * "
assert sign in source
scope = {"lru_cache": lru_cache, "Partition": tuple}
exec(source.replace(sign, ""), scope)
simples.specht_character = tableaux.specht_character = scope["specht_character"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["all", "--out", "json"])
print(json.dumps({"code": code, "failed": [c["name"] for c in json.loads(out.getvalue())["checks"] if c["status"] == "fail"]}))
"""


def test_the_murnaghan_nakayama_rule_without_its_sign_fails_the_all_checks():
    # the rule with the sign (-1)^leg dropped, run through `all` in a fresh
    # process so that no cache keeps a true character: branching (2,3) is
    # the first check to fail, and every suite that reads S_n characters
    # fails somewhere
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", SIGN_DROPPED], cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 1 and out["failed"][0].startswith("branching (2,3): ")
    assert {name.split(" (")[0] for name in out["failed"]} == {"branching", "simples", "gelfand", "gkd", "schur-weyl"}


@pytest.mark.parametrize("ell,d", [(2, 3), (3, 2), (1, 3), (3, 3), (2, 4)])
def test_k1_blocks_are_the_lifted_outer_specht_matrices_of_the_transport(ell, d):
    # every morphism between two objects of each module's shape
    for mod in all_simples(ell, d):
        assert (mod.k, mod.m, mod.copies) == (1, 1, 1)
        assert mod.objects == [f for f in objects(ell, d) if type_of(f, ell) == mod.lam]
        for f in mod.objects:
            for g in mod.objects:
                for m in hom(f, g, ell):
                    assert mod.action_block(m) == outer_specht_block(mod, m), (mod, m)


@pytest.mark.parametrize(
    "args",
    [
        (2, 2, 2, ((1,),), 1),  # one part for two colors
        (2, 1, 2, ((3,), ()), 1),  # three dots, not two
        (2, 1, 2, ((1,), (1,)), 2),  # s = 1 at k = 1
        (2, 2, 2, ((1,), (1,)), 3),  # s = 2 here
        (2, 2, 2, ((1,), (1,)), 0),
        (3, 3, 3, ((1,), (1,), (1,)), 4),
        (4, 3, 2, ((1,), (1,), (), ()), 1),  # 3 does not divide 4
    ],
)
def test_labels_are_validated_at_every_k(args):
    with pytest.raises(ValueError, match="does not match|stabilizer order|positive divisor"):
        SimpleModule(*args)


def test_char_wreath_is_only_for_k_1():
    mod = build_simple(2, 2, 2, ((1,), (1,)), 1)
    with pytest.raises(ValueError):
        mod.char_wreath(wreath_identity(2, 2))


def test_commutant_check_fails_for_one_anchor_scaled_by_two(monkeypatch):
    # a scaled anchor is a change of basis at its block: the full component
    # solve still finds dimension 1, the anchor step of the base-block
    # routine does not pass it
    ell, d = 2, 3
    mod = build_simple(ell, 1, d, ((2,), (1,)), 1)
    anchor = mod.anchors[-1]
    real, two = mod.action_block, Cyc.rational(ell, 2)
    monkeypatch.setattr(mod, "action_block", lambda q: scaled(real(q), two) if q == anchor else real(q))
    assert component_commutant_dim(mod) == 1
    assert simples._commutant_dim(mod) is None
    check = _check(verify_complete(ell, d), "commutant of each simple has dim 1")
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [simples._label_json(mod)]


def test_commutant_check_fails_for_end_base_generators_acting_trivially(monkeypatch):
    # the anchors still act as I; the End(b) generators acting as I leave a
    # commutant of dimension block_dim^2 on the base block
    ell, d = 2, 4
    mod = build_simple(ell, 1, d, ((2, 1), (1,)), 1)
    gens = set(simples._endo_generators(mod))
    real = mod.action_block
    monkeypatch.setattr(mod, "action_block", lambda q: sparse(Mat.identity(ell, mod.block_dim)) if q in gens else real(q))
    assert simples._commutant_dim(mod) == mod.block_dim**2 == 4
    check = _check(verify_complete(ell, d), "commutant of each simple has dim 1")
    assert check["details"]["failures"] == [simples._label_json(mod)]


def test_slot_rotations_compose_additively():
    # _endo_block reads M^t as one rotation by t u: a rotation by a, then one
    # by b of the rotated factors, is the rotation by a + b
    for ell in range(1, 5):
        for dims in product(range(1, 4), repeat=ell):
            for a in range(ell):
                first = _slot_rotation(list(dims), lambda c: (c + a) % ell)
                rotated = [dims[(c + a) % ell] for c in range(ell)]
                for b in range(ell):
                    then = _slot_rotation(rotated, lambda c: (c + b) % ell)
                    assert tuple(then[x] for x in first) == _slot_rotation(list(dims), lambda c: (c + a + b) % ell)


def test_simples_report_checks_functoriality(monkeypatch):
    # the relations of End(b) hold on every module; without one s_i the
    # generators are not End(b)'s and the check fails
    ell, d = 2, 3
    assert _check(verify_complete(ell, d), "each simple is functorial")["status"] == "pass"
    real = simples._endo_generators
    monkeypatch.setattr(simples, "_endo_generators", lambda mod: real(mod)[1:])
    assert _check(verify_complete(ell, d), "each simple is functorial")["status"] == "fail"
