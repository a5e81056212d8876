import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import groupoidreps

SRC = Path(groupoidreps.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # Invariants must hold under `python -O`, which strips assert statements.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
    assert len(list(SRC.glob("*.py"))) >= 15


def test_every_exported_name_resolves():
    # a deleted helper must not leave a stale __all__ entry behind
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"groupoidreps.{path.stem}")
        stale += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale


def _top_level_imports(path: Path) -> set[str]:
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    return imported


def test_character_modules_do_not_sample():
    # every check is exhaustive or rests on generators; nothing in the library is drawn at random
    for path in sorted(SRC.glob("*.py")):
        assert "random" not in _top_level_imports(path), path.name


def test_no_module_imports_argparse():
    # the CLI parses its flags from one table; an argparse parser costs each process milliseconds to build
    assert not [path.name for path in sorted(SRC.glob("*.py")) if "argparse" in _top_level_imports(path)]


def test_dense_scaffolds_live_only_in_cyclo():
    # a list comprehension of [x] * n rows is a dense matrix scaffold; the
    # library builds none, cyclo.py included: every matrix is the sparse
    # {(row, col): Cyc} dict of its nonzero entries
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            elt = node.elt if isinstance(node, ast.ListComp) else None
            if (
                isinstance(elt, ast.BinOp)
                and isinstance(elt.op, ast.Mult)
                and isinstance(elt.left, ast.List)
                and len(elt.left.elts) == 1
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_commutants_are_solved_only_in_cyclo():
    # every commutant and intertwiner space is one call to cyclo.intertwiners:
    # outside cyclo.py nothing calls kernel_basis, SpanBasis.kernel or
    # Mat.zeros, and no dense commutator X * Z - Z * X is formed
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("kernel_basis", "kernel") or (name == "zeros" and ast.unparse(func) == "Mat.zeros"):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                left, right = node.left, node.right
                if all(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Mult) for x in (left, right)) and (
                    ast.dump(left.left) == ast.dump(right.right) and ast.dump(left.right) == ast.dump(right.left)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_orbit_sums_and_the_exp_identity_stay_index_data():
    # Psi(q) is a multiset of morphisms and Delta(E_ab) a table of row maps:
    # gkd.py and schurweyl.py form no AlgElem and scale no Mat
    offenders = [
        f"{name}:{node.lineno}"
        for name in ("gkd.py", "schurweyl.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
        if (isinstance(node, ast.Name) and node.id in ("AlgElem", "scale_cyc"))
        or (isinstance(node, ast.Attribute) and node.attr in ("AlgElem", "scale_cyc"))
        or (isinstance(node, ast.alias) and node.name == "AlgElem")
    ]
    assert not offenders


def test_check_records_are_built_only_in_reporting():
    # every check record comes from reporting.record or reporting.skip, so no
    # other module writes a dict with a "status" key
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "reporting.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "status" for k in node.keys))
        or (isinstance(node, ast.Call) and ast.unparse(node.func) == "dict" and any(kw.arg == "status" for kw in node.keywords))
    ]
    assert not offenders


def test_no_check_passes_by_construction():
    # a record whose ok is the constant True or False checks nothing
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "record"):
                continue
            oks = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ok"]
            if any(isinstance(ok, ast.Constant) and isinstance(ok.value, bool) for ok in oks):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_engine_internals_are_touched_only_in_cyclo():
    # one vector format: outside cyclo.py the engine is reached through
    # SpanBasis.add/contains/kernel/rows, LinSolver and intertwiners only
    private = {"_insert", "_reduce", "_rows"}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cyclo.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not offenders


@pytest.mark.parametrize("module", ["algebra.py", "rook.py"])
def test_algebra_uses_no_elimination(module):
    # the rank of the Phi images is a count of distinct characters
    # (Artin-Dedekind), and the rook image is spanned by the monoid its
    # generators reach, so neither module imports nor names the elimination
    # engine
    engine = {"SpanBasis", "LinSolver", "kernel_basis", "intertwiners"}
    used = set()
    for node in ast.walk(ast.parse((SRC / module).read_text(), filename=module)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & engine


def _worklist_loops(tree):
    """(function name, line) of each while loop on a list that its body pops from or rebinds."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lists = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
            and (
                isinstance(node.value, (ast.List, ast.ListComp))
                or (isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "list")
            )
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for loop in ast.walk(func):
            if not isinstance(loop, ast.While):
                continue
            tested = {n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)} & lists
            for node in (n for stmt in loop.body for n in ast.walk(stmt)):
                popped = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tested
                )
                rebound = isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in tested for t in node.targets
                )
                if popped or rebound:
                    found.append((func.name, loop.lineno))
                    break
    return found


def test_worklist_loops_live_only_in_reach_and_the_span_closure():
    # every orbit and closure walk runs on perms.reach; the one span closure
    # (schurweyl.glk_generated_algebra) keeps its own loop over a SpanBasis
    allowed = {("perms.py", "reach"), ("schurweyl.py", "glk_generated_algebra")}
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name, _line in _worklist_loops(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == allowed


def test_the_worklist_detector_sees_both_loop_forms():
    # a popping loop and a rebinding loop are found; a flag loop and a loop
    # that only reads its list are not
    source = """
def pops(seeds):
    frontier = list(seeds)
    while frontier:
        frontier.pop()

def rebinds(seeds):
    frontier = [seeds]
    while frontier and len(frontier) < 9:
        frontier = [x for x in frontier if x]

def flag(a):
    changed = True
    while changed:
        changed = False

def reads(items):
    items = [1, 2]
    while items:
        print(items[0])
        break
"""
    assert [name for name, _line in _worklist_loops(ast.parse(source))] == ["pops", "rebinds"]


def _calls_by_function(tree, attr):
    """Names of the top-level functions and methods whose bodies call .attr."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr
                for n in ast.walk(node)
            ):
                found.append(node.name)
    return found


def test_exponent_bins_are_reduced_only_in_the_trace_routines_and_the_inverse_dft():
    # every character value is a trace of Phi(x), binned per exponent and
    # reduced in phi_trace (one module) or simple_characters (every simple,
    # shape by shape); the other reductions are inner_products', once per
    # pair, the rotation check's, once per eigenspace and class, and
    # phi_inverse's, once per group coefficient
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _calls_by_function(ast.parse(path.read_text(), filename=str(path)), "from_exponent_sums")
    }
    assert found == {
        ("simples.py", "phi_trace"),
        ("simples.py", "simple_characters"),
        ("simples.py", "inner_products"),
        ("gkd.py", "_eigenspace_traces"),
        ("algebra.py", "phi_inverse"),
    }


def _calls_ending(node, suffix):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and ast.unparse(n.func).endswith(suffix)]


def test_inner_product_loop_makes_no_cyc_product_or_scale():
    # one loop pair per pair of class functions: its bin loop accumulates
    # integer (or Fraction) dot products of bin columns, with no .scale or Cyc
    # call and no product of the columns themselves, and the pair's bins are
    # reduced and scaled once, after it
    tree = ast.parse((SRC / "simples.py").read_text(), filename="simples.py")
    (func,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "inner_products"]
    (pair_loop,) = [
        n
        for n in ast.walk(func)
        if isinstance(n, ast.For)
        and any(isinstance(s, ast.For) for s in n.body)
        and any(_calls_ending(s, "from_exponent_sums") for s in n.body if not isinstance(s, ast.For))
    ]
    (loop,) = [s for s in pair_loop.body if isinstance(s, ast.For)]
    targets = [n.target for n in ast.walk(loop) if isinstance(n, ast.For)]
    values = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)} - {"i", "j"}
    assert values == {"a", "b"}
    offenders = []
    for node in ast.walk(loop):
        if isinstance(node, ast.Attribute) and node.attr in ("scale", "from_exponent_sums"):
            offenders.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "Cyc":
            offenders.append("Cyc")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if {side.id for side in (node.left, node.right) if isinstance(side, ast.Name)} & values:
                offenders.append(ast.unparse(node))
    assert not offenders
    # each class function is read into bin columns once, before the pairs
    assert not _calls_ending(pair_loop, "_exponent_bins") and not _calls_ending(pair_loop, "columns")
    assert len(_calls_ending(func, ".scale")) == len(_calls_ending(pair_loop, ".scale")) == 1
    assert len(_calls_ending(func, "from_exponent_sums")) == len(_calls_ending(pair_loop, "from_exponent_sums")) == 1


def test_inner_product_is_defined_once():
    # one class-function format and one inner product for S(l,d) and G(l,k,d)
    defined = [
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "inner_product" in node.name
    ]
    assert defined == [("simples.py", "inner_products")]


def test_specht_layer_imports_nothing_from_cyclo():
    # Young's natural representation is integral: tableaux straightens on
    # ints, and each module lifts its action block into Q(xi_l) itself
    tree = ast.parse((SRC / "tableaux.py").read_text(), filename="tableaux.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not {name for name in imported if name and name.split(".")[-1] == "cyclo"}
    assert "perms" in imported


ROTATION_CHECK = (
    "rotation_eigenspace_check",
    "_rotation_module",
    "_commutes_with_theta",
    "_rotated_terms",
    "_twisted_traces",
    "_eigenspace_traces",
    "_rotation_eigenspace_single",
)


def test_the_rotation_check_builds_no_matrix():
    # theta is carried as slot maps and Phi(x) is read as monomial terms: the
    # rotation-check functions name no Mat and call neither phi nor .permuted
    # (nor action_block, which builds a block matrix), gkd.py calls phi
    # nowhere, and neither a dense Mat nor SimpleModule.act_alg is left in
    # the library
    from groupoidreps import cyclo
    from groupoidreps.simples import SimpleModule

    tree = ast.parse((SRC / "gkd.py").read_text(), filename="gkd.py")
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ROTATION_CHECK) <= set(funcs)
    offenders = [
        f"{name}:{node.lineno}"
        for name in ROTATION_CHECK
        for node in ast.walk(funcs[name])
        if (isinstance(node, ast.Name) and node.id in ("Mat", "phi"))
        or (isinstance(node, ast.Attribute) and node.attr in ("Mat", "phi", "permuted", "action_block", "act_alg"))
    ]
    assert not offenders
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "phi"]
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "act_total"]
    assert not hasattr(cyclo, "Mat") and not hasattr(SimpleModule, "act_alg")


DENSE_MATRIX_API = ("Mat", "nrows", "ncols", "from_entries")


def _names_a_dense_matrix(node) -> bool:
    """Whether an AST node defines, names, imports or reads an attribute of the dense matrix API."""
    return (
        (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in DENSE_MATRIX_API)
        or (isinstance(node, ast.Name) and node.id in DENSE_MATRIX_API)
        or (isinstance(node, ast.Attribute) and node.attr in DENSE_MATRIX_API)
        or (isinstance(node, ast.alias) and node.name in DENSE_MATRIX_API)
    )


def test_the_library_has_one_matrix_format():
    # every matrix is the sparse {(row, col): Cyc} dict of its nonzero
    # entries, intertwiners' actions included: no module of src/ defines or
    # names Mat or reads a dense matrix's shape or constructor, and cyclo
    # exports no class besides the scalar and the two elimination front ends
    from groupoidreps import cyclo

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _names_a_dense_matrix(node)
    ]
    assert not offenders
    assert "Mat" not in cyclo.__all__ and not hasattr(cyclo, "Mat")
    assert {name for name in cyclo.__all__ if isinstance(getattr(cyclo, name), type)} == {"Cyc", "SpanBasis", "LinSolver"}


def test_the_matrix_format_guard_sees_a_dense_matrix():
    # the guard is live: a class Mat, a use of Mat, a read of .nrows and an import of Mat are each caught
    for source in ("class Mat:\n    pass\n", "x = Mat(1, [])\n", "n = a.nrows\n", "from .cyclo import Mat\n"):
        assert any(map(_names_a_dense_matrix, ast.walk(ast.parse(source)))), source


def test_one_class_defines_action_block():
    # one simple-module class for S(l,d) and G(l,k,d)
    owners = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "action_block" for item in node.body)
    ]
    assert owners == ["simples.py:SimpleModule"]


def _names_used(tree) -> Counter:
    """How often a tree reads, imports or reaches as an attribute each name."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[(node.asname or node.name).split(".")[0]] += 1
    return used


def test_every_library_function_and_class_is_used_outside_the_tests():
    # a module-level function, class or class method of src/ that only tests
    # call belongs in the tests; its own def (a recursive call) and __all__ do
    # not count.  Dunders are called by syntax, and perfbench's tracer names
    # LinSolver.express as a string.
    root = SRC.parent.parent
    used, defs = Counter(), []
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used += _names_used(tree)
            if path.parent == SRC:
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                        defs.append((path.stem, node))
                    if isinstance(node, ast.ClassDef):
                        defs += [
                            (f"{path.stem}.{node.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                        ]
    unused = [f"{owner}.{node.name}" for owner, node in defs if used[node.name] == _names_used(node)[node.name]]
    assert unused == ["cyclo.LinSolver.express"]


def test_specht_and_outer_matrices_are_products_of_the_generator_matrices():
    # the premises of simples._presentation_holds: matrix_of_perm multiplies
    # gen_matrices along perm_to_word, a word of w, from the identity, and
    # matrix_of_blockperm is the Kronecker product of the per-color matrices
    from itertools import permutations

    from groupoidreps.perms import adjacent_transposition, compose_perms, identity_perm, perm_to_word
    from groupoidreps.tableaux import outer_rep, partitions, specht_rep

    tree = ast.parse((SRC / "tableaux.py").read_text(), filename="tableaux.py")
    methods = {
        node.name: node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    (loop,) = [n for n in ast.walk(methods["matrix_of_perm"]) if isinstance(n, ast.For)]
    assert ast.unparse(loop.iter) == "perm_to_word(w)"
    assert [ast.unparse(stmt) for stmt in loop.body] == ["m = _matmul(m, self.gen_matrices[i])"]
    assigned = [ast.unparse(n) for n in ast.walk(methods["matrix_of_perm"]) if isinstance(n, ast.Assign)]
    assert "m = _identity(self.dim)" in assigned
    (loop,) = [n for n in ast.walk(methods["matrix_of_blockperm"]) if isinstance(n, ast.For)]
    assert [ast.unparse(stmt) for stmt in loop.body] == ["m = _kron(m, factor)"]
    assert "m, *rest = [comp.matrix_of_perm(local) for comp, local in self._local_perms(w)]" in [
        ast.unparse(n) for n in ast.walk(methods["matrix_of_blockperm"]) if isinstance(n, ast.Assign)
    ]

    def matmul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    for n in range(1, 5):
        for w in permutations(range(1, n + 1)):
            word = perm_to_word(w)
            composed = identity_perm(n)
            for i in word:
                composed = compose_perms(composed, adjacent_transposition(n, i))
            assert composed == w
            for mu in partitions(n):
                rep = specht_rep(mu)
                m = tuple(tuple(int(i == j) for j in range(rep.dim)) for i in range(rep.dim))
                for i in word:
                    m = matmul(m, rep.gen_matrices[i])
                assert rep.matrix_of_perm(w) == m
    outer = outer_rep(((2, 1), (), (1,)), (3, 0, 1))
    for w in permutations(range(1, 4)):
        a, b = specht_rep((2, 1)).matrix_of_perm(w), specht_rep((1,)).matrix_of_perm((1,))
        kron = tuple(tuple(x * y for x in r for y in t) for r in a for t in b)
        assert outer.matrix_of_blockperm((*w, 4)) == kron


def test_the_simple_module_checks_have_one_caller():
    # the functoriality and commutant routines serve both families through
    # simples.completeness_checks, their one caller; gkd.py names neither
    shared = ("_commutant_dim", "_presentation_holds")
    callers = {name: [] for name in shared}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "gkd.py":
            assert not any(_names_used(tree)[name] for name in shared)
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            used = _names_used(fn)
            for name in shared:
                if used[name] and fn.name != name:
                    callers[name].append(f"{path.name}:{fn.name}")
    assert callers == {name: ["simples.py:completeness_checks"] for name in shared}
