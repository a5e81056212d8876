import ast
import importlib
from pathlib import Path

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


def test_character_modules_do_not_sample():
    # every check is exhaustive or rests on generators; nothing in the library is drawn at random
    for path in sorted(SRC.glob("*.py")):
        name = path.name
        tree = ast.parse(path.read_text(), filename=name)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
        assert "random" not in imported, name


def test_dense_scaffolds_live_only_in_cyclo():
    # a list comprehension of [x] * n rows is a dense matrix scaffold; every
    # matrix outside cyclo.py is built by Mat.from_entries or Mat.identity
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclo.py":
            continue
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


def test_algebra_uses_no_elimination():
    # the rank of the Phi images is a count of distinct characters
    # (Artin-Dedekind), so algebra.py neither imports nor names the
    # elimination engine
    engine = {"SpanBasis", "LinSolver", "kernel_basis", "intertwiners"}
    used = set()
    for node in ast.walk(ast.parse((SRC / "algebra.py").read_text(), filename="algebra.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & engine
