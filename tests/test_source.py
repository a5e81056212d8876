import ast
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
