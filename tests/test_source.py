"""Source-level checks of the library: every private helper has a caller."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "bbem"


def _loaded_names(statement):
    """Names read as a Name or an Attribute anywhere in statement."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_private_helper_is_used_in_the_library():
    # a module-level _name function or class that nothing in src/bbem reads
    # outside its own definition is dead code, or reference code that only
    # tests call (tests keep their own references)
    statements = [(module.stem, statement) for module in sorted(
        SOURCE.glob("*.py")) for statement in ast.parse(
            module.read_text(encoding="utf-8")).body]
    loads = [_loaded_names(statement) for _, statement in statements]
    unused = [f"{module}.{statement.name}"
              for k, (module, statement) in enumerate(statements)
              if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
              and statement.name.startswith("_")
              and not statement.name.endswith("__")
              and not any(statement.name in names
                          for j, names in enumerate(loads) if j != k)]
    assert not unused, f"private helpers with no caller in src/bbem: {unused}"
