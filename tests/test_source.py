"""Source-level checks of the library: every private helper has a caller,
and no Duffy rule is left in it."""

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


def _bound_names(node):
    """Names node defines, imports (module and name) or exports in an
    __all__ list."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return ([getattr(node, "module", None) or ""]
                + [name for alias in node.names
                   for name in (alias.name, alias.asname or "")])
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if (isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)):
        return [item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)]
    return []


def test_no_module_defines_imports_or_exports_a_duffy_rule():
    # the near field has one rule, the 12-point one beside the closed
    # forms; the Duffy rules are high-order references of the tests
    # (tests/_oracles.py), not library code
    found = [f"{module.stem}:{node.lineno}:{name}"
             for module in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
             for name in _bound_names(node) if "duffy" in name.lower()]
    assert not found, f"Duffy names in src/bbem: {found}"
