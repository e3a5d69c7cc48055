import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted((ROOT / "src" / "stcores").glob("*.py")) if p.name != "__init__.py"]


def _is_cli_command(function: ast.FunctionDef) -> bool:
    # click registers @main.command() functions; nothing calls them by name
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in {"command", "group"}
        for d in function.decorator_list
    )


def _shared_names() -> set[str]:
    # Names that a module of the package, bench/ (not its tests) or tools/
    # imports or reads as an attribute; the package's re-exports and tests
    # don't count.
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    shared = set()
    for path in MODULES + bench + sorted((ROOT / "tools").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    assert len(MODULES) > 5 and bench
    return shared


def test_every_public_function_has_a_caller_outside_the_tests():
    # No helper that only tests call. A function counts as used when its
    # own module names it, or another module, bench/ or tools/ imports it or
    # reads it as an attribute.
    shared = _shared_names()
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        local = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and not _is_cli_command(node)
            and node.name not in shared | local
        ]
    assert unused == []


def test_every_public_method_has_a_caller_outside_the_tests():
    # The same rule for the methods and properties of module-level classes:
    # each is read as an attribute somewhere in the package, bench/ or tools/.
    shared = _shared_names()
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in MODULES
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in shared
    ]
    assert unused == []
