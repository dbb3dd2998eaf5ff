from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "simulstream"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return set(filter(_private, names))


def _used(tree: ast.Module) -> set[str]:
    """The names a module's code reads, as a name, an attribute or an
    import; a definition's reads of its own name (recursion) do not count."""
    used = set()
    for statement in tree.body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if isinstance(statement, _DEFINITIONS):
            names.discard(statement.name)
        used |= names
    return used


def test_every_private_module_level_name_is_used_in_the_package() -> None:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set().union(*map(_used, trees.values()))
    orphans = sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree) - used
    )
    assert not orphans, f"private names nothing in src/ uses: {', '.join(orphans)}"
    assert sum(len(_defined(tree)) for tree in trees.values()) >= 40  # the walk found them
