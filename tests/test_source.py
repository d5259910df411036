"""Static checks on the package source: no unused import, no unreferenced private name."""

import ast
from pathlib import Path

import nearwave

SRC = Path(nearwave.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ only re-exports


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_level_import_is_used():
    for path in MODULES:
        tree = _tree(path)
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))


def test_every_private_module_level_name_is_referenced():
    referenced = set()
    for path in MODULES:
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                referenced.update(a.name for a in n.names)
    for path in MODULES:
        defined = set()
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
        assert not private - referenced, (path.name, sorted(private - referenced))
