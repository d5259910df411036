"""Static checks on the package source: no unused import, no unreferenced private or public name."""

import ast
from pathlib import Path

import nearwave

SRC = Path(nearwave.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ holds only __version__


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


def _references(node) -> set[str]:
    """Every name that ``node`` loads, reads as an attribute or imports."""
    referenced = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            referenced.add(n.id)
        elif isinstance(n, ast.Attribute):
            referenced.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            referenced.update(a.name for a in n.names)
    return referenced


def test_every_private_module_level_name_is_referenced():
    referenced = set().union(*(_references(_tree(path)) for path in MODULES))
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


def test_only_main_writes_output():
    # each subcommand returns its text, and main alone hands it to the one writer
    users = [getattr(node, "name", None) for node in _tree(SRC / "cli.py").body if "_write_text" in _references(node)]
    assert users == ["main"], users


def test_every_public_function_and_class_is_referenced():
    # a public function, class, method or property that only tests reach is a second code path to keep in step.
    # A class is split into its header and body statements, so a method's own body does not count as a use of it
    # and neither does the body of the class it belongs to count as a use of the class.
    units = []  # (owner, part): a module-level statement is its own owner, a class owns its parts
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                units.extend((node, part) for part in node.bases + node.keywords + node.decorator_list + node.body)
            else:
                units.append((node, node))
    references = [_references(part) for _, part in units]
    defined = {part for _, part in units if isinstance(part, (ast.FunctionDef, ast.ClassDef))}
    defined |= {owner for owner, _ in units if isinstance(owner, ast.ClassDef)}
    unreferenced = []
    for node in defined:
        if node.name.startswith("_"):
            continue
        outside = (refs for (owner, part), refs in zip(units, references) if node is not part and node is not owner)
        if not any(node.name in refs for refs in outside):
            unreferenced.append(node.name)
    assert not unreferenced, sorted(unreferenced)


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no package call overrides is a constant with an option's cost: each one doubles the cases
    # a test must cover, and so is one that every call sets to the same expression.  A call passes a parameter
    # by keyword, by position (a method called through an attribute binds its first parameter itself) or
    # through * or ** unpacking, which counts as a value of its own; a call that omits it passes the default.
    exempt = {("main", "argv")}  # the console entry point reads sys.argv; tests pass argv
    calls = {}
    functions = []  # (function, positional offset of a call through an attribute)
    for path in MODULES:
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node, 0))
            elif isinstance(node, ast.ClassDef):
                functions.extend((part, 1) for part in node.body if isinstance(part, ast.FunctionDef))
    unpassed = []
    for fn, offset in functions:
        if fn.name.startswith("_"):
            continue
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        defaults = dict(zip(positional[len(positional) - len(fn.args.defaults):], fn.args.defaults))
        defaults.update((a.arg, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)
        for param, default in defaults.items():
            if (fn.name, param) in exempt:
                continue
            index = positional.index(param) if param in positional else None

            def passed(call):
                """The expression ``call`` passes as ``param``, as ast.dump text: "*" if unpacked, None if omitted."""
                for k in call.keywords:
                    if k.arg == param:
                        return ast.dump(k.value)
                    if k.arg is None:  # **kwargs
                        return "*"
                if any(isinstance(a, ast.Starred) for a in call.args):
                    return "*"
                shift = offset if isinstance(call.func, ast.Attribute) else 0
                if index is not None and len(call.args) + shift > index:
                    return ast.dump(call.args[index - shift])
                return None

            values = [passed(call) for call in calls.get(fn.name, [])]
            if all(v is None for v in values):
                unpassed.append(f"{fn.name}({param})")
            elif len({ast.dump(default) if v is None else v for v in values}) < 2:
                unpassed.append(f"{fn.name}({param}) always {values[0]}")
    assert not unpassed, sorted(unpassed)
