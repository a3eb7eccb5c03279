"""No orphaned helpers: every private module-level function, class or
constant, and every private method, of ``src/ncmetro`` is referred to by a
name or an attribute somewhere in ``src/``, so a refactor cannot leave a
helper behind that only its own definition mentions.  Functions that a
decorator registers (the CLI runners) are reached through the registry and
are exempt.  No orphaned exports either: every name the package re-exports
has a reader in the package, the acceptance tests, the benchmark's tracer
or the README."""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "ncmetro"

#: Decorators that register the function they wrap.
_REGISTERING = {"_command"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _registered(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id in _REGISTERING for d in node.decorator_list)


def _assigned_names(node: ast.AST) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elements if isinstance(e, ast.Name)]
    return names


def _definitions(tree: ast.Module):
    """(name, line) of the module's private definitions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _registered(node):
                yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                yield name, node.lineno


def _references(trees) -> set[str]:
    """Every name read, and every attribute read, anywhere in the trees."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
    return used


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(_SRC.glob("*.py"))}
    used = _references(trees.values())
    checked, orphans = 0, []
    for module, tree in trees.items():
        for name, line in _definitions(tree):
            if _private(name):
                checked += 1
                if name not in used:
                    orphans.append(f"{module}:{line} {name}")
    assert checked > 100  # the walk found the package's helpers
    assert orphans == []


def _module_constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and _assigned_names(node) == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no constant {name}")


def test_every_export_has_a_reader():
    init = ast.parse((_SRC / "__init__.py").read_text())
    exports = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    readers = _references(ast.parse(path.read_text(), str(path))
                          for path in sorted(_SRC.glob("*.py")) if path.name != "__init__.py")
    readers |= _references([ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text())])
    tracer = ast.parse((_ROOT / "perfbench" / "tracer.py").read_text())
    readers |= {name for _, name in _module_constant(tracer, "FUNCTIONS")}
    readers |= {span.split(".")[1] for span, _ in _module_constant(tracer, "METHODS")}
    for span in re.findall(r"`([^`\n]+)`", (_ROOT / "README.md").read_text()):
        readers |= set(re.findall(r"[A-Za-z_]\w*", span))
    assert len(exports) > 50  # the walk found the package's exports
    assert [name for name in exports if name not in readers] == []
