"""Every public function, class and method of the library has a caller.

A name counts as used when code outside its own definition refers to it
(an AST ``Name`` or ``Attribute`` node, not a docstring or an import): in
a ``src/coinrig`` module, a demo or the README's library tour.  Names are
matched by their last part, so ``Graph.contract`` is used wherever some
``.contract`` is.  A public name that only tests call is surface the
library keeps for nothing; tests reach such checks through the callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coinrig"

ALLOWED = {
    # bench/spans.py wraps it by name, as the strong-sparsity layer's work
    "sparsity.StrongSparsityChecker.accepts_all",
}


def _public_defs(module: str, tree: ast.Module):
    """(qualified name, node) of the module's public functions, classes and
    the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _names_outside(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attributes that ``tree`` refers to outside the node ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _code() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    tour = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    callers = [*modules.values(),
               *(ast.parse(p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))),
               *map(ast.parse, tour)]
    return modules, callers


def test_every_public_name_has_a_caller():
    modules, callers = _code()
    unused = [name for module, tree in modules.items()
              for name, node in _public_defs(module, tree)
              if name not in ALLOWED
              and not any(node.name in _names_outside(t, node) for t in callers)]
    assert unused == []


def test_allowed_names_exist():
    modules, _ = _code()
    defined = {name for module, tree in modules.items()
               for name, _ in _public_defs(module, tree)}
    assert ALLOWED <= defined
