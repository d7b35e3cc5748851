"""Rules the package and its test suite keep, read off their source."""

import ast
from pathlib import Path

import orbitposet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(orbitposet.__file__).parent

# each value type and the module that owns it
OWNERS = {
    "Involution": "involutions",
    "ColumnPairArray": "tableaux",
    "TwoColumnTableau": "tableaux",
    "StandardTableau": "rs",
    "RankMatrix": "rank_matrices",
}


def _is_new(node):
    return isinstance(node, ast.Attribute) and node.attr == "__new__"


class _Bypasses(ast.NodeVisitor):
    """Each ``X.__new__(T, ...)`` or ``partial(X.__new__, T, ...)``: an
    instance built around its class's checks.  Records the target
    expression and the classes and functions that enclose the call."""

    def __init__(self):
        self.found = []
        self.scopes = []

    def visit_ClassDef(self, node):
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node):
        args = node.args
        if _is_new(node.func):
            self.found.append((args[0] if args else None, list(self.scopes)))
        elif isinstance(node.func, ast.Name) and node.func.id == "partial" and args and _is_new(args[0]):
            self.found.append((args[1] if len(args) > 1 else None, list(self.scopes)))
        self.generic_visit(node)


def _builder(module, target, scopes):
    """The name of the builder a bypass belongs to, or None if the bypass is
    not its target type's own: an owned type named in its own module, or a
    ``cls`` parameter inside a method of an owned class of this module."""
    where = ".".join(scope.name for scope in scopes)
    if not isinstance(target, ast.Name) or not scopes:
        return None
    if OWNERS.get(target.id) == module:
        return where
    function, owner = scopes[-1], scopes[-2] if len(scopes) > 1 else None
    if (
        target.id == "cls"
        and isinstance(function, ast.FunctionDef)
        and [arg.arg for arg in function.args.args[:1]] == ["cls"]
        and isinstance(owner, ast.ClassDef)
        and OWNERS.get(owner.name) == module
    ):
        return where
    return None


def test_only_a_types_own_module_builds_it_without_its_checks():
    builders, strays = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Bypasses()
        visitor.visit(ast.parse(path.read_text()))
        for target, scopes in visitor.found:
            builder = _builder(path.stem, target, scopes)
            if builder is None:
                where = ".".join(scope.name for scope in scopes) or "<module>"
                strays.append(f"{path.stem}.{where}: {ast.unparse(target) if target else '?'}")
            else:
                builders.add(f"{path.stem}.{builder}")
    assert strays == []
    # one trusted builder per type, plus the constructor's own __new__
    assert builders == {
        "involutions.Involution.__new__",
        "involutions._trusted",
        "involutions._trusted_all",
        "tableaux._tableau",
        "rs._standard",
        "rank_matrices.RankMatrix._from_packed",
    }


def _test_functions(path):
    tree = ast.parse(path.read_text())
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test")]


def test_every_tracemalloc_test_is_marked_allocation():
    # CI runs the allocation tests one per fresh interpreter, chosen by the marker
    uses, marked = set(), set()
    for path in sorted([*ROOT.glob("tests/test_*.py"), *ROOT.glob("perfbench/tests/test_*.py")]):
        for function in _test_functions(path):
            node_id = f"{path.relative_to(ROOT)}::{function.name}"
            if any(isinstance(n, ast.Name) and n.id == "tracemalloc" for n in ast.walk(function)):
                uses.add(node_id)
            if "pytest.mark.allocation" in map(ast.unparse, function.decorator_list):
                marked.add(node_id)
    assert len(uses) >= 8
    assert marked == uses
