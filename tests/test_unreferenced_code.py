"""Every function and class in ``cycover`` is referenced by ``cycover``.

A definition that nothing in ``src/cycover`` references is code the
pipeline never runs.  It goes, or moves into ``tests/oracles.py`` when the
tests use it as a reference.  The scan is by name.  A definition counts as
referenced when its name is read anywhere in the package, as a name or as
an attribute, outside its own body.  Imports and ``__all__`` strings do not
count.  Dunder methods are skipped, since Python calls them itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cycover"

# The definitions that stay though nothing in src references them.
ALLOWED = {
    "family.enumerate_families": "scripts/bound_table.py enumerates families with it",
    "report.reports_equal_modulo_timings": "API that the README documents",
    "poly.Polynomial.substitute": (
        "perfbench's tracer wraps it in a span, and the tests use it as the "
        "oracle of the Taylor shift and the linear-cut elimination"
    ),
}


class _Scan(ast.NodeVisitor):
    """Collects a module's definitions, by qualified name, and the names it
    reads outside the body of the definition they name."""

    def __init__(self, module: str):
        self.module = module
        self.enclosing: list = []
        self.definitions: dict = {}
        self.references: set = set()

    def _definition(self, node):
        qualified = ".".join([self.module, *self.enclosing, node.name])
        self.definitions[qualified] = node.name
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name: str):
        if self.enclosing[-1:] != [name]:
            self.references.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def test_every_definition_is_referenced_in_src():
    definitions: dict = {}
    references: set = set()
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        definitions.update(scan.definitions)
        references |= scan.references
    assert len(definitions) > 100
    unreferenced = sorted(
        qualified
        for qualified, name in definitions.items()
        if name not in references and not (name.startswith("__") and name.endswith("__"))
    )
    # Equality also fails on an allowed name that is referenced again.
    assert unreferenced == sorted(ALLOWED)
