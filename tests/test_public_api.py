"""Every public name of ``fqlab.fpgroup`` has a caller inside the package."""

import ast
import pathlib

import fqlab
import fqlab.fpgroup

PACKAGE = pathlib.Path(fqlab.__file__).resolve().parent

# the print half of the documented presentation format; its parse half
# is what the package itself reads
ALLOWED_UNCALLED = {"format_presentation"}


def referenced_names(tree):
    """Names and attributes used anywhere outside the def or class that binds them."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def test_fpgroup_exports_are_used_in_the_package():
    reexport = pathlib.Path(fqlab.fpgroup.__file__).resolve()
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.resolve() != reexport:
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(set(fqlab.fpgroup.__all__) - used - ALLOWED_UNCALLED)
    assert not unused, f"exported but called only from the tests: {unused}"
