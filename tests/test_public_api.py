"""Every public top-level function and class of ``fqlab`` has a caller inside the package."""

import ast
import pathlib

import fqlab

PACKAGE = pathlib.Path(fqlab.__file__).resolve().parent

# ``main`` is the console entry point; the other three are the print or
# parse halves of documented file formats whose other half the package
# itself uses
ALLOWED_UNCALLED = {"format_presentation", "serialize_catalog", "graph_from_text", "main"}


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


def test_public_definitions_are_used_in_the_package():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= referenced_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.relative_to(PACKAGE).as_posix()
    unused = sorted(f"{defined[name]}:{name}" for name in set(defined) - used - ALLOWED_UNCALLED)
    assert not unused, f"defined but called only from the tests: {unused}"
