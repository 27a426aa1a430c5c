"""Every public top-level function and class of ``fqlab``, and every public
method and property of those classes, has a caller inside the package.
A method or property counts as called only through an attribute
(``.name``), so a field or variable of the same name does not hide it."""

import ast
import importlib
import pathlib

import pytest

import fqlab
import fqlab.fpgroup

PACKAGE = pathlib.Path(fqlab.__file__).resolve().parent

# ``main`` is the console entry point; the next three are the print or
# parse halves of documented file formats whose other half the package
# itself uses; the Sylow oracle over quotient-table images in
# test_quotients.py reads ``SylowQuotientReport.quotient_order``.
# ``CosetTable.image_group`` is wrapped by name by the benchmark's tracer
# and is the tests' closure oracle for regularity; it goes when ROADMAP
# item 7 rewrites the tracer.
ALLOWED_UNCALLED = {
    "main",
    "format_presentation",
    "serialize_catalog",
    "graph_from_text",
    "SylowQuotientReport.quotient_order",
    "CosetTable.image_group",
}


def referenced_names(tree):
    """Names, then attributes, used anywhere outside the def or class that binds them."""
    names, attrs = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names, attrs


def test_public_definitions_are_used_in_the_package():
    defined = {}
    used_names, used_attrs = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, attrs = referenced_names(tree)
        used_names |= names
        used_attrs |= attrs
        where = path.relative_to(PACKAGE).as_posix()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = (where, node.name, False)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        defined[f"{node.name}.{member.name}"] = (where, member.name, True)
    unused = sorted(
        f"{where}:{qualname}"
        for qualname, (where, name, member) in defined.items()
        if name not in used_attrs and (member or name not in used_names)
        and qualname not in ALLOWED_UNCALLED
    )
    assert not unused, f"defined but called only from the tests: {unused}"


def test_every_fpgroup_export_resolves_to_its_submodule():
    # the package loads a submodule only when one of its names is used
    table = fqlab.fpgroup._SUBMODULE
    assert fqlab.fpgroup.__all__ == sorted(table)
    assert "verify_images" in table
    for name in fqlab.fpgroup.__all__:
        module = importlib.import_module(f"fqlab.fpgroup.{table[name]}")
        assert getattr(fqlab.fpgroup, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        fqlab.fpgroup.no_such_name
