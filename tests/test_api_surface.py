"""Every dataclass field and property of the package has a reader in the package.

A field that only tests read, or that nothing reads, is API kept alive for
its own sake. This guard parses the package's modules and names each
dataclass field or `@property` of a package class whose name is never
loaded as an attribute (`x.name`) anywhere in the package.

It matches by name alone, so a field whose name some other object's
attribute shares passes even when nothing reads the field itself. The guard
is a floor, not a proof: a name it lets through may still be dead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import phasebal

PACKAGE = Path(phasebal.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _decorator_name(node: ast.expr) -> str:
    """`dataclass` for @dataclass, @dataclass(...) and @dataclasses.dataclass."""

    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def declared_members(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module:Class, name) of every dataclass field and property."""

    members = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            is_dataclass = any(_decorator_name(d) == "dataclass" for d in cls.decorator_list)
            for stmt in cls.body:
                if is_dataclass and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.append((f"{module}:{cls.name}", stmt.target.id))
                elif isinstance(stmt, ast.FunctionDef) and any(
                    _decorator_name(d) == "property" for d in stmt.decorator_list
                ):
                    members.append((f"{module}:{cls.name}", stmt.name))
    return members


def loaded_attributes(trees: dict[str, ast.Module]) -> set[str]:
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_and_property_has_a_reader_in_the_package():
    trees = _trees()
    read = loaded_attributes(trees)
    unread = [f"{owner}.{name}" for owner, name in declared_members(trees) if name not in read]
    assert not unread, f"fields or properties no module of the package reads: {unread}"


def test_the_scan_sees_fields_and_properties():
    # The guard is vacuous if the scan finds nothing to check.
    members = declared_members(_trees())
    assert ("powerflow.py:FeederGeometry", "columns") in members
    assert ("netmodel.py:Network", "n_buses") in members


def _is_init_false(value: ast.expr | None) -> bool:
    """True for `field(init=False)`, which no caller can set."""

    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def defaulted_fields(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module:Class, name) of every dataclass field a caller may leave at its default."""

    fields = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                _decorator_name(d) == "dataclass" for d in cls.decorator_list
            ):
                fields += [
                    (f"{module}:{cls.name}", stmt.target.id)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None and not _is_init_false(stmt.value)
                ]
    return fields


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def varied_keywords(trees: dict[str, ast.Module]) -> set[str]:
    """Names passed as a keyword argument with a computed value somewhere."""

    return {
        kw.arg
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg is not None and not _is_literal(kw.value)
    }


def test_every_defaulted_field_is_set_from_a_computed_value():
    # A field that every caller leaves at its default, or sets to one
    # literal, is a setting with one value in use: a module constant.
    trees = _trees()
    varied = varied_keywords(trees)
    fixed = [f"{owner}.{name}" for owner, name in defaulted_fields(trees) if name not in varied]
    assert not fixed, f"fields the package never sets from a computed value: {fixed}"


def test_the_default_scan_sees_defaulted_fields():
    fields = defaulted_fields(_trees())
    assert ("cli.py:SweepConfig", "seed") in fields
    assert ("netmodel.py:Network", "topology") not in fields  # field(init=False)
