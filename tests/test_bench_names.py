"""The benchmark's tracer (`bench/spans.py`) replaces package attributes
by name in `install`, through `getattr`: a renamed or removed one crashes
every traced benchmark run."""

import ast
import importlib
import os

import pytest

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py"
)


def traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of every ``tracer.wrap(module, "attr", ...)`` in
    `install` and of every module attribute it assigns (``schwarz.splu``)."""
    with open(SPANS) as f:
        tree = ast.parse(f.read())
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    names = []
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
        ):
            module, attr = node.args[:2]
            names.append((module.id, attr.value))
        elif isinstance(node, ast.Assign):
            names += [
                (target.value.id, target.attr)
                for target in node.targets if isinstance(target, ast.Attribute)
            ]
    return names


NAMES = traced_names()


def test_the_parse_finds_the_layers():
    assert ("schwarz", "splu") in NAMES
    assert ("schwarz", "preconditioned_operator") in NAMES
    assert len(NAMES) >= 15


@pytest.mark.parametrize("module, attr", NAMES, ids=[".".join(name) for name in NAMES])
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"elastic_schwarz.{module}"), attr))
