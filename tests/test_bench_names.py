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


def dotted(node: ast.expr) -> str:
    """The name an argument spells: ``schwarz`` or ``schwarz.RestrictedSolve``."""
    return node.id if isinstance(node, ast.Name) else f"{dotted(node.value)}.{node.attr}"


def traced_names(source: str) -> list[tuple[str, str]]:
    """(target, attribute) of every ``tracer.wrap(target, "attr", ...)`` in
    the `install` of ``source``, the target a module or a dotted name in
    one (``schwarz.RestrictedSolve``), and of every module attribute it
    assigns (``schwarz.splu``)."""
    install = next(
        node for node in ast.parse(source).body
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
            target, attr = node.args[:2]
            names.append((dotted(target), attr.value))
        elif isinstance(node, ast.Assign):
            names += [
                (dotted(target.value), target.attr)
                for target in node.targets if isinstance(target, ast.Attribute)
            ]
    return names


with open(SPANS) as f:
    NAMES = traced_names(f.read())


def test_the_parse_finds_the_layers():
    assert ("schwarz", "splu") in NAMES
    assert ("schwarz", "preconditioned_operator") in NAMES
    assert len(NAMES) >= 15


@pytest.mark.parametrize("target, attr", NAMES, ids=[".".join(name) for name in NAMES])
def test_traced_name_exists(target, attr):
    module, *path = target.split(".")
    owner = importlib.import_module(f"elastic_schwarz.{module}")
    for name in path:
        owner = getattr(owner, name)
    assert callable(getattr(owner, attr))


def test_a_class_attribute_target():
    # a method wrapped on its class names the class as a dotted target
    source = (
        "def install(tracer):\n"
        "    from elastic_schwarz import schwarz\n"
        '    tracer.wrap(schwarz.RestrictedSolve, "__call__", "schwarz.ras")\n'
        "    schwarz.splu = None\n"
    )
    names = traced_names(source)
    assert sorted(names) == [("schwarz", "splu"), ("schwarz.RestrictedSolve", "__call__")]
    test_traced_name_exists("schwarz.RestrictedSolve", "__call__")
