"""Each module of the package hides its own decisions: no module imports
or reads a private name (one with a leading underscore) of a sibling."""

import ast
from pathlib import Path

import blockshift

PACKAGE = Path(blockshift.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def private_reads(module: str, source: str) -> list[str]:
    """``from .<sibling> import _name`` and ``<sibling>._name`` in one module."""
    tree = ast.parse(source)
    # local names bound to sibling modules by ``from . import sibling [as name]``
    bound = {name: name for name in SIBLINGS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound.update({alias.asname or alias.name: alias.name for alias in node.names})
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in SIBLINGS:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and node.attr.startswith("_")):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return [f"{module} reads {name}" for name in found]


def test_finds_each_form_of_a_private_read():
    source = ("from .schedule import LevelCheck, _check_level\n"
              "from . import mobius, words as w\n"
              "a = mobius._SEGMENT + w._BATCH_CELLS\n"
              "b = mobius.mobius_sieve, self._cache, __name__\n")
    assert private_reads("probe", source) == [
        "probe reads schedule._check_level",
        "probe reads mobius._SEGMENT",
        "probe reads words._BATCH_CELLS",
    ]


def test_no_module_reads_a_private_name_of_another():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in private_reads(path.stem, path.read_text())]
    assert found == []
