"""Every ``src/repro`` module is reachable from an entry point.

A module that only tests import is code nobody runs.  This walks the
static import graph (stdlib :mod:`ast`, every ``import`` statement,
including the lazy ones inside functions) from the public package and
the CLI, and fails on any module it never reaches that is not an oracle
on :data:`ORACLES`.  Delete such a module, or give it a caller.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: The entry points: the public package, ``python -m repro`` and the CLI
#: it runs.
ROOTS = ("repro", "repro.__main__", "repro.cli")

#: Oracles that tests compare production code against; nothing in
#: production may call them, so no entry point reaches them.
ORACLES = {
    # The set-of-sets engine (test_reference_boundary.py keeps it out of
    # production) and the structural checks the graph tests run.
    "repro.reference",
    # The brute-force serving oracle behind the tests/serving suites.
    "repro.serving.oracle",
}


def _module_names() -> dict[str, pathlib.Path]:
    names = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names[".".join(parts)] = path
    return names


def _imported(tree: ast.AST, known: dict) -> set[str]:
    """The known modules ``tree`` imports, with their parent packages (an
    import runs every ``__init__`` on the way down)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from pkg import name`` loads pkg.name when it is a module.
            targets = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            for depth in range(1, len(parts) + 1):
                prefix = ".".join(parts[:depth])
                if prefix in known:
                    found.add(prefix)
    return found


def unreachable_modules() -> list[str]:
    known = _module_names()
    seen = set()
    stack = [root for root in ROOTS if root in known]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(known[name].read_text(), str(known[name]))
        stack.extend(_imported(tree, known) - seen)
    return sorted(set(known) - seen - ORACLES)


def test_every_module_is_reachable_from_an_entry_point():
    assert unreachable_modules() == []


def test_the_oracles_exist():
    assert ORACLES <= set(_module_names())
