"""A graph stores its topology once: the CSR arrays.

``Graph`` keeps ``indptr``/``indices`` and nothing else topological; the
list-of-sets ``graph.adjacency`` is a lazy view over those arrays that
the graph builds itself.  These structure checks keep a second store
from creeping back: no other module builds a ``LazyAdjacency``, and no
module hands ``Graph(...)`` a list of sets.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: The one module that builds the neighbour-set view.
VIEW_OWNER = "graphs/graph.py"

_LIST_NODES = (ast.List, ast.ListComp, ast.Set, ast.SetComp)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield str(path.relative_to(SRC)), ast.parse(path.read_text(), str(path))


def _called_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_list_like(node: ast.AST) -> bool:
    """A list/set display or comprehension, or a ``list(...)`` copy."""
    if isinstance(node, _LIST_NODES):
        return True
    return isinstance(node, ast.Call) and _called_name(node) == "list"


def _graph_topology_arguments(tree: ast.AST):
    """Yield ``(call, argument, values bound to it)`` for every
    ``Graph(...)`` call's first argument.  Bindings are collected module
    wide, which can only over-report a name reused across functions."""
    bindings: dict[str, list[ast.AST]] = {}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bindings.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.Call) and _called_name(node) == "Graph":
            calls.append(node)
    for call in calls:
        argument = call.args[0] if call.args else next(
            (kw.value for kw in call.keywords if kw.arg == "csr"), None
        )
        if argument is None:
            continue
        bound = []
        if isinstance(argument, ast.Name):
            bound = bindings.get(argument.id, [])
        yield call, argument, bound


def test_only_the_graph_builds_the_neighbour_set_view():
    builders = sorted(
        {
            name
            for name, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "LazyAdjacency"
        }
    )
    assert builders == [VIEW_OWNER]


def test_no_module_hands_graph_a_list_of_sets():
    seen = 0
    offenders = []
    for name, tree in _modules():
        for call, argument, bound in _graph_topology_arguments(tree):
            seen += 1
            if _is_list_like(argument) or any(map(_is_list_like, bound)):
                offenders.append(f"{name}:{call.lineno}")
    assert seen > 0  # the scan does find the constructor calls
    assert offenders == []


def test_the_guard_flags_a_list_of_sets():
    tree = ast.parse(
        "def f(graph):\n"
        "    adjacency = [set() for __ in range(graph.n)]\n"
        "    return Graph(adjacency, graph.weights)\n"
    )
    (__, argument, bound), = _graph_topology_arguments(tree)
    assert isinstance(argument, ast.Name) and _is_list_like(bound[0])
