"""The reference engine stays out of production, and the engine knob is gone.

:mod:`repro.reference` holds the set-of-sets implementations that tests
and benches compare the CSR engine against.  Production code must never
depend on it, and no public entry point may offer an engine switch.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.reference" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.reference":
                return True
            if node.module == "repro" and any(
                alias.name == "reference" for alias in node.names
            ):
                return True
    return False


#: The experiment grid's ``reference`` tier times the set engine as a
#: yardstick, the way the benches under ``benchmarks/`` do; it is the one
#: module outside ``reference.py`` allowed to import it, and only inside a
#: function, so importing the bench harness never loads the oracle.
BENCH_YARDSTICK = "bench/grid.py"


def test_no_production_module_imports_reference():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "reference.py"
        and str(path.relative_to(SRC)) != BENCH_YARDSTICK
        and _imports_reference(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_the_grid_imports_reference_lazily():
    tree = ast.parse((SRC / BENCH_YARDSTICK).read_text())
    assert _imports_reference(tree)
    assert not any(
        _imports_reference(node)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def _public_callables():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if callable(member) and (
                        not attr.startswith("_") or attr == "__init__"
                    ):
                        yield f"{info.name}.{name}.{attr}", member
            elif callable(obj):
                yield f"{info.name}.{name}", obj


def test_no_public_callable_takes_a_backend_parameter():
    offenders = []
    for qualname, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "backend" in parameters:
            offenders.append(qualname)
    assert offenders == []


def test_reference_exports_resolve():
    from repro import reference

    assert all(hasattr(reference, name) for name in reference.__all__)


def test_set_engine_swaps_every_engine_factory_and_restores_it():
    from repro import reference
    from repro.influential import improved, local_search, naive_sum

    def factories():
        return (
            improved.seed_candidates,
            improved.expansion_context,
            naive_sum.seed_candidates,
            naive_sum.expansion_context,
            local_search.strategy_for,
        )

    production = factories()
    with reference.set_engine():
        assert factories() == (
            reference.seed_candidates,
            reference.expansion_context,
            reference.seed_candidates,
            reference.expansion_context,
            reference.strategy_for,
        )
    assert factories() == production
