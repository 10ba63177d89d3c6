"""The public surface, pinned so that a change to it has to be deliberate:
the names `swindex` exports, which are exactly the modules' own `__all__`
lists, and the signatures of the names the benchmark harness in bench/ reads
module by module, that no check in the package is an assert statement, that
only `cli.main` turns an exception into an exit code, and that no line of the
package is over 100 characters."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import swindex
from swindex.errors import UsageError

PUBLIC = [
    "BOUNDS",
    "BOUND_IDS",
    "BoundReport",
    "BranchMove",
    "Certificate",
    "Graph",
    "GraphFormatError",
    "PreconditionError",
    "SweepRow",
    "WeightFn",
    "__version__",
    "all_pairs_distances",
    "applicable",
    "as_weights",
    "avg_steiner_distance",
    "bfs_distances",
    "bound_rhs",
    "certificate_from_json",
    "certificate_to_json",
    "check",
    "check_all",
    "classic",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "diameter",
    "empty_graph",
    "format_edge_list",
    "has_triangle",
    "is_connected",
    "is_tree",
    "is_two_connected",
    "matching_spanning_tree",
    "min_degree_extremal",
    "moves_to_json",
    "packing_spanning_tree",
    "parse_edge_list",
    "parse_weight_file",
    "path_graph",
    "relocate_branches",
    "relocation_sw_delta",
    "sequential_sum",
    "star_graph",
    "steiner_distance",
    "steiner_wiener",
    "steiner_wiener_weighted",
    "steiner_wiener_weighted_naive",
    "steiner_wiener_weighted_tree",
    "straighten_to_path",
    "sweep_csv",
    "tightness_sweep",
    "triangle_free_extremal",
    "verify_certificate",
]

# module.name -> parameter names (fields, for dataclasses built positionally)
HARNESS = {
    "bounds.applicable": ("g", "which", "k"),
    "bounds.check": ("g", "which", "k"),
    "cli.main": ("argv",),
    "construct.certificate_from_json": ("text",),
    "construct.certificate_to_json": ("cert",),
    "construct.matching_spanning_tree": ("g", "start_edge"),
    "construct.packing_spanning_tree": ("g", "start"),
    "construct.verify_certificate": ("cert", "g", "k"),
    "families.SweepRow": ("d", "n", "sw", "bound_term", "ratio", "has_triangle"),
    "families.cycle_graph": ("n",),
    "families.empty_graph": ("n",),
    "families.min_degree_extremal": ("d", "delta"),
    "families.path_graph": ("n",),
    "families.sequential_sum": ("parts",),
    "families.sweep_csv": ("rows",),
    "families.triangle_free_extremal": ("d", "delta"),
    "graph.Graph": ("n", "adj"),
    "graph.has_triangle": ("g",),
    "graph.is_tree": ("g",),
    "graph.parse_edge_list": ("text",),
    "steiner.avg_steiner_distance": ("g", "k"),
    "steiner.steiner_wiener": ("g", "k"),
    "steiner.steiner_wiener_weighted": ("g", "weights", "k"),
    "steiner.steiner_wiener_weighted_naive": ("g", "weights", "k"),
    "steiner.steiner_wiener_weighted_tree": ("t", "weights", "k"),
    "transforms.moves_to_json": ("trace",),
    "transforms.relocation_sw_delta": ("move", "weights", "k"),
    "transforms.straighten_to_path": ("tree", "weights", "k"),
    "weights.parse_weight_file": ("text", "n"),
}


def test_public_names():
    assert sorted(swindex.__all__) == PUBLIC
    assert all(hasattr(swindex, name) for name in PUBLIC)
    assert isinstance(swindex.bounds.BOUND_IDS, tuple)  # the harness iterates it


MODULES = ("bounds", "construct", "errors", "families", "graph", "steiner", "transforms", "weights")


def test_each_module_list_is_what_the_package_republishes():
    declared = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"swindex.{name}")
        for public in module.__all__:
            assert public in vars(module), f"{name}.__all__ names undefined {public}"
            assert getattr(swindex, public) is getattr(module, public)
        declared += module.__all__
    assert len(declared) == len(set(declared))  # no name is republished twice
    assert sorted(declared) == sorted(swindex.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_submodules_are_not_shadowed(name):
    # the harness reads swindex.<module>.<name>: no republished name may hide a module
    assert inspect.ismodule(getattr(swindex, name))


def test_package_lines_fit_100_columns():
    package = Path(swindex.__file__).parent
    found = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


@pytest.mark.parametrize("qualified", sorted(HARNESS))
def test_harness_signatures(qualified):
    module, name = qualified.split(".")
    obj = getattr(importlib.import_module(f"swindex.{module}"), name)
    if dataclasses.is_dataclass(obj):
        params = tuple(f.name for f in dataclasses.fields(obj))
    else:
        params = tuple(inspect.signature(obj).parameters)
        assert obj.__name__ == name  # the harness labels its timings by __name__
    assert params == HARNESS[qualified]


def test_package_has_no_assert_statements():
    # python -O strips assert statements: a proof in the package raises
    # explicitly, so it holds under -O too
    package = Path(swindex.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_usage_error_is_a_precondition_error():
    # library callers that catch PreconditionError still catch a usage refusal
    assert issubclass(UsageError, swindex.PreconditionError)
    assert "UsageError" not in swindex.__all__


def test_only_main_catches_in_the_cli():
    # a refusal's exit code follows from its type, mapped once in main: no
    # other function of cli.py may catch an exception
    tree = ast.parse(Path(swindex.cli.__file__).read_text())
    main = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    allowed = {id(node) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and id(node) not in allowed
    ]
    assert allowed and found == []
