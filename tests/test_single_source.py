"""Guards for logic that must live in one place: every SolverConfig is built
by ``bench.solver_config``, the angle file name is spelled out only by
``angles.angle_file_name``, ``engines.expectation`` is the one routing
decision (the closed form at depth 1, else contraction; dense statevector
is a test oracle only), the Ising coefficients come from
``graph.IsingParams`` alone, ``cones._tree_code`` is the one tree encoder,
and ``graph.check_regular`` is the one test of which regular graphs exist.
The package defines none of the test oracles (they live in
``tests/helpers.py``) nor the depth-trend fits (``scripts/run_bench.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qgreedy").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


def _functions(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _owner(functions, lineno):
    """Name of the innermost function spanning ``lineno``, or None."""
    spans = [f for f in functions if f.lineno <= lineno <= f.end_lineno]
    return max(spans, key=lambda f: f.lineno).name if spans else None


def _sites(predicate):
    """(file, function) of each source line or call the predicate picks."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text)
        for lineno in predicate(text, tree):
            found.append((path.name, _owner(_functions(tree), lineno)))
    return found


def _calls_to(callee):
    def calls(text, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name == callee:
                    yield node.lineno

    return calls


def _file_name_formats(text, tree):
    for lineno, line in enumerate(text.splitlines(), 1):
        if "_lam{" in line:
            yield lineno


def _divisions_by_four(text, tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 4):
            yield node.lineno


def test_solver_config_built_in_one_place():
    assert _sites(_calls_to("SolverConfig")) == [("bench.py", "solver_config")]


def test_angle_file_name_spelled_once():
    assert _sites(_file_name_formats) == [("angles.py", "angle_file_name")]


def test_dense_statevector_is_oracle_only():
    assert _sites(_calls_to("expectation_statevector")) == []


def test_contraction_called_only_by_the_router():
    assert _sites(_calls_to("expectation_contract")) == [
        ("engines.py", "expectation")
    ]


def test_closed_form_called_only_by_the_router():
    assert _sites(_calls_to("expectation_p1_analytic")) == [
        ("engines.py", "expectation")
    ]


def test_package_defines_no_test_only_names():
    # oracles moved to tests/helpers.py, the fits to scripts/run_bench.py
    moved = {"expectation_p1_edge", "energy_pauli", "tree_ball_size",
             "fit_curve", "CurveFit", "BenchmarkReport"}
    found = [
        (path.name, node.name)
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in moved
    ]
    assert found == []


def test_ising_coefficients_spelled_once():
    # lam / 4 and (lam d - 2) / 4 live in IsingParams.coupling and .field
    assert _sites(_divisions_by_four) == [
        ("graph.py", "coupling"), ("graph.py", "field")
    ]


def test_regular_sizes_checked_in_one_place():
    # the generator checks its own input; a plan checks every size up front
    assert sorted(_sites(_calls_to("check_regular"))) == [
        ("bench.py", "__post_init__"), ("graph.py", "generate_regular")
    ]


def test_one_tree_encoder():
    assert sorted(_sites(_calls_to("_tree_code"))) == [
        ("cones.py", "_tree_code"),
        ("cones.py", "canonical_key"),
        ("cones.py", "tree_key"),
    ]
