"""Guards for logic that must live in one place: every SolverConfig is built
by ``bench.solver_config``, the angle file name is spelled out only by
``angles.angle_file_name``, ``engines.expectation`` is one route with no
branch (it contracts every cone; the p = 1 closed form and dense
statevector are test oracles that stay in ``engines`` only because the
benchmark tracer names them), the Ising coefficients come from
``graph.IsingParams`` alone, ``solver._greedy`` is the one greedy loop,
``cones.tree_key`` is the one tree encoder and the only outside caller of
``cones._tree_code``, ``graph.check_regular`` is the one test of which
regular graphs exist, ``engines.sample_shots`` is the one shot sampler,
``cones.key_digest`` is the one per-cone random source (shot words and
noise offsets alike), and ``ExpectationCache.value`` is the one place a
missed class is evaluated.  Every expectation measures its cone's roots,
only pruned circuits are built, and no package call sets the contraction
budget, the statevector cap or a recompute mode.  Every public function
and class of the package is used by the package, a script or the
benchmark, or named in the README's code: test oracles live in
``tests/helpers.py``, and no name the README places there or in
a script comes back into the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qgreedy").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])
USERS = sorted([*SOURCES, *(ROOT / "perfbench").glob("*.py")])
MODULES = {"qgreedy", *(path.stem for path in PACKAGE)}
HOME = re.compile(
    r"`(?P<name>\w+)` in\s+`(?P<file>(?:tests|scripts)/\w+\.py)`"
    r"|`(?P<file2>(?:tests|scripts)/\w+\.py)`\s+(?:\(|as\s+)`(?P<name2>\w+)`"
)
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)  # fenced blocks, inline spans


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


def test_miss_evaluated_in_one_place():
    # a missed class is evaluated on the cone its key describes, by the cache
    assert _sites(_calls_to("cone_from_key")) == [("engines.py", "value")]


def test_observable_is_not_a_parameter():
    # the measured qubits are the cone's roots, read off cone.dists
    params = {
        node.name: [a.arg for a in (*node.args.args, *node.args.kwonlyargs)]
        for path in PACKAGE
        for node in _functions(ast.parse(path.read_text()))
        if node.name in ("build_circuit", "expectation")
    }
    assert sorted(params) == ["build_circuit", "expectation"]
    assert [n for n, args in params.items() if "observable" in args] == []


def test_one_way_settings_are_not_parameters():
    # generate_regular's restart count is a module constant, evaluate_cone
    # reads the schedule off its cache, and build_circuit always prunes
    params = {
        node.name: [a.arg for a in (*node.args.args, *node.args.kwonlyargs)]
        for path in PACKAGE
        for node in _functions(ast.parse(path.read_text()))
        if node.name in ("generate_regular", "evaluate_cone", "build_circuit")
    }
    assert params == {"generate_regular": ["n", "d", "seed"],
                      "evaluate_cone": ["cone", "cache"],
                      "build_circuit": ["cone", "schedule"]}


def test_no_call_sets_a_fixed_value():
    # the budget and cap are module constants, and rescoring is incremental:
    # no call passes them and no function takes them
    fixed = ("budget", "cap", "full_recompute")

    def keywords(text, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(
                k.arg in fixed for k in node.keywords
            ):
                yield node.lineno

    def parameters(text, tree):
        for node in _functions(tree):
            args = node.args
            if any(a.arg in fixed for a in (*args.args, *args.kwonlyargs)):
                yield node.lineno

    assert _sites(keywords) == []
    # the exceptions report the budget or cap that was tripped
    assert [s for s in _sites(parameters) if s[0] != "errors.py"] == []


def test_closed_form_is_oracle_only():
    assert _sites(_calls_to("expectation_p1_analytic")) == []


def test_one_engine_route():
    # engines.expectation contracts every cone: no branch picks a route
    tree = ast.parse((ROOT / "src" / "qgreedy" / "engines.py").read_text())
    body = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "expectation")
    branches = [type(n).__name__ for n in ast.walk(body)
                if isinstance(n, (ast.If, ast.IfExp, ast.Match))]
    assert branches == []


def _defined(path):
    """Module-level function and class names of one file."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _module_attribute(node):
    """Whether ``node`` is ``m.name`` on a package module (``graph.x``,
    ``qgreedy.solver.x``), not an attribute of some object."""
    base = node.value
    while isinstance(base, ast.Attribute):
        base = base.value
    return isinstance(base, ast.Name) and base.id in MODULES


def _name_uses():
    """name -> (file, line) of each use: a bare name read (not a local or
    a field assigned), an attribute of a package module, or a dotted part
    of a perfbench string (its span targets name what they patch)."""
    uses = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and _module_attribute(node):
                names = [node.attr]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.parent.name == "perfbench"):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _readme_homes():
    """(name, file) for each name README places outside the package:
    "`name` in `tests/helpers.py`" or "`scripts/x.py` (`name`)"."""
    readme = (ROOT / "README.md").read_text()
    return sorted(
        (m["name"] or m["name2"], m["file"] or m["file2"])
        for m in HOME.finditer(readme)
    )


def test_package_defines_no_test_only_names():
    # every public function or class is used outside its own definition by
    # the package, a script or perfbench, or named in the README's code (a
    # prose word such as "energy" is no document, nor is a name the README
    # places in tests/ or scripts/)
    uses = _name_uses()
    code = CODE.findall((ROOT / "README.md").read_text())
    documented = (set(re.findall(r"\w+", "\n".join(code)))
                  - {name for name, _ in _readme_homes()})
    unused = [
        (path.name, node.name)
        for path in PACKAGE
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in documented
        and all(p == path and node.lineno <= line <= node.end_lineno
                for p, line in uses.get(node.name, ()))
    ]
    assert unused == []


def test_names_kept_outside_the_package_stay_there():
    # each name README places in tests/helpers.py or a script is defined
    # there, and no package module defines a name that tests/helpers.py or
    # a script defines (every entry point is called main)
    homes = _readme_homes()
    assert homes
    assert [(n, f) for n, f in homes if n not in _defined(ROOT / f)] == []
    outside = set().union(*map(_defined, [ROOT / "tests" / "helpers.py",
                                          *(ROOT / "scripts").glob("*.py")]))
    package = set().union(*map(_defined, PACKAGE))
    assert sorted(package & outside) == ["main"]


def test_one_greedy_loop():
    # both greedy solvers run _greedy; a classical fast path would fork it
    assert sorted(_sites(_calls_to("_greedy"))) == [
        ("solver.py", "solve_classical_greedy"),
        ("solver.py", "solve_quantum_greedy"),
    ]


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
    # canonical_key keys a tree cone through tree_key, not a second walk
    assert sorted(_sites(_calls_to("_tree_code"))) == [
        ("cones.py", "_tree_code"),
        ("cones.py", "tree_key"),
    ]


def test_one_shot_sampler():
    # shot counts come from inverting the binomial CDF in sample_shots; a
    # numpy generator's binomial would be a second stream
    found = [
        (path.name, lineno)
        for path in PACKAGE
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "PCG64" in line or ".binomial(" in line
    ]
    assert found == []


def test_one_keyed_random_source():
    # shot words and noise offsets both read the BLAKE2b word of key_digest;
    # a per-key numpy generator in the noise model would be a second source
    assert _sites(_calls_to("blake2b")) == [("cones.py", "key_digest")]
    assert sorted(_sites(_calls_to("key_digest"))) == [
        ("noise.py", "noise_offset"), ("solver.py", "shot_advice")
    ]
    for name in ("SeedSequence", "default_rng"):
        assert [f for f, _ in _sites(_calls_to(name)) if f == "noise.py"] == []
