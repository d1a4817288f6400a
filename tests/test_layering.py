"""The package's modules import one way, down the layer order, and only at their top; it exports a pinned name set."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mrdeadlock

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mrdeadlock"
TRACER = ROOT / "perfbench" / "tracer.py"

# A module may import only the modules before it; the package __init__ comes last.
LAYERS = ("errors", "core", "qp", "cbf", "deadlock", "graphenum", "resolution", "logio", "audit", "sim", "cli",
          "__init__")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_statements_of_the_module_body(module):
    # an import in a function, a class or an `if TYPE_CHECKING` block hides a dependency
    tree = _tree(module)
    top = {id(node) for node in tree.body}
    hidden = [
        f"{module}.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert hidden == []


@pytest.mark.parametrize("module", MODULES)
def test_relative_imports_follow_the_layer_order(module):
    rank = LAYERS.index(module)
    upward = []
    for node in ast.walk(_tree(module)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        # `from .qp import x` names the module; `from . import qp` names it in the alias
        targets = [node.module] if node.module else [alias.name for alias in node.names]
        upward += [f"{module}.py:{node.lineno} imports {t}" for t in targets if LAYERS.index(t) >= rank]
    assert upward == []


def _traced_bindings() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for module, attr, _ in tracer.BINDINGS}


# The third-party packages each module imports: the QP layer uses no LP
# library, the embedding search no optimizer library, and the loop in sim
# calls into none.
THIRD_PARTY = {"cbf": {"numpy"}, "graphenum": {"numpy"}, "logio": {"numpy", "yaml"}, "audit": {"numpy"}}


@pytest.mark.parametrize("module", MODULES)
def test_third_party_imports_are_the_pinned_ones(module):
    packages = set()
    for node in _tree(module).body:
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    assert packages - sys.stdlib_module_names == THIRD_PARTY.get(module, set())


def test_audit_takes_no_code_from_the_run():
    # the audit fails a fault in the run's pair pass or QPs only if it calls
    # neither: besides logio's schema it takes constants and the pair order
    taken = []
    for node in ast.walk(_tree("audit")):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            module, name = (node.module, alias.name) if node.module else (alias.name, "*")
            if module == "logio" or (module in ("cbf", "qp") and (name.isupper() or name == "pair_indices")):
                continue
            taken.append(f"audit.py:{node.lineno} imports {module}.{name}")
    assert taken == []


@pytest.mark.parametrize("name, home", [("export_log", "logio"), ("load_log", "logio"), ("audit_log", "audit")])
def test_sim_binds_the_log_functions_of_their_home_modules(name, home):
    # perfbench calls them through mrdeadlock.sim, where its span tracer wraps them
    sim = importlib.import_module("mrdeadlock.sim")
    assert getattr(sim, name) is getattr(importlib.import_module(f"mrdeadlock.{home}"), name)


# the package __init__ imports only to re-export: its imports are the public API
@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used_or_traced(module):
    # a name bound only for the benchmark's span tracer must be one it wraps
    tree = _tree(module)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = _traced_bindings()
    unused = [
        f"{module}.py:{line} imports {name}"
        for name, line in imported.items()
        if name not in used and (f"mrdeadlock.{module}", name) not in traced
    ]
    assert unused == []


PUBLIC_API = {
    "AuditReport", "BoundarySingularityError", "CoincidentRobotsError", "DeadlockReport",
    "EmbeddingResult", "GoalSpec", "LabeledGraph", "PairField", "Params", "PhaseState",
    "QPInfeasibleError", "QPProblem", "QPSolution", "ResolutionConfig", "RobotState", "SafetyViolationError",
    "Scenario", "SimulationAbort", "ThreeRobotCategory", "ToolkitError", "TrajectoryLog",
    "UnsupportedScenarioError", "WorldState", "ZeroVectorError",
    "audit_log", "boundedness_identity", "catB_parametrized", "census_table",
    "classify_three_robot", "collinear_family", "connected_count",
    "default_head_on_scenario", "detect_deadlock", "embed_graph", "enumerate_connected",
    "export_log", "goal_bearing", "goal_direction", "goal_separation", "integrate_step", "load_log",
    "load_scenario", "lower_bound", "pd_control", "run_scenario",
    "save_scenario", "solve_qp", "supervisor_step",
    "system_deadlock", "three_robot_cat_a_scenario", "three_robot_family_catA", "three_robot_family_catB",
    "unit_vector", "upper_bound", "verify_boundary_membership",
    "wrap_angle",
}


def test_public_api_is_the_pinned_name_set():
    # the package's public names, counted as the benchmark's `public_api`
    # counts them: no leading underscore, no submodule
    public = {
        name for name, value in vars(mrdeadlock).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_API) == 56
    assert sorted(public - PUBLIC_API) == [] and sorted(PUBLIC_API - public) == []


# The 2-robot run of test_sim's infeasible-QP abort: robot 0's first QP is empty.
INFEASIBLE_RUN = """
from mrdeadlock import GoalSpec, Params, RobotState, Scenario, SimulationAbort, run_scenario
try:
    run_scenario(Scenario(
        params=Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0)),
        initial=(RobotState(p=(0.0, 0.0), v=(0.0025, 0.0)), RobotState(p=(0.5 + 1e-6, 0.0), v=(-0.0025, 0.0))),
        goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))), controller="cbf-qp-only", t_max=1.0))
except SimulationAbort as exc:
    print(exc.kind)
"""


# A census, the CLI's census, a head-on run through the log round trip and
# its audit, and the infeasible-QP abort, with every import of scipy failing.
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
from mrdeadlock import audit_log, census_table, default_head_on_scenario, export_log, load_log, run_scenario
from mrdeadlock.cli import main
print([row["admissible"] for row in census_table(4, 20)])
print(main(["census", "--n-max", "3"]), file=sys.stderr)
export_log(run_scenario(default_head_on_scenario(t_max=2.0)), "json", sys.argv[1])
print(audit_log(load_log(sys.argv[1])).ok)
"""


def test_the_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: `import scipy.optimize` after numpy
    # took 0.31-0.48 s and raised the peak RSS from 27 to 76 MB (3 runs,
    # shared 2-vCPU host, Python 3.11.7, scipy 1.17.1)
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN + INFEASIBLE_RUN, str(tmp_path / "head_on.json")],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "0\n"
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["[1,", "1,", "4,", "37]"],
        ["N", "upper", "connected", "admissible", "lower"],
        ["1", "1", "1", "1", "1"],
        ["2", "2", "1", "1", "1"],
        ["3", "8", "4", "4", "4"],
        ["True"],
        ["qp-infeasible"],
    ]
