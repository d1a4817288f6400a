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
LAYERS = ("errors", "core", "qp", "cbf", "deadlock", "graphenum", "resolution", "sim", "cli", "__init__")
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
# library, and only the embedding search calls into scipy.
THIRD_PARTY = {"cbf": {"numpy"}, "graphenum": {"numpy", "scipy"}, "sim": {"numpy", "yaml"}}


@pytest.mark.parametrize("module", MODULES)
def test_third_party_imports_are_the_pinned_ones(module):
    packages = set()
    for node in _tree(module).body:
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    assert packages - sys.stdlib_module_names == THIRD_PARTY.get(module, set())


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


def test_importing_the_package_does_not_load_scipy_optimize():
    # only the embedding search calls into it, and it costs about 0.2 s and
    # 50 MB to load; the phase-I probe that certifies an empty QP needs no LP library
    loaded = "print('scipy.optimize' in sys.modules)"
    code = f"import sys, mrdeadlock\n{loaded}\n{INFEASIBLE_RUN}\n{loaded}"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "qp-infeasible", "False"]
