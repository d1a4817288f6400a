"""Multirobot CBF-QP collision avoidance with deadlock analysis and resolution.

The package is organized module-per-concern, listed in layer order: a
module imports only the modules above it, and only at its top.

* ``errors``     the typed ToolkitError hierarchy
* ``core``       domain types, gains, PD goal controller, the Euler step
* ``qp``         the per-robot QP and its exact primal-dual solver
* ``cbf``        pairwise safety index and the per-robot QPs (PairField)
* ``deadlock``   detection, set membership, analytical deadlock families
* ``graphenum``  contact-graph counting, enumeration and planar embedding
* ``resolution`` three-phase deadlock resolution supervisor
* ``logio``      the scenario schema, the trajectory log and their file formats
* ``audit``      the post-hoc audit of a log, sharing no code with the run
* ``sim``        the integration loop and the canonical scenarios
* ``cli``        command-line entry points (run / families / census / verify)
"""

from .audit import AuditReport, audit_log
from .cbf import PairField
from .core import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    goal_bearing,
    goal_direction,
    goal_separation,
    pd_control,
    unit_vector,
    wrap_angle,
)
from .deadlock import (
    DeadlockReport,
    ThreeRobotCategory,
    boundedness_identity,
    catB_parametrized,
    classify_three_robot,
    collinear_family,
    detect_deadlock,
    system_deadlock,
    three_robot_family_catA,
    three_robot_family_catB,
    verify_boundary_membership,
)
from .errors import (
    BoundarySingularityError,
    CoincidentRobotsError,
    QPInfeasibleError,
    SafetyViolationError,
    SimulationAbort,
    ToolkitError,
    UnsupportedScenarioError,
    ZeroVectorError,
)
from .graphenum import (
    EmbeddingResult,
    LabeledGraph,
    census_table,
    connected_count,
    embed_graph,
    enumerate_connected,
    lower_bound,
    upper_bound,
)
from .logio import Scenario, TrajectoryLog, export_log, load_log, load_scenario, save_scenario
from .qp import QPProblem, QPSolution, solve_qp
from .resolution import PhaseState, ResolutionConfig, supervisor_step
from .sim import default_head_on_scenario, integrate_step, run_scenario, three_robot_cat_a_scenario

__version__ = "0.1.0"
