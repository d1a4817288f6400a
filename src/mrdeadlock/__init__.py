"""Multirobot CBF-QP collision avoidance with deadlock analysis and resolution.

The package is organized module-per-concern, listed in layer order: a
module imports only the modules above it, and only at its top.

* ``errors``     the typed ToolkitError hierarchy
* ``core``       domain types, gains, PD goal controller, the Euler step
* ``qp``         the QP row layout and its exact primal-dual solver
* ``cbf``        pairwise safety index and per-robot constraint assembly
* ``deadlock``   detection, set membership, analytical deadlock families
* ``graphenum``  contact-graph counting, enumeration and planar embedding
* ``resolution`` three-phase deadlock resolution supervisor
* ``sim``        scenario config, integration loop, logging, audits
* ``cli``        command-line entry points (run / families / census / verify)
"""

from .cbf import (
    assemble_qp,
    constraint_bound,
    decentralized_rows,
    safety_index,
    safety_index_signed,
)
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
from .qp import ConstraintRow, KKTReport, QPProblem, QPSolution, solve_qp, verify_kkt
from .resolution import Phase, PhaseState, ResolutionConfig, supervisor_step
from .sim import (
    AuditReport,
    Scenario,
    TrajectoryLog,
    audit_log,
    default_head_on_scenario,
    export_log,
    integrate_step,
    load_log,
    load_scenario,
    run_scenario,
    save_scenario,
    three_robot_cat_a_scenario,
)

__version__ = "0.1.0"
