"""Exception hierarchy shared across the toolkit.

An error a simulation step can raise names, as ``abort_kind``, the
SimulationAbort kind that run_scenario turns it into.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all mrdeadlock errors; an error no step turns into an abort has abort_kind None."""

    abort_kind: str | None = None


class SafetyViolationError(ToolkitError):
    """Two robots are closer than the safety margin.

    Carries the penetration depth ``Ds - ||dp||`` so the caller can decide
    whether to abort the run or just report it.
    """

    abort_kind = "safety-violation"

    def __init__(self, penetration: float, pair: tuple[int, int] | None = None):
        self.penetration = float(penetration)
        self.pair = pair
        where = f" (pair {pair})" if pair is not None else ""
        super().__init__(f"safety margin violated{where}: penetration {penetration:.3e} m")


class CoincidentRobotsError(ToolkitError):
    """Two robots occupy the same position; pairwise quantities are undefined."""

    abort_kind = "coincident-robots"


class BoundarySingularityError(ToolkitError):
    """Constraint bound evaluated at ||dp|| = Ds with nonzero radial velocity.

    The middle term of the bound divides by sqrt(||dp|| - Ds); it is only
    defined on the boundary when the radial velocity vanishes too.
    """

    abort_kind = "boundary-singularity"


class ZeroVectorError(ToolkitError):
    """An operation received a zero vector where a direction is required."""


class QPInfeasibleError(ToolkitError):
    """The per-robot QP admits no feasible control."""

    abort_kind = "qp-infeasible"

    def __init__(self, message: str, snapshot: dict | None = None):
        self.snapshot = snapshot or {}
        super().__init__(message)


class SimulationAbort(ToolkitError):
    """A scenario run stopped on a fatal condition (infeasibility, safety breach).

    ``kind`` is a short diagnostic class suitable for stderr / exit reporting.
    """

    def __init__(self, kind: str, message: str, snapshot: dict | None = None):
        self.kind = kind
        self.snapshot = snapshot or {}
        super().__init__(f"[{kind}] {message}")


class UnsupportedScenarioError(ToolkitError):
    """The resolution supervisor cannot handle this configuration (e.g. N >= 4)."""

    abort_kind = "unsupported-deadlock"
