"""Seeded inputs for the four benchmark workloads, and their expected outputs.

Every round is built from its own random stream, keyed by workload, seed and
round index, so round r is the same whatever ran before it.  The library only
ever sees the finished ``Scenario`` objects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mrdeadlock import (
    GoalSpec,
    Params,
    ResolutionConfig,
    RobotState,
    Scenario,
    catB_parametrized,
    collinear_family,
    three_robot_family_catA,
)

DS = 0.5
GAINS = {"kp": 1.0, "kv": 3.0, "ds": DS}

# Phase-2 bearing gains for resolve_deadlock: overdamped like the PD gains but
# faster, so phase 3 starts after 4.5 s (two robots, category A) or 7.9 to
# 8.6 s (category B) of simulated time instead of 20 to 40 s.  Much stiffer
# gains (kp2 = 25, kv2 = 11) make phase 2 dip below the safety margin.
RESOLVE_CONFIG = ResolutionConfig(kp2=16.0, kv2=10.0)
# resolve_deadlock logs every 10th step: its runs are 5 000 to 9 500 steps
# long, and at one record per step writing and re-reading the JSON log would
# cost as much as the simulation whose phase-2 stepping the workload measures.
RESOLVE_LOG_EVERY = 10

# Ring sizes and horizons (integrator steps) of one crowd_ring round.
RING_STEPS = ((8, 60), (16, 30), (32, 12))

# The CLI-default census: upper, connected, admissible and lower per n = 1..4.
CENSUS_ARGS = {"n_max": 4, "attempts": 200}
CENSUS_EXPECTED = {
    "upper": (1, 2, 8, 64),
    "connected": (1, 1, 4, 38),
    "admissible": (1, 1, 4, 37),
    "lower": (1, 1, 4, 15),
}


@dataclass(frozen=True)
class Instance:
    """One scenario of a round and the event its log must contain."""

    label: str
    scenario: Scenario
    must_emit: str | None = None

    @property
    def n_robots(self) -> int:
        return len(self.scenario.initial)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _rotate(v: tuple[float, float], angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def headon_instance(rng: random.Random, t_max: float = 5.0) -> Instance:
    """Collinear head-on pair with swapped goals under the plain CBF-QP filter.

    Both robots share one alpha: with unequal alphas the stronger robot
    pushes the weaker one along the goal line and the pair never stops.
    Over these ranges deadlock is detected 3.9 to 4.7 s into the run.
    """
    theta = rng.uniform(-math.pi, math.pi)
    half = 0.5 * rng.uniform(0.8, 1.2)
    alpha = rng.uniform(4.0, 6.0)
    p1 = _rotate((-half, 0.0), theta)
    p2 = _rotate((half, 0.0), theta)
    scenario = Scenario(
        params=Params(alpha=(alpha, alpha), **GAINS),
        initial=(RobotState.at_rest(p1), RobotState.at_rest(p2)),
        goals=GoalSpec(pd=(p2, p1)),
        controller="cbf-qp-only",
        t_max=t_max,
    )
    return Instance("headon", scenario, "deadlock-detected")


def resolve_instances(rng: random.Random, scale: float = 1.0) -> list[Instance]:
    """Two-robot collinear, category-A and category-B starts in deadlock, three-phase."""
    params2 = Params(alpha=(5.0, 5.0), **GAINS)
    params3 = Params(alpha=(5.0, 5.0, 5.0), **GAINS)

    phi = rng.uniform(-math.pi, math.pi)
    half = 0.5 * rng.uniform(3.0, 5.0)
    goals2 = GoalSpec(pd=(_rotate((half, 0.0), phi), _rotate((-half, 0.0), phi)))
    two = collinear_family(goals2, params2, rng.uniform(0.3, 0.7))

    world_a, goals_a = three_robot_family_catA(params3, rng.uniform(1.5, 3.0))
    world_b, goals_b = catB_parametrized(
        params3,
        2.0,
        rng.uniform(-math.pi / 6.0 + 0.1, -0.1),
        rng.uniform(math.pi / 6.0 + 0.1, math.pi / 2.0 - 0.1),
    )

    def scenario(params, initial, goals, t_max):
        return Scenario(
            params=params, initial=tuple(initial), goals=goals, controller="three-phase",
            t_max=t_max * scale, resolution=RESOLVE_CONFIG, log_every=RESOLVE_LOG_EVERY,
        )

    return [
        Instance("two", scenario(params2, two, goals2, 5.0), "phase-3-start"),
        Instance("catA", scenario(params3, world_a.robots, goals_a, 5.0), "phase-3-start"),
        Instance("catB", scenario(params3, world_b.robots, goals_b, 9.5), "phase-3-start"),
    ]


def ring_instance(rng: random.Random, n: int, steps: int, gap: tuple[float, float]) -> Instance:
    """n robots at rest on a circle, neighbors a seeded gap outside contact, antipodal goals."""
    spacing = DS * (1.0 + rng.uniform(*gap))
    radius = spacing / (2.0 * math.sin(math.pi / n))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    points = [
        (radius * math.cos(phase + 2.0 * math.pi * k / n), radius * math.sin(phase + 2.0 * math.pi * k / n))
        for k in range(n)
    ]
    alphas = tuple(rng.uniform(4.5, 5.5) for _ in range(n))
    scenario = Scenario(
        params=Params(alpha=alphas, **GAINS),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=tuple((-x, -y) for x, y in points)),
        controller="cbf-qp-only",
        t_max=steps * 1e-3,
    )
    return Instance(f"n{n}", scenario)


def crowd_instances(rng: random.Random) -> list[Instance]:
    return [ring_instance(rng, n, steps, (0.01, 0.05)) for n, steps in RING_STEPS]


def ring64_probe(seed: int) -> Instance:
    """One step of a 64-robot ring loose enough that box rows (indices 63..66) bind."""
    return ring_instance(_rng("ring64", seed, 0), 64, 2, (0.2, 0.4))


def round_instances(workload: str, seed: int, round_index: int) -> list[Instance]:
    """The simulation instances of one round (empty for census)."""
    rng = _rng(workload, seed, round_index)
    if workload == "headon_deadlock":
        return [headon_instance(rng)]
    if workload == "resolve_deadlock":
        return resolve_instances(rng)
    if workload == "crowd_ring":
        return crowd_instances(rng)
    return []


def warmup_instances(workload: str, seed: int) -> list[Instance]:
    """Short runs that touch the same code paths as a round, run during set-up."""
    rng = _rng(workload, seed, -1)
    if workload == "headon_deadlock":
        return [headon_instance(rng, t_max=0.05)]
    if workload == "resolve_deadlock":
        return resolve_instances(rng, scale=0.01)
    if workload == "crowd_ring":
        return [ring_instance(rng, 8, 5, (0.01, 0.05))]
    return []


def census_matches(rows: list[dict]) -> bool:
    return [r["n"] for r in rows] == [1, 2, 3, 4] and all(
        tuple(r[key] for r in rows) == expected for key, expected in CENSUS_EXPECTED.items()
    )
