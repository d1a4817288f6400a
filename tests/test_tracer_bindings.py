"""The benchmark's span tracer wraps module bindings by name and classifies their returns."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from mrdeadlock import (
    GoalSpec,
    Params,
    Scenario,
    WorldState,
    collinear_family,
    run_scenario,
    supervisor_step,
    three_robot_family_catB,
)
from mrdeadlock.resolution import Filtering, Released, Turning
from mrdeadlock.sim import integrate_step

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in _load_tracer().BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_supervisor_step_classifier_reads_every_phase():
    # the tracer counts phase steps from supervisor_step's return value
    classify = _load_tracer().CLASSIFIERS["resolution.supervisor_step"]
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    world = WorldState(robots=collinear_family(goals, params, 0.5), t=0.0)
    state, seen = Filtering(), []
    while seen.count("phase2") < 2:
        out = supervisor_step(state, world, goals, params, 1e-3)
        seen.append(classify(out))
        state = out[1]
        world = integrate_step(world, out[0], 1e-3)
    out = supervisor_step(Released(), world, goals, params, 1e-3)
    seen.append(classify(out))
    assert seen == ["phase1"] * 9 + ["phase2"] * 2 + ["phase3"]

    # a category-B chain spends its first phase-2 steps opening (a Turning state with a center)
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    state = Filtering()
    for _ in range(11):
        out = supervisor_step(state, world, goals, params, 1e-3)
        state = out[1]
        world = integrate_step(world, out[0], 1e-3)
    assert isinstance(state, Turning) and state.center is not None
    assert classify(out) == "phase2"


def test_traced_three_phase_run_records_every_layer():
    # a refactor that stops calling a traced binding would zero its per-layer
    # metrics without any error
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    scenario = Scenario(
        params=params, initial=collinear_family(goals, params, 0.5), goals=goals,
        controller="three-phase", t_max=0.05,
    )
    with _load_tracer().Tracer() as tracer:
        run_scenario(scenario)
    for name in ("resolution.supervisor_step", "qp.solve_qp", "deadlock.system_deadlock"):
        assert tracer.stat(name, "calls") > 0, name
    assert tracer.stat("resolution.supervisor_step", "calls", cls="phase2") > 0
