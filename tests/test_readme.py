"""The README's code blocks run and say what they print."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from mrdeadlock import ResolutionConfig, RobotState
from mrdeadlock.logio import scenario_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_blocks_run_and_their_comments_hold():
    (tour,) = _blocks("python")
    printed: list = []
    names: dict = {"print": printed.append}
    exec(compile(tour, "README.md", "exec"), names)
    # "u* = 0, mu = 8 on the contact row"
    assert names["solution"].u_star == (0.0, 0.0)
    assert names["solution"].mu_star[0] == 8.0
    # "recompute h + re-verify KKT from raw states": the printed audit passes
    (report,) = printed
    assert report.ok

    # the scenario file example loads as the scenario its comments describe
    (example,) = _blocks("yaml")
    scenario = scenario_from_dict(yaml.safe_load(example))
    assert scenario.initial == (RobotState(p=(-2.0, 0.0), v=(0.0, 0.0)), RobotState(p=(2.0, 0.0), v=(0.0, 0.0)))
    assert scenario.params.alpha == (5.0, 5.0)
    assert (scenario.controller, scenario.dt, scenario.t_max, scenario.log_every) == ("three-phase", 0.001, 80.0, 1)
    assert scenario.resolution == ResolutionConfig(kp2=16.0, kv2=10.0)
