"""The JSON log round trip, streamed: export_log and load_log against the whole-text oracles.

export_log writes one record array at a time, and load_log parses that
text one member at a time and any other text with one json.loads;
oracles.log_json and oracles.load_log_whole are the same text and the same
checks with one json.dumps and one json.loads.
"""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_log_whole, log_json

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    Scenario,
    default_head_on_scenario,
    export_log,
    load_log,
    run_scenario,
)
from mrdeadlock import logio
from mrdeadlock.logio import _RECORD_LAYOUT, TrajectoryLog, scenario_to_dict


def _outcome(load, path) -> tuple:
    """What load gives for path: the log's text and dtypes, or the type and message of its error."""
    try:
        log = load(str(path))
    except Exception as exc:   # the two loads must fail alike, whatever they raise
        return type(exc), str(exc)
    return log_json(log), {name: getattr(log, name).dtype for name in _RECORD_LAYOUT}


def _assert_round_trip(log, path) -> None:
    export_log(log, "json", str(path))
    assert path.read_bytes() == log_json(log).encode()
    assert _outcome(load_log, path) == _outcome(load_log_whole, path)
    back = load_log(str(path))
    for name, (dtype, _) in _RECORD_LAYOUT.items():
        assert getattr(back, name).dtype == dtype
        assert getattr(back, name).tolist() == getattr(log, name).tolist()
    assert (back.events, back.meta) == (log.events, log.meta)


def test_a_log_longer_than_one_export_block_round_trips(tmp_path):
    log = run_scenario(default_head_on_scenario(t_max=2.0))
    assert log.mu[0].size * log.n_records > logio._EXPORT_CHUNK_ENTRIES   # mu is written in 2 blocks
    _assert_round_trip(log, tmp_path / "log.json")


def test_a_one_robot_pd_only_log_round_trips(tmp_path):
    # one robot has no pair: every record of h is empty
    scen = Scenario(
        params=Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,)),
        initial=(RobotState.at_rest((0.0, 0.0)),),
        goals=GoalSpec(pd=((1.5, -0.5),)),
        controller="pd-only",
        t_max=0.5,
    )
    log = run_scenario(scen)
    assert log.h.shape == (log.n_records, 0)
    _assert_round_trip(log, tmp_path / "log.json")


def test_small_blocks_give_the_same_text_and_arrays(tmp_path, monkeypatch):
    # one record per export block, and load blocks of about 5 characters:
    # load_log converts every record array a record or a few at a time
    monkeypatch.setattr(logio, "_EXPORT_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(logio, "_LOAD_CHUNK_CHARS", 5)
    converted = []
    record_array = logio._record_array
    monkeypatch.setattr(logio, "_record_array", lambda values, *args: converted.append(len(values))
                        or record_array(values, *args))
    log = run_scenario(default_head_on_scenario(t_max=0.05))
    _assert_round_trip(log, tmp_path / "log.json")
    assert max(converted) <= 3   # three phases, "1,1,1", make a block


def _head_on_payload() -> dict:
    return json.loads(log_json(run_scenario(default_head_on_scenario(t_max=0.05))))


def _compact(payload, **kw) -> str:
    return json.dumps(payload, separators=(",", ":"), **kw)


def _with_member(text: str, member: str, where: str) -> str:
    """text, a compact JSON object, with the member text added first or last."""
    return "{" + member + "," + text[1:] if where == "first" else text[:-1] + "," + member + "}"


# Each edit turns the sorted compact text of a head-on log into other text.
TEXT_EDITS = {
    "whitespace-padded": lambda p, text: " \n\t" + json.dumps(p, indent=2, sort_keys=True) + " \r\n",
    "spaced-separators": lambda p, text: json.dumps(p, sort_keys=True),
    "keys-reordered": lambda p, text: _compact(dict(reversed(list(p.items())))),
    "duplicate-t-bad-first": lambda p, text: _with_member(text, '"t":["x"]', "first"),
    "duplicate-t-bad-last": lambda p, text: _with_member(text, '"t":["x"]', "last"),
    "duplicate-mu-short-first": lambda p, text: _with_member(text, '"mu":' + _compact(p["mu"][:-1]), "first"),
    "duplicate-meta-last": lambda p, text: _with_member(text, '"meta":{}', "last"),
    "unknown-key": lambda p, text: _with_member(text, '"notes":[1,{"a":[2]}]', "first"),
    "trailing-data": lambda p, text: text + "x",
    "trailing-object": lambda p, text: text + "{}",
    "trailing-comma": lambda p, text: text[:-1] + ",}",
    "missing-colon": lambda p, text: text.replace('"t":', '"t"', 1),
    "number-key": lambda p, text: _with_member(text, '1:2', "first"),
    "missing-comma": lambda p, text: text.replace(',"t":', '"t":', 1),
    "record-separator-dropped": lambda p, text: text.replace("]],[[", "]][[", 1),
    "empty-object": lambda p, text: "{}",
    "top-level-list": lambda p, text: "[" + text + "]",
    "byte-order-mark": lambda p, text: "\ufeff" + text,
    "string-in-late-record": lambda p, text: _compact({**p, "pos": p["pos"][:-1] + [[["1", 2.0], [3.0, 4.0]]]},
                                                      sort_keys=True),
    "ragged-late-record": lambda p, text: _compact({**p, "vel": p["vel"][:-1] + [[[1.0], [3.0, 4.0]]]},
                                                   sort_keys=True),
    "deeper-late-record": lambda p, text: _compact({**p, "h": p["h"][:-1] + [[[0.5]]]}, sort_keys=True),
    "false-in-late-mu": lambda p, text: _compact({**p, "mu": p["mu"][:-1] + [[[False] * 5, [0.0] * 5]]},
                                                 sort_keys=True),
    "t-not-a-list": lambda p, text: _compact({**p, "t": 5}, sort_keys=True),
    # two faults: the first check to fail names its own
    "meta-and-mu": lambda p, text: _compact({**p, "meta": {}, "mu": ["x"]}, sort_keys=True),
    "scenario-and-t": lambda p, text: _compact({**p, "meta": {"scenario": {}}, "t": 5}, sort_keys=True),
    "t-and-active": lambda p, text: _compact({**p, "t": 5, "active": [[-1, 0]] * len(p["t"])}, sort_keys=True),
    "active-and-short-pos": lambda p, text: _compact({**p, "active": [["1", 0]] * len(p["t"]), "pos": p["pos"][1:]},
                                                     sort_keys=True),
    "empty-arrays": lambda p, text: _compact({**p, **dict.fromkeys(_RECORD_LAYOUT, [])}, sort_keys=True),
}


@pytest.mark.parametrize("edit", sorted(TEXT_EDITS))
@pytest.mark.parametrize("load_chars", [5, 2**18], ids=["small-blocks", "default-blocks"])
def test_load_log_gives_what_the_whole_text_parse_gives(tmp_path, monkeypatch, edit, load_chars):
    monkeypatch.setattr(logio, "_LOAD_CHUNK_CHARS", load_chars)
    payload = _head_on_payload()
    path = tmp_path / "log.json"
    path.write_text(TEXT_EDITS[edit](payload, _compact(payload, sort_keys=True)), encoding="utf-8")
    assert _outcome(load_log, path) == _outcome(load_log_whole, path)


def test_load_log_of_truncated_text_raises_the_whole_text_error(tmp_path):
    text = _compact(_head_on_payload(), sort_keys=True)
    path = tmp_path / "log.json"
    for cut in sorted({0, 1, 2, 7, len(text) // 3, len(text) // 2, len(text) - 3, len(text) - 1}):
        path.write_text(text[:cut], encoding="utf-8")
        outcome = _outcome(load_log, path)
        assert outcome == _outcome(load_log_whole, path)
        assert outcome[0] is json.JSONDecodeError


@pytest.mark.parametrize("where", ["top-level", "record-array", "meta"])
def test_load_log_turns_deep_nesting_into_a_value_error_naming_the_file(tmp_path, where):
    deep = "[" * 100_000 + "]" * 100_000
    text = {"top-level": deep, "record-array": '{"t":' + deep + "}", "meta": '{"meta":' + deep + "}"}[where]
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="deep.json is not a trajectory log: its JSON nests too deeply"):
        load_log(str(path))


def _scenario(n: int) -> Scenario:
    """n robots at rest 3 m apart on a line, each bound for a goal 1 m further on."""
    return Scenario(
        params=Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * n),
        initial=tuple(RobotState.at_rest((3.0 * k, 0.0)) for k in range(n)),
        goals=GoalSpec(pd=tuple((3.0 * k + 1.0, 0.0) for k in range(n))),
        controller="pd-only",
    )


def _synthetic_log(records: int, rng: np.random.Generator) -> TrajectoryLog:
    """A 2-robot cbf-qp-only log, built without simulating: values as a run's are.

    The states, controls and h are floats of full precision; each robot has
    one nonzero multiplier and one active row, so mu is mostly 0.0.
    """
    n = 2
    mu = np.zeros((records, n, n + 3))
    mu[:, :, 0] = rng.uniform(0.0, 10.0, (records, n))
    active = np.empty((records, n), dtype=object)
    active[...] = 1
    return TrajectoryLog(
        t=np.arange(records) * 1e-3,
        pos=rng.uniform(-2.0, 2.0, (records, n, 2)),
        vel=rng.uniform(-1.0, 1.0, (records, n, 2)),
        u_star=rng.uniform(-5.0, 5.0, (records, n, 2)),
        u_hat=rng.uniform(-5.0, 5.0, (records, n, 2)),
        h=rng.uniform(0.0, 3.0, (records, 1)),
        mu=mu,
        active=active,
        phase=np.ones(records, dtype=np.int8),
        events=[{"name": "deadlock-detected", "t": 1.5}],
        meta={"scenario": scenario_to_dict(_scenario(n)), "n_robots": n},
    )


def test_json_round_trip_runs_in_bounded_memory(tmp_path):
    log = _synthetic_log(50_000, np.random.default_rng(3))
    arrays = sum(getattr(log, name).nbytes for name in _RECORD_LAYOUT)
    path = tmp_path / "long.json"
    tracemalloc.start()
    try:
        export_log(log, "json", str(path))
        export_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        back = load_log(str(path))
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert export_peak <= 2.0 * arrays
    # reading the file holds its text (and, for a moment, its bytes); the
    # parse adds one block of lists and the arrays it builds
    assert load_peak <= path.stat().st_size + 2.5 * arrays
    assert np.array_equal(back.mu, log.mu) and np.array_equal(back.pos, log.pos)


# export_log's text is read member by member; any other text goes to one json.loads
EXPORTED_LOGS = {
    "head-on": lambda: run_scenario(default_head_on_scenario(t_max=2.0)),
    "one-robot-pd-only": lambda: run_scenario(replace(_scenario(1), t_max=0.5)),
    "zero-records": lambda: _synthetic_log(0, np.random.default_rng(3)),
}


@pytest.mark.parametrize("which", sorted(EXPORTED_LOGS))
def test_an_exported_log_loads_without_a_whole_text_parse(tmp_path, monkeypatch, which):
    log = EXPORTED_LOGS[which]()
    path = tmp_path / "log.json"
    export_log(log, "json", str(path))
    monkeypatch.setattr(logio.json, "loads", mock.Mock(side_effect=AssertionError("the text was parsed whole")))
    back = load_log(str(path))
    assert log_json(back) == path.read_text(encoding="utf-8")
    assert all(getattr(back, name).dtype == dtype for name, (dtype, _) in _RECORD_LAYOUT.items())


@pytest.mark.parametrize("edit", ["indent-1", "extra-key"])
def test_other_text_is_parsed_whole_into_the_same_log(tmp_path, monkeypatch, edit):
    log = EXPORTED_LOGS["head-on"]()
    text = log_json(log)
    text = json.dumps(json.loads(text), indent=1) if edit == "indent-1" else _with_member(text, '"notes":[]', "last")
    path = tmp_path / "log.json"
    path.write_text(text, encoding="utf-8")
    loads = mock.Mock(wraps=json.loads)
    monkeypatch.setattr(logio.json, "loads", loads)
    back = load_log(str(path))
    loads.assert_called_once()
    for name, (dtype, _) in _RECORD_LAYOUT.items():
        assert getattr(back, name).dtype == dtype
        assert np.array_equal(getattr(back, name), getattr(log, name))
    assert (back.events, back.meta) == (log.events, log.meta)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=3),
)


@st.composite
def _logs(draw) -> TrajectoryLog:
    """A log of 1 to 4 robots and 0 to 40 records: any floats, masks past int64, any event names."""
    n = draw(st.integers(1, 4))
    records = draw(st.integers(0, 40))
    arrays = {}
    for name, (dtype, shape) in _RECORD_LAYOUT.items():
        size = (records, *shape(n))
        count = math.prod(size)
        if dtype is float:
            arrays[name] = np.array(draw(st.lists(st.floats(), min_size=count, max_size=count)), float).reshape(size)
        elif dtype is object:
            masks = draw(st.lists(st.integers(0, 2**70), min_size=count, max_size=count))
            arrays[name] = np.empty(count, dtype=object)
            arrays[name][:] = masks
            arrays[name] = arrays[name].reshape(size)
        else:
            arrays[name] = np.array(draw(st.lists(st.integers(-128, 127), min_size=count, max_size=count)),
                                    dtype).reshape(size)
    events = draw(st.lists(st.fixed_dictionaries({"name": st.text(max_size=4),
                                                  "t": st.floats(allow_nan=False, allow_infinity=False)}),
                           max_size=3))
    return TrajectoryLog(**arrays, events=events, meta={"scenario": scenario_to_dict(_scenario(n)), "n_robots": n})


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(_logs(), st.integers(1, 40), st.integers(1, 400), st.data())
def test_streamed_round_trip_is_the_whole_text_round_trip(log, export_entries, load_chars, data):
    """export_log writes the oracle's bytes, and load_log gives what the oracle's load gives, for any blocks.

    The file is then edited, a value replaced in a record or the text cut
    short, and both loads must still agree: the same log, or the same
    error type and message.
    """
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(logio, "_EXPORT_CHUNK_ENTRIES", export_entries), \
            mock.patch.object(logio, "_LOAD_CHUNK_CHARS", load_chars):
        path = Path(tmp) / "log.json"
        export_log(log, "json", str(path))
        text = log_json(log)
        assert path.read_text(encoding="utf-8") == text
        assert _outcome(load_log, path) == _outcome(load_log_whole, path) == (text, {
            name: np.dtype(dtype) for name, (dtype, _) in _RECORD_LAYOUT.items()})
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text)))]
        else:
            payload = json.loads(text)
            name = data.draw(st.sampled_from(sorted(_RECORD_LAYOUT)))
            if payload[name]:
                k = data.draw(st.integers(0, len(payload[name]) - 1))
                payload[name][k] = data.draw(_JSON_VALUES)
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_log, path) == _outcome(load_log_whole, path)
