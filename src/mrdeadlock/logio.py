"""Scenario files and trajectory logs: the schema a run reads and the format it writes.

A Scenario is the complete, serializable description of one run, checked
when it is built; a TrajectoryLog holds a run's dense per-step record
arrays and its event stream, and _Recorder builds those arrays from a
run's records a block at a time.  Scenarios are read from and written to
YAML through three key tables, and logs are written as JSON or CSV and
read back from JSON: export_log's text a block of records at a time, any
other text whole, each record array checked before it is cast.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import Field, dataclass, field, fields

import numpy as np
import yaml

from .cbf import PairField, neighbor_row, pair_indices
from .core import GoalSpec, Params, RobotState, WorldState, _positive, _positive_int, goal_separation
from .qp import QPSolution
from .resolution import Filtering, Released, ResolutionConfig

# Every controller is the supervisor from its own starting state: the plain
# CBF-QP filter never leaves phase 1, the plain PD controllers are phase 3.
_START_STATES = {
    "cbf-qp-only": Filtering(resolve=False),
    "three-phase": Filtering(),
    "pd-only": Released(),
}
CONTROLLERS = tuple(_START_STATES)

START_DIST_TOL = 1e-9   # no pair may start closer than Ds less this
AUDIT_H_FLOOR = -1e-3   # nor with h below this: audit_log's floor on the recomputed h


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one simulation run."""

    params: Params
    initial: tuple[RobotState, ...]
    goals: GoalSpec
    controller: str = "cbf-qp-only"
    dt: float = 1e-3
    t_max: float = 30.0
    log_every: int = 1
    resolution: ResolutionConfig = field(default_factory=ResolutionConfig)

    def __post_init__(self):
        # a wrong type would otherwise fail steps later, or only once the log's meta is written
        for name, value, kind in (("params", self.params, Params), ("goals", self.goals, GoalSpec),
                                  ("resolution", self.resolution, ResolutionConfig)):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not (isinstance(self.initial, tuple) and all(isinstance(z, RobotState) for z in self.initial)):
            raise ValueError(f"initial must be a tuple of RobotState, got {self.initial!r}")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        try:   # read as Params reads its gains, but kept as given: the log's meta does not move
            ok = _positive(self.dt, "dt") < _positive(self.t_max, "t_max")
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"need finite dt > 0 and t_max > dt, got dt={self.dt!r}, t_max={self.t_max!r}")
        if not math.isfinite(float(self.t_max) / float(self.dt)):   # n_steps rounds it to an int
            raise ValueError(f"need a finite t_max / dt, got dt={self.dt!r}, t_max={self.t_max!r}")
        _positive_int(self.log_every, "log_every")
        if len(self.initial) != len(self.goals):
            raise ValueError("one goal per robot required")
        if len(self.initial) != len(self.params.alpha):
            raise ValueError("one alpha per robot required")
        if self.controller == "three-phase":
            # the PD release phase only guarantees non-decreasing separation
            # for overdamped gains and goals more than Ds apart
            if not self.params.overdamped:
                raise ValueError("three-phase control requires kv^2 - 4 kp > 0")
            for i, j in pair_indices(len(self.goals)):
                d_g = goal_separation(self.goals, i, j)
                if d_g <= self.params.ds:
                    raise ValueError(f"three-phase control requires goals more than Ds = {self.params.ds} apart, "
                                     f"got goals {i},{j} {d_g:.6f} apart")
        pair_field = PairField(WorldState(robots=self.initial), self.params)
        for (i, j), d in zip(pair_indices(len(self.initial)), pair_field.distances):
            if d < self.params.ds - START_DIST_TOL:
                raise ValueError(
                    f"initial robots {i},{j} start {d:.6f} apart, inside the margin {self.params.ds}"
                )
        # a start outside the safe set would fail its own log's audit; h is
        # undefined for coincident robots, which run_scenario aborts on
        hs = pair_field.h if pair_field.min_distance > 0.0 else ()
        for (i, j), h in zip(pair_indices(len(self.initial)), hs):
            if h < AUDIT_H_FLOOR:
                raise ValueError(
                    f"initial robots {i},{j} start outside the safe set: h = {h:.6g} < {AUDIT_H_FLOOR}"
                )

    @property
    def n_steps(self) -> int:
        """Integrator steps of a run that does not stop early: t_max / dt, rounded."""
        return int(round(self.t_max / self.dt))


# ---------------------------------------------------------------------------
# trajectory log
# ---------------------------------------------------------------------------

def _record(dtype, shape) -> Field:
    """A TrajectoryLog record array: its dtype and the shape of one record for n robots."""
    return field(metadata={"record": (dtype, shape)})


@dataclass
class TrajectoryLog:
    """Dense per-step record arrays plus the event stream.

    Each record array, records first, declares its dtype and per-record shape
    with _record.  Pair columns of h are in ascending (i, j) order; the N + 3
    rows of mu and of the active bitmask follow the fixed QP ordering
    (neighbors by ascending id, then the box rows +x, +y, -x, -y).  The bitmasks
    are Python ints in an object array: at N >= 61 a box row's bit does not
    fit in int64.  Phase is the supervisor phase of the step: 1 throughout a
    cbf-qp-only run, 3 throughout a pd-only run.  A record holds only what
    its step ran: mu and the masks are those of the QPs whose solutions are
    the step's controls, and zero on a step whose controls are not QP
    solutions (phase 2 and 3, and the step that detects a deadlock and
    returns phase-2 controls).
    """

    t: np.ndarray = _record(float, lambda n: ())
    pos: np.ndarray = _record(float, lambda n: (n, 2))
    vel: np.ndarray = _record(float, lambda n: (n, 2))
    u_star: np.ndarray = _record(float, lambda n: (n, 2))
    u_hat: np.ndarray = _record(float, lambda n: (n, 2))
    h: np.ndarray = _record(float, lambda n: (n * (n - 1) // 2,))
    mu: np.ndarray = _record(float, lambda n: (n, n + 3))
    active: np.ndarray = _record(object, lambda n: (n,))
    phase: np.ndarray = _record(np.int8, lambda n: ())
    events: list[dict]
    meta: dict

    @property
    def n_records(self) -> int:
        return len(self.t)

    @property
    def n_robots(self) -> int:
        return self.pos.shape[1]

    def world_at(self, k: int) -> WorldState:
        pos, vel = self.pos[k].tolist(), self.vel[k].tolist()
        robots = tuple(RobotState(p=tuple(p), v=tuple(v)) for p, v in zip(pos, vel))
        return WorldState(robots=robots, t=float(self.t[k]))


# name -> (dtype, shape of one record for n robots) of every record array;
# the recorder, JSON export and load loop over it
_RECORD_LAYOUT = {f.name: f.metadata["record"] for f in fields(TrajectoryLog) if "record" in f.metadata}
# key -> the text that opens its member of a JSON log, in the order export_log writes and load_log reads them
_LOG_KEYS = {key: ("," if k else "{") + json.dumps(key) + ":"
             for k, key in enumerate(sorted((*_RECORD_LAYOUT, "meta", "events")))}


class _Recorder:
    """A run's record arrays, appended a record at a time; nothing is allocated up front.

    push adds a record's Python floats and ints to one flat list per array, with no NumPy call; every
    _EXPORT_CHUNK_ENTRIES entries (summed over a record's arrays, at least one record) the lists become
    a block of arrays.  build joins each array's blocks, freeing them as it goes.
    """

    def __init__(self, n: int):
        self.n = n
        self.lists = {name: [] for name in _RECORD_LAYOUT}   # push unpacks them in this order
        self.blocks = {name: [] for name in _RECORD_LAYOUT}
        self.block_rows = max(1, _EXPORT_CHUNK_ENTRIES // sum(math.prod(s(n)) for _, s in _RECORD_LAYOUT.values()))
        # what a step whose controls are no QP solutions records: zero mu, no active row
        self.no_solutions = (QPSolution((math.nan, math.nan), (0.0,) * (n + 3), (), "none"),) * n

    def push(self, world: WorldState, u_star, u_hat, h, solutions, phase: int) -> None:
        """Append world's record: its controls, pair h, the step's QP solutions (or None) and phase."""
        t, pos, vel, u_stars, u_hats, hs, mu, active, phases = self.lists.values()
        t.append(world.t)
        for z, us, uh in zip(world.robots, u_star, u_hat):
            pos += z.p
            vel += z.v
            u_stars += us
            u_hats += uh
        hs += h
        for sol in solutions or self.no_solutions:
            mu += sol.mu_star
            mask = 0   # row k active sets bit k
            for k in sol.active_set:
                mask |= 1 << k
            active.append(mask)
        phases.append(phase)
        if len(t) == self.block_rows:
            self._flush()

    def _flush(self) -> None:
        rows = len(self.lists["t"])
        for (name, (dtype, shape)), values in zip(_RECORD_LAYOUT.items(), self.lists.values()):
            block = np.empty((rows, *shape(self.n)), dtype)
            if dtype is float:   # struct writes the floats' bits in less than half np.array's time
                struct.pack_into(f"{len(values)}d", block, 0, *values)
            else:
                block.flat = values
            self.blocks[name].append(block)
            values.clear()

    def build(self, events: list[dict], meta: dict) -> TrajectoryLog:
        self._flush()
        arrays = {name: np.concatenate(self.blocks.pop(name)) for name in _RECORD_LAYOUT}
        return TrajectoryLog(**arrays, events=events, meta=meta)


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """value as an int; an integral float (a YAML 2.0) passes, 2.5 or true does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    """value as a float; an int or a float passes, true or "0.001" does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list(value) -> list | tuple:
    """value if it is a list or a tuple (a string or a single number is not)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _numbers(value) -> tuple[float, ...]:
    """value as a tuple of floats, each read by _number."""
    return tuple(_number(x) for x in _list(value))


# The keys of each section of a scenario file, each with its reader.  The
# scenario section also holds the params and resolution sections, and the
# robots and goals, which scenario_from_dict reads by hand.
_SCENARIO_KEYS = {"controller": str, "dt": _number, "t_max": _number, "log_every": _integer}
_PARAMS_KEYS = {"kp": _number, "kv": _number, "ds": _number, "alpha": _numbers}
_RESOLUTION_KEYS = dict.fromkeys(("kp2", "kv2"), lambda v: None if v is None else _number(v))


def _check_keys(d, where: str, known, required) -> None:
    """Raise ValueError naming the first unknown or missing key of the mapping d."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {d!r}")
    bad = [f"unknown {where} key {k!r}" for k in d if k not in known]
    bad += [f"{where} key {k!r} is missing" for k in required if k not in d]
    if bad:
        raise ValueError(bad[0])


def _read(value, read, what: str):
    """read(value); its TypeError, ValueError or OverflowError becomes a ValueError naming what was read."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _section(d, where: str, readers: dict, required=(), by_hand=()) -> dict:
    """The keyword arguments the mapping d holds: each key of readers that d has, read by its reader.

    d may also hold the by_hand keys, which the caller reads; a key left out
    takes its field's default.
    """
    _check_keys(d, where, (*readers, *by_hand), required)
    return {key: _read(d[key], read, f"{where} key {key!r}") for key, read in readers.items() if key in d}


def _builtin(value):
    """value, or the builtin of a NumPy scalar, which safe YAML cannot write (an np.int64 stays an int)."""
    return value.item() if isinstance(value, np.generic) else value


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "params": {**{key: getattr(s.params, key) for key in _PARAMS_KEYS}, "alpha": list(s.params.alpha)},
        **{key: _builtin(getattr(s, key)) for key in _SCENARIO_KEYS},
        "resolution": {key: getattr(s.resolution, key) for key in _RESOLUTION_KEYS},
        "robots": [{"p": list(z.p), "v": list(z.v)} for z in s.initial],
        "goals": [list(g) for g in s.goals.pd],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """The Scenario of a scenario_to_dict mapping; unknown and missing keys raise ValueError."""
    kwargs = _section(d, "scenario", _SCENARIO_KEYS, ("params", "robots", "goals"),
                      by_hand=("params", "robots", "goals", "resolution"))
    kwargs["params"] = Params(**_section(d["params"], "params", _PARAMS_KEYS, _PARAMS_KEYS))
    if "resolution" in d:
        kwargs["resolution"] = ResolutionConfig(**_section(d["resolution"], "resolution", _RESOLUTION_KEYS))
    robots = _read(d["robots"], _list, "scenario key 'robots'")
    for r in robots:
        _check_keys(r, "robot", ("p", "v"), ("p",))
    kwargs["initial"] = tuple(
        RobotState(p=_read(r["p"], _numbers, f"robot position p of robot {k}"),
                   v=_read(r.get("v", (0.0, 0.0)), _numbers, f"robot velocity v of robot {k}"))
        for k, r in enumerate(robots)
    )
    goals = _read(d["goals"], _list, "scenario key 'goals'")
    kwargs["goals"] = GoalSpec(pd=tuple(_read(g, _numbers, f"goal {k}") for k, g in enumerate(goals)))
    return Scenario(**kwargs)


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a YAML file (schema documented in the README)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
        except RecursionError:
            raise ValueError(f"{path} is not a scenario file: its YAML nests too deeply to parse") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def export_log(log: TrajectoryLog, fmt: str, path: str) -> None:
    """Write the log as CSV (one row per step per robot) or full-fidelity JSON.

    The JSON is log_to_json's text, written piece by piece, so the whole
    text is never held at once.
    """
    try:
        if fmt == "csv":
            _export_csv(log, path)
        elif fmt == "json":
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(_json_pieces(log))
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing log to {path}: {exc}") from exc


def _csv_columns(n: int) -> list[str]:
    cols = ["t", "robot_id", "px", "py", "vx", "vy", "ux_star", "uy_star", "ux_hat", "uy_hat", "phase"]
    for i, j in pair_indices(n):
        cols.append(f"h_{i}_{j}")
    for i, j in pair_indices(n):
        cols.append(f"mu_{i}_{j}")
    return cols


def _export_csv(log: TrajectoryLog, path: str) -> None:
    n = log.n_robots
    pairs = pair_indices(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_columns(n)) + "\n")
        for k in range(log.n_records):
            pair_cells = [repr(float(log.h[k, c])) for c in range(len(pairs))]
            # mu_ij column: the lower-id robot's multiplier for its row against j
            mu_cells = [repr(float(log.mu[k, i, neighbor_row(i, j)])) for i, j in pairs]
            for i in range(n):
                vectors = np.concatenate((log.pos[k, i], log.vel[k, i], log.u_star[k, i], log.u_hat[k, i]))
                cells = [repr(float(log.t[k])), str(i), *map(repr, vectors.tolist()), str(int(log.phase[k]))]
                fh.write(",".join(cells + pair_cells + mu_cells) + "\n")


# Record-array entries (records times a record's entries) that one piece of the
# JSON text, or one recorder block, holds at most: long logs go block by block.
_EXPORT_CHUNK_ENTRIES = 2**14


def _json_pieces(log: TrajectoryLog):
    """The text of json.dumps(payload, sort_keys=True, separators=(",", ":")), in pieces.

    The payload maps each record array's name to its tolist(), and "meta"
    and "events" to the log's.  A record array is written in blocks of at
    most _EXPORT_CHUNK_ENTRIES entries, each the text of the block's tolist()
    without its brackets, so only one block is ever held as lists.
    """
    for key, head in _LOG_KEYS.items():
        yield head
        if key not in _RECORD_LAYOUT:
            yield json.dumps(getattr(log, key), sort_keys=True, separators=(",", ":"))
            continue
        array = getattr(log, key)
        rows = max(1, _EXPORT_CHUNK_ENTRIES // max(1, math.prod(array.shape[1:])))
        yield "["
        for a in range(0, len(array), rows):
            # a tolist() block holds only numbers and lists of them: it cannot be circular
            block = json.dumps(array[a:a + rows].tolist(), separators=(",", ":"), check_circular=False)
            yield ("," if a else "") + block[1:-1]
        yield "]"
    yield "}"


def log_to_json(log: TrajectoryLog) -> str:
    """The log as the compact JSON text, keys sorted, that export_log writes."""
    return "".join(_json_pieces(log))


_DECODER = json.JSONDecoder()

# About how many characters of a record array's JSON text load_log parses
# into Python lists at once: a long array is held as lists a block at a time.
_LOAD_CHUNK_CHARS = 2**18


def _parse_record_array(text: str, at: int, name: str, bools: bool) -> tuple[np.ndarray, int] | None:
    """Record array name, whose JSON value starts at text[at], parsed and converted in blocks; and the index past it.

    A block is the records in the next _LOAD_CHUNK_CHARS characters or so,
    up to a comma after as many closing brackets as a record of name nests
    lists, or else up to one more closing bracket, the value's own; it is
    parsed as the JSON array "[" + block + "]" and converted at once by
    _record_array.  That parse reads the characters a parse of the
    whole value reads, so it gives the same records when the block's array
    is complete there and the comma follows, or when it closes where the
    value does.  Returns None, to have the whole text parsed instead, where
    the value is not an array, or a block does not parse so, does not
    convert, or holds records of another shape than the first block.
    """
    if text[at:at + 1] != "[":
        return None
    dtype, shape = _RECORD_LAYOUT[name]
    if text[at + 1:at + 2] == "]":   # no record, so no closing brackets to find
        return _record_array([], dtype, bools), at + 2
    closing = "]" * len(shape(1))   # the brackets that end a record
    begin = at + 1
    parts = []
    while True:
        cut = text.find(closing + ",", begin + _LOAD_CHUNK_CHARS)
        if cut >= 0:
            cut += len(closing)   # at the comma after the block's last record
        else:   # the rest of the value, through its own closing bracket
            cut = text.find(closing + "]", begin)
            if cut < 0:
                return None
            cut += len(closing) + 1
        block = "[" + text[begin:cut] + "]"
        try:
            values, used = _DECODER.raw_decode(block)
            parts.append(_record_array(values, dtype, bools))
        except (TypeError, ValueError, OverflowError):   # json.JSONDecodeError too
            return None
        del values   # the lists of this block, before the next block's are parsed
        if parts[-1].shape[1:] != parts[0].shape[1:]:
            return None
        if used < len(block):   # the value closed inside the block
            return (parts[0] if len(parts) == 1 else np.concatenate(parts)), begin + used - 1
        if text[cut:cut + 1] != ",":
            return None
        begin = cut + 1


def _exported(text: str, bools: bool) -> dict | None:
    """The members of text if it is laid out as export_log writes it; None at the first deviation.

    The members are read in _LOG_KEYS order, each after its opening text:
    each record array by _parse_record_array, a block of records at a time,
    and meta and events by one raw_decode each.  Another key, whitespace
    between members, data after the closing brace, or a value that does not
    parse or convert gives None.
    """
    found, at = {}, 0
    for key, head in _LOG_KEYS.items():
        if not text.startswith(head, at):
            return None
        at += len(head)
        if key in _RECORD_LAYOUT:
            parsed = _parse_record_array(text, at, key, bools)
        else:
            try:
                parsed = _DECODER.raw_decode(text, at)
            except json.JSONDecodeError:
                return None
        if parsed is None:
            return None
        found[key], at = parsed
    return found if text[at:] == "}" else None


def load_log(path: str) -> TrajectoryLog:
    """Read a JSON log whose arrays hold len(t) records of the robots of meta["scenario"].

    The text export_log writes is read member by member in its order, and
    each record array is converted as it is parsed, a block of records at a
    time, so a long array is never held whole as Python lists.  Any other
    text (re-indented, with other keys, or malformed) is parsed whole by
    json.loads, which raises its own error where the text is not JSON.
    Either way the same checks follow, in the order below.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # no log field is a bool, so only a log whose text holds one is scanned for it
    bools = "true" in text or "false" in text
    where = f"{path} is not a trajectory log:"
    try:
        d = _exported(text, bools)
        if d is None:
            d = json.loads(text)
    except RecursionError:
        raise ValueError(f"{where} its JSON nests too deeply to parse") from None
    if not isinstance(d, dict):
        raise ValueError(f"{where} its top level is not a mapping")
    for key in (*_RECORD_LAYOUT, "meta", "events"):
        if key not in d:
            raise ValueError(f"{where} key {key!r} is missing")
    meta = d["meta"]
    if not isinstance(meta, dict) or "scenario" not in meta:
        raise ValueError(f"{where} meta is not a mapping with the key 'scenario'")
    n = len(scenario_from_dict(meta["scenario"]).initial)
    records = len(d["t"] if isinstance(d["t"], np.ndarray) else _read(d["t"], _list, f"{where} key 't'"))
    for name, (dtype, shape) in _RECORD_LAYOUT.items():
        if not isinstance(d[name], np.ndarray):   # parsed by json.loads: its lists are converted here
            try:
                d[name] = _record_array(d[name], dtype, bools)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{where} array {name!r}: {' '.join(str(exc).split())}") from None
        want = (records, *shape(n))
        if d[name].shape == (0,):   # [] holds no record to give the shape of one
            d[name] = d[name].reshape(0, *shape(n))
        if d[name].shape != want:
            raise ValueError(f"{where} array {name!r} has shape {d[name].shape}, not {want}")
    events = _read(d["events"], _list, f"{where} key 'events'")
    for k, event in enumerate(events):
        if not (isinstance(event, dict) and isinstance(event.get("name"), str) and _finite(event.get("t"))):
            raise ValueError(f"{where} event {k} is not a mapping with a string 'name' and a finite 't'")
    return TrajectoryLog(**{name: d[name] for name in _RECORD_LAYOUT}, events=events, meta=meta)


def _record_array(values, dtype, bools: bool) -> np.ndarray:
    """values as a record array of dtype, checked before a cast could coerce 1.9, true or "0.1".

    A float array must read as numbers, by NumPy's dtype kind of the uncast
    array; it is scanned for a bool, which reads as a number among numbers,
    only if ``bools`` (a scan adds about a third to the load).  The phases
    and masks are scanned: each must be an int (a bool is not), and each mask
    non-negative.
    """
    if dtype is float:
        array = np.asarray(values)
        if array.size and array.dtype.kind not in "iuf":
            raise ValueError(f"holds {array.dtype} values, not numbers")
        if bools and any(type(x) is bool for x in np.asarray(values, dtype=object).flat):
            raise ValueError("holds a bool, not a number")
        return array.astype(float, copy=False)
    array = np.asarray(values, dtype=object)
    masks = dtype is object
    if not all(type(x) is int and (x >= 0 or not masks) for x in array.flat):
        raise ValueError(f"holds a {'mask that is not a non-negative int' if masks else 'value that is not an int'}")
    # phase is cast from the values, where an int8 overflow raises instead of wrapping
    return array if masks else np.asarray(values, dtype=dtype)


def _finite(x) -> bool:
    """x is a finite number (a bool or a number too large for a float is not)."""
    try:
        return math.isfinite(_number(x))
    except (ValueError, OverflowError):
        return False
