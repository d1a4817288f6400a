"""End-to-end and per-layer benchmark of the mrdeadlock toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload headon_deadlock --seed 1 --seconds 20 --trace 0

Workloads: headon_deadlock, resolve_deadlock, crowd_ring, census (see
perfbench/README.md).  With ``--trace 0`` the end-to-end metrics are measured
with nothing wrapped; with ``--trace 1`` a fixed number of rounds runs once
untraced and once under the span tracer, and the per-layer metrics are
reported.  Every output is checked; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_CHILDREN = 8          # set-up is measured here and in this many fresh processes
CHILD_TIMEOUT_S = 60.0
# Rounds of the traced run per 10 s of --seconds; each runs untraced, then traced.
TRACE_ROUNDS_PER_10S = {"headon_deadlock": 3, "resolve_deadlock": 1.5, "crowd_ring": 4, "census": 8}
RING_TAGS = ("n8", "n16", "n32")
# Median, over the runs that set the bounds, of the mean _time_reference time
# (2 shared vCPUs, Python 3.11.7); see _speed_scale.
REFERENCE_S = 0.006


@dataclass
class Outcome:
    """One checked operation: a simulated instance, or one census table."""

    label: str
    n_robots: int
    ok: bool
    reason: str = ""
    # wall seconds per stage: run (run_scenario or census_table), export, load, audit
    times: dict[str, float] = field(default_factory=dict)
    reference: list[float] = field(default_factory=list)   # _time_reference after each stage
    work: int = 0               # integrator steps, or connected graphs embedded
    records: int = 0
    digest: str = ""            # sha256 of the JSON log, or of the census table
    record_bytes: int = 0
    export_bytes: int = 0
    phase_records: tuple = (0, 0, 0, 0)
    ws_hist: tuple = (0, 0, 0)  # logged QP solves by number of positive multipliers

    @property
    def signature(self) -> tuple:
        """Exact outputs, compared across executions of the same inputs."""
        return (self.label, self.ok, self.records, self.digest, self.phase_records, self.ws_hist)


@dataclass
class Round:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def reference(self) -> list[float]:
        return [t for o in self.outcomes for t in o.reference]

    @property
    def seconds(self) -> float:
        return sum(sum(o.times.values()) for o in self.outcomes)

    @property
    def signature(self) -> list:
        return [o.signature for o in self.outcomes]


class Bench:
    """Runs the rounds of one workload through the public API and checks them."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        import mrdeadlock.graphenum as graphenum
        import mrdeadlock.sim as sim
        import workloads

        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.sim = sim
        self.graphenum = graphenum
        self.w = workloads
        self.tracer = None
        self._job = 0

    # -- operations -------------------------------------------------------

    def _stage(self, label: str, n: int, stage: str) -> None:
        if self.tracer is not None:
            self.tracer.tag = (label, n, stage)
            self.tracer.run_id = self._job

    def run_instance(self, inst) -> Outcome:
        import numpy as np

        sim = self.sim
        path = self.scratch / f"log-{self._job}.json"
        self._job += 1
        out = Outcome(label=inst.label, n_robots=inst.n_robots, ok=False)
        try:
            self._stage(inst.label, inst.n_robots, "run")
            log = _timed(out, "run", sim.run_scenario, inst.scenario)
            self._stage(inst.label, inst.n_robots, "verify")
            _timed(out, "export", sim.export_log, log, "json", str(path))
            loaded = _timed(out, "load", sim.load_log, str(path))
            report = _timed(out, "audit", sim.audit_log, loaded)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.reason = _describe(exc)
            return out
        finally:
            self._stage("", 0, "")
        data = path.read_bytes()
        path.unlink()
        events = [e["name"] for e in loaded.events]
        phases = np.bincount(loaded.phase.astype(np.int64), minlength=4)
        # working-set size of every logged QP solve: positive multipliers per robot and record
        ws = np.bincount((loaded.mu[loaded.phase == 1] > 0.0).sum(axis=-1).ravel(), minlength=3)
        out.work = round(log.t[-1] / inst.scenario.dt)
        out.records = log.n_records
        out.record_bytes = sum(
            a.nbytes for a in (log.t, log.pos, log.vel, log.u_star, log.u_hat, log.h, log.mu, log.active, log.phase)
        )
        out.export_bytes = len(data)
        out.phase_records = tuple(int(c) for c in phases[:4])
        out.ws_hist = tuple(int(c) for c in ws[:3])
        out.digest = hashlib.sha256(data).hexdigest()
        if not report.ok:
            out.reason = (f"audit failed: h_match={report.h_match_max:.3e} h_min={report.h_min:.3e} "
                          f"kkt={report.kkt_max_residual}")
        elif inst.must_emit is not None and inst.must_emit not in events:
            out.reason = f"no {inst.must_emit} event (events: {events})"
        else:
            out.ok = True
        return out

    def run_census(self) -> Outcome:
        out = Outcome(label="census", n_robots=0, ok=False)
        self._stage("census", 0, "run")
        try:
            rows = _timed(out, "run", self.graphenum.census_table, **self.w.CENSUS_ARGS)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.reason = _describe(exc)
            return out
        finally:
            self._stage("", 0, "")
        self._job += 1
        out.work = sum(r["connected"] for r in rows)
        out.digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        out.ok = self.w.census_matches(rows)
        if not out.ok:
            out.reason = f"census table differs: {rows}"
        return out

    def run_round(self, index: int) -> Round:
        rnd = Round()
        if self.workload == "census":
            rnd.outcomes.append(self.run_census())
        for inst in self.w.round_instances(self.workload, self.seed, index):
            rnd.outcomes.append(self.run_instance(inst))
        return rnd

    def warm_up(self) -> None:
        """Exercise every code path of a round once so lazy set-up is not timed."""
        if self.workload == "census":
            self.graphenum.census_table(n_max=4, attempts=20)
            return
        for inst in self.w.warmup_instances(self.workload, self.seed):
            self.run_instance(inst)
        self.w.round_instances(self.workload, self.seed, 0)   # instance generation is set-up too


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _timed(out: Outcome, stage: str, func, *args, **kwargs):
    """Call func, store its wall time under stage, then time the reference work."""
    t0 = time.perf_counter()
    result = func(*args, **kwargs)
    out.times[stage] = time.perf_counter() - t0
    out.reference.append(_time_reference())
    return result


def _time_reference(n: int = 10_000) -> float:
    """Wall time of fixed pure-Python work in the style of the library's hot loops."""
    t0 = time.perf_counter()
    acc = 0.0
    p = (0.3, -0.7)
    for k in range(n):
        q = (p[0] + 1e-3 * k, p[1] - 1e-3 * k)
        d = _sub(q, p)
        acc += _dot(d, q) / (math.hypot(d[0], d[1]) + 1.0)
    return time.perf_counter() - t0


def _describe(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {str(exc)[:160]} (at {Path(frame.filename).name}:{frame.lineno})"


def _outcomes(rounds: list[Round]) -> list[Outcome]:
    return [o for r in rounds for o in r.outcomes]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_probe(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
    return float(lines[-1].split()[1])


def _speed_scale(rounds: list[Round]) -> float:
    """REFERENCE_S over the mean time of the reference work timed after each stage.

    The host these bounds were set on shares its cores with other tenants.
    Their load slows this process by 10 % to 2x for stretches from 0.1 s to
    longer than a whole run, so raw times mostly measure the neighbours.
    Times multiplied by this scale are in seconds at the reference speed: a
    slow stretch lengthens the operations and the reference work around
    them alike, and the product keeps only the code's own cost.
    """
    return REFERENCE_S / statistics.mean(t for r in rounds for t in r.reference)


def _sim_rate(rounds: list[Round]) -> float:
    """Work per second of run time (steps, or census graphs) at the reference speed."""
    outs = _outcomes(rounds)
    return sum(o.work for o in outs) / (_speed_scale(rounds) * sum(o.times["run"] for o in outs))


def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, tuple[float, str]]:
    scale = _speed_scale(rounds)
    return {
        "setup_s": (scale * statistics.median(setup), "s"),
        "round_s": (scale * statistics.mean(r.seconds for r in rounds), "s"),
        "work_per_s": (_sim_rate(rounds), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, traced: list[Round], untraced: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass (every name on every workload; 0 where a layer is idle)."""
    m: dict[str, tuple[float, str]] = {}

    def calls_self(span: str) -> None:
        m[f"{span}.calls"] = (tracer.stat(span, "calls"), "count")
        m[f"{span}.self_s"] = (tracer.stat(span, "self"), "s")

    for name in ("cbf.assemble_qp", "cbf.decentralized_rows", "cbf.safety_index_signed",
                 "cbf.min_pair_distance"):
        calls_self(name)

    # pair-geometry evaluations inside run_scenario, per integrator step and unordered pair
    evals = 0
    pair_steps = 0
    sizes = {o.n_robots for o in _outcomes(traced) if o.n_robots >= 2}
    for n in sizes:
        pairs = n * (n - 1) // 2
        in_run = lambda tag, n=n: isinstance(tag, tuple) and tag[1] == n and tag[2] == "run"  # noqa: E731
        evals += (tracer.stat("cbf.decentralized_rows", "calls", where=in_run)
                  + tracer.stat("cbf.safety_index_signed", "calls", where=in_run)
                  + pairs * tracer.stat("cbf.min_pair_distance", "calls", where=in_run))
        pair_steps += pairs * sum(o.work for o in _outcomes(traced) if o.n_robots == n)
    m["cbf.pair_evals_per_pair_step"] = (evals / pair_steps if pair_steps else 0.0, "1/pair-step")

    calls_self("qp.solve_qp")
    for ring in RING_TAGS:
        is_ring = lambda tag, ring=ring: isinstance(tag, tuple) and tag[0] == ring  # noqa: E731
        n = tracer.stat("qp.solve_qp", "calls", where=is_ring)
        us = 1e6 * tracer.stat("qp.solve_qp", "self", where=is_ring) / n if n else 0.0
        m[f"qp.solve_qp.us_per_call.{ring}"] = (us, "us")
    solves = tracer.stat("qp.solve_qp", "calls")
    for k in range(3):
        ws = tracer.stat("qp.solve_qp", "calls", cls=f"ws{k}")
        m[f"qp.ws{k}_frac"] = (ws / solves if solves else 0.0, "ratio")
    m["qp.infeasible"] = (tracer.stat("qp.solve_qp", "calls", cls="infeasible"), "count")
    calls_self("qp.verify_kkt")

    calls_self("deadlock.system_deadlock")
    checks = tracer.stat("deadlock.system_deadlock", "calls")
    true = tracer.stat("deadlock.system_deadlock", "calls", cls="true")
    m["deadlock.system_deadlock.true_frac"] = (true / checks if checks else 0.0, "ratio")

    m["resolution.supervisor_step.calls"] = (tracer.stat("resolution.supervisor_step", "calls"), "count")
    for k in (1, 2, 3):
        # controller steps by the phase the supervisor returned (the log keeps every 10th)
        m[f"resolution.phase{k}.steps"] = (tracer.stat("resolution.supervisor_step", "calls", cls=f"phase{k}"), "count")
    for k in (1, 2):
        m[f"resolution.phase{k}.self_s"] = (tracer.stat("resolution.supervisor_step", "self", cls=f"phase{k}"), "s")
    p2_calls = tracer.stat("resolution.supervisor_step", "calls", cls="phase2")
    p2_self = tracer.stat("resolution.supervisor_step", "self", cls="phase2")
    m["resolution.phase2.us_per_step"] = (1e6 * p2_self / p2_calls if p2_calls else 0.0, "us")

    calls_self("core.pd_control")

    outs = _outcomes(traced)
    m["sim.steps"] = (sum(o.work for o in outs if o.n_robots), "count")
    m["sim.records"] = (sum(o.records for o in outs), "count")
    m["sim.run_scenario.self_s"] = (tracer.stat("sim.run_scenario", "self"), "s")
    calls_self("sim.integrate_step")
    m["sim.record_bytes"] = (max((o.record_bytes for o in outs), default=0), "B-computed")
    m["sim.export_log.self_s"] = (tracer.stat("sim.export_log", "self"), "s")
    m["sim.export_log.mb"] = (sum(o.export_bytes for o in outs) / 1e6, "MB")
    m["sim.load_log.self_s"] = (tracer.stat("sim.load_log", "self"), "s")
    m["sim.audit_log.self_s"] = (tracer.stat("sim.audit_log", "self"), "s")
    verify_s = sum(tracer.stat(f"sim.{f}", "total") for f in ("export_log", "load_log", "audit_log"))
    m["sim.verify.records_per_s"] = (m["sim.records"][0] / verify_s if verify_s else 0.0, "1/s")

    calls_self("graphenum.embed_graph")
    embeds = tracer.stat("graphenum.embed_graph", "calls")
    feasible = tracer.stat("graphenum.embed_graph", "calls", cls="feasible")
    m["graphenum.embed_graph.feasible_frac"] = (feasible / embeds if embeds else 0.0, "ratio")
    restarts = tracer.stat("graphenum.minimize", "calls")
    m["graphenum.restarts"] = (restarts, "count")
    m["graphenum.restarts_per_embed"] = (restarts / embeds if embeds else 0.0, "ratio")
    m["graphenum.enumerate_connected.self_s"] = (tracer.stat("graphenum.enumerate_connected", "self"), "s")

    # traced over untraced simulation throughput (census: table rate)
    m["trace.overhead_ratio"] = (_sim_rate(traced) / _sim_rate(untraced), "ratio")
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _machine_info() -> dict:
    import numpy
    import scipy

    import mrdeadlock

    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    public = [
        name for name in vars(mrdeadlock)
        if not name.startswith("_") and not isinstance(getattr(mrdeadlock, name), type(mrdeadlock))
    ]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git": _git_head(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
        "public_api": len(public),
    }


def _git_head() -> str:
    """Commit of the checkout, read from .git without running git; 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")


def _failures(outs: list[Outcome]) -> list[str]:
    return [f"{o.label}: {o.reason}" for o in outs if not o.ok]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("headon_deadlock", "resolve_deadlock", "crowd_ring", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mrdeadlock" / "__init__.py").is_file():
        print(f"error: the mrdeadlock sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path) -> int:
    bench = Bench(args.workload, args.seed, scratch)
    bench.warm_up()
    own_setup = time.perf_counter() - _T_START
    if args.setup_probe:
        print(f"setup_s {own_setup!r}")
        return 0

    info = _machine_info()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    if args.trace:
        metrics, outs, deterministic, first = _traced(bench, args)
    else:
        metrics, outs, deterministic, first = _untraced(bench, args)
    print(f"first_log_sha256 {first}")

    failures = _failures(outs)
    if not deterministic:
        failures.append("determinism: a repeated round gave different outputs or work counts")
    attempted = len(outs) + 1     # the repeated-round comparison is one more checked operation

    ops, bad = attempted, len(failures)
    if args.workload == "crowd_ring":
        probe = bench.run_instance(bench.w.ring64_probe(args.seed))
        ops, bad = ops + 1, bad + (not probe.ok)
        print(f"probe ring64: {'passed' if probe.ok else 'FAILED ' + probe.reason} "
              "(reported here only; not in attempted, failed or any timing)")
    print(f"failed_frac {bad / ops!r} ({bad} of {ops} operations, probe included)")
    for line in failures[:10]:
        print(f"failure {line}")

    _print_metrics(metrics)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _untraced(bench: Bench, args):
    setup = [time.perf_counter() - _T_START]
    rounds: list[Round] = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(bench.run_round(len(rounds)))
        if len(setup) <= SETUP_CHILDREN:
            # spread the set-up probes over the run; their time is not part of it
            started = time.perf_counter()
            setup.append(_setup_probe(args))
            deadline += time.perf_counter() - started
    while len(setup) <= SETUP_CHILDREN:
        setup.append(_setup_probe(args))
    metrics = end_to_end(rounds, setup)
    again = bench.run_round(0)
    deterministic = again.signature == rounds[0].signature
    times = sorted(r.seconds for r in rounds)
    refs = [t for r in rounds for t in r.reference]
    print(f"rounds {len(rounds)}, unscaled seconds: round min={times[0]!r} p50={statistics.median(times)!r} "
          f"max={times[-1]!r}; set-up samples {[round(s, 4) for s in setup]}; reference work "
          f"n={len(refs)} mean={statistics.mean(refs)!r} min={min(refs)!r}; scale {_speed_scale(rounds)!r}")
    print("mean " + " ".join(f"{kind}={t:.6f}" for kind, t in _mean_by_kind(rounds).items()))
    _print_counts(rounds)
    return metrics, _outcomes(rounds) + again.outcomes, deterministic, _first_sha(rounds)


def _traced(bench: Bench, args):
    from tracer import Tracer

    n_rounds = max(1, int(args.seconds * TRACE_ROUNDS_PER_10S[args.workload] / 10))
    untraced = [bench.run_round(r) for r in range(n_rounds)]
    tracer = Tracer()
    traced = []
    with tracer:
        bench.tracer = tracer
        for r in range(n_rounds):
            traced.append(bench.run_round(r))
            if r == 0:
                counts0 = tracer.call_counts()
    check = Tracer()
    with check:
        bench.tracer = check
        again = bench.run_round(0)
    bench.tracer = None
    deterministic = (
        [r.signature for r in traced] == [r.signature for r in untraced]
        and again.signature == traced[0].signature
        and check.call_counts() == counts0
    )
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    written = tracer.write_spans(spans_path)
    print(f"trace rounds {n_rounds} (untraced, then traced); spans written {written}, "
          f"dropped past the in-memory cap {tracer.spans_dropped}: {spans_path.relative_to(ROOT)}")
    _print_counts(traced)
    metrics = per_layer(tracer, traced, untraced)
    return metrics, _outcomes(untraced) + _outcomes(traced) + again.outcomes, deterministic, _first_sha(traced)


def _mean_by_kind(rounds: list[Round]) -> dict[str, float]:
    """Unscaled mean seconds per instance kind and stage, e.g. n32.run."""
    times: dict[str, list[float]] = {}
    for o in _outcomes(rounds):
        for stage, seconds in o.times.items():
            times.setdefault(f"{o.label}.{stage}", []).append(seconds)
    return {kind: statistics.mean(v) for kind, v in times.items()}


def _print_counts(rounds: list[Round]) -> None:
    """Exact work counts of the measured rounds (they repeat for a fixed seed and round count)."""
    outs = _outcomes(rounds)
    ws = [sum(o.ws_hist[k] for o in outs) for k in range(3)]
    print(f"counts rounds={len(rounds)} ops={len(outs)} steps={sum(o.work for o in outs if o.n_robots)} "
          f"records={sum(o.records for o in outs)} logged_solves={sum(ws)} ws_hist={ws} "
          f"phase_records={[sum(o.phase_records[k] for o in outs) for k in range(4)]}")


def _first_sha(rounds: list[Round]) -> str:
    for o in _outcomes(rounds):
        if o.n_robots:
            return o.digest
    return "none (this workload writes no log)"


if __name__ == "__main__":
    sys.exit(main())
