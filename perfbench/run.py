"""monodromy benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Load is a closed loop with one client: each request starts when
the previous one has ended.  With ``--trace 0`` the run starts passes over
the workload's requests (order shuffled by the seed) until ``--seconds``
have elapsed and reports the end-to-end metrics.  With ``--trace 1`` it
makes one untraced and one traced pass in the same order and reports the
per-layer metrics.  Every output is checked against ``goldens.json``.
Every time is taken on the host-speed-corrected clock of ``hostclock``,
in seconds at a fixed reference speed, with the benchmark and its
children pinned to one CPU.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The full record (seed, environment, every request) is
written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import hostclock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 6  # per batch; one batch before the passes and one after
REQUEST_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "request_p50_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PROBE = (
    "import json, monodromy, monodromy.cli as c, monodromy.fforacle as f, monodromy.groupdiv as g;"
    "print(json.dumps({'module': monodromy.__file__, 'budgets': {"
    "'GL_ORDER_BUDGET': f.GL_ORDER_BUDGET, 'PAIRWISE_BUDGET': f.PAIRWISE_BUDGET,"
    "'HOM_GROUP_BUDGET': g.HOM_GROUP_BUDGET, 'SWEEP_GROUP_BUDGET': g.SWEEP_GROUP_BUDGET}}))"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    status: int
    stdout: str
    stderr: str
    wall_s: float  # corrected running time, spawn to exit
    cpu_s: float   # user+sys CPU, scaled by the same correction as wall_s
    rss_mb: float
    raw_wall_s: float
    timeline: hostclock.Timeline


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    raw_wall_s: float = 0.0
    requests: list = field(default_factory=list)  # {"key", "latency_s", "failure"}
    dumps: list = field(default_factory=list)     # per traced process: {"request", "spans", "counters"}


def run_child(argv: list[str]) -> Child:
    """Run one process to completion on the corrected clock; CPU time and peak RSS come from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        status, usage, timeline = hostclock.run_sampled(
            argv, REQUEST_TIMEOUT_S, cwd=ROOT, env=env, stdout=out, stderr=err)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    raw, corrected = timeline.raw_s, timeline.corrected_s
    scale = corrected / raw if raw > 0 else 1.0
    return Child(status, stdout, stderr, corrected, (usage.ru_utime + usage.ru_stime) * scale,
                 usage.ru_maxrss / 1024, raw, timeline)


def _take_dump(path: Path, request: str, timeline: hostclock.Timeline) -> dict:
    """Read one traced process's spans, with their times moved onto the corrected clock."""
    with open(path, "r", encoding="utf-8") as handle:
        dump = json.load(handle)
    path.unlink()
    for span in dump["spans"]:
        span[1], span[2] = timeline.clock(span[1]), timeline.clock(span[2])
    return {"request": request, **dump}


def run_pass(workload: str, requests: list[workloads.Request], traced: bool, goldens: dict) -> Pass:
    result = Pass(traced)
    spans_path = OUT / f"spans-{os.getpid()}.json"
    spans_arg = str(spans_path) if traced else "-"
    if workload == "engine-small":
        child = run_child([sys.executable, str(HERE / "child.py"), "lib", spans_arg, *(r.key for r in requests)])
        _account(result, child)
        try:
            reports = {r["key"]: r for r in json.loads(child.stdout)["results"]} if child.status == 0 else {}
        except (json.JSONDecodeError, KeyError, TypeError):
            reports = {}
        for req in requests:
            report = reports.get(req.key)
            if report is None:
                failure = f"library run failed (exit {child.status}): {child.stderr.strip()[-300:]}"
                latency = child.wall_s
            else:
                failure = report["error"] or checks.check_doc(req, report["doc"], goldens)
                latency = child.timeline.clock(report["end"]) - child.timeline.clock(report["start"])
            result.requests.append({"key": req.key, "latency_s": latency, "failure": failure})
        if traced and spans_path.exists():
            result.dumps.append(_take_dump(spans_path, "engine-small", child.timeline))
    else:
        for req in requests:
            if traced:
                argv = [sys.executable, str(HERE / "child.py"), "cli", spans_arg, *req.argv]
            else:
                argv = [sys.executable, "-m", "monodromy.cli", *req.argv]
            child = run_child(argv)
            _account(result, child)
            failure = checks.check_output(req, child.status, child.stdout, goldens)
            if failure is not None and child.stderr.strip():
                failure += f": {child.stderr.strip()[-300:]}"
            result.requests.append({"key": req.key, "latency_s": child.wall_s, "failure": failure})
            if traced and spans_path.exists():
                result.dumps.append(_take_dump(spans_path, req.key, child.timeline))
    return result


def _account(result: Pass, child: Child) -> None:
    result.wall_s += child.wall_s
    result.raw_wall_s += child.raw_wall_s
    result.cpu_s += child.cpu_s
    result.rss_mb = max(result.rss_mb, child.rss_mb)


# ---------------------------------------------------------------------------
# environment and set-up


def probe() -> dict:
    """Import the program once (this also compiles its bytecode) and read its budgets."""
    child = run_child([sys.executable, "-c", PROBE])
    if child.status != 0:
        raise BenchError(f"cannot import monodromy from {SRC}: {child.stderr.strip()[-500:]}")
    info = json.loads(child.stdout)
    if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"monodromy resolved to {info['module']}, not under {SRC}")
    return info


def measure_setup() -> list[float]:
    """Fresh interpreter plus ``import monodromy.cli``, timed SETUP_REPS times.

    ``main`` takes one batch before the passes and one after them and
    reports the median of both.
    """
    samples = []
    for _ in range(SETUP_REPS):
        child = run_child([sys.executable, "-c", "import monodromy.cli"])
        if child.status != 0:
            raise BenchError(f"import monodromy.cli failed: {child.stderr.strip()[-500:]}")
        samples.append(child.wall_s)
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "monodromy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(info: dict, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "reference_probe_s": hostclock.REFERENCE_PROBE_S,
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "budgets": info["budgets"],
    }


# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "monodromy" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'monodromy'}; run from the root of a monodromy checkout")
    goldens = checks.load_goldens()
    OUT.mkdir(exist_ok=True)
    cpu = hostclock.pin()
    rng = random.Random(args.seed)
    requests = workloads.build(args.workload, rng, OUT / f"corpus-{args.workload}-{args.seed}.txt")

    info = probe()
    env = environment(info, cpu)
    setup = measure_setup()

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        order = list(requests)
        rng.shuffle(order)
        passes.append(run_pass(args.workload, order, False, goldens))
        if args.trace:
            passes.append(run_pass(args.workload, order, True, goldens))
            break
        if time.perf_counter() - start >= args.seconds:
            break
    setup += measure_setup()

    outcomes = [r for p in passes for r in p.requests]
    failures = [r["failure"] for r in outcomes]
    if args.trace:
        untraced, traced = passes
        values = spans.layer_metrics(traced.dumps)
        values["trace.overhead"] = traced.wall_s / untraced.wall_s
        metrics = {name: {"value": v, "unit": spans.metric_unit(name)} for name, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "request_p50_s": statistics.median(r["latency_s"] for r in outcomes),
            "peak_rss_mb": max(p.rss_mb for p in passes),
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s, "cpu_s": p.cpu_s,
             "rss_mb": p.rss_mb, "requests": p.requests}
            for p in passes
        ],
        "error_rate": checks.error_rate(failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(passes[-1].dumps) + "\n", encoding="utf-8")

    failed = sum(f is not None for f in failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  requests {len(outcomes)}  record {OUT.name}/{stem}.json")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':32} {failed}/{len(outcomes)} = {record['error_rate']:.6g}")
    for failure in sorted({f for f in failures if f is not None}):
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


def _exit_on_sigterm(signum, frame):
    """Turn SIGTERM into SystemExit, so that a running child is killed and reaped on the way out."""
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
