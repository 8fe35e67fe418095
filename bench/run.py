"""Benchmark of the koblitz CLI: one workload, fresh processes, checked.

From the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 60 --trace 0

The run is a closed loop with one client. It starts WORKERS fresh `python`
workers (bench/child.py) one after another, each for an equal share of
`--seconds`. A worker imports `koblitz.cli`, then forks one process per
`main(argv)` call until its share ends, so no call sees another's caches.
Every call's report is checked against the stored reference in
bench/references.json, so a fast wrong answer counts as failed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: medians over
the run's calls, and for `setup_s` over its workers' imports. `--trace 1`
runs one worker untraced for half the time, then one traced call
(tracer.py), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. bench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH_NAME = ".bench_tmp"  # per-run temp files, inside the checkout
# Fresh workers per untraced run, one after another, each for an equal share
# of --seconds. Each import is one setup_s sample, so these samples are
# spread over the run as the solve_s samples are.
WORKERS = 7
GRACE_S = 100  # past the end of --seconds: the last run, the traced run, exit
FLOAT_REL_TOL = 1e-9
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # seed -> CLI argv
    fields: tuple[str, ...]  # summary keys stored as the reference
    # Check for a report that has no stored reference; None makes that a failure.
    consistency: Callable[[dict], str | None] | None = None


def _fixed(*argv: str) -> Callable[[int], list[str]]:
    return lambda seed: list(argv)


def _window_shift(seed: int) -> int:
    """Seed-derived shift of the window start, in steps: -4..4."""
    return random.Random(seed).randrange(-4, 5)


def _bdh(R: int, Q: int, X: int, Y: int, step: int) -> Callable[[int], list[str]]:
    def argv(seed: int) -> list[str]:
        x = X + step * _window_shift(seed)
        return ["bdh", "--R", str(R), "--Q", str(Q), "--X", str(x), "--Y", str(Y)]

    return argv


def _per_q_sums_to_S(report: dict) -> str | None:
    summary = report["summary"]
    total = math.fsum(summary["per_q"].values())
    if not math.isclose(total, summary["S"], rel_tol=FLOAT_REL_TOL):
        return f"sum(per_q) = {total!r} != S = {summary['S']!r}"
    return None


THEOREM2_FIELDS = ("class_route_sum", "census_route_sum", "routes_match")
WINDOW_FIELDS = ("S", "normalized", "per_q")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", _fixed("theorem2", "--pmax", "500"), THEOREM2_FIELDS),
        Workload(
            "window",
            _bdh(R=300, Q=10, X=4_000_000, Y=50_000, step=10_000),
            WINDOW_FIELDS,
            _per_q_sums_to_S,
        ),
    )
}

# The same workloads at sizes that take about a second; used by the smoke test.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", _fixed("theorem2", "--pmax", "60"), THEOREM2_FIELDS),
        Workload(
            "window",
            _bdh(R=50, Q=3, X=100_000, Y=20_000, step=1_000),
            WINDOW_FIELDS,
            _per_q_sums_to_S,
        ),
    )
}


def load_references() -> dict:
    with open(BENCH_DIR / "references.json", encoding="ascii") as fh:
        return json.load(fh)["reports"]


def reference_of(workload: Workload, report: dict) -> dict:
    """The part of a CLI report that is stored and compared."""
    summary = report["summary"]
    return {
        "passed": report["passed"],
        "summary": {k: summary[k] for k in workload.fields if k in summary},
    }


def mismatches(expected, got, path: str = "") -> list[str]:
    """Differences of `got` from `expected`: exact except for floats."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        out = []
        for key, value in expected.items():
            where = f"{path}.{key}" if path else key
            if key not in got:
                out.append(f"{where}: missing")
            else:
                out.extend(mismatches(value, got[key], where))
        return out
    if isinstance(expected, float):
        if isinstance(got, (int, float)) and not isinstance(got, bool):
            if math.isclose(got, expected, rel_tol=FLOAT_REL_TOL):
                return []
    elif type(got) is type(expected) and got == expected:
        return []
    return [f"{path}: expected {expected!r}, got {got!r}"]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One `cli.main` call in a process forked from the worker."""

    solve_s: float | None  # None if the run wrote no timings
    cpu_s: float
    peak_rss_mb: float
    error: str | None  # why the run failed, None if it passed
    report_bytes: int
    layers: dict | None


@dataclass
class Worker:
    """What one child.py process reported."""

    setup_s: float
    facts: dict  # library versions, and the import times when traced
    runs: list[Run]


def _child_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KOBLITZ_CACHE_DIR"}
    env["TMPDIR"] = str(scratch)
    return env


def _become_subreaper() -> None:
    """Have orphaned forked runs re-parented to this process, to be waited for."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _stop_session(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's session and wait for all of it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:  # forked runs whose worker died first
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def start_child(root: Path, scratch: Path, extra: list[str], timeout_s: float) -> dict:
    """Run child.py in a session of its own and return what it wrote.

    On a timeout the whole session, forked runs included, is killed and
    waited for.
    """
    work = Path(tempfile.mkdtemp(dir=scratch))
    result_path = work / "result.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--src",
        str(root / "src"),
        "--result",
        str(result_path),
        "--work",
        str(work),
        "--t0-ns",
        str(time.monotonic_ns()),
        *extra,
    ]
    proc = subprocess.Popen(
        cmd,
        env=_child_env(scratch),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out") from None
    finally:
        _stop_session(proc)
    try:
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = (stderr or "").strip().splitlines()[-3:]
        raise BenchError(f"child exit {proc.returncode}: {' | '.join(tail)}")
    result["work"] = work
    return result


def run_worker(
    root: Path,
    scratch: Path,
    argv: list[str],
    deadline: float,
    give_up: float,
    trace: bool,
    check: Callable[[Path], str | None],
) -> Worker:
    """One worker that runs `argv` until `deadline` (time.monotonic), checked.

    With `trace`, the last run is the traced one. A worker still running at
    `give_up` is killed.
    """
    extra = ["--deadline-ns", str(int(deadline * 1e9))]
    extra += (["--trace"] if trace else []) + ["--", *argv]
    result = start_child(root, scratch, extra, give_up - time.monotonic())
    work = result.pop("work")
    runs = []
    for row in result.pop("runs"):
        stem = work / row["stem"]
        try:
            with open(f"{stem}.result.json", encoding="ascii") as fh:
                timings = json.load(fh)
        except (OSError, ValueError):
            timings = {}
        if row["status"] != 0 or not timings:
            error = f"run {row['stem']}: wait status {row['status']}"
        elif timings["exit_code"] != 0:
            error = f"run {row['stem']}: koblitz exit {timings['exit_code']}"
        else:
            error = check(stem)
        report_bytes = sum(
            f.stat().st_size
            for f in work.glob(f"{row['stem']}.*")
            if not f.name.endswith(".result.json")
        )
        runs.append(
            Run(
                solve_s=timings.get("solve_s"),
                cpu_s=row["cpu_s"],
                peak_rss_mb=row["peak_rss_mb"],
                error=error,
                report_bytes=report_bytes,
                layers=timings.get("layers"),
            )
        )
    return Worker(result.pop("setup_s"), result, runs)


def report_checker(
    workload: Workload, argv: list[str], references: dict
) -> Callable[[Path], str | None]:
    key = " ".join(argv)

    def check(out_stem: Path) -> str | None:
        try:
            with open(f"{out_stem}.json", encoding="ascii") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"no readable report: {exc}"
        if report.get("passed") is not True:
            return "report says passed: false"
        if key in references:
            bad = mismatches(references[key], reference_of(workload, report))
            return "; ".join(bad) if bad else None
        if workload.consistency is None:
            return f"no stored reference for {key!r}"
        return workload.consistency(report)

    return check


# ---------------------------------------------------------------------------
# facts about the machine and the run
# ---------------------------------------------------------------------------


def _proc_field(path: str, name: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == name:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


def benchmark_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def _layer_value(name: str, layers: dict, extra: dict) -> float | None:
    """A per-layer metric from the traced child; None if its function is gone."""
    if name in extra:
        return extra[name]
    owner, _, field = name.rpartition(".")
    if field == "self_s":
        return layers["self_s"].get(owner, 0.0)
    row = layers["functions"].get(owner)
    if row is None:
        return None
    return row.get(field, 0)


def layer_metrics(
    spec: dict, worker: Worker, traced: Run, untraced_solve: float
) -> tuple[dict, list[str]]:
    """Every per_layer metric of the spec, and the names whose function is gone."""
    layers = traced.layers
    functions = layers["functions"]
    factorize_calls = functions.get("primes.factorize", {}).get("calls", 0)
    is_prime_calls = functions.get("primes.is_prime", {}).get("calls", 0)
    extra = {
        "primes.is_prime_per_factorize": (
            is_prime_calls / factorize_calls if factorize_calls else 0.0
        ),
        "cli.report_bytes": traced.report_bytes,
        "trace.solve_s": traced.solve_s,
        "trace.overhead_s": traced.solve_s - untraced_solve,
    }
    extra.update((k, v) for k, v in worker.facts.items() if k.startswith("setup."))
    metrics, missing = {}, []
    for m in spec["per_layer"]:
        value = _layer_value(m["name"], layers, extra)
        if value is None:
            missing.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, missing


def _describe(name: str, values: list[float], unit: str) -> str:
    line = (
        f"  {name:<12} median {statistics.median(values):.6g} {unit}"
        f"  [min {min(values):.6g}, max {max(values):.6g}, n={len(values)}]"
    )
    tail = tail_percentile(values)
    if tail is not None:
        line += f"  p{tail[0]:.0f} {tail[1]:.6g} {unit}"
    return line


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    references: dict,
    root: Path = ROOT,
) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (root / "src" / "koblitz" / "cli.py").is_file():
        raise BenchError(f"no koblitz sources under {root / 'src'}")
    spec = benchmark_spec(root)
    argv = workload.argv(seed)
    check = report_checker(workload, argv, references)
    facts = machine_facts(root)
    facts.update(workload=workload.name, seed=seed, argv=argv, trace=trace)
    facts["loadavg_start"] = _loadavg()

    scratch_root = root / SCRATCH_NAME
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    _become_subreaper()
    try:
        start = time.monotonic()
        span = seconds / 2 if trace else seconds
        count = 1 if trace else WORKERS
        give_up = start + span + GRACE_S
        workers = []
        for i in range(count):
            deadline = start + span * (i + 1) / count
            workers.append(run_worker(root, scratch, argv, deadline, give_up, trace, check))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    facts["loadavg_end"] = _loadavg()
    facts.update(workers[0].facts["libraries"])

    attempts = [r for w in workers for r in w.runs]
    runs = attempts[:-1] if trace else attempts
    traced = attempts[-1] if trace else None
    failures = [r.error for r in attempts if r.error is not None]
    attempted = len(attempts)
    timed = [r for r in runs if r.solve_s is not None]
    if not timed:
        raise BenchError(f"no run finished: {failures[0]}")
    samples = {
        "setup_s": [w.setup_s for w in workers],
        "solve_s": [r.solve_s for r in timed],
        "cpu_s": [r.cpu_s for r in timed],
        "peak_rss_mb": [r.peak_rss_mb for r in timed],
    }

    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print(f"samples {json.dumps(samples)}")
    for error in failures:
        print(f"FAILED: {error}", file=sys.stderr)
    print(f"{workload.name}: {attempted} runs, failed_share {len(failures) / attempted}")
    for name, values in samples.items():
        print(_describe(name, values, "MB" if name == "peak_rss_mb" else "s"))
    if trace:
        if traced.layers is None:
            raise BenchError(f"traced run failed: {traced.error}")
        untraced = statistics.median(samples["solve_s"])
        metrics, missing = layer_metrics(spec, workers[-1], traced, untraced)
        for name in missing:
            print(f"warning: {name}: function no longer exists, reported as 0", file=sys.stderr)
        ranked = sorted(traced.layers["functions"].items(), key=lambda kv: -kv[1]["s"])
        print("traced inclusive time, top functions:")
        for key, row in ranked[:12]:
            print(f"  {key:<40} {row['s']:10.4f} s  {row['calls']:>9} calls")
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = measure(
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            load_references(),
        )
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
