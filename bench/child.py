"""One benchmark worker process: time `import koblitz.cli`, then run the CLI.

    python child.py --src SRC --result PATH --t0-ns NS [--trace]
                    --work DIR --deadline-ns NS -- ARGS...

NS is the parent's `time.monotonic_ns()` just before the spawn, so `setup_s`
runs from process start to the end of the import. With `--trace` the worker
imports numpy, scipy and koblitz one after another to time each.

The worker then runs `cli.main(ARGS)` again and again until the
deadline, each time in a process forked from the worker right after the
import. `census`, `kronecker_H` and other caches live as long as a process
and are empty after the import, so every run starts from the state a fresh
`koblitz` process has once imported, and no run sees another's cache hits.
Forking instead of starting a new interpreter keeps the import out of the
time between runs, so a run has many short samples. With `--trace`, one
more run follows the deadline, with every package function wrapped by
tracer.Tracer.

Run i writes its report to DIR/run<i>.* and its timings to
DIR/run<i>.result.json; the worker writes one JSON object to PATH.
"""

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 120  # a forked run that takes longer is killed by SIGALRM


def _library_facts() -> dict:
    import numpy

    facts = {"numpy": numpy.__version__}
    try:
        import scipy

        facts["scipy"] = scipy.__version__
    except ImportError:
        facts["scipy"] = "absent"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    return facts


def _run_forked(cli, cli_args: list[str], stem: Path, trace: bool, cpu: int) -> dict:
    """Run `cli.main` once in a forked process, started on `cpu`, and wait for it."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # Free to use every CPU again, e.g. for BLAS threads; the main
            # thread stays where it started while nothing else competes.
            os.sched_setaffinity(0, cpus)
            signal.alarm(RUN_TIMEOUT_S)
            out: dict = {}
            tracer = None
            if trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            out["exit_code"] = cli.main([*cli_args, "--out", str(stem)])
            out["solve_s"] = time.perf_counter() - start
            if tracer is not None:
                out["layers"] = tracer.report()
            with open(f"{stem}.result.json", "w", encoding="ascii") as fh:
                json.dump(out, fh)
            code = 0
        except BaseException as exc:  # noqa: BLE001 - the run must not fall back into the loop
            print(f"run {stem.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.sched_setaffinity(0, cpus)
    _, status, usage = os.wait4(pid, 0)
    return {
        "stem": stem.name,
        "status": status,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--deadline-ns", type=int, required=True)
    parser.add_argument("cli_args", nargs="+")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    out: dict = {}
    if args.trace:
        t = time.perf_counter()
        import numpy  # noqa: F401

        out["setup.numpy_s"] = time.perf_counter() - t
        t = time.perf_counter()
        try:
            import scipy.integrate  # noqa: F401
        except ImportError:
            pass
        out["setup.scipy_s"] = time.perf_counter() - t
        t = time.perf_counter()
        import koblitz.cli

        out["setup.koblitz_s"] = time.perf_counter() - t
    else:
        import koblitz.cli
    out["setup_s"] = (time.monotonic_ns() - args.t0_ns) / 1e9

    loaded = Path(koblitz.cli.__file__).resolve()
    if src not in loaded.parents:
        raise RuntimeError(f"imported {loaded}, not the checkout's {src}")

    work = Path(args.work)
    # Runs start on each usable CPU in turn. The speed of each CPU of a
    # shared host changes on its own for seconds to minutes; taking
    # turns spreads that over the samples of a run.
    cpus = sorted(os.sched_getaffinity(0))
    runs = []

    def run(trace: bool) -> None:
        cpu = cpus[len(runs) % len(cpus)]
        stem = work / f"run{len(runs)}"
        runs.append(_run_forked(koblitz.cli, args.cli_args, stem, trace, cpu))

    last_ns = 0
    # Always one untraced run; then more while the next one, as long as
    # the last, would end before the deadline.
    while not runs or time.monotonic_ns() + last_ns < args.deadline_ns:
        t = time.monotonic_ns()
        run(False)
        last_ns = time.monotonic_ns() - t
    if args.trace:
        run(True)
    out["runs"] = runs

    out["libraries"] = _library_facts()
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
