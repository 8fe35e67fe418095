"""Command-line entry point.

Subcommands: constants | census | deuring | theorem1 | theorem2 | bdh | cr |
verify.  Exit status: 0 on success; 1 on a failed acceptance check, a domain
or capacity error, or a failed internal check (each printed as `error: ...`);
2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from typing import Iterable

import numpy as np

from . import classnumbers, constants, curves, harness
from .errors import CapacityError, DomainError
from .primes import sieve


@contextlib.contextmanager
def _frozen_heap():
    """Keep the objects that exist before a command out of its garbage collections.

    Modules, functions and import-time tables live as long as the process.
    Unfrozen, they sit in whichever generation the collector's counts left
    them in, so a command's first collection walks thousands of them, or
    none, depending on what ran before; in a forked process that walk also
    copies their pages.  Frozen, every collection of the command walks only
    the command's own objects.  If the caller has frozen objects already,
    the collector is left as it is.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text file for writing that appears at `path` only once the block completes.

    The text goes to `path.tmp`, which replaces `path` on success and is
    removed on any error.  An OSError on the temporary file names `path`.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _out_path(out: str, suffix: str) -> str:
    """The output path `out`, with `suffix` added if missing."""
    return out if out.endswith(suffix) else out + suffix


def _write(payload: str | Iterable[str], out: str | None, suffix: str = ".json") -> None:
    """Print `payload`, or write it to `_out_path(out, suffix)`; an iterable
    payload is written one text chunk at a time, as it is produced."""
    chunks = [payload] if isinstance(payload, str) else payload
    if out is None:
        sys.stdout.writelines(chunks)
        return
    path = _out_path(out, suffix)
    with _atomic_open(path) as fh:
        fh.writelines(chunks)
    print(f"wrote {path}")


def write_census_file(path: str, censuses: Iterable[tuple[int, np.ndarray]]) -> int:
    """Write a `p,r,count` line per nonzero count under a '#' header line.

    `censuses` yields (p, census(p)) pairs; each is written as it arrives, in
    ascending r, and the file appears at `path` only once all are written.
    Returns the total curve count.
    """
    total = 0
    with _atomic_open(path) as fh:
        fh.write("# census records: p,r,count\n")
        for p, hist in censuses:
            off = len(hist) // 2
            for i in np.flatnonzero(hist).tolist():
                fh.write(f"{p},{i - off},{int(hist[i])}\n")
            total += int(hist.sum())
    return total


def _cmd_constants(args) -> int:
    factors = []
    for ell in (3, 5, 7, 11, 13):
        omega, gl2 = constants.gl2_counts(ell)
        factors.append({"ell": ell, "omega": omega, "gl2": gl2})
    payload = {"frak_C": constants.average_constant(), "local_factors": factors}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _check_census_budget(pmax: int) -> None:
    if pmax < 2:
        raise DomainError(f"pmax={pmax} must be >= 2")
    if pmax > curves.MAX_CENSUS_PRIME:
        raise CapacityError(f"pmax={pmax} exceeds census budget {curves.MAX_CENSUS_PRIME}")


def _cmd_census(args) -> int:
    _check_census_budget(args.pmax)
    primes = [int(p) for p in np.flatnonzero(sieve(args.pmax)) if p > 3]
    censuses = curves.censuses(primes)
    if args.out:
        total = write_census_file(_out_path(args.out, ".csv"), censuses)
    else:
        total = sum(int(hist.sum()) for _, hist in censuses)
    print(f"census: {len(primes)} primes <= {args.pmax}, {total} curves")
    return 0


def _cmd_deuring(args) -> int:
    _check_census_budget(args.pmax)
    table = classnumbers.twelve_h_weighted_table(4 * args.pmax)
    bad = [p for p, r in curves.deuring_sweep(args.pmax, table) if r.size]
    status = "PASS" if not bad else f"FAIL at p in {bad}"
    _write(f"deuring check p <= {args.pmax}: {status}\n", args.out, ".txt")
    return 0 if not bad else 1


def _cmd_theorem1(args) -> int:
    report = harness.run_theorem1(args.x, args.A, args.B)
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_theorem2(args) -> int:
    report = harness.run_theorem2(args.pmax)
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_bdh(args) -> int:
    report, result = harness.run_bdh(args.R, args.Q, args.X, args.Y)
    if args.out is not None:
        _write(harness.bdh_rows_csv(result), args.out, ".csv")
    _write(report.to_json(), args.out)
    return 0


def _cmd_cr(args) -> int:
    payload = {"r": args.r, "C_r": constants.C_r(args.r)}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    report = harness.run_verify(args.suite)
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koblitz",
        description="Curve censuses, class numbers, twin-prime series, and "
        "Euler-product constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", type=str, default=None, help="output path stem")
        return p

    add("constants", _cmd_constants, help="emit the average constant ledger")

    p = add("census", _cmd_census, help="curve censuses for all primes <= pmax")
    p.add_argument("--pmax", type=int, required=True)

    p = add("deuring", _cmd_deuring, help="exact census vs class-number check")
    p.add_argument("--pmax", type=int, default=499)

    p = add("theorem1", _cmd_theorem1, help="box-averaged twin count experiment")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)

    p = add("theorem2", _cmd_theorem2, help="summed prime-order census experiment")
    p.add_argument("--pmax", type=int, required=True)

    p = add("bdh", _cmd_bdh, help="dispersion statistic over a prime window")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--Q", type=int, default=1)
    p.add_argument("--X", type=int, default=0)
    p.add_argument("--Y", type=int, required=True)

    p = add("cr", _cmd_cr, help="per-shift constant C_r")
    p.add_argument("--r", type=int, required=True)

    p = add("verify", _cmd_verify, help="run an invariant suite")
    p.add_argument(
        "--suite",
        type=str,
        default="all",
        choices=[*harness.SUITES, "all"],
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    with _frozen_heap():
        args = build_parser().parse_args(argv)
        try:
            return args.fn(args)
        except (ValueError, RuntimeError, AssertionError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
