"""Experiment-driver and command-line tests."""

import gc
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz import classnumbers, cli, constants, curves, harness, primes, twinseries
from koblitz.errors import CapacityError, DomainError
from oracles import is_prime, pi_twin


class TestTheorem2:
    def test_routes_match_small(self):
        rep = harness.run_theorem2(200)
        assert rep.summary["routes_match"]
        assert rep.passed
        assert rep.summary["census_route_sum"] == rep.summary["class_route_sum"]

    def test_ratio_fields_consistent(self):
        rep = harness.run_theorem2(500)
        s = rep.summary
        assert rep.params == {"pmax": 500}  # frak_C is complete: no truncation L
        assert s["frak_c"] == constants.average_constant()
        assert s["ratio_to_integral"] == pytest.approx(
            s["class_route_sum"] / s["integral_main_term"], rel=1e-12
        )
        assert 0.5 < s["ratio_to_integral"] < 1.5

    @pytest.mark.parametrize("pmax", [10, 500, 3000, 10**5])
    def test_integral_main_term_against_mpmath(self, pmax):
        mpmath = pytest.importorskip("mpmath")
        cuts = [2, 3] + [c for c in (10, 100, 1000, 10**4) if c < pmax] + [pmax]
        with mpmath.workdps(35):
            want = mpmath.quad(lambda u: u * u / mpmath.log(u) ** 2, cuts)
            want = float(want)
        got = harness._integral_main_term(pmax, 1.0)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_literal_rule_is_leggauss(self):
        # the rule is data in harness: antisymmetric nodes, symmetric weights,
        # each within 1 ulp of numpy's leggauss
        x, w = harness._LEG_X, harness._LEG_W
        assert x.shape == w.shape == (harness.LEGENDRE_NODES,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        want_x, want_w = np.polynomial.legendre.leggauss(harness.LEGENDRE_NODES)
        assert np.all(np.abs(x - want_x) <= np.spacing(np.abs(want_x)))
        assert np.all(np.abs(w - want_w) <= np.spacing(want_w))

    def test_domain(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved before the budget check")

        monkeypatch.setattr(harness, "sieve", no_sieve)
        with pytest.raises(DomainError):
            harness.run_theorem2(5)
        with pytest.raises(CapacityError, match="pmax=100001 .* 100000"):
            harness.run_theorem2(10**5 + 1)


class TestTheorem1:
    def test_small_run(self):
        rep = harness.run_theorem1(200, 10, 10)
        s = rep.summary
        assert s["box_curves"] == 21 * 21 - 3  # (0,0) and (-3, +-2) are singular
        assert s["total_twin_count"] > 0
        assert s["average"] == pytest.approx(
            s["total_twin_count"] / s["box_curves"], rel=1e-12
        )

    def test_trend_toward_refined_main_term(self):
        r500 = harness.run_theorem1(500, 25, 25)
        r2000 = harness.run_theorem1(2000, 45, 45)
        d500 = abs(r500.summary["ratio_to_refined"] - 1.0)
        d2000 = abs(r2000.summary["ratio_to_refined"] - 1.0)
        assert d2000 < 0.25
        assert d2000 < d500

    @pytest.mark.parametrize("x, A, B, want", [(60, 3, 4, 112), (100, 5, 2, 120), (47, 0, 6, 19)])
    def test_total_is_sum_of_per_curve_twin_counts(self, x, A, B, want):
        # box histograms skip the pairs singular mod p and pi_twin the primes
        # dividing 4a^3 + 27b^2: the same primes, so the totals agree exactly
        total = sum(
            pi_twin(a, b, x)
            for a in range(-A, A + 1)
            for b in range(-B, B + 1)
            if 4 * a**3 + 27 * b**2 != 0
        )
        assert total == want
        assert harness.run_theorem1(x, A, B).summary["total_twin_count"] == total

    def test_empty_box_rejected(self):
        # the box {(0,0)} holds only a globally singular curve
        with pytest.raises(DomainError):
            harness.run_theorem1(100, 0, 0)

    def test_domain(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved before the budget check")

        monkeypatch.setattr(harness, "sieve", no_sieve)
        with pytest.raises(DomainError):
            harness.run_theorem1(9, 10, 10)
        with pytest.raises(CapacityError, match="x=100001 .* 100000"):
            harness.run_theorem1(10**5 + 1, 10, 10)

    @pytest.mark.parametrize("A, B", [(-1, 10), (10, -1), (2**52, 0), (10**9, 10**9), (0, 0)])
    def test_box_checked_before_sieve(self, monkeypatch, A, B):
        # radii below 0, more than 2^53 pairs, whose float64 counts are
        # inexact, or a box of singular curves only
        def no_sieve(limit):
            raise AssertionError("sieved before the box check")

        monkeypatch.setattr(harness, "sieve", no_sieve)
        with pytest.raises(DomainError):
            harness.run_theorem1(100, A, B)


def _oracle_bdh_csv(result):
    """The CSV one `%` per (r, q, a) row, as bdh_rows_csv wrote it from row tuples."""
    lines = ["r,q,a,psi,expected,error"]
    for i, r in enumerate(result.r_values.tolist()):
        for j, (q, a) in enumerate(zip(result.q_col.tolist(), result.a_col.tolist())):
            psi, expected = float(result.psi[i, j]), float(result.expected[i, j])
            lines.append("%d,%d,%d,%r,%r,%r" % (r, q, a, psi, expected, psi - expected))
    lines.append(f"# summary S={result.S!r} normalized={result.normalized!r}")
    return "\n".join(lines) + "\n"


# +0.0 first: a cell drawn as None is an all-(+0.0) cell
_POOL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), 5e-324, 1e300]
    + [v for x in (1.0, 0.1, -2.5, 1e-300) for v in (x, np.nextafter(x, np.inf))]
)


@st.composite
def _pooled_grids(draw):
    """A BdhResult whose psi and expected come from _POOL, so they repeat
    across cells, rows and columns."""
    R = draw(st.integers(min_value=1, max_value=3))
    Q = draw(st.integers(min_value=1, max_value=3))
    q_col, a_col = zip(*[(q, a) for q in range(1, Q + 1) for a in range(q)])
    shape = (2 * R, len(q_col))
    index = st.integers(min_value=0, max_value=len(_POOL) - 1)
    cells = draw(
        st.lists(
            st.one_of(st.none(), st.tuples(index, index)),
            min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        )
    )
    picks = np.array([cell or (0, 0) for cell in cells]).reshape(*shape, 2)
    psi, expected = (_POOL[picks[..., k]] for k in range(2))
    S, normalized = (float(_POOL[draw(index)]) for _ in range(2))
    return twinseries.BdhResult(
        S=S,
        normalized=normalized,
        per_q={q: 0.0 for q in range(1, Q + 1)},
        r_values=np.array([*range(-R, 0), *range(1, R + 1)]),
        q_col=np.array(q_col),
        a_col=np.array(a_col),
        psi=psi,
        expected=expected,
    )


class TestBdhDriver:
    def test_summary_and_rows(self):
        rep, res = harness.run_bdh(3, 2, 0, 100)
        s = rep.summary
        assert set(s) == {"S", "normalized", "single_class_statistic", "per_q"}
        # S(r) reads 2*C2 truncated at L, the one product still truncated
        assert rep.params["L"] == constants.DEFAULT_TRUNCATION == 10**6
        assert s["normalized"] == pytest.approx(s["S"] / (3 * 100.0**2), rel=1e-12)
        assert rep.rows == []
        # grid: 6 values of r, q=1 has 1 class, q=2 has 2
        assert res.r_values.tolist() == [-3, -2, -1, 1, 2, 3]
        assert (res.q_col.tolist(), res.a_col.tolist()) == ([1, 2, 2], [0, 0, 1])
        for grid in (res.psi, res.expected):
            assert grid.shape == (6, 3)

    def test_csv_shape(self):
        _, res = harness.run_bdh(2, 1, 0, 50)
        text = "".join(harness.bdh_rows_csv(res))
        lines = text.strip().split("\n")
        assert lines[0] == "r,q,a,psi,expected,error"
        assert lines[-1].startswith("# summary S=")
        assert len(lines) == 2 + 4  # header + 4 rows + summary

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=400),
        st.data(),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_equals_per_row_formatter(self, X, Y, data, Q):
        R = data.draw(st.integers(min_value=1, max_value=min(20, X + Y)), label="R")
        res = twinseries.bdh_statistic(R, Q, X, Y)
        assert "".join(harness.bdh_rows_csv(res)) == _oracle_bdh_csv(res)

    def test_csv_of_hand_made_grid(self):
        # -0.0 is not +0.0 and goes through repr; r = -2 and -1 are all +0.0
        psi = np.array([[0.0] * 3, [0.0] * 3, [-0.0, 5e-324, 1e300], [0.0, 0.0, 2.5]])
        expected = np.array([[0.0] * 3, [0.0] * 3, [0.0, -0.0, 0.0], [0.0, 1.0, 0.0]])
        res = twinseries.BdhResult(
            S=1.5,
            normalized=0.125,
            per_q={1: 0.0, 2: 1.5},
            r_values=np.array([-2, -1, 1, 2]),
            q_col=np.array([1, 2, 2]),
            a_col=np.array([0, 0, 1]),
            psi=psi,
            expected=expected,
        )
        text = "".join(harness.bdh_rows_csv(res))
        assert text == _oracle_bdh_csv(res)
        assert text == (
            "r,q,a,psi,expected,error\n"
            "-2,1,0,0.0,0.0,0.0\n-2,2,0,0.0,0.0,0.0\n-2,2,1,0.0,0.0,0.0\n"
            "-1,1,0,0.0,0.0,0.0\n-1,2,0,0.0,0.0,0.0\n-1,2,1,0.0,0.0,0.0\n"
            "1,1,0,-0.0,0.0,-0.0\n1,2,0,5e-324,-0.0,5e-324\n1,2,1,1e+300,0.0,1e+300\n"
            "2,1,0,0.0,0.0,0.0\n2,2,0,0.0,1.0,-1.0\n2,2,1,2.5,0.0,2.5\n"
            "# summary S=1.5 normalized=0.125\n"
        )

    @given(_pooled_grids())
    @settings(max_examples=200, deadline=None)
    def test_csv_of_pooled_values_equals_per_row_formatter(self, res):
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as for Python floats
            assert "".join(harness.bdh_rows_csv(res)) == _oracle_bdh_csv(res)

    def test_one_repr_per_distinct_value(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(harness, "repr", counting, raising=False)
        _, res = harness.run_bdh(20, 4, 0, 2000)
        text = "".join(harness.bdh_rows_csv(res))
        monkeypatch.undo()
        assert text == _oracle_bdh_csv(res)
        grids = (res.psi, res.expected, res.psi - res.expected)
        columns = (g.view(np.int64).ravel().tolist() for g in grids)
        cells = [cell for cell in zip(*columns) if cell != (0, 0, 0)]
        distinct = {bits for cell in cells for bits in cell}
        assert len(distinct) < 3 * len(cells)  # values repeat, so the count tells
        assert len(calls) == len(distinct)

    def test_csv_peak_memory_at_window_argv(self):
        # streamed into a sink: the writer never holds the whole file
        _, res = harness.run_bdh(300, 10, 4_000_000, 50_000)
        tracemalloc.start()
        try:
            size = sum(map(len, harness.bdh_rows_csv(res)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size

    def test_csv_chunks_are_whole_lines_one_per_shift(self):
        _, res = harness.run_bdh(20, 4, 0, 2000)
        chunks = list(harness.bdh_rows_csv(res))
        assert len(chunks) == 2 + res.r_values.size
        assert all(chunk.endswith("\n") for chunk in chunks)
        for r, chunk in zip(res.r_values.tolist(), chunks[1:-1]):
            lines = chunk.splitlines()
            assert len(lines) == res.q_col.size
            assert all(line.startswith(f"{r},") for line in lines)


class TestVerify:
    def test_single_suites_pass(self):
        for suite in ("deuring", "series"):
            rep = harness.run_verify(suite)
            assert rep.passed, rep.to_json()
            assert rep.summary["failures"] == 0

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            harness.run_verify("bogus")

    @pytest.mark.parametrize(
        "name, point, check",
        [
            ("rho", (7, 30), "rho closed form vs enumeration"),
        ],
    )
    def test_series_mismatch_names_first_point(self, monkeypatch, name, point, check):
        true_fn = getattr(twinseries, name)

        def wrong_at_point(*args):
            return true_fn(*args) + (args == point)

        monkeypatch.setattr(twinseries, name, wrong_at_point)
        rep = harness.run_verify("series")
        row = next(row for row in rep.rows if row["check"].startswith(check))
        assert not rep.passed and not row["passed"]
        assert row["detail"] == f"first mismatch at {point}"

    def test_gl2_rows_check_the_identity(self, monkeypatch):
        # one element too many in Omega' breaks the identity at every ell
        true_fn = constants.gl2_counts
        monkeypatch.setattr(
            constants, "gl2_counts", lambda ell: (true_fn(ell)[0] + 1, true_fn(ell)[1])
        )
        rep = harness.run_verify("constants")
        rows = [row for row in rep.rows if row["check"].startswith("gl2 local factor")]
        assert not rep.passed and len(rows) == 5
        assert not any(row["passed"] for row in rows)

    def test_report_json_shape(self):
        rep = harness.run_verify("deuring")
        payload = json.loads(rep.to_json())
        assert payload["name"] == "verify"
        assert payload["passed"] is True
        assert payload["summary"]["checks"] == len(payload["rows"])


class TestCli:
    def test_constants_json(self, capsys):
        assert cli.main(["constants"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frak_C"] == constants.average_constant()
        assert sorted(payload) == ["frak_C", "local_factors"]
        ell3 = next(f for f in payload["local_factors"] if f["ell"] == 3)
        assert ell3 == {"ell": 3, "omega": 21, "gl2": 48}

    def test_deuring(self, capsys):
        assert cli.main(["deuring", "--pmax", "60"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_deuring_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert cli.main(["deuring", "--pmax", "30", "--out", out]) == 0
        assert (tmp_path / "d.txt").read_text() == "deuring check p <= 30: PASS\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt"]
        assert capsys.readouterr().out == f"wrote {out}.txt\n"

    def test_census_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "census")
        assert cli.main(["census", "--pmax", "30", "--out", out]) == 0
        with open(out + ".csv") as fh:
            rows = [line.split(",") for line in fh if not line.startswith("#")]
        assert {int(row[0]) for row in rows} == {5, 7, 11, 13, 17, 19, 23, 29}

    def test_census_capacity_checked_before_sieve(self, capsys):
        pmax = 10**7  # its sieve alone would take 15 MB
        assert pmax > curves.MAX_CENSUS_PRIME
        tracemalloc.start()
        try:
            assert cli.main(["census", "--pmax", str(pmax)]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "exceeds census budget" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["census", "deuring"])
    def test_pmax_below_two_names_the_option(self, capsys, verb):
        assert cli.main([verb, "--pmax", "1"]) == 1
        assert capsys.readouterr().err == "error: pmax=1 must be >= 2\n"
        assert cli.main([verb, "--pmax", "2"]) == 0

    def test_theorem2_out(self, tmp_path, capsys):
        out = str(tmp_path / "t2")
        assert cli.main(["theorem2", "--pmax", "100", "--out", out]) == 0
        payload = json.loads((tmp_path / "t2.json").read_text())
        assert payload["summary"]["routes_match"] is True

    def test_bdh_writes_csv_and_json(self, tmp_path, capsys):
        out = str(tmp_path / "bdh")
        assert cli.main(
            ["bdh", "--R", "2", "--Y", "50", "--Q", "1", "--out", out]
        ) == 0
        assert (tmp_path / "bdh.csv").exists()
        payload = json.loads((tmp_path / "bdh.json").read_text())
        assert payload["params"]["x"] == 50  # X + Y

    def test_bdh_writer_failing_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        writer = harness.bdh_rows_csv

        def failing(result):
            chunks = writer(result)
            yield next(chunks)
            yield next(chunks)
            raise RuntimeError("writer failed mid-stream")

        monkeypatch.setattr(harness, "bdh_rows_csv", failing)
        out = tmp_path / "bdh"
        assert cli.main(["bdh", "--R", "2", "--Y", "50", "--out", str(out)]) == 1
        assert "error: writer failed mid-stream" in capsys.readouterr().err
        assert not (tmp_path / "bdh.csv").exists()
        assert not (tmp_path / "bdh.csv.tmp").exists()
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["constants"], ["bdh", "--R", "2", "--Y", "50"], ["cr", "--r", "3"]]
    )
    def test_unwritable_out_is_an_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the error names the path written to (bdh writes its CSV first), not
        # its temporary file
        suffix = ".csv" if argv[0] == "bdh" else ".json"
        assert f"'{out}{suffix}'" in err and ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == []

    def test_bdh_sieve_budget_is_an_error(self, capsys):
        # the window's flags would take Y + 2R bytes, about 1 TB
        assert cli.main(["bdh", "--R", "1", "--Y", str(10**12)]) == 1
        assert capsys.readouterr().err.startswith("error: window length")

    def test_cr_json(self, capsys):
        assert cli.main(["cr", "--r", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["C_r", "r"]
        assert (payload["r"], payload["C_r"]) == (3, constants.C_r(3))

    def test_write_is_atomic(self, tmp_path, capsys):
        out = str(tmp_path / "report")
        with pytest.raises(UnicodeEncodeError):
            cli._write("x" * 100_000 + "\u00e9\n", out)
        assert sorted(tmp_path.iterdir()) == []
        cli._write("{}\n", out)
        assert (tmp_path / "report.json").read_bytes() == b"{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert capsys.readouterr().out == f"wrote {out}.json\n"

    def test_verify_suite(self, capsys):
        assert cli.main(["verify", "--suite", "deuring"]) == 0

    def test_verify_help_lists_the_harness_suites(self, capsys):
        assert list(harness.SUITES) == ["deuring", "constants", "series"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "{deuring,constants,series,all}" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        # the proof's lemmas are checked in tier-1, not by a suite
        for suite in ("nonsense", "characters"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--suite", suite])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        # no verb takes a truncation limit --L
        for argv in (
            ["bdh", "--R", "2", "--Y", "50"],
            ["theorem2", "--pmax", "500"],
            ["constants"],
            ["cr", "--r", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--L", "10"])
            assert exc.value.code == 2
        # bdh normalizes by X + Y and takes no --x
        with pytest.raises(SystemExit) as exc:
            cli.main(["bdh", "--R", "2", "--Y", "50", "--x", "60"])
        assert exc.value.code == 2
        # the triple-sum oracle for C_r is a test route, not a CLI option
        for option in ("--U", "--V"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["cr", "--r", "3", option, "10"])
            assert exc.value.code == 2

    def test_theorem1_box_is_required(self, capsys):
        # no default box: the one at A = B = 0 holds only the singular pair
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem1", "--x", "500"])
        assert exc.value.code == 2
        assert "the following arguments are required: --A, --B" in capsys.readouterr().err

    def test_domain_error_exit_code(self, capsys):
        assert cli.main(["theorem2", "--pmax", "5"]) == 1
        assert "error:" in capsys.readouterr().err
        # r is past factorize's budget: rejected before any division
        assert cli.main(["cr", "--r", str(10**38 + 1)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_internal_check_exit_code(self, capsys, monkeypatch):
        # 12H = 1 makes (p-1)*12H/12 non-integral at p = 5
        monkeypatch.setattr(
            classnumbers,
            "twelve_h_weighted_table",
            lambda dmax: np.ones(dmax + 1, dtype=np.int64),
        )
        assert cli.main(["deuring", "--pmax", "30"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not divisible by 12" in err


class TestFrozenHeap:
    """A command's collections walk only its own objects, and main restores
    the collector whatever way the command ends."""

    def test_command_runs_with_prior_objects_frozen(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_constants", lambda args: seen.append(gc.get_freeze_count()) or 0)
        assert gc.get_freeze_count() == 0
        assert cli.main(["constants"]) == 0
        assert seen and seen[0] > 0
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_error_and_usage_exit(self, capsys):
        assert cli.main(["theorem2", "--pmax", "5"]) == 1
        assert gc.get_freeze_count() == 0
        with pytest.raises(SystemExit):
            cli.main(["theorem2"])
        assert gc.get_freeze_count() == 0

    def test_callers_freeze_is_kept(self, capsys):
        gc.freeze()
        try:
            assert cli.main(["constants"]) == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


class TestOneTablePerSweep:
    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        build = classnumbers.twelve_h_weighted_table

        def counting(dmax):
            calls.append(dmax)
            return build(dmax)

        monkeypatch.setattr(classnumbers, "twelve_h_weighted_table", counting)
        return calls

    def test_deuring_cli(self, table_calls, capsys):
        assert cli.main(["deuring", "--pmax", "499"]) == 0
        assert table_calls == [4 * 499]
        assert capsys.readouterr().out == "deuring check p <= 499: PASS\n"

    def test_deuring_capacity_checked_before_table(self, table_calls, capsys):
        pmax = curves.MAX_CENSUS_PRIME + 1
        assert cli.main(["deuring", "--pmax", str(pmax)]) == 1
        assert table_calls == []
        assert "exceeds census budget" in capsys.readouterr().err

    def test_verify_deuring_suite(self, table_calls, capsys):
        assert cli.main(["verify", "--suite", "deuring"]) == 0
        assert table_calls == [10**4]


class TestDeuringMismatches:
    """12H(-404) + 12: r = 0 mismatches at p = 101, and r = +-12 at p = 137."""

    @pytest.fixture(autouse=True)
    def shifted_table(self, monkeypatch):
        build = classnumbers.twelve_h_weighted_table

        def shifted(dmax):
            table = build(dmax)
            table[4 * 101] += 12
            return table

        monkeypatch.setattr(classnumbers, "twelve_h_weighted_table", shifted)

    def test_verify_suite(self, capsys):
        assert cli.main(["verify", "--suite", "deuring"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        details = [(row["passed"], row["detail"]) for row in rows[:2]]
        assert details == [(False, "mismatching p: [137]"), (False, "mismatching p: [101]")]

    def test_deuring_cli(self, capsys):
        assert cli.main(["deuring", "--pmax", "499"]) == 1
        assert capsys.readouterr().out == "deuring check p <= 499: FAIL at p in [101, 137]\n"

    def test_kronecker_hurwitz_row(self):
        # F(404) is read at n = 101 + k^2, from t = 2k
        rep = harness.run_verify("deuring")
        row = next(row for row in rep.rows if row["check"].startswith("Kronecker-Hurwitz"))
        assert (row["passed"], row["detail"]) == (False, "first mismatch at n=101")


class TestOnePrimeCheckPerCensusPrime:
    """Census primes are checked against one sieve of their maximum."""

    @pytest.fixture
    def sieve_calls(self, monkeypatch):
        calls = []
        real = curves.sieve

        def counting(limit):
            calls.append(limit)
            return real(limit)

        monkeypatch.setattr(curves, "sieve", counting)
        return calls

    def test_censuses_sieve_once(self, sieve_calls):
        got = list(curves.censuses([5, 7, 499, 11, 13]))
        assert [p for p, _ in got] == [5, 7, 499, 11, 13]
        assert sieve_calls == [499]
        sieve_calls.clear()
        curves.census(101)
        curves.box_trace_histogram(37, 2, 2)
        assert sieve_calls == [101, 37]

    def test_errors_in_input_order(self, sieve_calls):
        with pytest.raises(DomainError, match=r"^p=9 must be a prime > 3$"):
            curves.censuses([5, 9, 15, 7])
        with pytest.raises(DomainError, match=r"^p=3 must be a prime > 3$"):
            curves.censuses([3, 5])
        with pytest.raises(CapacityError, match=r"^p=100003 exceeds census budget 100000$"):
            curves.censuses([9, 100003, 100019])
        assert sieve_calls == [15, 5]  # the budget check sieves nothing

    def test_budget_checked_before_the_sieve(self, monkeypatch):
        def fail(limit):
            raise AssertionError(f"sieve({limit}) before the budget check")

        monkeypatch.setattr(curves, "sieve", fail)
        with pytest.raises(CapacityError, match=r"p=1000000000000 exceeds census budget"):
            curves.censuses([5, 10**12])


class TestPinnedOutputs:
    """Integer outputs pinned exactly: a refactor must leave them unchanged."""

    def test_census_csv(self, tmp_path, capsys):
        out = str(tmp_path / "census")
        assert cli.main(["census", "--pmax", "200", "--out", out]) == 0
        digest = hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest()
        assert digest == "6071a255d589433bdc7cd51b03353f637a3f196567130b62ca113055e4c26860"
        assert capsys.readouterr().out == "census: 44 primes <= 200, 560830 curves\n"

    def test_bdh_csv_and_json(self, tmp_path, capsys):
        argv = ["bdh", "--R", "300", "--Q", "10", "--X", "4000000", "--Y", "50000"]
        out = str(tmp_path / "bdh")
        assert cli.main([*argv, "--out", out]) == 0
        csv = hashlib.sha256((tmp_path / "bdh.csv").read_bytes()).hexdigest()
        assert csv == "15bc98c343c5ff6483abd742160a6885347b351e78d0abb0a4c26e0a22f7dd2e"
        report = (tmp_path / "bdh.json").read_text()
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == report
        digest = hashlib.sha256(report.encode("ascii")).hexdigest()
        assert digest == "6644702e530ce063908343c0dab07dfbb65525cbd87d495f54cfa9b6430d3374"

    # pinned cases are named by their argv alone, so a re-pin keeps the test ids
    WINDOW_EDGES = [
        (  # the window (X-R, X+Y+R] reaches below 1
            "bdh --R 8 --Q 3 --X 3 --Y 60",
            "c0b3079709c431f0ac308e68da454412e122f6d042a0d801797306694f972f6b",
            "ab18040e41cea9a5d0616e05213de9c720e35c6df2676e28a3d50fa9f441cf88",
        ),
        (  # base primes above the window length strike once each
            "bdh --R 12 --Q 4 --X 1000000000000 --Y 2000",
            "81e7acea143b9a96fdee3e9a595ac56c2402b73af605337741fe8e169f245cd8",
            "11c9bc90222b9ce86be42f802be5e4a6e1dab6fdb865bf9562e1078efb072650",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, json_digest, csv_digest", WINDOW_EDGES, ids=[case[0] for case in WINDOW_EDGES]
    )
    def test_bdh_window_edges(self, tmp_path, capsys, argv, json_digest, csv_digest):
        assert cli.main([*argv.split(), "--out", str(tmp_path / "bdh")]) == 0
        for suffix, digest in ((".json", json_digest), (".csv", csv_digest)):
            data = (tmp_path / f"bdh{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix

    def test_theorem1_large_box(self, capsys):
        # a box covering F_p for every p <= 2000
        assert cli.main(["theorem1", "--x", "2000", "--A", "2000", "--B", "2000"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["summary"]["total_twin_count"] == 387021943
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == "69b1e5baa0e0a6554d5dc6a352c0a42ba249cf1f113013aa1ac303febb90c726"

    VERIFY_STDOUT = [
        ("deuring", "d7f413ed3f9ac6f815dd889f04973bca33795fe34064939a95eb21b8f2dc3385"),
        ("constants", "43d98913baebed02164f72d9826a08312e468bdac586e235b561d9e6c254a1a6"),
        ("series", "e701d60f810531c5aed3faaa5b85d7fc4c20d4b7a922436edc8ec6f47d964270"),
        ("all", "26ecae95ded821a13dd00f665e8bb17509e6650754a163c8180dc1ae69202891"),
    ]

    @pytest.mark.parametrize(
        "suite, digest", VERIFY_STDOUT, ids=[case[0] for case in VERIFY_STDOUT]
    )
    def test_verify_suite_stdout(self, capsys, suite, digest):
        assert cli.main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    CONSTANT_STDOUT = [
        ("constants", "82b882707ce4f090310897b7374de078a5e6cf9a4cd0595af491e9499d666551"),
        ("cr --r 3", "d0ab80a616dfa8e4dab061cace3e4514518a38f5970faece9797b5ae5b78b638"),
    ]

    @pytest.mark.parametrize(
        "argv, digest", CONSTANT_STDOUT, ids=[case[0] for case in CONSTANT_STDOUT]
    )
    def test_constant_stdout(self, capsys, argv, digest):
        assert cli.main(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("pmax, total", [(500, 596076), (3000, 76353690)])
    def test_theorem2_route_sums(self, pmax, total):
        s = harness.run_theorem2(pmax).summary
        assert (s["class_route_sum"], s["census_route_sum"]) == (total, total)

    @pytest.mark.parametrize("pmax, total", [(20000, 14682378898), (10**5, 1355175869944)])
    def test_theorem2_class_route_sum(self, pmax, total):
        # no census route above pmax 3000: this pins the 12H table entries it sums
        assert harness.run_theorem2(pmax).summary["class_route_sum"] == total


class TestReportDeterminism:
    def test_repeated_runs_identical(self):
        a = harness.run_theorem2(150).to_json()
        b = harness.run_theorem2(150).to_json()
        assert a == b
        c, c_grid = harness.run_bdh(2, 2, 0, 80)
        d, d_grid = harness.run_bdh(2, 2, 0, 80)
        assert c.to_json() == d.to_json()
        assert list(harness.bdh_rows_csv(c_grid)) == list(harness.bdh_rows_csv(d_grid))


class TestTheorem2Work:
    def test_no_sieve_past_the_window_and_one_gather_per_batch(self, monkeypatch):
        # frak_C needs the primes <= 50 only, and the class route reads the 12H
        # table once per batch of primes, not once per prime
        ends, gathers = [], []
        strike, gather = primes._odd_flags, curves._deuring_gather

        def counting_strike(x, y):
            ends.append(x + y)
            return strike(x, y)

        def counting_gather(batch, table):
            gathers.append(list(batch))
            return gather(batch, table)

        monkeypatch.setattr(primes, "_odd_flags", counting_strike)
        monkeypatch.setattr(curves, "_deuring_gather", counting_gather)
        constants.average_constant_forms.cache_clear()
        pmax = 500
        summary = harness.run_theorem2(pmax).summary
        assert summary["class_route_sum"] == 596076
        assert ends and max(ends) <= pmax + 2 * math.isqrt(pmax) + 2
        census_primes = [p for p in range(5, pmax + 1) if is_prime(p)]
        assert gathers == list(curves._batches(census_primes, curves._hasse_width))
        assert len(gathers) == 1


class TestBdhWork:
    def test_no_sieve_past_the_window(self, monkeypatch):
        # 2*C2 is a literal, so the statistic sieves its window (X-R, X+Y+R]
        # and the primes below its root, and nothing up to 10^6
        windows = []
        strike = primes._odd_flags

        def counting_strike(x, y):
            windows.append((x, y))
            return strike(x, y)

        monkeypatch.setattr(primes, "_odd_flags", counting_strike)
        R, Q, X, Y = 300, 10, 4_000_000, 50_000
        rep, _ = harness.run_bdh(R, Q, X, Y)
        assert windows and [(x, y) for x, y in windows if y > Y + 2 * R] == []
        path = Path(__file__).parents[1] / "bench" / "references.json"
        want = json.loads(path.read_text())["reports"][f"bdh --R {R} --Q {Q} --X {X} --Y {Y}"]
        assert rep.summary["S"] == want["summary"]["S"]
