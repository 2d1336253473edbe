"""CLI surface: subcommands, CSV/JSON outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from dynmatch import analytics, cli, engine, oracles
from dynmatch.cli import (
    SweepSpec,
    main,
    run_sweep,
    summarize,
    write_raw_csv,
    write_summary_csv,
)
from dynmatch.core import ConfigError, Constant, NumericError, PolicyKind, mix_seed


def _no_work(*args, **kwargs):
    raise AssertionError("a run started although the arguments are invalid")


def _spy_on_checks(monkeypatch) -> list[str]:
    """Replace every check ``verify`` can dispatch to; returns the names that ran."""
    ran: list[str] = []
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli._VERIFY, name, lambda runs, seed, name=name: ran.append(name))
    return ran


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSimulate:
    def test_json_output_conserves(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "--m", "200", "--d", "5", "--T", "10",
            "--policy", "greedy", "--departure", "const:1", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["arrivals"] == payload["matched"] + payload["perished"] + payload["pool_at_T"]
        assert payload["policy"] == "greedy"
        assert "n_runs" not in payload
        assert payload["engine_version"] == engine.ENGINE_VERSION == 2

    def test_tiny_density_runs_without_a_match(self, capsys):
        # p = 1e-300: numpy caps every geometric gap, far past any queried pair;
        # under never-perish each arrival queries every earlier one
        code, out = run_cli(capsys, "simulate", "--m", "1", "--d", "1e-300", "--T", "5", "--departure", "never")
        assert code == 0
        payload = json.loads(out)
        assert payload["arrivals"] > 1 and payload["matched"] == 0
        assert payload["pool_at_T"] == payload["arrivals"]

    def test_never_perish_has_zero_perished(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "--m", "200", "--d", "5", "--T", "10", "--departure", "never", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["perished"] == 0

    CONFIG = {
        "m": 100.0,
        "d": 4.0,
        "T": 5.0,
        "policy": "patient",
        "departure": {"kind": "constant", "c": 1.0},
        "seed": 3,
    }

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(self.CONFIG))
        code, out = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert json.loads(out)["policy"] == "patient"

    def test_config_file_with_trace_output(self, capsys, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(self.CONFIG))
        trace = tmp_path / "trace.csv"
        code, out = run_cli(capsys, "simulate", "--config", str(path), "--trace-out", str(trace))
        assert code == 0
        assert json.loads(out)["policy"] == "patient"
        lines = trace.read_text().splitlines()
        assert lines[:3] == ["#schema=1", "time,size", "0.0,0"]
        assert len(lines) > 3

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(CONFIG)[:-10],
            json.dumps(CONFIG | {"pool_trace": "false"}),
            json.dumps(CONFIG | {"seed": 1.7}),
            json.dumps(CONFIG | {"seed": True}),
            json.dumps(CONFIG | {"m": True, "d": 0.5}),
            json.dumps(CONFIG | {"departure": {"kind": "constant", "c": True}}),
            json.dumps(CONFIG | {"m": "1000"}),
            json.dumps(CONFIG | {"seed": "7"}),
            json.dumps(CONFIG | {"departure": {"kind": "constant", "c": "1"}}),
            json.dumps(CONFIG | {"m": 10**400}),
            json.dumps(CONFIG | {"extra": 1}),
            json.dumps(CONFIG | {"pool_trac": True}),
        ],
        ids=["truncated", "string-pool-trace", "fractional-seed", "bool-seed", "bool-m", "bool-departure-c",
             "string-m", "string-seed", "string-departure-c", "huge-int-m", "extra-key", "misspelt-key"],
    )
    def test_bad_config_file_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "market.json"
        path.write_text(text)
        code = main(["simulate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing-file", "directory"])
    def test_unreadable_config_file_exit_code(self, capsys, tmp_path, name):
        # exit 3 is for output i/o; an unreadable --config is bad input
        code = main(["simulate", "--config", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {tmp_path / name}: ")

    def test_trace_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(
            capsys,
            "simulate",
            "--m", "50", "--d", "2", "--T", "5", "--seed", "1",
            "--trace-out", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "time,size"
        assert lines[2] == "0.0,0"

    def test_config_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--m", "10", "--d", "20", "--T", "5")
        assert code == 2

    def test_missing_flags_exit_code(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--m", "10")
        assert code == 2

    def test_burn_in_flag_refused(self, capsys):
        # a run covers [0, T] from an empty market; there is no warm-up flag
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--m", "10", "--d", "2", "--T", "1", "--burn-in", "1"])
        assert exit_info.value.code == 2


class TestSweep:
    def spec(self, **overrides) -> SweepSpec:
        kwargs = dict(
            m=50.0,
            T=10.0,
            policy=PolicyKind.GREEDY,
            departure=Constant(1.0),
            d_values=(2.0, 3.0),
            replications=3,
            master_seed=9,
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_rows_are_deterministic_and_order_normalized(self):
        serial = run_sweep(self.spec(), jobs=1)
        parallel = run_sweep(self.spec(), jobs=2)
        assert serial == parallel
        assert [r.d for r in serial] == [2.0, 2.0, 2.0, 3.0, 3.0, 3.0]

    def test_workers_bounded_by_the_cells(self, monkeypatch):
        # the executor forks all its workers at the first submit; this fake
        # records how many were asked for and maps serially, starting none
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        spec = self.spec(d_values=(2.0, 3.0, 5.0), replications=1)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        rows = run_sweep(spec, jobs=10_000)
        assert len(asked) == 1 and 1 <= asked[0] <= 3
        assert rows == run_sweep(spec, jobs=1)

    def test_csv_files_byte_identical_across_reruns(self, tmp_path, capsys):
        args = [
            "sweep",
            "--m", "50", "--T", "10", "--departure", "const:1", "--seed", "9",
            "--d-list", "2", "3", "--reps", "3",
        ]
        code_a, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code_b, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"), "--jobs", "2")
        assert code_a == code_b == 0
        for name in ("raw.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        header = (tmp_path / "a" / "raw.csv").read_text().splitlines()[0]
        assert header == "#schema=1"

    def test_summary_matches_independent_recompute(self, tmp_path):
        rows = run_sweep(self.spec())
        write_raw_csv(rows, tmp_path / "raw.csv")
        write_summary_csv(summarize(rows), tmp_path / "summary.csv")

        with open(tmp_path / "raw.csv") as fh:
            fh.readline()  # schema comment
            raw = list(csv.DictReader(fh))
        with open(tmp_path / "summary.csv") as fh:
            fh.readline()
            summary = {float(row["d"]): row for row in csv.DictReader(fh)}

        for d in (2.0, 3.0):
            losses = np.array([float(r["loss"]) for r in raw if float(r["d"]) == d])
            assert float(summary[d]["mean_loss"]) == pytest.approx(losses.mean(), abs=1e-9)
            assert float(summary[d]["std_loss"]) == pytest.approx(losses.std(ddof=1), abs=1e-9)
            q1, med, q3 = np.quantile(losses, [0.25, 0.5, 0.75])
            assert float(summary[d]["q1_loss"]) == pytest.approx(q1, abs=1e-9)
            assert float(summary[d]["median_loss"]) == pytest.approx(med, abs=1e-9)
            assert float(summary[d]["q3_loss"]) == pytest.approx(q3, abs=1e-9)
            assert int(summary[d]["n"]) == 3

    def test_singleton_summary_collapses_quantiles(self):
        rows = run_sweep(self.spec(d_values=(2.0,), replications=1))
        summary = summarize(rows)[0]
        loss = rows[0].loss
        for key in ("mean_loss", "min_loss", "q1_loss", "median_loss", "q3_loss", "max_loss"):
            assert summary[key] == pytest.approx(loss)
        assert summary["std_loss"] == 0.0

    def test_quantile_ordering_invariant(self):
        for row in summarize(run_sweep(self.spec(replications=8))):
            assert (
                row["min_loss"]
                <= row["q1_loss"]
                <= row["median_loss"]
                <= row["q3_loss"]
                <= row["max_loss"]
            )

    def test_density_above_rate_rejected(self):
        with pytest.raises(ConfigError):
            self.spec(d_values=(2.0, 60.0))

    def test_duplicate_density_rejected(self, capsys, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            self.spec(d_values=(2.0, 3.0, 2.0))
        code, _ = run_cli(
            capsys,
            "sweep",
            "--m", "50", "--T", "2", "--d-list", "2", "2", "--reps", "2",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "m, T, d", [("1000", "1", "-1"), ("nan", "1", "2"), ("1000", "0", "2")], ids=["d", "m", "T"]
    )
    def test_out_of_range_market_leaves_no_output(self, capsys, tmp_path, m, T, d):
        code = main([
            "sweep",
            "--m", m, "--T", T, "--d-list", d, "--reps", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected_before_any_run(self, capsys, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(cli, "run", _no_work)
        code = main([
            "sweep",
            "--m", "50", "--T", "2", "--d-list", "2", "--reps", "1",
            "--out", str(tmp_path / "out"), "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
    def test_out_of_range_seed_rejected_before_any_run(self, capsys, tmp_path, monkeypatch, seed):
        monkeypatch.setattr(cli, "run", _no_work)
        code = main([
            "sweep",
            "--m", "50", "--T", "2", "--d-list", "2", "--reps", "1",
            "--out", str(tmp_path / "out"), "--seed", seed,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [NumericError, ConfigError])
    def test_failing_cell_names_its_cell(self, monkeypatch, error):
        failing_seed = mix_seed(9, 1, 2)
        real_run = cli.run

        def run_or_fail(config):
            if config.seed == failing_seed:
                raise error("conservation violated")
            return real_run(config)

        monkeypatch.setattr(cli, "run", run_or_fail)
        with pytest.raises(error) as info:
            run_sweep(self.spec(), jobs=1)
        assert str(info.value) == (
            f"sweep cell d_index=1 d=3.0 rep=2 seed={failing_seed}: conservation violated"
        )

    def test_failed_write_leaves_no_file(self, tmp_path):
        class BrokenRow:
            def csv_row(self):
                raise OSError("disk full")

        rows = run_sweep(self.spec(d_values=(2.0,), replications=1))
        with pytest.raises(OSError, match="disk full"):
            write_raw_csv([rows[0], BrokenRow()], tmp_path / "raw.csv")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exit_code(self, capsys, tmp_path, monkeypatch):
        # --out is created before the first cell runs
        monkeypatch.setattr(cli, "run", _no_work)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main([
            "sweep",
            "--m", "50", "--T", "5", "--d-list", "2", "--reps", "1",
            "--out", str(blocker / "nested"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error: ")


class TestAnalyze:
    def test_report_fields(self, capsys):
        code, out = run_cli(capsys, "analyze", "--m", "1000", "--d", "5")
        assert code == 0
        report = json.loads(out)
        assert report["heuristic"]["pool_gdy"] == pytest.approx(138.629, rel=1e-4)
        assert report["loss_bounds"]["gdy_upper"] == pytest.approx(0.0271402, rel=1e-4)
        assert report["loss_bounds"]["pat_upper"] == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert report["waiting_bounds"]["total_lower"] == 2500.0
        assert report["waiting_bounds"]["total_upper"] == 24000.0
        assert list(report) == [
            "m", "d", "T", "departure", "stationary", "constants",
            "loss_bounds", "waiting_bounds", "heuristic",
        ]
        assert list(report["stationary"]) == [
            "mean", "median", "q99", "truncation_K", "tail_bound", "mass_above_c1_threshold",
        ]

    def test_two_state_chain_mean(self, capsys):
        code, out = run_cli(capsys, "analyze", "--m", "10", "--d", "10")
        assert code == 0
        report = json.loads(out)
        assert report["stationary"]["mean"] == pytest.approx(0.5)

    def test_exponential_departure_disables_gdy_upper(self, capsys):
        code, out = run_cli(capsys, "analyze", "--m", "100", "--d", "5", "--departure", "exp:1")
        assert code == 0
        report = json.loads(out)
        assert report["loss_bounds"]["gdy_upper"] is None
        assert report["loss_bounds"]["pat_upper"] is None
        assert report["waiting_bounds"]["total_lower"] is None

    def test_domain_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "analyze", "--m", "10", "--d", "20")
        assert code == 2

    @pytest.mark.parametrize("horizon", ["nan", "inf", "1e308"])
    def test_non_finite_horizon_rejected(self, capsys, horizon):
        code = main(["analyze", "--m", "100", "--d", "3", "--T", horizon])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_chain_beyond_the_hard_cap_rejected(self, capsys):
        code = main(["analyze", "--m", "5e6", "--d", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: stationary chain")

    def test_every_input_checked_before_the_chain(self, capsys, monkeypatch):
        monkeypatch.setattr(analytics, "stationary", _no_work)
        code = main(["analyze", "--m", "1000", "--d", "5", "--T", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @staticmethod
    def spy_on_stationary(monkeypatch) -> tuple[list, list]:
        calls, returned = [], []
        real = analytics.stationary

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(analytics, "stationary", spy)
        return calls, returned

    @pytest.mark.parametrize("m", ["1e3", "1e6"])
    def test_one_chain_per_analyze(self, capsys, monkeypatch, m):
        calls, _ = self.spy_on_stationary(monkeypatch)
        code, _ = run_cli(capsys, "analyze", "--m", m, "--d", "5")
        assert code == 0
        assert len(calls) == 1

    def test_bad_tail_tol_refused_before_any_chain(self, capsys, monkeypatch):
        calls, returned = self.spy_on_stationary(monkeypatch)
        code = main(["analyze", "--m", "1e6", "--d", "5", "--tail-tol", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: tail_tol must be")
        assert len(calls) == 1 and returned == []

    def test_mass_past_the_threshold_bounded_on_a_chain_near_the_cap(self, capsys):
        # the one chain has 2.0e6 states; c1*log(2)*m/d = 5.2e6 lies past the
        # hard cap, so the tail past it is walked from the truncation, not built
        code, out = run_cli(capsys, "analyze", "--m", "100", "--d", "5.5e-5")
        assert code == 0
        report = json.loads(out)
        threshold = report["constants"]["c1"] * math.log(2) * 100 / 5.5e-5
        assert report["stationary"]["truncation_K"] < 5_000_000 < threshold
        mass = report["stationary"]["mass_above_c1_threshold"]
        assert math.isfinite(mass) and mass <= report["stationary"]["tail_bound"]

    @pytest.mark.parametrize(
        "departure, certified",
        [
            ("never", True),
            ("mix:0.5*const:1,0.5*unif:0.5:1.5", True),  # support minimum 0.5 > 1/d
            ("const:0.2", False),  # c = 1/d exactly
            ("unif:0.1:1.5", False),
        ],
    )
    def test_waiting_lower_bound_rests_on_the_support_minimum(self, capsys, departure, certified):
        m, d, T = 1000.0, 5.0, 7.0
        code, out = run_cli(capsys, "analyze", "--m", str(m), "--d", str(d), "--T", str(T),
                            "--departure", departure)
        assert code == 0
        assert json.loads(out)["waiting_bounds"]["total_lower"] == (m * T / (8 * d) if certified else None)

    def test_far_constant_departure_certifies_waiting_lower_bound(self, capsys):
        # the atom at c = 20000 is found exactly, not by a probe below c
        code, out = run_cli(capsys, "analyze", "--m", "1000", "--d", "5", "--departure", "const:20000")
        assert code == 0
        assert json.loads(out)["waiting_bounds"]["total_lower"] == 2500.0


class TestVerify:
    def test_fast_subset_passes(self, capsys):
        code, out = run_cli(
            capsys,
            "verify",
            "--check", "urn", "--check", "ruin", "--check", "identities",
            "--runs", "5", "--seed", "11",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert {c["name"] for c in report["checks"]} == {"urn", "ruin", "identities"}

    def test_coupling_and_timechange_small(self, capsys):
        code, out = run_cli(
            capsys,
            "verify",
            "--check", "coupling", "--check", "timechange",
            "--runs", "30", "--seed", "12",
        )
        assert code == 0
        report = json.loads(out)
        coupling = next(c for c in report["checks"] if c["name"] == "coupling")
        assert coupling["max_gap"] <= 1

    def test_failed_check_exits_1_with_its_statistic(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "run_coupled", lambda config: (None, None, 2))
        code, out = run_cli(capsys, "verify", "--check", "coupling", "--runs", "3")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["checks"] == [
            {"name": "coupling", "runs": 3, "max_gap": 2, "threshold": 1, "pass": False}
        ]

    def test_failed_urn_exits_1_with_its_statistic(self, capsys, monkeypatch):
        urn_pmf = oracles.urn_pmf
        monkeypatch.setattr(oracles, "urn_pmf", lambda spec, k: 1.01 * urn_pmf(spec, k))
        code, out = run_cli(capsys, "verify", "--check", "urn", "--runs", "1")
        assert code == 1
        report = json.loads(out)
        (urn,) = report["checks"]
        assert report["pass"] is False and urn["pass"] is False
        assert urn["max_pmf_error"] == pytest.approx(0.01, rel=1e-9)
        assert [f["spec"] for f in urn["failures"]] == [
            {"red": red, "blue": blue, "draws": draws}
            for red, blue, draws in ((2, 2, 2), (40, 60, 50), (30, 80, 40), (5, 5, 10))
        ]

    def test_repeated_check_runs_once_in_the_order_given(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--check", "ruin", "--check", "urn", "--check", "ruin", "--runs", "1"
        )
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == ["ruin", "urn"]

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_non_positive_runs_rejected_before_any_check(self, capsys, monkeypatch, runs):
        ran = _spy_on_checks(monkeypatch)
        code = main(["verify", "--runs", runs])
        captured = capsys.readouterr()
        assert code == 2
        assert ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("check", ["all", "ruin", "urn"])
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_out_of_range_seed_rejected_before_any_check(self, capsys, monkeypatch, check, seed):
        ran = _spy_on_checks(monkeypatch)
        code = main(["verify", "--check", check, "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert ran == []
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be")

    def test_dominance_small(self, capsys):
        code, out = run_cli(capsys, "verify", "--check", "dominance", "--runs", "40", "--seed", "13")
        assert code == 0
        assert json.loads(out)["pass"] is True
