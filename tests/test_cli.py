"""Command-line surface: subcommands, exit codes, and the pinned CSV
schemas downstream plotting relies on."""

import numpy as np
import pytest

from smartran import cli
from smartran.config import ConfigError


def test_csv_headers_are_pinned():
    assert cli.RESULT_HEADER == (
        "scheme,learner,user_count,seed,mean_rate,mean_tau_cnt,mean_max_tau_dst,"
        "mean_gamma_cnt,mean_max_gamma_dst,mean_toc"
    )
    assert cli.LONG_HEADER == "scheme,learner,user_count,metric,mean,stderr"
    assert cli.TRACE_HEADER == "slot,x_cnt,toc_cnt,toc_dst,toc_executed"


def test_float_formatting_is_stable():
    assert cli._fmt(1.0) == "1"
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(1234567.891) == "1234567.891"
    assert cli._fmt(1e-12) == "1e-12"
    assert cli._fmt(7) == "7"
    assert cli._fmt("abc") == "abc"


def test_presets_exist_and_unknown_preset_rejected():
    for name in ("overhead", "rate", "toc"):
        preset = cli.make_preset(name)
        assert len(preset.counts) >= 5
        assert preset.schemes and preset.learners
        preset.base.validate()
    with pytest.raises(ConfigError, match="unknown preset"):
        cli.make_preset("throughput")


def test_paper_scale_widens_the_sweep():
    desk = cli.make_preset("rate")
    paper = cli.make_preset("rate", paper_scale=True)
    assert paper.base.rrs_count == 4
    assert paper.base.subcarriers == 32
    assert max(paper.counts) > max(desk.counts)
    paper.base.validate()


def test_run_subcommand_writes_results_and_trace(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "rrs_count = 2\nsubcarriers = 4\nn_users = 3\nscheme = equal-power-baseline\n"
        "train_slots = 2\neval_slots = 3\ncell_edge_snr_db = 20\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    results = (out / "run_results.csv").read_text().splitlines()
    assert results[0] == cli.RESULT_HEADER
    assert len(results) == 2
    row = results[1].split(",")
    assert row[0] == "equal-power-baseline"
    assert int(row[2]) == 3
    trace = (out / "run_trace.csv").read_text().splitlines()
    assert trace[0] == cli.TRACE_HEADER
    assert len(trace) == 1 + 5  # train + eval slots
    assert all(line.split(",")[1] in ("0", "1") for line in trace[1:])


def test_run_applies_env_overrides(tmp_path, monkeypatch):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "rrs_count = 2\nsubcarriers = 4\nn_users = 2\nscheme = equal-power-baseline\n"
        "train_slots = 1\neval_slots = 1\n"
    )
    monkeypatch.setenv("SMARTRAN_TRAIN_SLOTS", "2")
    monkeypatch.setenv("SMARTRAN_EVAL_SLOTS", "3")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    trace = (out / "run_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 5


def test_run_slots_flag_overrides_schedule(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "rrs_count = 2\nsubcarriers = 4\nn_users = 2\nscheme = equal-power-baseline\n"
    )
    out = tmp_path / "out"
    assert cli.main(
        ["run", "--config", str(cfg), "--out", str(out), "--slots", "2"]
    ) == 0
    trace = (out / "run_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 4


def test_run_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rrs_count = 2\nbogus = 1\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and "bogus" in err


def test_run_missing_config_exits_1(tmp_path):
    assert cli.main(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    ) == 1


def test_figure_writes_both_tables(tmp_path):
    out = tmp_path / "fig"
    rc = cli.main(
        [
            "figure", "--preset", "toc", "--seeds", "1", "--slots", "4",
            "--learner", "sac", "--out", str(out), "--workers", "2",
        ]
    )
    assert rc == 0
    results = (out / "toc_results.csv").read_text().splitlines()
    assert results[0] == cli.RESULT_HEADER
    assert len(results) == 1 + 12  # 12 user counts x 1 scheme x 1 seed
    longf = (out / "toc_long.csv").read_text().splitlines()
    assert longf[0] == cli.LONG_HEADER
    assert len(longf) == 1 + 12 * len(cli.LONG_METRICS)
    # rows are sorted and parseable
    counts = [int(line.split(",")[2]) for line in results[1:]]
    assert counts == sorted(counts)
    for line in longf[1:]:
        parts = line.split(",")
        float(parts[4]), float(parts[5])


def test_toc_preset_runs_each_cell_once(tmp_path):
    # its only scheme builds no learner, so one learner covers every cell
    out = tmp_path / "toc"
    rc = cli.main(
        ["figure", "--preset", "toc", "--seeds", "1", "--slots", "5",
         "--workers", "1", "--out", str(out)]
    )
    assert rc == 0
    rows = [line.split(",") for line in (out / "toc_results.csv").read_text().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == list(cli.make_preset("toc").counts)


def test_figure_unknown_preset_exits_1(capsys):
    assert cli.main(["figure", "--preset", "nope", "--out", "/tmp/x"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_figure_invalid_env_config_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("SMARTRAN_CELL_RADIUS_M", "10")  # below min_distance_m
    rc = cli.main(["figure", "--preset", "toc", "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 1  # caught at config validation before the sweep starts


def test_figure_failed_cell_exits_2(tmp_path, monkeypatch, capsys):
    from smartran.engine import SweepCell

    def broken_sweep(*args, **kwargs):
        return [
            SweepCell("smart", "sac", 2, 0, None, error="Traceback: first boom"),
            SweepCell("smart", "sac", 4, 0, object()),
            SweepCell("smart", "dqn", 6, 1, None, error="Traceback: second boom"),
        ]

    monkeypatch.setattr(cli, "run_sweep", broken_sweep)
    rc = cli.main(["figure", "--preset", "toc", "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    # every failed cell is reported, not only the first
    assert "2 sweep cell(s) failed" in err
    assert "scheme=smart learner=sac users=2 seed=0\nTraceback: first boom" in err
    assert "scheme=smart learner=dqn users=6 seed=1\nTraceback: second boom" in err
    assert "users=4" not in err
    assert not list(tmp_path.iterdir())  # no partial tables


def test_validate_subcommand_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_result_rows_sorted_and_error_cells_refused():
    from smartran.engine import SweepCell

    agg_cells = cli.result_rows(
        [
            SweepCell("smart", "sac", 4, 0, _agg(slots=2)),
            SweepCell("smart", "sac", 2, 1, _agg(slots=2)),
            SweepCell("smart", "sac", 2, 0, _agg(slots=2)),
        ]
    )
    keys = [tuple(r.split(",")[:4]) for r in agg_cells]
    assert keys == sorted(keys)
    with pytest.raises(ValueError, match="failed cell"):
        cli.result_rows([SweepCell("smart", "sac", 2, 0, None, error="boom")])


def test_long_rows_stderr_is_the_standard_error_of_the_mean():
    from dataclasses import replace

    from smartran.engine import SweepCell

    def cell(count, seed, rate):
        return SweepCell("smart", "sac", count, seed, replace(_agg(slots=2), mean_rate=rate))

    cells = [cell(2, 0, 2.0), cell(2, 1, 4.0), cell(2, 2, 9.0), cell(4, 0, 1.0), cell(4, 1, 3.0)]
    rows = [r.split(",") for r in cli.long_rows(cells + [cell(6, 0, 5.0)])]
    rate = {int(r[2]): r[4:] for r in rows if r[3] == "mean_rate"}
    # sample std (n - 1 denominator) over sqrt(n): sqrt(26 / 2) / sqrt(3), sqrt(2) / sqrt(2)
    assert float(rate[2][0]) == 5.0
    assert float(rate[2][1]) == pytest.approx(np.sqrt(13.0 / 3.0), rel=1e-11)
    assert rate[4] == ["2", "1"]
    assert rate[6] == ["5", "0"]  # one seed: no spread to estimate


def _agg(slots):
    from smartran.engine import Aggregates

    return Aggregates(slots, *([1.0] * 11))
