import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arh1bench import cli
from arh1bench.harness import DIAGNOSTICS, AbortedReplicationsError
from test_harness import BAD_CONFIG_FIELDS


def _run(args):
    return cli.main(args)


class TestRunCommand:
    def test_small_run_writes_reports(self, tmp_path, capsys):
        code = _run([
            "run", "--example", "1", "--T", "30,40", "--N", "3",
            "--seed", "5", "--out", str(tmp_path), "--workers", "1",
        ])
        assert code == 0
        assert (tmp_path / "efmse.csv").exists()
        assert (tmp_path / "efmse.json").exists()
        assert (tmp_path / "plot_param.csv").exists()
        assert (tmp_path / "plot_pred.csv").exists()
        out = capsys.readouterr().out
        assert out.count("wrote ") == 4

    def test_default_replication_count(self, tmp_path):
        code = _run([
            "run", "--example", "1", "--T", "25", "--seed", "1",
            "--out", str(tmp_path), "--workers", "2", "--format", "csv",
        ])
        assert code == 0
        row = (tmp_path / "efmse.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "200"

    def test_paper_scale_replication_count(self, tmp_path):
        code = _run([
            "run", "--example", "1", "--T", "20", "--seed", "1", "--paper-scale",
            "--out", str(tmp_path), "--workers", "2", "--format", "csv",
        ])
        assert code == 0
        row = (tmp_path / "efmse.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "1000"

    def test_explicit_n_beats_paper_scale(self, tmp_path):
        code = _run([
            "run", "--example", "1", "--T", "20", "--N", "4", "--paper-scale",
            "--out", str(tmp_path), "--workers", "1", "--format", "csv",
        ])
        assert code == 0
        row = (tmp_path / "efmse.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "4"

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "example": 2, "T_grid": [60], "N": 3, "seed": 9,
            "output_dir": str(tmp_path / "ignored"), "formats": ["csv"],
        }))
        code = _run([
            "run", "--config", str(cfg), "--out", str(tmp_path / "used"),
            "--workers", "1",
        ])
        assert code == 0
        assert not (tmp_path / "ignored").exists()
        row = (tmp_path / "used" / "efmse.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "2" and row[2] == "3"

    def test_explicit_rho_file(self, tmp_path):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text("[0.5, 0.4, 0.3, 0.25, 0.2]")
        code = _run([
            "run", "--example", "1", "--T", "30", "--N", "2", "--seed", "3",
            "--rho-mode", f"explicit:{rho_file}", "--out", str(tmp_path),
            "--workers", "1", "--format", "csv",
        ])
        assert code == 0
        row = (tmp_path / "efmse.csv").read_text().splitlines()[1].split(",")
        want = sum(1.0 - r * r for r in (0.5, 0.4, 0.3, 0.25, 0.2))
        assert float(row[8]) == pytest.approx(want, rel=1e-12)

    def test_worker_count_invariance(self, tmp_path):
        base = ["run", "--example", "1", "--T", "40", "--N", "6",
                "--seed", "11", "--format", "csv"]
        assert _run(base + ["--out", str(tmp_path / "a"), "--workers", "1"]) == 0
        assert _run(base + ["--out", str(tmp_path / "b"), "--workers", "4"]) == 0
        a = (tmp_path / "a" / "efmse.csv").read_bytes()
        b = (tmp_path / "b" / "efmse.csv").read_bytes()
        assert a == b


class TestRunErrors:
    def test_unknown_flag(self, capsys):
        assert _run(["run", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert _run([]) == 1

    def test_bad_example(self):
        assert _run(["run", "--example", "9", "--T", "20", "--N", "2"]) == 1

    def test_no_example_at_all(self):
        assert _run(["run", "--T", "20", "--N", "2"]) == 1

    def test_bad_t_grid(self):
        assert _run(["run", "--example", "1", "--T", "a,b", "--N", "2"]) == 1
        assert _run(["run", "--example", "1", "--T", "500,250", "--N", "2"]) == 1

    def test_bad_workers(self, tmp_path):
        args = ["run", "--example", "1", "--T", "20", "--N", "2",
                "--out", str(tmp_path)]
        assert _run(args + ["--workers", "0"]) == 1
        assert _run(args + ["--workers", "soon"]) == 1

    def test_auto_workers_count_usable_cpus(self, monkeypatch):
        # resolved without starting any process
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_workers("auto") == 1
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._resolve_workers("auto") == 8

    def test_missing_rho_file(self, tmp_path):
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{tmp_path / 'nope.json'}",
        ]) == 1

    def test_non_numeric_rho_file(self, tmp_path, capsys):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text("[null]")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{rho_file}", "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fields", BAD_CONFIG_FIELDS)
    def test_mistyped_config_field(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": 1, "T_grid": [10], "N": 2, **fields}))
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_bad_config_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert _run(["run", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert _run(["run", "--config", str(bad)]) == 1

    def test_abort_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(config, workers=None):
            raise AbortedReplicationsError(5, 100)

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--out", str(tmp_path), "--workers", "1",
        ])
        assert code == 2
        assert "5 of 100" in capsys.readouterr().err


class TestWorkersEnv:
    def test_env_value_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARH1_BENCH_WORKERS", "2")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--seed", "1", "--out", str(tmp_path), "--format", "csv",
        ]) == 0

    def test_bogus_env_value_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARH1_BENCH_WORKERS", "several")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--out", str(tmp_path),
        ]) == 1


class TestDiagCommand:
    def test_bartlett(self, tmp_path, capsys):
        code = _run([
            "diag", "bartlett", "--T", "200", "--N", "300",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "diag_bartlett.json" in out and ("pass" in out or "FAIL" in out)

    def test_positivity_is_informational(self, tmp_path, capsys):
        code = _run([
            "diag", "positivity", "--T", "40", "--N", "10",
            "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "informational" in capsys.readouterr().out

    def test_unknown_kind(self):
        assert _run(["diag", "spectrum"]) == 1

    def test_wrong_parameter_for_kind(self, tmp_path):
        assert _run([
            "diag", "bartlett", "--C", "2.0", "--out", str(tmp_path),
        ]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["ergodic", "--C", "0"],
            ["ergodic", "--rho", "1"],
            ["ergodic", "--C", "1e308", "--n", "10"],
            ["normality", "--T", "0"],
            ["bartlett", "--seed", "18446744073709551616"],
        ],
    )
    def test_bad_value_is_one_line_error(self, tmp_path, capsys, argv):
        assert _run(["diag", *argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_argv(self, data):
        kind = data.draw(st.sampled_from(sorted(DIAGNOSTICS)))
        argv = ["diag", kind, "--seed", str(data.draw(st.integers(-1, 2**64)))]
        for name, default in DIAGNOSTICS[kind][1].items():
            if isinstance(default, int):
                # always given and at most 300, so no run takes its default length
                value = data.draw(st.one_of(st.integers(-2, 4), st.integers(100, 300)))
            elif data.draw(st.booleans()):
                value = data.draw(st.one_of(
                    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0]),
                    st.floats(-1.0, 1.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                ))
            else:
                continue
            argv += [f"--{name}", repr(value)]
        with tempfile.TemporaryDirectory() as out:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out])
            assert code in (0, 1)
            assert "Traceback" not in err.getvalue()
            for path in Path(out).iterdir():
                json.loads(path.read_text(), parse_constant=pytest.fail)
