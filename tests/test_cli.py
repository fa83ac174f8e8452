import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arh1bench import cli, harness
from arh1bench.estimators import ESCAPED
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

    @pytest.mark.parametrize(
        "config_n, flags, want",
        [(7, ["--paper-scale"], "1000"), (7, [], "7"), (None, ["--N", "4", "--paper-scale"], "4"),
         (None, [], "200")],
    )
    def test_replication_count_precedence(self, tmp_path, config_n, flags, want):
        # --N beats --paper-scale, which beats the config file's N, which
        # beats the default
        fields = {"example": 1, "T_grid": [20], "seed": 1, "formats": ["csv"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields if config_n is None else {**fields, "N": config_n}))
        code = _run([
            "run", "--config", str(cfg), *flags, "--out", str(tmp_path / "out"),
            "--workers", "1",
        ])
        assert code == 0
        row = (tmp_path / "out" / "efmse.csv").read_text().splitlines()[1].split(",")
        assert row[2] == want

    @pytest.mark.parametrize("mode", ["redraw", "fixed"])
    def test_drawn_rho_mode_overrides_config_coefficients(self, tmp_path, mode):
        # a drawn --rho-mode drops the config file's explicit coefficients
        fields = {"example": 1, "T_grid": [20, 40], "N": 3, "seed": 2, "formats": ["csv"]}
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps(
            {**fields, "rho_mode": "explicit", "rho_values": [0.5, 0.4, 0.3, 0.25, 0.2]}))
        drawn = tmp_path / "drawn.json"
        drawn.write_text(json.dumps({**fields, "rho_mode": mode}))
        assert _run([
            "run", "--config", str(explicit), "--rho-mode", mode,
            "--out", str(tmp_path / "a"), "--workers", "1",
        ]) == 0
        assert _run(["run", "--config", str(drawn), "--out", str(tmp_path / "b"),
                     "--workers", "1"]) == 0
        a = (tmp_path / "a" / "efmse.csv").read_bytes()
        assert a == (tmp_path / "b" / "efmse.csv").read_bytes()

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

    def test_bad_t_grid(self, tmp_path, capsys):
        for grid, start in (
            ("a,b", "error: argument --T: expects comma-separated integers"),
            ("500,250", "error: T_grid must be strictly increasing"),
            # example 3's power rule cannot raise a T beyond float range
            ("1" + "0" * 400, "error: T of 401 digits is too large for a power rule"),
        ):
            assert _run(["run", "--example", "3", "--T", grid, "--N", "2",
                         "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(start) and len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("rule", ["power:inf", "power:1e400"])
    def test_non_finite_power_rule(self, tmp_path, capsys, rule):
        # T ** (1 / inf) is 1: an infinite alpha would keep k_T = 1 at every T
        assert _run(["run", "--example", "1", "--T", "20", "--N", "2", "--kT", rule,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert repr(rule) in err
        assert not (tmp_path / "out").exists()

    def test_bad_workers(self, tmp_path, capsys):
        # a count below 1 is left to run_experiment, which says so in one line
        args = ["run", "--example", "1", "--T", "20", "--N", "2",
                "--out", str(tmp_path)]
        for value in ("0", "soon"):
            assert _run(args + ["--workers", value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1
        assert err == "error: --workers expects an integer or 'auto', got 'soon'\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags", [["--rho-mode", "bogus"], ["--rho-mode", "explicit"], ["--kT", "fixed:34"]]
    )
    def test_bad_model_flags(self, tmp_path, capsys, flags):
        # the rho mode goes on to the model spec and the prior to
        # example_model, which reject these in one line
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2", "--out", str(tmp_path), *flags,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", ["redraw", "fixed", "explicit"])
    def test_k_t_past_the_prior_names_t(self, tmp_path, capsys, mode):
        # example 3's power:4.1 rule keeps 844 components at T = 10**12
        if mode == "explicit":
            (tmp_path / "rho.json").write_text(json.dumps([0.5] * 5))
            mode = f"explicit:{tmp_path / 'rho.json'}"
        assert _run(["run", "--example", "3", "--T", str(10**12), "--N", "1",
                     "--rho-mode", mode, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: k_T=844 at T=1000000000000: the prior covers k_T <= 511\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_too_few_explicit_values_name_k_t(self, tmp_path, capsys, source):
        # example 3's power:4.1 rule keeps 9 components at T = 10000
        fields = {"example": 3, "T_grid": [10000], "N": 2}
        values = [0.5, 0.4, 0.3, 0.2, 0.1]
        (tmp_path / "rho.json").write_text(json.dumps(values))
        (tmp_path / "cfg.json").write_text(
            json.dumps({**fields, "rho_mode": "explicit", "rho_values": values}))
        args = (["--example", "3", "--T", "10000", "--N", "2",
                 "--rho-mode", f"explicit:{tmp_path / 'rho.json'}"]
                if source == "flags" else ["--config", str(tmp_path / "cfg.json")])
        assert _run(["run", *args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: k_T=9 at T=10000: the explicit coefficients cover 5 components\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_explicit_without_values_names_both_ways(self, tmp_path, capsys, source):
        (tmp_path / "cfg.json").write_text(json.dumps({"example": 1, "rho_mode": "explicit"}))
        args = (["--example", "1", "--rho-mode", "explicit"]
                if source == "flags" else ["--config", str(tmp_path / "cfg.json")])
        assert _run(["run", *args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: explicit rho_mode requires rho_values, got None: give them as "
            "--rho-mode explicit:FILE or as rho_values in the config\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, prefix, digits", [
        ("--T", "", 5001), ("--N", "", 5001), ("--seed", "", 5001),
        ("--kT", "fixed:", 5001), ("--N", "", 4001),
    ])
    def test_long_flag_value_is_one_short_line(self, tmp_path, capsys, flag, prefix, digits):
        # the message keeps its start and its end, and loses the digits between
        value = prefix + "1" + "0" * (digits - 1)
        assert _run(["run", "--example", "1", "--T", "20", "--N", "2",
                     "--out", str(tmp_path / "out"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert len(err.rstrip("\n")) <= 250 and " ... " in err
        assert not (tmp_path / "out").exists()

    def test_auto_workers_count_usable_cpus(self, monkeypatch):
        # resolved without starting any process
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_workers("auto") == 1
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._resolve_workers("auto") == 8

    def test_missing_rho_file(self, tmp_path, capsys):
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{tmp_path / 'nope.json'}", "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --rho-mode: cannot read coefficient file")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_non_numeric_rho_file(self, tmp_path, capsys):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text("[null]")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{rho_file}", "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_rho_file_beyond_float_range(self, tmp_path, capsys):
        # the range check runs before float(), so no "int too large to convert"
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(f"[{10**400}, 0.5, 0.4, 0.3, 0.2]")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{rho_file}", "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: explicit rho values must lie strictly in (0, 1)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content", ["5", "{}", "[]", "null", '"abc"', '[0.5, "x"]', "[true, 0.5, 0.4, 0.3, 0.2]"]
    )
    def test_bad_rho_file_is_one_line_error(self, tmp_path, capsys, content):
        # the model spec checks the file's values, as it checks a config's
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(content)
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--rho-mode", f"explicit:{rho_file}", "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields", BAD_CONFIG_FIELDS)
    def test_mistyped_config_field(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": 1, "T_grid": [10], "N": 2, **fields}))
        assert _run(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_bad_config_file(self, tmp_path, capsys):
        # missing, not UTF-8, not JSON and truncated: each is one stderr
        # line that names the file, and nothing is written
        out = tmp_path / "out"
        for i, content in enumerate([None, b"\xff{}", b"{not json", b'{"example": 1,\n']):
            path = tmp_path / f"cfg{i}.json"
            if content is not None:
                path.write_bytes(content)
            assert _run(["run", "--config", str(path), "--out", str(out), "--workers", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read config file {path}: ")
            assert err.count("\n") == 1
            assert not out.exists()

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

    def test_out_of_memory_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        def boom(config, workers=None):
            raise MemoryError

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--out", str(tmp_path), "--workers", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["file", "file/sub/dir"])
    def test_unusable_out_refused_before_the_study(self, tmp_path, monkeypatch, capsys, out):
        # an --out that is a file, or lies under one, exits 1 with one line
        # before the study starts, not once it is done; the file is left as it was
        (tmp_path / "file").write_text("kept\n")
        started = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kw: started.append(args))
        code = _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--out", str(tmp_path / out), "--workers", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1 and started == []
        assert err == (f"error: output directory {tmp_path / out} cannot be made: "
                       f"{tmp_path / 'file'} is not a directory\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_proximity_error_is_one_line(self, tmp_path, monkeypatch, capsys, caplog):
        # an escaped replication is dropped and counted; one of three is
        # past the abort threshold
        column_faults = harness.column_faults

        def escaped(*args):
            fault = column_faults(*args)
            fault[1, 2] = ESCAPED  # replication 2, component 3
            return fault

        monkeypatch.setattr(harness, "column_faults", escaped)
        code = _run([
            "run", "--example", "1", "--T", "20", "--N", "3",
            "--out", str(tmp_path), "--workers", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: 1 of 3 replications aborted (threshold 0.1%)\n"
        assert caplog.messages == ["T=20: aborted 1 escaped replications: [2]"]
        assert list(tmp_path.iterdir()) == []


# Config fields for the run fuzz, each as (valid values, invalid values).
# Valid runs stay at N <= 3 and T <= 50, so every run is quick.
_FUZZ_FIELDS = {
    "example": (st.integers(1, 3), st.sampled_from([0, 4, True, "1", 1.0, None])),
    "T_grid": (
        st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True).map(sorted),
        st.sampled_from([[], [0], [20, 10], 10, "20", [10.5], [[10]], None]),
    ),
    "N": (st.integers(1, 3), st.sampled_from([0, -1, True, 2.5, "2", None])),
    "kT_rule": (
        st.sampled_from(["fixed:1", "fixed:3", "fixed:40", "power:4.1", "power:6"]),
        st.sampled_from(["fixed:0", "fixed:512", "power:4", "power:nan", "power:inf", "fixed:x",
                         "", 3]),
    ),
    "seed": (st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, 1.5, "0", None])),
    "rho_mode": (st.sampled_from(["redraw", "fixed"]), st.sampled_from(["bogus", 1, None])),
    "rho_values": (
        st.lists(st.floats(0.01, 0.99), min_size=40, max_size=40),
        st.lists(st.one_of(st.floats(), st.sampled_from([None, "0.5", True])), max_size=6),
    ),
    "formats": (
        st.sampled_from(["csv", "json", "csv,json", ["json", "csv"]]),
        st.sampled_from(["", "xml", [], 5]),
    ),
    "bogus": (None, st.integers()),  # an unknown key, so only ever broken
}

# run flags, each as (valid values, invalid values); --workers is always 1,
# so no process starts
_FUZZ_FLAGS = {
    "--example": (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "x"])),
    "--T": (
        st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True).map(
            lambda ts: ",".join(map(str, sorted(ts)))),
        st.sampled_from(["", "a,b", "20,10", "0", "-5"]),
    ),
    "--N": (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "x"])),
    "--kT": (st.sampled_from(["fixed:2", "power:4.5"]), st.sampled_from(["fixed:0", "power:3"])),
    "--seed": (st.sampled_from(["0", "7"]), st.sampled_from(["-1", "18446744073709551616", "x"])),
    "--rho-mode": (
        st.sampled_from(["redraw", "fixed", "explicit:"]),
        st.sampled_from(["explicit", "explicit:missing.json", "bogus"]),
    ),
    "--format": (st.sampled_from(["csv", "json", "csv,json"]), st.sampled_from(["", "xml"])),
}


def _check_strict(path: Path) -> None:
    """A written report parses strictly: JSON without NaN or infinities, a
    CSV table of equal-length rows whose numeric cells are finite floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=pytest.fail)
        return
    header, *rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows
    for row in rows:
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            if name != "estimator":
                assert math.isfinite(float(cell))


class TestRunFuzz:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_config_and_argv(self, data):
        # a valid config and flags with at most two of them broken, so that
        # runs succeed as well as fail
        broken = set(data.draw(st.lists(
            st.sampled_from(sorted(_FUZZ_FIELDS.keys() | _FUZZ_FLAGS.keys())), max_size=2)))
        config = {"example": 1, "N": 2}
        fields = set(data.draw(st.lists(st.sampled_from(sorted(_FUZZ_FIELDS)))))
        for name in sorted(fields | broken & _FUZZ_FIELDS.keys()):
            valid, invalid = _FUZZ_FIELDS[name]
            if name in broken:
                config[name] = data.draw(invalid, label=name)
            elif valid is not None:
                config[name] = data.draw(valid, label=name)
        if "rho_values" in fields - broken and "rho_mode" not in broken:
            config["rho_mode"] = "explicit"
        argv = ["run", "--workers", "1"]
        flags = set(data.draw(st.lists(st.sampled_from(sorted(_FUZZ_FLAGS)))))
        for flag in sorted(flags | broken & _FUZZ_FLAGS.keys()):
            valid, invalid = _FUZZ_FLAGS[flag]
            argv += [flag, data.draw(invalid if flag in broken else valid, label=flag)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp / "cfg.json")]
            if "explicit:" in argv:
                values = data.draw(st.lists(st.floats(-0.5, 1.5), max_size=50), label="rho file")
                (tmp / "rho.json").write_text(json.dumps(values))
                argv[argv.index("explicit:")] = f"explicit:{tmp / 'rho.json'}"
            out = tmp / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            written = sorted(out.iterdir()) if out.exists() else []
            assert bool(written) == (code == 0)
            for path in written:
                _check_strict(path)


class TestWorkersEnv:
    def test_env_value_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARH1_BENCH_WORKERS", "2")
        assert _run([
            "run", "--example", "1", "--T", "20", "--N", "2",
            "--seed", "1", "--out", str(tmp_path), "--format", "csv",
        ]) == 0

    def test_bogus_env_value_rejected(self, tmp_path, monkeypatch, capsys):
        # the error names where the value came from: the variable, or the
        # flag that overrides it
        monkeypatch.setenv("ARH1_BENCH_WORKERS", "several")
        args = ["run", "--example", "1", "--T", "20", "--N", "2", "--out", str(tmp_path)]
        assert _run(args) == 1
        assert capsys.readouterr().err == (
            "error: ARH1_BENCH_WORKERS expects an integer or 'auto', got 'several'\n"
        )
        assert _run(args + ["--workers", "soon"]) == 1
        assert capsys.readouterr().err.startswith("error: --workers expects")


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

    @pytest.mark.parametrize("kind", ["bartlett", "positivity", "ergodic"])
    def test_out_of_memory_is_one_line_error(self, tmp_path, monkeypatch, capsys, kind):
        # a T, N or n too large to allocate for, as numpy reports it; the
        # stand-in runner allocates nothing
        message = "Unable to allocate 7.45 GiB for an array with shape (1000000001,)"
        stream, defaults, _ = DIAGNOSTICS[kind]

        def runner(key, **inputs):
            raise MemoryError(message)

        monkeypatch.setitem(DIAGNOSTICS, kind, (stream, defaults, runner))
        assert _run(["diag", kind, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

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
            ["ergodic", "--n", "-5"],
            ["bartlett", "--sigma2", "0"],
            ["bartlett", "--N", "0"],
            ["normality", "--N", "99"],
            ["normality", "--rho", "-1"],
            ["positivity", "--T", "1"],
            ["positivity", "--N", "0"],
            ["positivity", "--T", "0"],
            ["positivity", "--T", "-1"],
        ],
    )
    def test_bad_value_is_one_line_error(self, tmp_path, capsys, argv):
        assert _run(["diag", *argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())
        # the message names the parameter given (for n, not the simulator's T)
        assert re.search(rf"\b{argv[1][2:]}\b", err)
        if argv == ["ergodic", "--n", "-5"]:
            assert "n >= 2, got -5" in err

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
