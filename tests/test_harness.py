import dataclasses
import json
import math

import numpy as np
import pytest

from arh1bench import estimators, harness
from arh1bench.estimators import (
    COMPLEX_ROOTS,
    DEGENERATE,
    ESCAPED,
    ComplexRootError,
    estimate_all,
)
from arh1bench.harness import (
    AbortedReplicationsError,
    CSV_HEADER,
    DEFAULT_T_GRID,
    ExperimentConfig,
    config_from_dict,
    emit_reports,
    load_config,
    run_diagnostics,
    run_experiment,
)
from arh1bench.metrics import KtRule, theory_param_limit, theory_pred_limit, truncation_order
from arh1bench.simulator import simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    PriorSpec,
    SpectralModelSpec,
    realize,
    truncate_realization,
)

# Config fields of the wrong type, none of which may be coerced.
BAD_CONFIG_FIELDS = [
    {"N": "5"},
    {"N": 5.7},
    {"N": True},
    {"T_grid": 10},
    {"T_grid": [10.9, 20]},
    {"T_grid": ["10"]},
    {"seed": 1.5},
    {"kT_rule": 5},
    {"formats": 5},
    {"example": True},
    {"rho_mode": "explicit", "rho_values": [None]},
    {"kT_rule": "fixed:1021"},  # beyond the default prior's 2**1020 shape
]


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(example=1)
        assert cfg.T_grid == DEFAULT_T_GRID
        assert cfg.N == 1000
        assert cfg.kT_rule == KtRule.fixed(5)
        assert cfg.rho_mode == "redraw"
        assert cfg.formats == ("csv", "json")
        assert cfg.label == "1"
        assert ExperimentConfig(example=3).kT_rule == KtRule.power(4.1)

    def test_grid_and_count_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, T_grid=())
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, T_grid=(500, 250))
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, T_grid=(250, 250))
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, N=0)
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, seed=2**64)
        with pytest.raises(ValueError):
            ExperimentConfig(example=4)

    def test_format_normalization(self):
        assert ExperimentConfig(example=1, formats="json").formats == ("json",)
        assert ExperimentConfig(example=1, formats="csv,json").formats == ("csv", "json")
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, formats=("yaml",))

    def test_rho_mode_rules(self):
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, rho_mode="sometimes")
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, rho_mode="explicit")
        with pytest.raises(ValueError):
            ExperimentConfig(example=1, rho_values=(0.5,))
        cfg = ExperimentConfig(
            example=1, rho_mode="explicit", rho_values=(0.5, 0.4, 0.3, 0.2, 0.1)
        )
        assert cfg.rho_values == (0.5, 0.4, 0.3, 0.2, 0.1)

    def test_config_from_dict(self):
        cfg = config_from_dict(
            {
                "example": 3,
                "T_grid": [100, 200],
                "N": 5,
                "kT_rule": "power:4.1",
                "seed": 9,
                "formats": ["csv"],
            }
        )
        assert cfg.kT_rule == KtRule.power(4.1)
        assert cfg.T_grid == (100, 200)
        with pytest.raises(ValueError):
            config_from_dict({"example": 1, "bogus": 3})
        with pytest.raises(ValueError):
            config_from_dict({"N": 5})
        with pytest.raises(ValueError):
            config_from_dict([1, 2])

    @pytest.mark.parametrize("fields", BAD_CONFIG_FIELDS)
    def test_field_types_rejected(self, fields):
        # each would otherwise crash (a raw TypeError, or an OverflowError
        # mid-run) or be coerced
        with pytest.raises(ValueError):
            config_from_dict({"example": 1, "T_grid": [10], "N": 2, **fields})

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"example": 2, "N": 7}')
        assert load_config(path) == {"example": 2, "N": 7}
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_config(bad)


class TestRunExperiment:
    def test_report_cardinality_and_truncation(self):
        cfg = ExperimentConfig(example=1, T_grid=(250,), N=2, seed=7)
        reports = run_experiment(cfg)
        assert len(reports) == 2
        assert [r.estimator for r in reports] == ["classical", "bayes"]
        assert all(r.kT == 5 for r in reports)
        assert all(r.T == 250 and r.N == 2 and r.example == "1" for r in reports)
        assert all(r.t_efmse_param == r.T * r.efmse_param for r in reports)
        assert all(r.efmse_param >= 0.0 and r.efmse_pred >= 0.0 for r in reports)

    def test_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(example=1, T_grid=(100, 150), N=9, seed=5)
        inline = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=3)
        assert inline == pooled

    def test_pool_sized_to_blocks(self, monkeypatch):
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            map = staticmethod(map)

            def shutdown(self):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recorder)
        run_experiment(ExperimentConfig(example=1, T_grid=(20,), N=2), workers=4)
        assert asked == [2]

    def test_rerun_is_deterministic(self):
        cfg = ExperimentConfig(example=2, T_grid=(120,), N=6, seed=1)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_power_rule_truncation_varies_with_T(self):
        cfg = ExperimentConfig(example=3, T_grid=(250, 500), N=3, seed=2)
        reports = run_experiment(cfg)
        assert [r.kT for r in reports] == [3, 3, 4, 4]

    def test_fixed_mode_limits_match_shared_draw(self):
        cfg = ExperimentConfig(
            example=1, T_grid=(80, 120), N=4, seed=31, rho_mode="fixed"
        )
        reports = run_experiment(cfg)
        spec = SpectralModelSpec(
            law=EigenvalueLaw.power_law(1.5), prior=PriorSpec(), k_max=5,
            rho_mode="fixed",
        )
        shared = realize(spec, np.random.default_rng([31, 2]))
        cut = truncate_realization(shared, 5)
        for r in reports:
            assert r.theory_param_limit == pytest.approx(
                theory_param_limit(cut, 5), rel=1e-15
            )
            assert r.theory_pred_limit == pytest.approx(
                theory_pred_limit(cut, 5), rel=1e-15
            )

    def test_explicit_mode_uses_given_coefficients(self):
        rho = (0.6, 0.5, 0.4, 0.3, 0.2)
        cfg = ExperimentConfig(
            example=1, T_grid=(90,), N=3, seed=4, rho_mode="explicit", rho_values=rho
        )
        reports = run_experiment(cfg)
        want = math.fsum(1.0 - r * r for r in rho)
        assert reports[0].theory_param_limit == pytest.approx(want, rel=1e-12)

    def test_redraw_mode_reports_prior_limit(self):
        cfg = ExperimentConfig(example=1, T_grid=(60,), N=2, seed=8)
        reports = run_experiment(cfg)
        from arh1bench.metrics import prior_param_limit

        assert reports[0].theory_param_limit == pytest.approx(
            prior_param_limit(PriorSpec(), 5), rel=1e-15
        )

    def test_aborted_error_carries_counts(self):
        err = AbortedReplicationsError(3, 1000)
        assert err.aborted == 3
        assert err.total == 1000
        assert "3 of 1000" in str(err)


def _block_task(fields, T, N):
    """The task run_experiment hands one worker for all N replications."""
    config = config_from_dict({**fields, "T_grid": [T], "N": N, "seed": 0})
    spec, k_T = config.spec, truncation_order(T, config.kT_rule)
    if spec.rho_mode == "redraw":
        return (dataclasses.replace(spec, k_max=k_T), T, k_T, 1, N + 1, 0, None)
    shared = realize(spec, np.random.default_rng([0, 2]))
    return (spec, T, k_T, 1, N + 1, 0, truncate_realization(shared, k_T))


BLOCK_FIELDS = [
    {"example": 1, "rho_mode": "redraw"},
    {"example": 3, "kT_rule": "power:4.1", "rho_mode": "fixed"},
]


class TestBlockKernel:
    @pytest.mark.parametrize("fields", BLOCK_FIELDS)
    def test_matches_one_replication_at_a_time(self, fields):
        # the public calls, one replication each, are the reference
        spec, T, k_T, lo, hi, seed, shared = task = _block_task(fields, T=300, N=7)
        est_c, est_b, truth, last, aborted = harness._run_block(task)
        assert aborted == []
        for i, omega in enumerate(range(lo, hi)):
            rng = np.random.default_rng([seed, 1, T, omega])
            real = shared if shared is not None else realize(spec, rng)
            traj = simulate(real, T, rng)
            est = estimate_all(traj, real, k_T, spec.prior)
            assert np.array_equal(est.rho_hat, est_c[i])
            assert np.array_equal(est.rho_tilde_minus, est_b[i])
            assert np.array_equal(real.rho, truth[i])
            assert np.array_equal(traj.coeffs[-1], last[i])

    @pytest.mark.parametrize("fields", BLOCK_FIELDS)
    def test_fallbacks_match_default_path(self, monkeypatch, fields):
        task = _block_task(fields, T=300, N=7)
        want = harness._run_block(task)
        reruns = []
        whole = harness.simulate

        def simulate(real, T, rng):
            reruns.append(T)
            return whole(real, T, rng)

        # every row a chunk, and no column sum certified: each replication
        # is re-run whole and each of its sums taken by math.fsum
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(estimators, "_certified", lambda r, *rest: np.zeros(r.shape, bool))
        monkeypatch.setattr(harness, "simulate", simulate)
        got = harness._run_block(task)
        assert reruns == [300] * 7
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_first_failure_in_replication_order_decides(self, monkeypatch):
        task = _block_task({"example": 1}, T=40, N=6)
        estimate_columns = harness.estimate_columns
        faults = {}

        def faulty(*args):
            hat, minus, fault = estimate_columns(*args)
            for col, code in faults.items():
                fault[col] = code
            return hat, minus, fault

        monkeypatch.setattr(harness, "estimate_columns", faulty)
        # replication 2 (columns 5..9) has a zero-energy first component: it
        # is dropped and reported, and its later fault is never reached
        faults = {5: DEGENERATE, 8: COMPLEX_ROOTS}
        est_c, est_b, truth, last, aborted = harness._run_block(task)
        assert aborted == [2] and est_c.shape == (5, 5)
        faults = {5: DEGENERATE, 24: COMPLEX_ROOTS}
        with pytest.raises(ComplexRootError):
            harness._run_block(task)
        faults = {7: COMPLEX_ROOTS, 3: ESCAPED}
        with pytest.raises(RuntimeError, match="component 4: shrinkage"):
            harness._run_block(task)


class TestEmitReports:
    def _reports(self, seed=7):
        cfg = ExperimentConfig(example=1, T_grid=(250,), N=2, seed=seed)
        return run_experiment(cfg)

    def test_csv_shape_and_header(self, tmp_path):
        reports = self._reports()
        emit_reports(reports, ("csv",), tmp_path)
        lines = (tmp_path / "efmse.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "250" and first[4] == "classical"
        assert first[-1] == "0.004"

    def test_json_roundtrip(self, tmp_path):
        reports = self._reports()
        emit_reports(reports, ("json",), tmp_path)
        back = json.loads((tmp_path / "efmse.json").read_text())
        assert back == [dataclasses.asdict(r) for r in reports]

    def test_plot_tables(self, tmp_path):
        reports = self._reports()
        emit_reports(reports, ("csv",), tmp_path)
        for name, field in (("plot_param.csv", "efmse_param"), ("plot_pred.csv", "efmse_pred")):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "T,classical,bayes,one_over_T"
            cells = lines[1].split(",")
            assert cells[0] == "250"
            assert float(cells[1]) == getattr(reports[0], field)
            assert float(cells[2]) == getattr(reports[1], field)
            assert float(cells[3]) == 0.004

    def test_formats_subset(self, tmp_path):
        reports = self._reports()
        written = emit_reports(reports, ("json",), tmp_path)
        names = {p.name for p in written}
        assert names == {"efmse.json", "plot_param.csv", "plot_pred.csv"}
        assert not (tmp_path / "efmse.csv").exists()

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reports([], ("csv",), tmp_path)

    def test_non_finite_value_writes_nothing(self, tmp_path):
        reports = self._reports()
        reports[0] = dataclasses.replace(reports[0], efmse_pred=math.nan)
        with pytest.raises(ValueError):
            emit_reports(reports, ("csv", "json"), tmp_path)
        assert not list(tmp_path.iterdir())


class TestDiagnostics:
    def test_bartlett_record(self, tmp_path):
        path = run_diagnostics("bartlett", {"T": 600, "N": 600}, 3, tmp_path)
        rec = json.loads(path.read_text())
        assert path.name == "diag_bartlett.json"
        assert rec["kind"] == "bartlett"
        assert rec["targets"]["limit"] == pytest.approx(0.64)
        assert isinstance(rec["pass"], bool)
        assert rec["inputs"]["rho"] == 0.6

    def test_normality_record(self, tmp_path):
        path = run_diagnostics("normality", {"T": 400, "N": 150}, 1, tmp_path)
        rec = json.loads(path.read_text())
        assert rec["targets"]["critical_value"] == pytest.approx(1.73 / math.sqrt(150))
        assert 0.0 < rec["outputs"]["ks_distance"] < 1.0

    def test_ergodic_record(self, tmp_path):
        path = run_diagnostics("ergodic", {"n": 30_000}, 2, tmp_path)
        rec = json.loads(path.read_text())
        assert rec["targets"]["ratio"] == pytest.approx(0.9 * 30_000 / 29_999)
        assert abs(rec["outputs"]["c_hat"] - 1.0) < 0.3

    def test_positivity_record(self, tmp_path):
        path = run_diagnostics("positivity", {"N": 20, "T": 50}, 4, tmp_path)
        rec = json.loads(path.read_text())
        assert rec["pass"] is None
        frac = rec["outputs"]["satisfied_fraction"]
        assert 0.0 <= frac <= 1.0
        assert len(rec["outputs"]["component_fractions"]) == 5

    def test_deterministic_bytes(self, tmp_path):
        p1 = run_diagnostics("bartlett", {"T": 200, "N": 300}, 11, tmp_path / "a")
        p2 = run_diagnostics("bartlett", {"T": 200, "N": 300}, 11, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_diagnostics("spectrum", {}, 0, tmp_path)
        with pytest.raises(ValueError):
            run_diagnostics("bartlett", {"C": 2.0}, 0, tmp_path)
        with pytest.raises(ValueError):
            run_diagnostics("positivity", {"example": 9}, 0, tmp_path)

    @pytest.mark.parametrize(
        "kind, params, seed",
        [
            ("ergodic", {"C": 0.0, "n": 10}, 0),  # was a ZeroDivisionError
            ("ergodic", {"rho": 1.0, "n": 10}, 0),  # was a degenerate chain
            ("normality", {"T": 0, "N": 100}, 0),  # was a NaN KS distance
            ("bartlett", {"T": 10, "N": 10}, 2**64),  # was accepted
            ("bartlett", {"T": 100.7}, 0),  # was recorded as 100.7, run as 100
            ("bartlett", {"N": True}, 0),  # was run with N=1
            ("bartlett", {"rho": "0.5"}, 0),  # was a raw TypeError
            ("bartlett", {"rho": 10**400}, 0),  # no float holds it
        ],
    )
    def test_bad_inputs_rejected(self, tmp_path, kind, params, seed):
        with pytest.raises(ValueError):
            run_diagnostics(kind, params, seed, tmp_path)
        assert not list(tmp_path.iterdir())
