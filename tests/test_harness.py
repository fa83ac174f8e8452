import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arh1bench import estimators, harness
from arh1bench.estimators import DEGENERATE, ESCAPED, estimate_all
from arh1bench.harness import (
    AbortedReplicationsError,
    CSV_HEADER,
    DEFAULT_T_GRID,
    ExperimentConfig,
    collect,
    config_from_dict,
    emit_reports,
    load_config,
    run_diagnostics,
    run_experiment,
)
from arh1bench.metrics import (
    EfmseInput,
    KtRule,
    efmse_param,
    efmse_pred,
    prior_param_limit,
    prior_pred_limit,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from arh1bench.simulator import simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    PriorSpec,
    SpectralModelSpec,
    eigenvalues,
    prior_shapes,
    realize,
    truncate_realization,
)

# The config fields of each rho mode, for a model of five components.
RHO_MODE_FIELDS = [
    {"rho_mode": "redraw"},
    {"rho_mode": "fixed"},
    {"rho_mode": "explicit", "rho_values": [0.9, 0.8, 0.7, 0.6, 0.5]},
]

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
    {"kT_rule": "fixed:1021"},
    {"kT_rule": "fixed:512"},  # the first prior shape whose moments overflow
    {"formats": ""},
    {"formats": []},
    {"N": 2**32},  # replication numbers are single 32-bit stream words
]


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(example=1)
        assert cfg.T_grid == DEFAULT_T_GRID
        assert cfg.N == 1000
        assert cfg.kT_rule == KtRule("fixed", 5)
        assert cfg.rho_mode == "redraw"
        assert cfg.formats == ("csv", "json")
        assert cfg.label == "1"
        assert ExperimentConfig(example=3).kT_rule == KtRule("power", 4.1)

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
        with pytest.raises(ValueError, match=r"^explicit rho values must lie strictly in"):
            ExperimentConfig(example=1, rho_mode="explicit", rho_values=(10**400,) + (0.5,) * 4)
        cfg = ExperimentConfig(
            example=1, rho_mode="explicit", rho_values=(0.5, 0.4, 0.3, 0.2, 0.1)
        )
        assert cfg.rho_values == (0.5, 0.4, 0.3, 0.2, 0.1)

    def test_explicit_values_as_array(self):
        # a 1-D array gives the spec the list's values; it is measured by
        # its length, not by its truth value, which numpy refuses
        values = [0.5, 0.4, 0.3, 0.2, 0.1]
        for array in (np.array(values), np.array(values, dtype=object)):
            cfg = ExperimentConfig(example=1, rho_mode="explicit", rho_values=array)
            want = ExperimentConfig(example=1, rho_mode="explicit", rho_values=values)
            assert cfg.spec.rho_values == cfg.rho_values == want.spec.rho_values
            assert all(type(v) is float for v in cfg.spec.rho_values)
        with pytest.raises(ValueError, match=r"^k_T=5 at T=2000: the explicit coefficients "
                                             r"cover 4 components$"):
            ExperimentConfig(example=1, rho_mode="explicit", rho_values=np.array(values[:4]))
        with pytest.raises(ValueError, match=r"^explicit rho_mode requires rho_values"):
            ExperimentConfig(example=1, rho_mode="explicit", rho_values=np.array([]))
        for shape in (np.array(0.5), np.full((1, 5), 0.5)):
            with pytest.raises(ValueError, match=r"^explicit rho values must be a sequence"):
                ExperimentConfig(example=1, rho_mode="explicit", rho_values=shape)

    @pytest.mark.parametrize("rho_mode", ["redraw", "fixed"])
    def test_drawn_prior_past_clamp_rejected(self, rho_mode):
        # the clamp rewrites 0.81% of Beta(2**33, 1.01) draws and 1.63% of
        # Beta(2**34, 1.01) draws; power:4.1 reaches k_T = 34 between
        # T = 1.8e6 and 2.0e6
        for T, rule in ((1_800_000, None), (20, KtRule("fixed", 33))):
            cfg = ExperimentConfig(example=3, T_grid=(T,), kT_rule=rule, rho_mode=rho_mode)
            assert cfg.spec.k_max == 33
        for T, rule in ((2_000_000, None), (20, KtRule("fixed", 34))):
            with pytest.raises(ValueError, match="k_T=34 .* clamp") as exc:
                ExperimentConfig(example=3, T_grid=(T,), kT_rule=rule, rho_mode=rho_mode)
            assert "\n" not in str(exc.value)

    def test_explicit_or_bare_spec_past_clamp_kept(self):
        # explicit values are not drawn, and a bare spec is not a config
        cfg = ExperimentConfig(
            example=3, T_grid=(3_800_000,), rho_mode="explicit", rho_values=(0.5,) * 40
        )
        assert cfg.spec.k_max == 40
        spec = SpectralModelSpec(law=EigenvalueLaw.power_law(2.0), k_max=40, rho_mode="fixed")
        assert realize(spec, np.random.default_rng(0)).k == 40

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
        assert cfg.kT_rule == KtRule("power", 4.1)
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
        # mid-run), be coerced, or write nan limits or no efmse report
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

    def test_pool_leaves_no_process(self):
        # the pool is shut down whole: no worker outlives the run
        run_experiment(ExperimentConfig(example=1, T_grid=(20,), N=4), workers=2)
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def pool(self, monkeypatch):
        """A process pool stand-in that runs each task in this process and
        records the size asked for, the tasks and how it was left."""

        class Recorder:
            asked, tasks, exited = [], [], []

            def __init__(self, max_workers):
                self.asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.exited.append(exc_info)

            def map(self, fn, groups):
                self.tasks.append(list(groups))
                return map(fn, self.tasks[-1])

        # run_experiment imports the pool class only when it needs a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        return Recorder

    def test_pool_sized_to_blocks(self, monkeypatch, pool):
        # with a CPU for every block, whatever the host has
        monkeypatch.setattr(harness, "usable_cpus", lambda: 4)
        run_experiment(ExperimentConfig(example=1, T_grid=(20,), N=2), workers=4)
        assert pool.asked == [2]
        # narrow groups, so that each block plans several
        monkeypatch.setattr(harness, "GROUP_COLUMNS", 4)
        config = ExperimentConfig(example=3, T_grid=(15, 100, 400), N=5)
        run_experiment(config, workers=2)
        levels = tuple((T, truncation_order(T, config.kT_rule)) for T in config.T_grid)
        blocks = [harness._plan(levels, lo, hi) for lo, hi in harness._partition(5, 2)]
        # one task per planned group, in plan order: block by block, each
        # longest T first
        assert pool.asked == [2, 2] and len(pool.tasks[1]) > len(blocks) == 2
        assert pool.tasks[1] == [group for block in blocks for group in block]
        for block in blocks:
            firsts = [runs[0][0] for runs in block]
            assert firsts == sorted(firsts, reverse=True)
        # the tasks run each (T, omega) once, and each T's replications in order
        streams = [(T, w) for runs in pool.tasks[1] for T, _, omegas in runs for w in omegas]
        assert len(streams) == len(set(streams)) == 15
        for T in config.T_grid:
            assert [w for t, w in streams if t == T] == [1, 2, 3, 4, 5]
        # each pool is left through its context, which shuts it down
        assert pool.exited == [(None, None, None)] * 2

    def test_workspace_per_group_inline_and_pooled(self, monkeypatch, pool):
        # inline and pooled alike, each group of the plan plans one workspace
        # of its own largest chunk and carry row, in fold_runs, the time loop
        # _run_group hands its streams to, and collect plans none; no
        # workspace is left when the sums are stacked
        monkeypatch.setattr(harness, "GROUP_COLUMNS", 4)
        workspace, merge, calls, buffers = harness._workspace, harness._merge, [], []

        def traced(e):
            calls.append((sys._getframe(1).f_code.co_name, e))
            work = workspace(e)
            buffers.append(weakref.ref(work[0].base))
            return work

        def merged(groups, levels, law):
            assert buffers and all(buf() is None for buf in buffers)
            return merge(groups, levels, law)

        monkeypatch.setattr(harness, "_workspace", traced)
        monkeypatch.setattr(harness, "_merge", merged)
        config = ExperimentConfig(example=3, T_grid=(15, 100, 400), N=5)
        levels = tuple((T, truncation_order(T, config.kT_rule)) for T in config.T_grid)
        for workers in (1, 2):
            calls.clear()
            run_experiment(config, workers=workers)
            plan = [g for lo, hi in harness._partition(5, workers)
                    for g in harness._plan(levels, lo, hi)]
            assert calls == [("fold_runs", _slab(g)) for g in plan]
        # only the pooled run used the pool, with the same plan
        assert pool.tasks == [plan]

    def test_pool_capped_at_usable_cpus(self, monkeypatch, pool):
        # 64 blocks ask for no more processes than the 2 CPUs this process
        # may run on, while the plan, and so every byte, follows workers
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = ExperimentConfig(example=1, T_grid=(20,), N=64, seed=3)
        capped = run_experiment(config, workers=64)
        assert pool.asked == [2] and len(pool.tasks[0]) == 64
        assert capped == run_experiment(config, workers=1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing kernel reaches the workers only by fork",
    )
    def test_failed_group_raises_and_leaves_no_process(self, monkeypatch):
        # one group raises in a worker: the run re-raises its error, and the
        # pool is still shut down whole
        replication_rngs = harness._replication_rngs

        def failing(seed, T, omegas):
            if T == 40 and 3 in omegas:
                raise RuntimeError(f"group failed in process {os.getpid()}")
            return replication_rngs(seed, T, omegas)

        # the workers are forked inside run_experiment, so they inherit it;
        # the pool pickles harness._run_group itself, which looks this up
        monkeypatch.setattr(harness, "_replication_rngs", failing)
        with pytest.raises(RuntimeError, match="^group failed in process") as exc:
            run_experiment(ExperimentConfig(example=1, T_grid=(20, 40), N=4), workers=2)
        assert str(exc.value) != f"group failed in process {os.getpid()}"
        assert multiprocessing.active_children() == []

    def test_partition_contract(self):
        # min(parts, n) contiguous blocks from 1 to n + 1, whose sizes
        # differ by at most one; planned with no process started
        for n in range(1, 41):
            for parts in range(1, 9):
                blocks = harness._partition(n, parts)
                assert len(blocks) == min(parts, n)
                assert blocks[0][0] == 1 and blocks[-1][1] == n + 1
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                sizes = [hi - lo for lo, hi in blocks]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fields", RHO_MODE_FIELDS, ids=["redraw", "fixed", "explicit"])
    def test_grid_split_invariance(self, fields, workers):
        # a T's replications give the same floats whether the T runs alone or
        # shares its blocks and groups with the rest of the grid
        base = {"example": 3, "kT_rule": "power:4.1", "N": 7, "seed": 3, **fields}
        grid = run_experiment(config_from_dict({**base, "T_grid": [15, 100, 900]}), workers)
        alone = [
            r
            for T in (15, 100, 900)
            for r in run_experiment(config_from_dict({**base, "T_grid": [T]}), workers)
        ]
        assert [r.kT for r in grid] == [1, 1, 3, 3, 5, 5]
        assert [_float_bits(r) for r in grid] == [_float_bits(r) for r in alone]

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_bad_worker_count_rejected(self, monkeypatch, workers):
        # a count is None or an int >= 1, never coerced, and is checked
        # before any block is planned
        def planned(*args):
            raise AssertionError("blocks planned before the worker count was checked")

        monkeypatch.setattr(harness, "_partition", planned)
        cfg = ExperimentConfig(example=1, T_grid=(20,), N=2)
        with pytest.raises(ValueError, match="workers") as exc:
            run_experiment(cfg, workers)
        assert "\n" not in str(exc.value)

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
        assert reports[0].theory_param_limit == pytest.approx(
            prior_param_limit(PriorSpec(), 5), rel=1e-15
        )

    def test_aborted_error_carries_counts(self):
        err = AbortedReplicationsError(3, 1000)
        assert err.aborted == 3
        assert err.total == 1000
        assert "3 of 1000" in str(err)


def _records(T, rows, k, seed):
    """A hand-built T's records: rows kept replications of k components,
    with truths in (-1, 1), so that sigma2 > 0."""
    rng = np.random.default_rng(seed)
    alpha, truth, last = rng.uniform(-1.0, 1.0, (3, rows, k))
    return harness.Records(T=T, kT=k, C=rng.uniform(0.1, 1.0, k), alpha=alpha,
                           beta=rng.uniform(1.0, 2.0, (rows, k)), truth=truth, last=last,
                           dropped={})


class TestBuildReports:
    # the report step, fed hand-built records: no replication is simulated
    config = ExperimentConfig(example=1, T_grid=(30, 50), N=5)
    records = (_records(30, 5, 2, seed=1), _records(50, 3, 3, seed=2))

    @pytest.mark.parametrize("fields", RHO_MODE_FIELDS, ids=["redraw", "fixed", "explicit"])
    def test_reports_judge_nothing_again(self, monkeypatch, fields):
        # the collect step judges each replication once; the report step
        # derives both estimates from the kept sums and runs no fault check
        config = config_from_dict({"example": 1, "T_grid": [20, 40], "N": 6, "seed": 3, **fields})
        want = run_experiment(config)
        collected = collect(config)

        def judged(*args):
            raise AssertionError("build_reports judged a replication again")

        monkeypatch.setattr(harness, "column_faults", judged)
        got = harness.build_reports(config, *collected)
        assert [_float_bits(r) for r in got] == [_float_bits(r) for r in want]

    def test_efmse_over_the_rows(self):
        reports = harness.build_reports(self.config, None, self.records)
        assert [(r.T, r.kT, r.estimator) for r in reports] == [
            (30, 2, "classical"), (30, 2, "bayes"), (50, 3, "classical"), (50, 3, "bayes"),
        ]
        ests = [(rec, est) for rec in self.records for est in (rec.est_c, rec.est_b)]
        for report, (rec, est) in zip(reports, ests, strict=True):
            inp = EfmseInput(estimates=est, truth=rec.truth, last_coeffs=rec.last)
            # N counts the rows averaged over, not the config's N
            assert report.N == len(est) == inp.N
            assert report.efmse_param == efmse_param(inp)
            assert report.efmse_pred == efmse_pred(inp)
            assert report.t_efmse_param == rec.T * report.efmse_param
            assert report.ref_one_over_T == 1.0 / rec.T
            assert report.example == "1"

    def test_limits_of_the_realization_else_of_the_prior(self):
        spec = self.config.spec
        real = realize(dataclasses.replace(
            spec, rho_mode="explicit", rho_values=(0.9, 0.7, 0.5, 0.3, 0.1)
        ))
        for r in harness.build_reports(self.config, real, self.records):
            assert r.theory_param_limit == theory_param_limit(real, r.kT)
            assert r.theory_pred_limit == theory_pred_limit(real, r.kT)
        for r in harness.build_reports(self.config, None, self.records):
            assert r.theory_param_limit == prior_param_limit(spec.prior, r.kT)
            assert r.theory_pred_limit == prior_pred_limit(spec.law, spec.prior, r.kT)


def _float_bits(report):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def _block_task(fields, T_grid, N):
    """The task run_experiment hands one worker for all N replications."""
    config = config_from_dict({**fields, "T_grid": list(T_grid), "N": N, "seed": 0})
    levels = tuple((T, truncation_order(T, config.kT_rule)) for T in config.T_grid)
    shared = None
    if config.spec.rho_mode == "fixed":
        shared = realize(config.spec, np.random.default_rng([0, 2]))
    return (config.spec, levels, 1, N + 1, 0, shared)


BLOCK_FIELDS = [
    {"example": 1, "rho_mode": "redraw"},
    {"example": 3, "kT_rule": "power:4.1", "rho_mode": "fixed"},
]


def _block_groups(task):
    """The outputs of a block task's planned groups, as collect computes
    them inline: in plan order."""
    spec, levels, lo, hi, seed, shared = task
    return [harness._run_group(spec, runs, seed, shared) for runs in harness._plan(levels, lo, hi)]


def _run_block(task):
    return harness._merge(_block_groups(task), task[1], task[0].law)


def _one_at_a_time(task):
    """What the public calls give each replication of a block task, one
    replication at a time: per T, the rows of _run_block's sums, estimates,
    truths and last states."""
    spec, levels, lo, hi, seed, shared = task
    per_T = []
    for T, k_T in levels:
        rows = []
        for omega in range(lo, hi):
            rng = np.random.default_rng([seed, 1, T, omega])
            if shared is None:
                real = realize(dataclasses.replace(spec, k_max=k_T), rng)
            else:
                real = truncate_realization(shared, k_T)
            traj = simulate(real, T, rng)
            est = estimate_all(traj, real, k_T, spec.prior)
            rows.append((*estimators.lag_sums(traj.coeffs), est.rho_hat, est.rho_tilde_minus,
                         real.rho, traj.coeffs[-1]))
        per_T.append([np.array(part) for part in zip(*rows)])
    return per_T


def _assert_bits_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _kept(records):
    return (records.alpha, records.beta, records.est_c, records.est_b,
            records.truth, records.last)


def _assert_block_equal(got, want):
    # got is what _run_block returns, want what _one_at_a_time does
    assert len(got) == len(want)
    for records, rows in zip(got, want):
        assert records.dropped == {}
        _assert_bits_equal(_kept(records), rows)


def _alpha(task, T, omega, j):
    """alpha of component j (1-based) of replication omega at T, by the
    public calls: a value that marks that column wherever the kernel puts it."""
    spec, levels, _, _, seed, shared = task
    k_T = dict(levels)[T]
    rng = np.random.default_rng([seed, 1, T, omega])
    if shared is None:
        real = realize(dataclasses.replace(spec, k_max=k_T), rng)
    else:
        real = truncate_realization(shared, k_T)
    return estimators.lag_sums(simulate(real, T, rng).coeffs[:, j - 1 : j])[0][0]


def _inject_faults(monkeypatch, faults):
    """Make column_faults report fault code faults[v] for a column whose
    alpha is v."""
    column_faults = harness.column_faults

    def faulty(alpha, *rest):
        fault = column_faults(alpha, *rest)
        for value, code in faults.items():
            fault[alpha == value] = code
        return fault

    monkeypatch.setattr(harness, "column_faults", faulty)


def _long_t_task():
    """long-T-ex3-fixed's block, 8 replications at T 25,000, 50,000 and
    100,000 divided by 100, keeping their k_T of 11, 13 and 16."""
    config = config_from_dict({"example": 3, "kT_rule": "power:4.1", "rho_mode": "fixed",
                               "T_grid": [25_000, 50_000, 100_000], "N": 8, "seed": 0})
    levels = tuple((T // 100, truncation_order(T, config.kT_rule)) for T in config.T_grid)
    assert [k for _, k in levels] == [11, 13, 16]
    return (config.spec, levels, 1, 9, 0, realize(config.spec, np.random.default_rng([0, 2])))


def _record_normal_calls(monkeypatch):
    """The sizes of the standard_normal calls of each (T, omega) stream the
    kernel seeds from here on, by stream, in call order."""
    replication_rngs, calls = harness._replication_rngs, {}

    class Recording:
        def __init__(self, rng, key):
            self.rng, self.key = rng, key

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, out):
            calls.setdefault(self.key, []).append(out.size)
            return self.rng.standard_normal(out=out)

    def recording(seed, T, omegas):
        rngs = replication_rngs(seed, T, omegas)
        return [Recording(rng, (T, w)) for rng, w in zip(rngs, omegas)]

    monkeypatch.setattr(harness, "_replication_rngs", recording)
    return calls


def _planned_calls(runs, rows_of):
    """The normal-draw sizes each stream of a group's runs takes when a
    segment of c columns runs rows_of(c) rows a chunk, the first chunk
    with the leading row."""
    want, done = {}, 0
    for end in range(len(runs), 0, -1):
        T, width = runs[end - 1][0], sum(len(o) * k for _, k, o in runs[:end])
        while done < T:
            n = min(rows_of(width), T - done)
            for t, k, omegas in runs[:end]:
                for w in omegas:
                    want.setdefault((t, w), []).append((n + (done == 0)) * k)
            done += n
    return want


def _slab(runs):
    """The values each of a group's two slabs holds: the largest chunk of its
    segments, each of the rows rule's rows capped at the segment's T, and
    the carry row."""
    slab = 0
    for end in range(1, len(runs) + 1):
        T, c = runs[end - 1][0], sum(len(o) * k for _, k, o in runs[:end])
        rows = max(1, min(T, harness.CHUNK_ELEMENTS // max(2 * c, harness.GROUP_COLUMNS)))
        slab = max(slab, (rows + 1) * c)
    return slab


class TestBlockKernel:
    @pytest.mark.parametrize("fields", BLOCK_FIELDS)
    def test_matches_one_replication_at_a_time(self, fields):
        # the public calls, one replication each, are the reference, for one
        # T and for a grid whose streams share groups
        for grid in ((300,), (15, 100, 300)):
            task = _block_task(fields, grid, N=7)
            _assert_block_equal(_run_block(task), _one_at_a_time(task))

    @pytest.mark.parametrize("fields", RHO_MODE_FIELDS, ids=["redraw", "fixed", "explicit"])
    def test_records_hold_four_arrays_and_the_eigenvalues(self, fields):
        # a T keeps its (kT,) eigenvalues and four (m, kT) arrays, and
        # est_b is the minus root on them, bit for bit
        config = config_from_dict({"example": 1, "T_grid": [20, 60], "N": 6, "seed": 5, **fields})
        _, records = collect(config)
        for r in records:
            arrays = {f.name for f in dataclasses.fields(r)
                      if isinstance(getattr(r, f.name), np.ndarray)}
            assert arrays == {"C", "alpha", "beta", "truth", "last"}
            _assert_bits_equal([r.C], [eigenvalues(config.spec.law, r.kT)])
            for v in (r.alpha, r.beta, r.truth, r.last):
                assert v.dtype == np.float64 and v.shape == (6, r.kT)
            sigma2 = r.C * (1.0 - r.truth**2)
            minus = estimators.minus_root(r.alpha, r.beta, sigma2, *prior_shapes(r.kT))
            _assert_bits_equal([r.est_c, r.est_b], [r.alpha / r.beta, minus])

    @pytest.mark.parametrize("columns", [2048, 48, 5, 1])
    @pytest.mark.parametrize("fields", BLOCK_FIELDS)
    def test_group_packing_matches_one_replication(self, monkeypatch, fields, columns):
        # groups as wide as the default, narrow ones that split a T's
        # replications, and (at 5 and 1) one replication a group: packing
        # changes which columns share a row chunk, never a bit
        monkeypatch.setattr(harness, "GROUP_COLUMNS", columns)
        for grid in ((300,), (15, 100, 300)):
            task = _block_task(fields, grid, N=7)
            _assert_block_equal(_run_block(task), _one_at_a_time(task))

    @pytest.mark.parametrize("fields", BLOCK_FIELDS)
    def test_chunk_sizes_match_default_path(self, monkeypatch, fields):
        # the rows as one chunk, as many, and one row a chunk give the same bits
        task = _block_task(fields, (300,), N=7)
        [want] = _run_block(task)
        for chunk in (harness.CHUNK_ELEMENTS, 4000, 1):
            monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
            [got] = _run_block(task)
            assert got.dropped == want.dropped == {}
            _assert_bits_equal(_kept(got), _kept(want))

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.sampled_from(BLOCK_FIELDS),
        grid=st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True).map(sorted),
        N=st.integers(1, 6),
        chunk=st.sampled_from([harness.CHUNK_ELEMENTS, 2**10, 1]),
    )
    def test_chunk_invariance_fuzzed(self, fields, grid, N, chunk):
        # groups of one row chunk or many, whose runs end at one T or
        # several: the block gives the public path's bits
        task = _block_task(fields, grid, N)
        want = _one_at_a_time(task)
        with mock.patch.object(harness, "CHUNK_ELEMENTS", chunk):
            got = _run_block(task)
        _assert_block_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lone_column_chunk_matches_one_replication(self, monkeypatch, workers):
        # example 3 keeps k_T = 1 at T = 10 and 16; split over 2 workers,
        # each block is one replication, whose T = 16 column runs its last
        # rows alone and is folded as a lone column
        task = _block_task(BLOCK_FIELDS[1], (10, 16), N=2)
        spec, levels, _, _, seed, shared = task
        assert [k for _, k in levels] == [1, 1]
        widths = set()
        fold_rows = estimators.fold_rows

        def traced(p, out=None):
            widths.add(p.shape[1])
            return fold_rows(p, out=out)

        # the kernel folds through fold_lag_terms, which calls fold_rows
        monkeypatch.setattr(estimators, "fold_rows", traced)
        blocks = [
            _block_groups((spec, levels, lo, hi, seed, shared))
            for lo, hi in harness._partition(2, workers)
        ]
        got = harness._merge([group for block in blocks for group in block], levels, spec.law)
        assert (1 in widths) == (workers == 2)
        _assert_block_equal(got, _one_at_a_time(task))

    @pytest.mark.parametrize(
        "e", [1, 48, 2045, harness.GROUP_COLUMNS, harness.CHUNK_ELEMENTS // 2 + 1]
    )
    def test_workspace_is_two_slabs(self, e):
        # x and terms are equal slabs of e values, of one allocation
        x, terms = harness._workspace(e)
        assert x.size == terms.size == e
        assert x.base is terms.base and x.base.size == 2 * e

    @pytest.mark.parametrize("chunk", [harness.CHUNK_ELEMENTS, 4000])
    @pytest.mark.parametrize("k, m", [(1, 1), (1, 48), (5, 409)])
    def test_slab_is_the_largest_chunk_and_carry_row(self, monkeypatch, chunk, k, m):
        # a group of c columns whose longest T is at most a chunk's rows
        # plans T + 1 rows; a longer one a chunk's and the carry row: the
        # rows that fill CHUNK_ELEMENTS terms, a half-full group's where c is
        # narrower, or one where a row holds more
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
        slabs = []

        class Planned(Exception):
            pass

        def traced(e):
            slabs.append(e)
            raise Planned

        monkeypatch.setattr(harness, "_workspace", traced)
        spec, c = ExperimentConfig(example=1, T_grid=(20,), N=1).spec, k * m
        rows = max(1, chunk // (2 * max(c, harness.GROUP_COLUMNS // 2)))
        Ts = sorted({1, max(1, rows - 1), rows, rows + 1, 10**6})
        for T in Ts:
            with pytest.raises(Planned):
                harness._run_group(spec, [(T, k, range(1, m + 1))], 0, None)
        assert slabs == [(min(T, rows) + 1) * c for T in Ts]

    @pytest.mark.parametrize("chunk", [harness.CHUNK_ELEMENTS, 4000])
    def test_normal_calls_follow_the_uncapped_chunks(self, monkeypatch, chunk):
        # capping a segment's chunk rows at its T moves no chunk boundary:
        # every stream draws its normals in the calls of the rule without
        # that cap, max(1, CHUNK_ELEMENTS // max(2 * columns, GROUP_COLUMNS))
        # rows a chunk, the first with the leading row.  The segments, 35 to
        # 105 columns, take a half-full group's rows: 128 at the default
        # size, past the segments' ends at 15 and 100, and 1 at 4000
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
        calls = _record_normal_calls(monkeypatch)
        task = _block_task(BLOCK_FIELDS[0], (15, 100, 300), N=7)
        [runs] = harness._plan(*task[1:4])
        want = _planned_calls(runs, lambda c: max(1, chunk // max(2 * c, harness.GROUP_COLUMNS)))
        _assert_block_equal(_run_block(task), _one_at_a_time(task))
        assert calls == want
        assert len(want[(300, 1)]) == {2**18: 4, 4000: 300}[chunk]

    def test_half_full_group_keeps_its_rows(self, monkeypatch):
        # a group at least GROUP_COLUMNS / 2 wide, 205 replications of 5
        # components, draws its normals in the calls of the rows rule before
        # narrow groups were capped, CHUNK_ELEMENTS // (2 * columns) rows
        calls = _record_normal_calls(monkeypatch)
        task = _block_task(BLOCK_FIELDS[0], (300,), N=205)
        [runs] = harness._plan(*task[1:4])
        assert 2 * runs[0][1] * len(runs[0][2]) >= harness.GROUP_COLUMNS
        want = _planned_calls(runs, lambda c: harness.CHUNK_ELEMENTS // (2 * c))
        _assert_block_equal(_run_block(task), _one_at_a_time(task))
        assert calls == want
        assert len(want[(300, 1)]) == 3

    def test_narrow_long_t_group_plans_half_full_rows(self, monkeypatch):
        # long-T-ex3-fixed's one group, T scaled down: its slabs hold a
        # half-full group's rows of its 320 columns and the carry row, not
        # a full chunk, and its bits are the public path's
        task = _long_t_task()
        [runs] = harness._plan(*task[1:4])
        c = sum(len(o) * k for _, k, o in runs)
        workspace, slabs = harness._workspace, []

        def traced(*args):
            work = workspace(*args)
            slabs.append(work[0].size)
            return work

        monkeypatch.setattr(harness, "_workspace", traced)
        got = _run_block(task)
        assert c == 320 and slabs == [(harness.CHUNK_ELEMENTS // harness.GROUP_COLUMNS + 1) * c]
        _assert_block_equal(got, _one_at_a_time(task))

    def test_short_group_memory_below_a_full_chunk(self):
        # a T = 20 group of 2,045 columns, short-T-ex1's widest, plans its
        # 21 rows: its peak stays below the two full-chunk slabs,
        # 2 * (CHUNK_ELEMENTS // 2 + c) floats, that it planned before
        spec, [(T, k)], lo, hi, seed, _ = _block_task(BLOCK_FIELDS[0], (20,), N=409)
        runs = [(T, k, range(lo, hi))]
        c = len(runs[0][2]) * k
        assert c == 2045 and T < harness.CHUNK_ELEMENTS // (2 * c)
        first = harness._run_group(spec, runs, seed, None)
        tracemalloc.start()
        try:
            second = harness._run_group(spec, runs, seed, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * (harness.CHUNK_ELEMENTS // 2 + c)
        for a, b in zip(first[T], second[T], strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fields", [
        *BLOCK_FIELDS, {"example": 1, "rho_mode": "explicit", "rho_values": (0.9, 0.7, 0.5, 0.3, 0.1)}
    ])
    def test_merge_recomputes_the_kernels_sigma2(self, monkeypatch, fields):
        # groups return no sigma2: _merge recomputes it from the truths and
        # the law, the bits the kernel scaled its innovations by, in every
        # rho mode and across groups of one or two replications
        monkeypatch.setattr(harness, "GROUP_COLUMNS", 4)
        coefficients, column_faults, kernel, merged = (
            harness._coefficients, harness.column_faults, [], [])

        def kernels(*args):
            C, rho, sigma2 = coefficients(*args)
            kernel.append(sigma2)
            return C, rho, sigma2

        def merges(alpha, beta, sigma2, a, b):
            merged.append(sigma2)
            return column_faults(alpha, beta, sigma2, a, b)

        monkeypatch.setattr(harness, "_coefficients", kernels)
        monkeypatch.setattr(harness, "column_faults", merges)
        config = config_from_dict({**fields, "T_grid": [40], "N": 5, "seed": 0})
        collect(config)
        [sigma2] = merged
        assert len(kernel) > 1 and len(sigma2) == 5
        _assert_bits_equal([sigma2.ravel()], [np.concatenate(kernel)])

    def test_reason_per_replication(self, monkeypatch):
        # each replication is dropped under the fault of its first faulty
        # component, or as non-finite where its sums are not, and the rest
        # are kept, with the public path's bits
        task = _block_task({"example": 1}, (40,), N=6)
        [want] = _one_at_a_time(task)
        alpha = {(omega, j): _alpha(task, 40, omega, j) for omega in (1, 2, 5) for j in (1, 4)}
        faults = {
            # degenerate and escaped in one replication: the first component decides
            alpha[2, 1]: DEGENERATE, alpha[2, 4]: ESCAPED,
            alpha[1, 1]: ESCAPED, alpha[1, 4]: DEGENERATE,
            alpha[5, 4]: ESCAPED,
        }

        def check(dropped):
            [got] = _run_block(task)
            assert got.dropped == dropped
            kept = [omega not in sum(dropped.values(), []) for omega in range(1, 7)]
            _assert_bits_equal(_kept(got), [w[kept] for w in want])

        _inject_faults(monkeypatch, faults)
        check({"degenerate": [2], "escaped": [1, 5]})
        # replication 3's states are not finite, in one row chunk or many:
        # it is dropped with the others, which keep their codes
        coefficients = harness._coefficients
        spoilt = str(np.random.default_rng([0, 1, 40, 3]).bit_generator.state)
        for bad in (np.inf, np.nan):
            def spoiling(spec, k, rngs, fixed_real, bad=bad):
                hit = np.array([str(r.bit_generator.state) == spoilt for r in rngs])
                C, rho, sigma2 = coefficients(spec, k, rngs, fixed_real)
                sigma2.reshape(len(rngs), k)[hit] = bad
                return C, rho, sigma2

            monkeypatch.setattr(harness, "_coefficients", spoiling)
            for chunk in (harness.CHUNK_ELEMENTS, 64):
                monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
                with np.errstate(invalid="ignore"):
                    check({"degenerate": [2], "escaped": [1, 5], "non-finite": [3]})

    def test_reasons_across_the_grid_logged(self, monkeypatch, caplog):
        # two blocks on a real process pool, of groups of two replications;
        # the faults are injected where the sums are estimated, in this
        # process: every bad replication at every T is counted, and the
        # warnings are those of runs that take the grid one T at a time,
        # one line per (T, reason), in grid order
        monkeypatch.setattr(harness, "GROUP_COLUMNS", 10)
        fields, grid = {"example": 1, "rho_mode": "redraw"}, (20, 40, 60)
        task = _block_task(fields, grid, N=6)
        _inject_faults(monkeypatch, {
            _alpha(task, 60, 2, 1): ESCAPED,
            _alpha(task, 60, 3, 1): DEGENERATE,
            _alpha(task, 40, 1, 3): DEGENERATE,
            _alpha(task, 40, 4, 2): ESCAPED,
            _alpha(task, 40, 6, 1): ESCAPED,
            _alpha(task, 20, 4, 5): DEGENERATE,
        })

        def run(T_grid):
            config = config_from_dict({**fields, "T_grid": list(T_grid), "N": 6, "seed": 0})
            caplog.clear()
            with pytest.raises(AbortedReplicationsError) as exc:
                run_experiment(config, workers=2)
            return exc.value, [(r.levelname, r.getMessage()) for r in caplog.records]

        singles = [run((T,)) for T in grid]
        got, records = run(grid)
        assert records == [r for _, rs in singles for r in rs] == [
            ("WARNING", "T=20: aborted 1 degenerate replications: [4]"),
            ("WARNING", "T=40: aborted 1 degenerate replications: [1]"),
            ("WARNING", "T=40: aborted 2 escaped replications: [4, 6]"),
            ("WARNING", "T=60: aborted 1 degenerate replications: [3]"),
            ("WARNING", "T=60: aborted 1 escaped replications: [2]"),
        ]
        assert [e.aborted for e, _ in singles] == [1, 3, 2]
        assert (got.aborted, got.total) == (6, 18)

    def test_every_drop_counted_before_the_verdict(self, monkeypatch, caplog):
        # with every replication dropped, every T's drops are counted and
        # logged before the run fails, not just those of the first T
        column_faults = harness.column_faults

        def escaped(*args):
            fault = column_faults(*args)
            fault[:, 0] = ESCAPED
            return fault

        monkeypatch.setattr(harness, "column_faults", escaped)
        with pytest.raises(AbortedReplicationsError) as exc:
            run_experiment(ExperimentConfig(example=1, T_grid=(20, 40), N=4))
        assert (exc.value.aborted, exc.value.total) == (8, 8)
        assert caplog.messages == [
            "T=20: aborted 4 escaped replications: [1, 2, 3, 4]",
            "T=40: aborted 4 escaped replications: [1, 2, 3, 4]",
        ]

    def test_t_that_kept_nothing_fails_under_threshold(self, monkeypatch, caplog):
        # a T with no replication left has no report, so the run fails even
        # where its drops stay under the threshold, as on a grid of 1000 T
        task = _block_task({"example": 1}, (20,), N=2)
        _inject_faults(monkeypatch, {_alpha(task, 20, w, 1): ESCAPED for w in (1, 2)})
        monkeypatch.setattr(harness, "ABORT_THRESHOLD", 0.6)
        config = config_from_dict({"example": 1, "T_grid": [20, 40], "N": 2, "seed": 0})
        with pytest.raises(AbortedReplicationsError) as exc:
            run_experiment(config, workers=1)
        assert (exc.value.aborted, exc.value.total) == (2, 4)
        assert caplog.messages == ["T=20: aborted 2 escaped replications: [1, 2]"]

    def test_bad_replication_under_threshold_dropped(self, monkeypatch, caplog):
        # one escape in 1001 replications stays within ABORT_THRESHOLD: the
        # run completes and averages over the other 1000
        task = _block_task({"example": 1}, (20,), N=1001)
        _inject_faults(monkeypatch, {_alpha(task, 20, 7, 1): ESCAPED})
        config = config_from_dict({"example": 1, "T_grid": [20], "N": 1001, "seed": 0})
        reports = run_experiment(config, workers=1)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "T=20: aborted 1 escaped replications: [7]")
        ]
        [(_, _, est_c, est_b, truth, last)] = _one_at_a_time(task)
        kept = np.arange(1001) != 6
        for report, est in zip(reports, (est_c, est_b), strict=True):
            inp = EfmseInput(estimates=est[kept], truth=truth[kept], last_coeffs=last[kept])
            assert inp.N == report.N == 1000
            assert report.efmse_param == efmse_param(inp)
            assert report.efmse_pred == efmse_pred(inp)

    def test_group_memory_within_its_workspace(self, monkeypatch):
        # every array the size of a row chunk lives in the group's own
        # workspace, so a group allocates little past it: numpy's ufunc
        # buffer and at most 1 KiB a column.  The bound is the same for the
        # groups that run to T = 4500 as for those that end at 1500, a
        # trajectory of whose 48 columns alone would take 1.7 MB, and holds
        # for long-T-ex3-fixed's narrow group of three segments
        run_group, workspace = harness._run_group, harness._workspace
        widths, peaks, slabs = [], [], []

        def traced(spec, runs, *rest):
            widths.append([(T, len(omegas) * k) for T, k, omegas in runs])
            tracemalloc.start()
            try:
                return run_group(spec, runs, *rest)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        def planned(e):
            slabs.append(e)
            return workspace(e)

        monkeypatch.setattr(harness, "_run_group", traced)
        monkeypatch.setattr(harness, "_workspace", planned)
        for columns, task, planned_widths in (
            (48, _block_task({"example": 1, "kT_rule": "fixed:8"}, (1500, 3000, 4500), N=8),
             [[(4500, 48)], [(4500, 16), (3000, 32)], [(3000, 32)], [(1500, 48)], [(1500, 16)]]),
            (harness.GROUP_COLUMNS, _long_t_task(), [[(1000, 128), (500, 104), (250, 88)]]),
        ):
            monkeypatch.setattr(harness, "GROUP_COLUMNS", columns)
            widths.clear()
            peaks.clear()
            slabs.clear()
            got = _block_groups(task)
            assert widths == planned_widths
            for runs, peak, e in zip(widths, peaks, slabs, strict=True):
                c = sum(w for _, w in runs)
                assert peak < 8 * 2 * e + 8 * np.getbufsize() + 1024 * c
            _assert_block_equal(harness._merge(got, task[1], task[0].law), _one_at_a_time(task))

    def test_group_keeps_nothing_allocated_past_its_scratch(self, monkeypatch):
        # what a group returns is allocated before its scratch: of what the
        # kernel allocates once _workspace has returned, the returned group
        # holds a few objects, not a float a column, so nothing it keeps lies
        # past the freed scratch and the next group can reuse it whole
        spec, levels, lo, hi, seed, _ = _block_task(BLOCK_FIELDS[0], (20, 40), N=600)
        runs = harness._plan(levels, lo, hi)[1]
        assert [T for T, _, _ in runs] == [40, 20]
        c = sum(len(o) * k for _, k, o in runs)
        workspace, snapshots = harness._workspace, []

        def traced(*args):
            work = workspace(*args)
            snapshots.append(tracemalloc.take_snapshot())
            return work

        monkeypatch.setattr(harness, "_workspace", traced)
        tracemalloc.start()
        try:
            out = harness._run_group(spec, runs, seed, None)
            held = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        kernel = [tracemalloc.Filter(True, harness.__file__)]
        diffs = held.filter_traces(kernel).compare_to(snapshots[0].filter_traces(kernel), "lineno")
        assert sorted(out) == [20, 40]
        assert sum(d.size_diff for d in diffs if d.size_diff > 0) < 8 * c

    def test_x_planned_without_carry_row_raises(self, monkeypatch):
        # x must hold a row chunk and the row that carries the states into
        # the next: planned one row short, the kernel raises rather than
        # regrowing x and returning records from a lost carried row, for a
        # group shorter than a full chunk (100 rows of 21 columns) and for
        # one longer (1 row a chunk at 4000)
        workspace = harness._workspace
        task = _block_task(BLOCK_FIELDS[1], (100,), N=7)
        [[(_, k, omegas)]] = harness._plan(*task[1:4])

        def short_x(e):
            x, terms = workspace(e)
            return x[: e - len(omegas) * k], terms

        monkeypatch.setattr(harness, "_workspace", short_x)
        for chunk in (harness.CHUNK_ELEMENTS, 4000):
            monkeypatch.setattr(harness, "CHUNK_ELEMENTS", chunk)
            with pytest.raises(ValueError, match="reshape"):
                _block_groups(task)

    def test_rerun_memory_bounded(self):
        # a group of many row chunks, run again, holds its own workspace and
        # less than a replication's trajectory and its lag products
        spec, [(T, k)], lo, hi, seed, _ = _block_task(
            {"example": 1, "kT_rule": "fixed:33"}, (4000,), N=2
        )
        runs = [(T, k, range(lo, hi))]
        first = harness._run_group(spec, runs, seed, None)
        tracemalloc.start()
        try:
            second = harness._run_group(spec, runs, seed, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        step = harness.CHUNK_ELEMENTS // (2 * k)
        one_replication = 8 * ((T + 1) * k + T * 2 * k)
        assert step < T and peak < one_replication
        for a, b in zip(first[T], second[T], strict=True):
            assert np.array_equal(a, b)


def _assert_same_streams(seed, T, omegas):
    rngs = harness._replication_rngs(seed, T, omegas)
    assert len(rngs) == len(omegas)
    for omega, rng in zip(omegas, rngs):
        ref = np.random.default_rng([seed, 1, T, omega])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
        assert np.array_equal(rng.standard_gamma(0.7, 5), ref.standard_gamma(0.7, 5))


class TestReplicationStreams:
    # numpy's SeedSequence is the reference: every stream the kernel builds
    # must start in the state default_rng gives it
    @pytest.mark.parametrize("T", [1, 20, 2**32 - 1, 2**32, 10**20])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_same_states_as_default_rng(self, seed, T):
        _assert_same_streams(seed, T, [*range(1, 301), 2**32 - 1])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        T=st.integers(1, 2**100),
        omegas=st.lists(st.integers(0, 2**32 - 1), max_size=8),
    )
    def test_same_states_fuzzed(self, seed, T, omegas):
        _assert_same_streams(seed, T, omegas)

    @pytest.mark.parametrize("omegas", [[2**32], [1, 2**32 + 5], [2**64], [-1]])
    def test_replication_number_beyond_one_word_rejected(self, omegas):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            harness._replication_rngs(0, 20, omegas)


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

    @pytest.mark.parametrize("formats", [["CSV"], (), "jsonl"])
    def test_unknown_formats_write_nothing(self, tmp_path, formats):
        # formats follow the config's rule: no format is skipped, and none
        # is matched by substring
        reports = self._reports()
        with pytest.raises(ValueError, match="formats"):
            emit_reports(reports, formats, tmp_path / "out")
        assert not list(tmp_path.iterdir())

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reports([], ("csv",), tmp_path)

    def test_non_finite_value_writes_nothing(self, tmp_path):
        reports = self._reports()
        reports[0] = dataclasses.replace(reports[0], efmse_pred=math.nan)
        with pytest.raises(ValueError):
            emit_reports(reports, ("csv", "json"), tmp_path)
        assert not list(tmp_path.iterdir())


    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        reports = self._reports()
        emit_reports(reports, ("csv",), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_text = Path.write_text

        def partial(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", partial)
        with pytest.raises(OSError, match="disk full"):
            emit_reports(self._reports(seed=8), ("csv",), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
