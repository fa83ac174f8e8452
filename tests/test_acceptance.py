"""End-to-end acceptance checks.

One test per shipping criterion, three for criterion 3 and two for
criterion 4, run at the sizes the criteria state.
Each test prints a single ``criterion NN: PASS/FAIL`` line (visible even
without -s) before asserting, so a full run reads as a checklist.

Criteria 3, 4 and 9 share one fixed-draw run (Example-1 model, seed 0,
T=2000, N=500, five components) whose records come from
``harness.collect``: the shared model draw comes from
``default_rng([seed, 2])`` and replication omega from
``default_rng([seed, 1, T, omega])``.  Criterion 9 also reads each
replication's beta, which no report needs, from the same records, which
keep every replication's sums.

Known shortfall: the Bayes branch of criterion 3 does not reach its
asymptotic limit at T=2000 with the Beta(2**j, 1.01) prior (the pull on the
low-index components shrinks the estimates far more than the O(1/T)
sampling error the limit describes), so that test fails honestly rather
than with a loosened tolerance.  The classical branch and every other
criterion pass.  Beside it, the Bayes-minus-classical gap on the same
replications is checked against the finite-T reference that accounts for
the shrink, at T=2000 and across T = 2e3, 1e4 and 3e4 on the same draw;
beside criterion 4, the prediction gap on the same draw's first 2000
replications at T=2000 is checked against the predictor's finite-T
reference.
"""
import math

import numpy as np
import pytest

from arh1bench import cli, harness, metrics
from arh1bench.harness import DEFAULT_T_GRID, ExperimentConfig, run_experiment
from arh1bench.metrics import (
    EfmseInput,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_check,
    finite_t_param_reference,
    finite_t_pred_reference,
    normality_check,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from arh1bench.spectral_model import prior_shapes
from conftest import bayes_estimate, cubic_score_solve

SEED = 0
T_FIX = 2000
N_FIX = 500
K_FIX = 5


def _report(num: int, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _collect_fixed_draw(T_grid, N=N_FIX):
    """The shared draw of criterion 3 and the records of its first N
    replications at each T of T_grid, from the harness."""
    config = ExperimentConfig(example=1, T_grid=T_grid, N=N, rho_mode="fixed", seed=SEED)
    return harness.collect(config)


@pytest.fixture(scope="module")
def fixed_draw_run():
    real, [records] = _collect_fixed_draw((T_FIX,))
    assert records.kT == K_FIX and len(records.est_c) == N_FIX
    return real, records


@pytest.fixture(scope="module")
def paper_run():
    config = ExperimentConfig(example=1, N=1000, seed=SEED)
    return run_experiment(config, workers=8)


def test_c01_bartlett_limit(capsys):
    outputs, targets, _ = bartlett_check([SEED, 3, 1], 0.6, 1.0, 4000, 4000)
    t_mse, limit = outputs["t_mse"], targets["limit"]
    ok = abs(t_mse - limit) <= 0.10 * limit
    _report(1, ok, f"T*MSE {t_mse:.4f} vs limit {limit:.2f} (tol 10%)", capsys)
    assert ok


def test_c02_score_normality(capsys):
    N = 2000
    ks = normality_check([SEED, 3, 2], 0.5, 3000, N)[0]["ks_distance"]
    ok = ks <= 0.0387
    _report(2, ok, f"KS distance {ks:.4f} on {N} scores (critical 0.0387)", capsys)
    assert ok


def test_c03_parameter_error_limit(fixed_draw_run, capsys):
    real, run = fixed_draw_run
    limit = theory_param_limit(real, K_FIX)
    ratios = {}
    for name, est in (("classical", run.est_c), ("bayes", run.est_b)):
        inp = EfmseInput(est, run.truth, run.last)
        ratios[name] = T_FIX * efmse_param(inp) / limit
    ok = all(abs(r - 1.0) <= 0.20 for r in ratios.values())
    _report(
        3, ok,
        f"T*EFMSE_param/limit: classical {ratios['classical']:.3f}, "
        f"bayes {ratios['bayes']:.3f} (each must be within 20% of 1); "
        "the bayes gap is the documented prior-shrinkage shortfall",
        capsys,
    )
    assert ok


def test_c03_bayes_gap_finite_t_reference(fixed_draw_run, capsys):
    # G = T (EFMSE_bayes - EFMSE_classical) / limit, paired on the same
    # trajectories so the classical estimator's own Monte Carlo noise
    # cancels, against its deterministic reference sum_j (T s_j**2 +
    # 4 rho_j s_j) / limit; 3 paired standard errors from the
    # per-replication differences
    real, run = fixed_draw_run
    limit = theory_param_limit(real, K_FIX)
    want = (finite_t_param_reference(real, K_FIX, T_FIX) - limit) / limit
    efmse = {}
    for name, est in (("classical", run.est_c), ("bayes", run.est_b)):
        efmse[name] = efmse_param(EfmseInput(est, run.truth, run.last))
    gap = T_FIX * (efmse["bayes"] - efmse["classical"]) / limit
    diff = np.sum((run.est_b - run.truth) ** 2 - (run.est_c - run.truth) ** 2, axis=1)
    se = T_FIX * float(np.std(diff, ddof=1)) / math.sqrt(N_FIX) / limit
    ok = abs(gap - want) <= 3.0 * se
    _report(
        3, ok,
        f"paired gap T*(EFMSE_bayes - EFMSE_classical)/limit {gap:.3f} +/- {se:.3f} "
        f"vs finite-T reference {want:.3f} (within 3 standard errors)",
        capsys,
    )
    assert ok


def test_c03_bayes_gap_sweep_across_t(fixed_draw_run, capsys):
    # the same paired gap on criterion 3's draw at three T, each within 3
    # paired standard errors of its finite-T reference, and falling as T
    # grows: the shrink's share of the error is a finite-T effect
    real, records = _collect_fixed_draw((2_000, 10_000, 30_000))
    assert np.array_equal(real.rho, fixed_draw_run[0].rho)
    limit = theory_param_limit(real, K_FIX)
    gaps, ok, detail = [], True, []
    for r in records:
        assert r.kT == K_FIX and not r.dropped and len(r.est_c) == N_FIX
        diff = np.sum((r.est_b - r.truth) ** 2 - (r.est_c - r.truth) ** 2, axis=1)
        gap = r.T * float(np.mean(diff)) / limit
        se = r.T * float(np.std(diff, ddof=1)) / math.sqrt(N_FIX) / limit
        want = (finite_t_param_reference(real, K_FIX, r.T) - limit) / limit
        ok &= abs(gap - want) <= 3.0 * se
        gaps.append(gap)
        detail.append(f"T={r.T}: {gap:.3f} +/- {se:.3f} vs {want:.3f}")
    ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(
        3, ok,
        "paired gap sweep " + "; ".join(detail) + " (each within 3 standard errors, falling in T)",
        capsys,
    )
    assert ok


def test_c04_prediction_error_limit(fixed_draw_run, capsys):
    real, run = fixed_draw_run
    limit = theory_pred_limit(real, K_FIX)
    ratios = {}
    for name, est in (("classical", run.est_c), ("bayes", run.est_b)):
        inp = EfmseInput(est, run.truth, run.last)
        ratios[name] = T_FIX * efmse_pred(inp) / limit
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios.values())
    _report(
        4, ok,
        f"T*EFMSE_pred/limit: classical {ratios['classical']:.3f}, "
        f"bayes {ratios['bayes']:.3f} (each must be within 25% of 1)",
        capsys,
    )
    assert ok


def test_c04_prediction_gap_finite_t_reference(capsys):
    # the paired prediction gap T (EFMSE_pred,bayes - EFMSE_pred,classical)
    # / limit on criterion 3's draw at T=2000, N=2000, against its finite-T
    # reference sum_j C_j T s_j**2 / limit, within 3 paired standard errors.
    # The parameter reference's terms weighted by C_j, sum_j C_j (T s_j**2 +
    # 4 rho_j s_j) / limit, read 0.292 here, 5.1 standard errors above the
    # measured 0.243 +/- 0.010: weighted by the last state X_T**2 the
    # classical error has no first-order bias, so its cross term 4 rho_j s_j
    # has no counterpart (see metrics.finite_t_pred_reference)
    N = 2000
    real, [r] = _collect_fixed_draw((T_FIX,), N)
    assert r.kT == K_FIX and not r.dropped and len(r.est_c) == N
    limit = theory_pred_limit(real, K_FIX)
    want = (finite_t_pred_reference(real, K_FIX, T_FIX) - limit) / limit
    efmse = {name: efmse_pred(EfmseInput(est, r.truth, r.last))
             for name, est in (("classical", r.est_c), ("bayes", r.est_b))}
    gap = T_FIX * (efmse["bayes"] - efmse["classical"]) / limit
    diff = np.sum(((r.est_b - r.truth) ** 2 - (r.est_c - r.truth) ** 2) * r.last**2, axis=1)
    se = T_FIX * float(np.std(diff, ddof=1)) / math.sqrt(N) / limit
    part, s = metrics._finite_t_shrink(real, K_FIX, T_FIX)
    c_weighted = want + float(np.sum(part.C * 4.0 * part.rho * s)) / limit
    ok = abs(gap - want) <= 3.0 * se < abs(gap - c_weighted)
    _report(
        4, ok,
        f"paired prediction gap T*(EFMSE_pred_bayes - EFMSE_pred_classical)/limit "
        f"{gap:.3f} +/- {se:.3f} vs finite-T reference {want:.3f} (within 3 standard errors; "
        f"not the C-weighted parameter terms, {c_weighted:.3f})",
        capsys,
    )
    assert ok


def test_c05_benchmark_bracket(paper_run, capsys):
    classical = [r for r in paper_run if r.estimator == "classical"]
    assert [r.T for r in classical] == list(DEFAULT_T_GRID)
    final = classical[-1].efmse_param
    in_bracket = 1.2e-4 <= final <= 1.1e-3
    series = [r.efmse_param for r in classical]
    inversions = sum(b > a for a, b in zip(series, series[1:]))
    ok = in_bracket and inversions <= 1
    _report(
        5, ok,
        f"classical efmse_param(T=2000) {final:.3e} in [1.2e-4, 1.1e-3]: "
        f"{in_bracket}; inversions along grid {inversions} (allowed 1)",
        capsys,
    )
    assert ok


def test_c06_truncation_grid(capsys):
    rule = KtRule("power", 4.1)
    got = tuple(truncation_order(T, rule) for T in DEFAULT_T_GRID)
    want = (3, 4, 5, 5, 5, 5, 6, 6)
    ok = got == want
    _report(6, ok, f"k_T over default grid {got} (want {want})", capsys)
    assert ok


def test_c07_flat_prior_reduction(capsys):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        beta = rng.uniform(0.5, 10.0)
        alpha = beta * rng.uniform(-1.0, 1.0)
        sigma2 = rng.uniform(0.1, 3.0)
        a = int(rng.integers(2**20, 2**21 + 1)) / 2**21  # dyadic, a+b == 2 exact
        b = 2.0 - a
        got = bayes_estimate(alpha, beta, sigma2, a, b, root="minus")
        want = alpha / beta
        err = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, err)
    ok = worst < 1e-12
    _report(7, ok, f"worst relative gap to alpha/beta over 10^4 draws: {worst:.2e}", capsys)
    assert ok


def test_c08_closed_form_matches_cubic(capsys):
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(0.5, 5.0)
        alpha = rng.uniform(-3.0, 5.0)
        sigma2 = rng.uniform(0.2, 2.0)
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(max(1.0, 2.0 - a), 6.0)
        minus = bayes_estimate(alpha, beta, sigma2, a, b, root="minus")
        plus = bayes_estimate(alpha, beta, sigma2, a, b, root="plus")
        lo = min(minus, plus, 0.0) - 0.5
        hi = max(minus, plus, 0.0) + 0.5
        roots = cubic_score_solve(alpha, beta, sigma2, a, b, bounds=(lo, hi))
        for want in (minus, plus):
            worst = max(worst, min(abs(r - want) for r in roots))
    ok = worst < 1e-9
    _report(8, ok, f"worst closed-form / cubic-root gap over 10^3 draws: {worst:.2e}", capsys)
    assert ok


def test_c09_proximity_bound(fixed_draw_run, capsys):
    real, run = fixed_draw_run
    a, b = prior_shapes(K_FIX)
    ab_shift = a + b - 2.0
    bound = np.sqrt(real.sigma2 * ab_shift / run.beta)
    gap = run.est_c - run.est_b
    applicable = run.est_c <= 1.0
    violations = int(np.count_nonzero(applicable & ((gap < 0.0) | (gap > bound))))
    checked = int(np.count_nonzero(applicable))
    ok = violations == 0
    _report(
        9, ok,
        f"0 <= rho_hat - rho_tilde <= sqrt(sigma2*(a+b-2)/beta): "
        f"{violations} violations on {checked} applicable component records",
        capsys,
    )
    assert ok


def test_c10_ergodic_averages(capsys):
    n = 200_000
    rho, C = 0.9, 1.0
    outputs = ergodic_check([SEED, 3, 3], rho, C, n)[0]
    c_hat, d_hat = outputs["c_hat"], outputs["d_hat"]
    ratio_target = rho * n / (n - 1)
    ok = abs(c_hat - C) <= 0.05 * C and abs(d_hat / c_hat - ratio_target) <= 0.02
    _report(
        10, ok,
        f"C_hat {c_hat:.4f} (target 1 +/- 5%), D_hat/C_hat {d_hat / c_hat:.5f} "
        f"(target {ratio_target:.5f} +/- 0.02)",
        capsys,
    )
    assert ok


def test_c11_worker_determinism(tmp_path, capsys):
    base = ["run", "--example", "1", "--T", "250", "--N", "50", "--seed", "7",
            "--format", "csv"]
    assert cli.main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert cli.main(base + ["--workers", "8", "--out", str(tmp_path / "w8")]) == 0
    a = (tmp_path / "w1" / "efmse.csv").read_bytes()
    b = (tmp_path / "w8" / "efmse.csv").read_bytes()
    ok = a == b
    _report(11, ok, f"efmse.csv identical for 1 vs 8 workers: {ok} ({len(a)} bytes)", capsys)
    assert ok
