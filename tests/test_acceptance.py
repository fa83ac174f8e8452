"""End-to-end acceptance checks.

One test per shipping criterion, run at the sizes the criteria state.
Each test prints a single ``criterion NN: PASS/FAIL`` line (visible even
without -s) before asserting, so a full run reads as a checklist.

Criteria 3, 4 and 9 share one fixed-draw Monte Carlo fixture (Example-1
model, seed 0, T=2000, N=500, five components) whose replication streams
mirror the harness exactly: the shared model draw comes from
``default_rng([seed, 2])`` and replication omega from
``default_rng([seed, 1, T, omega])``.

Known shortfall: the Bayes branch of criterion 3 does not reach its
asymptotic limit at T=2000 with the Beta(2**j, 1.01) prior (the pull on the
low-index components shrinks the estimates far more than the O(1/T)
sampling error the limit describes), so that test fails honestly rather
than with a loosened tolerance.  The classical branch and every other
criterion pass.
"""
import dataclasses
import math

import numpy as np
import pytest

from arh1bench import cli
from arh1bench.estimators import SufficientStats, estimate_all
from arh1bench.harness import DEFAULT_T_GRID, ExperimentConfig, run_experiment
from arh1bench.metrics import (
    EfmseInput,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_estimates,
    normality_check,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from arh1bench.simulator import simulate
from arh1bench.spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    SpectralModelSpec,
    prior_params,
    realize,
)
from conftest import bayes_estimate, cubic_score_solve

SEED = 0
T_FIX = 2000
N_FIX = 500
K_FIX = 5


def _report(num: int, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@dataclasses.dataclass(frozen=True)
class FixedDrawRun:
    real: ModelRealization
    est_classical: np.ndarray
    est_bayes: np.ndarray
    truth: np.ndarray
    last: np.ndarray
    betas: np.ndarray


@pytest.fixture(scope="module")
def fixed_draw_run() -> FixedDrawRun:
    spec = SpectralModelSpec(
        law=EigenvalueLaw.power_law(1.5),
        k_max=K_FIX,
        rho_mode="fixed",
    )
    real = realize(spec, np.random.default_rng([SEED, 2]))
    est_c = np.empty((N_FIX, K_FIX))
    est_b = np.empty((N_FIX, K_FIX))
    last = np.empty((N_FIX, K_FIX))
    betas = np.empty((N_FIX, K_FIX))
    for i, omega in enumerate(range(1, N_FIX + 1)):
        rng = np.random.default_rng([SEED, 1, T_FIX, omega])
        traj = simulate(real, T_FIX, rng)
        est = estimate_all(traj, real, K_FIX, spec.prior)
        est_c[i] = est.rho_hat
        est_b[i] = est.rho_tilde_minus
        last[i] = traj.coeffs[-1]
        betas[i] = est.beta
    truth = np.tile(real.rho, (N_FIX, 1))
    return FixedDrawRun(
        real=real, est_classical=est_c, est_bayes=est_b,
        truth=truth, last=last, betas=betas,
    )


@pytest.fixture(scope="module")
def paper_run():
    config = ExperimentConfig(example=1, N=1000, seed=SEED)
    return run_experiment(config, workers=8)


def test_c01_bartlett_limit(capsys):
    rng = np.random.default_rng([SEED, 3, 1])
    t_mse, limit = bartlett_check(0.6, 1.0, 4000, 4000, rng)
    ok = abs(t_mse - limit) <= 0.10 * limit
    _report(1, ok, f"T*MSE {t_mse:.4f} vs limit {limit:.2f} (tol 10%)", capsys)
    assert ok


def test_c02_score_normality(capsys):
    rng = np.random.default_rng([SEED, 3, 2])
    ks, scores = normality_check(0.5, 3000, 2000, rng)
    ok = ks <= 0.0387
    _report(2, ok, f"KS distance {ks:.4f} on {len(scores)} scores (critical 0.0387)", capsys)
    assert ok


def test_c03_parameter_error_limit(fixed_draw_run, capsys):
    limit = theory_param_limit(fixed_draw_run.real, K_FIX)
    ratios = {}
    for name, est in (("classical", fixed_draw_run.est_classical),
                      ("bayes", fixed_draw_run.est_bayes)):
        inp = EfmseInput(est, fixed_draw_run.truth, fixed_draw_run.last)
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


def test_c04_prediction_error_limit(fixed_draw_run, capsys):
    limit = theory_pred_limit(fixed_draw_run.real, K_FIX)
    ratios = {}
    for name, est in (("classical", fixed_draw_run.est_classical),
                      ("bayes", fixed_draw_run.est_bayes)):
        inp = EfmseInput(est, fixed_draw_run.truth, fixed_draw_run.last)
        ratios[name] = T_FIX * efmse_pred(inp) / limit
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios.values())
    _report(
        4, ok,
        f"T*EFMSE_pred/limit: classical {ratios['classical']:.3f}, "
        f"bayes {ratios['bayes']:.3f} (each must be within 25% of 1)",
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
    rule = KtRule.power(4.1)
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
        st = SufficientStats(alpha=alpha, beta=beta, T=100)
        got = bayes_estimate(st, sigma2, a, b, root="minus")
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
        st = SufficientStats(alpha=alpha, beta=beta, T=50)
        minus = bayes_estimate(st, sigma2, a, b, root="minus")
        plus = bayes_estimate(st, sigma2, a, b, root="plus")
        lo = min(minus, plus, 0.0) - 0.5
        hi = max(minus, plus, 0.0) + 0.5
        roots = cubic_score_solve(st, sigma2, a, b, bounds=(lo, hi))
        for want in (minus, plus):
            worst = max(worst, min(abs(r - want) for r in roots))
    ok = worst < 1e-9
    _report(8, ok, f"worst closed-form / cubic-root gap over 10^3 draws: {worst:.2e}", capsys)
    assert ok


def test_c09_proximity_bound(fixed_draw_run, capsys):
    shapes = [prior_params(j) for j in range(1, K_FIX + 1)]
    ab_shift = np.array([a + b - 2.0 for a, b in shapes])
    bound = np.sqrt(fixed_draw_run.real.sigma2 * ab_shift / fixed_draw_run.betas)
    gap = fixed_draw_run.est_classical - fixed_draw_run.est_bayes
    applicable = fixed_draw_run.est_classical <= 1.0
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
    real = ModelRealization(C=[C], rho=[rho], sigma2=[C * (1.0 - rho * rho)])
    traj = simulate(real, n, np.random.default_rng([SEED, 3, 3]))
    c_hat, d_hat = ergodic_estimates(traj, 1, n)
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
