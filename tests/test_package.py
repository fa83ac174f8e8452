import os
import subprocess
import sys
import types
from pathlib import Path

import arh1bench

# The top-level surface: the experiment and diagnostic API plus the calls
# one replication makes.  Everything else is imported from its submodule.
PUBLIC_NAMES = {
    "AbortedReplicationsError",
    "ComplexRootError",
    "DegenerateTrajectoryError",
    "EfmseInput",
    "EfmseReport",
    "EigenvalueLaw",
    "ExperimentConfig",
    "KtRule",
    "ModelRealization",
    "PriorSpec",
    "SpectralModelSpec",
    "Trajectory",
    "config_from_dict",
    "efmse_param",
    "efmse_pred",
    "emit_reports",
    "estimate_all",
    "load_config",
    "prior_param_limit",
    "prior_pred_limit",
    "realize",
    "run_diagnostics",
    "run_experiment",
    "simulate",
    "sufficient_stats",
    "theory_param_limit",
    "theory_pred_limit",
    "truncate_realization",
    "truncation_order",
}


def test_public_top_level_names():
    names = {
        name
        for name, value in vars(arh1bench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert len(names) == 29


def _run_python(code: str) -> str:
    src = str(Path(arh1bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_cli_import_does_not_load_numpy_random():
    # the kernel builds its seeding class on first use, so startup does not
    # pay for numpy.random
    code = "import sys, arh1bench.cli; print('numpy.random' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_import_does_not_load_multiprocessing():
    # run_experiment imports the process pool only when it starts one
    code = """
import sys, arh1bench
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures.process", "multiprocessing"))))
"""
    assert _run_python(code).strip() == "[]"


def test_run_path_does_not_import_scipy():
    # At T=20 some column sums fail the exactness certificate, so the run
    # also takes the math.fsum fallback; only the diagnostics load scipy.
    code = """
import math, sys
calls = []
fsum = math.fsum
math.fsum = lambda xs: calls.append(1) or fsum(xs)
import arh1bench.cli
from arh1bench.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(example=1, T_grid=(20,), N=50))
print(len(calls), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    fallbacks, modules = _run_python(code).split(" ", 1)
    assert int(fallbacks) > 0
    assert modules.strip() == "[]"
