import json
import os
import subprocess
import sys
import types
from pathlib import Path

import arh1bench
from test_golden import GOLDEN_DIAGNOSTICS, GOLDEN_RUN_FIELDS, GOLDEN_RUNS, ROW_CHUNK_RUN

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


# The summed line count of src/arh1bench/*.py, as `wc -l` counts it, so
# that every change to the package's size shows in the diff of this pin.
PACKAGE_LINES = 1912


def test_package_line_count():
    modules = Path(arh1bench.__file__).parent.glob("*.py")
    assert sum(p.read_bytes().count(b"\n") for p in modules) == PACKAGE_LINES


def _run_python(code: str) -> str:
    src = str(Path(arh1bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
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


def test_run_path_does_not_import_scipy(tmp_path):
    # Every CLI path runs with scipy unimportable and writes its golden bytes.
    runs = {
        name: ({**fields, **GOLDEN_RUN_FIELDS}, want)
        for name, (fields, want) in GOLDEN_RUNS.items()
    }
    runs["row-chunked"] = ROW_CHUNK_RUN
    cases = []
    for name, (fields, want) in runs.items():
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps(fields))
        argv = ["run", "--config", str(config), "--workers", "1", "--out", str(out)]
        cases.append((argv, str(out / "efmse.csv"), want))
    for kind, (params, want) in GOLDEN_DIAGNOSTICS.items():
        out = tmp_path / kind
        flags = [f for name, value in params.items() for f in (f"--{name}", str(value))]
        argv = ["diag", kind, "--seed", "0", "--out", str(out), *flags]
        cases.append((argv, str(out / f"diag_{kind}.json"), want))
    code = f"""
import hashlib, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
from arh1bench import cli

results = []
for argv, path in {[case[:2] for case in cases]!r}:
    status = cli.main(argv)
    results.append([status, hashlib.sha256(open(path, "rb").read()).hexdigest()])
print(json.dumps(results))
"""
    results = json.loads(_run_python(code).splitlines()[-1])
    assert results == [[0, want] for _, _, want in cases]
