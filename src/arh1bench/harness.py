"""Experiment orchestration: seeded replication streams, parallel Monte
Carlo runs over a grid of sample sizes, and report/diagnostic emission.

Determinism contract
--------------------
Replication omega of sample size T draws everything it needs from
``numpy.random.default_rng([seed, 1, T, omega])`` — first the coefficient
redraw (when ``rho_mode == "redraw"``), then the trajectory.  The kernel
derives those generators a group at a time (``_replication_rngs``), with
the same PCG64 states as ``default_rng`` gives each one.  A shared
coefficient draw for ``rho_mode == "fixed"`` comes from
``default_rng([seed, 2])`` and diagnostics use ``[seed, 3, ...]`` streams.
The replications split into one contiguous block per worker, and each
block into kernel groups (``_plan``), which line up as one plan.
``collect`` maps ``_run_group`` over the plan, in plan order: inline for
one block, else one group a task on a pool of at most ``usable_cpus()``
processes.  ``_merge`` stacks each T's sums once, from every group in
replication order, ranks each replication's fault, keeps the good ones
and drops the bad ones, which ``collect`` logs per T and reason before it
fails a run past ABORT_THRESHOLD or with a T that keeps none.  A T's
``Records`` keeps four arrays a replication (alpha and beta sums, truths,
last states) and derives both estimates from them.
``build_reports`` makes the reports from what ``collect`` returns, so each
emitted byte depends only on (config, seed), not on workers or scheduling.

Within a block, the (T, omega) streams run longest T first, packed into
groups (``_run_group``) that may mix T: one time loop (``fold_runs``, which
the Bartlett and normality diagnostics run too) over the columns of every
stream in the group, a stream's columns dropping out at its T, column
sums folded in time order a row chunk at a time, alpha's terms and then
beta's through one slab of the group's own scratch, sized to its largest
chunk and carry row.  The elementwise estimators run on those sums.
That is the arithmetic that ``simulate``, ``sufficient_stats`` and
``estimate_all`` run for a single replication, so both routes give the
same bits.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import FAULT_NAMES, column_faults, deciding_component, fold_lag_terms, minus_root
from .metrics import (
    EfmseInput,
    EfmseReport,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_check,
    normality_check,
    prior_param_limit,
    prior_pred_limit,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from .simulator import ar1_steps, positivity_diagnostic, simulate
from .spectral_model import (
    MAX_CLAMPED_SHARE,
    MAX_PRIOR_EXPONENT,
    RHO_CLAMP_EPS,
    EigenvalueLaw,
    SpectralModelSpec,
    draw_rho,
    eigenvalues,
    innovation_variance,
    prior_shapes,
    realize,
    rho_sequence,
)

logger = logging.getLogger("arh1bench")

DEFAULT_T_GRID = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)

# Fraction of dropped (aborted) replications, whatever their reason, above
# which a run is considered misconfigured and fails outright.
ABORT_THRESHOLD = 1e-3

# A replication group has at most this many columns (replications times
# components); its rows are simulated in chunks of at most CHUNK_ELEMENTS / 2
# values, or one row where a row holds more.  Neither changes a bit of the
# output, only memory and speed.
GROUP_COLUMNS = 2048
CHUNK_ELEMENTS = 2**18

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(EfmseReport))

# Built-in model presets: eigenvalue decay exponent and truncation rule.
EXAMPLE_EXPONENTS = {1: 1.5, 2: 1.1, 3: 2.0}
EXAMPLE_KT_RULES = {1: KtRule("fixed", 5), 2: KtRule("fixed", 5), 3: KtRule("power", 4.1)}

class AbortedReplicationsError(RuntimeError):
    """Raised when the replications dropped exceed the threshold or leave a T with none."""

    def __init__(self, aborted: int, total: int):
        self.aborted = aborted
        self.total = total
        super().__init__(
            f"{aborted} of {total} replications aborted "
            f"(threshold {ABORT_THRESHOLD:.1%})"
        )


def _is_int(value) -> bool:
    # bool is an int subclass, but True is not a count, a seed or an example.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer that fits in 64 bits, got {seed!r}")
    return int(seed)


def _check_formats(fmts) -> tuple[str, ...]:
    """Report formats, a sequence or a comma-separated string, as a tuple of
    distinct names from a nonempty subset of csv,json."""
    if isinstance(fmts, str):
        fmts = tuple(f for f in fmts.split(",") if f)
    if (
        not isinstance(fmts, (tuple, list))
        or not fmts
        or any(f not in ("csv", "json") for f in fmts)
    ):
        raise ValueError(f"formats must be a nonempty subset of csv,json, got {fmts!r}")
    return tuple(dict.fromkeys(fmts))


def example_model(
    example: int,
    T_max: int,
    kT_rule: KtRule | None = None,
    rho_mode: str = "redraw",
    rho_values: tuple[float, ...] | None = None,
) -> tuple[SpectralModelSpec, KtRule]:
    """The model of built-in example 1, 2 or 3 and its truncation rule.

    ``kT_rule`` defaults to the example's own rule; the spec holds the k_T
    components that rule keeps at sample size ``T_max``, which covers every
    smaller T because k_T never decreases in T.  A k_T past MAX_PRIOR_EXPONENT
    is refused, as are explicit coefficients missing or fewer than k_T, and
    drawn coefficients where ``draw_rho``'s clamp rewrites over
    MAX_CLAMPED_SHARE of component k_T's draws, about a_kT * RHO_CLAMP_EPS of
    them (0.81% at k_T = 33, 1.6% at 34).
    """
    if not _is_int(example) or example not in EXAMPLE_EXPONENTS:
        raise ValueError(f"example must be 1, 2 or 3, got {example!r}")
    rule = EXAMPLE_KT_RULES[example] if kT_rule is None else kT_rule
    if (k_T := truncation_order(T_max, rule)) > MAX_PRIOR_EXPONENT:
        raise ValueError(f"k_T={k_T} at T={T_max}: the prior covers k_T <= {MAX_PRIOR_EXPONENT}")
    if rho_mode == "explicit":
        if not (values := rho_sequence(rho_values)):
            raise ValueError(f"explicit rho_mode requires rho_values, got {rho_values!r}: give "
                             f"them as --rho-mode explicit:FILE or as rho_values in the config")
        if len(values) < k_T:
            raise ValueError(f"k_T={k_T} at T={T_max}: the explicit coefficients cover "
                             f"{len(values)} components")
        rho_values = values
    spec = SpectralModelSpec(
        law=EigenvalueLaw.power_law(EXAMPLE_EXPONENTS[example]),
        k_max=k_T,
        rho_mode=rho_mode,
        rho_values=rho_values,
    )
    a, _ = prior_shapes(spec.k_max)
    if spec.rho_mode != "explicit" and a[-1] * RHO_CLAMP_EPS > MAX_CLAMPED_SHARE:
        raise ValueError(f"k_T={spec.k_max} at T={T_max}: draw_rho's clamp would rewrite over "
                         f"{MAX_CLAMPED_SHARE:.0%} of its prior draws to 1 - {RHO_CLAMP_EPS:g}")
    return spec, rule


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a benchmark run.

    ``example`` is the built-in model 1, 2 or 3; ``kT_rule`` defaults to
    that example's rule.  ``spec`` is derived at construction: the
    example's model with the components the largest T on the grid needs,
    which validates ``rho_mode`` and ``rho_values``.
    """

    example: int
    T_grid: tuple[int, ...] = DEFAULT_T_GRID
    N: int = 1000
    kT_rule: KtRule | None = None
    seed: int = 0
    rho_mode: str = "redraw"
    rho_values: tuple[float, ...] | None = None
    output_dir: Path = Path("out")
    formats: tuple[str, ...] = ("csv", "json")
    spec: SpectralModelSpec = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.T_grid
        if (
            not isinstance(grid, (tuple, list))
            or not grid
            or not all(_is_int(t) and t >= 1 for t in grid)
        ):
            raise ValueError(
                f"T_grid must be a nonempty sequence of positive integers, got {grid!r}"
            )
        grid = tuple(int(t) for t in grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"T_grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "T_grid", grid)
        # each replication's stream key takes omega <= N as one 32-bit word
        if not _is_int(self.N) or not 1 <= self.N < 2**32:
            raise ValueError(
                f"replication count N must be an integer in [1, 2**32), got {self.N!r}"
            )
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.kT_rule is not None and not isinstance(self.kT_rule, KtRule):
            raise ValueError(f"kT_rule must be a truncation rule, got {self.kT_rule!r}")

        spec, rule = example_model(
            self.example, grid[-1], self.kT_rule, self.rho_mode, self.rho_values
        )
        object.__setattr__(self, "kT_rule", rule)
        object.__setattr__(self, "rho_values", spec.rho_values)
        object.__setattr__(self, "spec", spec)

        object.__setattr__(self, "formats", _check_formats(self.formats))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def label(self) -> str:
        return str(self.example)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-style mapping with the field names above."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    if isinstance(kwargs.get("kT_rule"), str):
        kwargs["kT_rule"] = KtRule.parse(kwargs["kT_rule"])
    if "example" not in kwargs:
        raise ValueError("config must specify an example")
    return ExperimentConfig(**kwargs)


def load_config(path) -> dict:
    """Read a JSON config file into a plain mapping (validated on build)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def _partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split replications 1..n into min(parts, n) contiguous half-open blocks
    [lo, hi), from 1 to n + 1, whose sizes differ by at most one."""
    parts = max(1, min(parts, n))
    edges = [1 + n * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _plan(levels, lo, hi) -> list[list[tuple]]:
    """Replications [lo, hi) at every (T, k) of levels, longest T first, as
    kernel groups of at most GROUP_COLUMNS columns: each a list of runs
    (T, k, omegas), one per T, so each T's replications come in order."""
    groups, runs, width = [], [], 0
    for T, k in sorted(levels, reverse=True):
        omega = lo
        while omega < hi:
            # a group takes on a shorter T only while it is less than half
            # full: a wider group shortens every row chunk, so each stream
            # draws its normals in more calls, for little saved per row
            if runs and (
                width + k > GROUP_COLUMNS or runs[-1][0] != T and 2 * width >= GROUP_COLUMNS
            ):
                groups.append(runs)
                runs, width = [], 0
            n = min(max(1, (GROUP_COLUMNS - width) // k), hi - omega)
            runs.append((T, k, range(omega, omega + n)))
            width, omega = width + n * k, omega + n
    groups.append(runs)
    return groups


def _workspace(e: int):
    """Flat scratch (x, terms) of a group, two slabs of e values in one
    allocation, which ``_run_group`` sizes to its largest chunk and the
    leading row that carries the states in x and a running sum in terms."""
    buf = np.empty(2 * e)
    return buf[:e], buf[e:]


def _view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The front of a flat scratch buffer as an array of that shape; a buffer
    too small for it raises ValueError rather than being silently regrown."""
    return buf[: math.prod(shape)].reshape(shape)


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, split as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, n: int):
    """The xor and multiply constants of n successive SeedSequence hash
    steps, as two (n, 1) uint32 arrays."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, np.uint32)[:, None]
    return h[:-1], h[1:]


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> 16


@functools.cache
def _fixed_seed_sequence():
    """An ISeedSequence that hands PCG64 the state words it was built with.

    Built on first use, so that importing the package leaves numpy.random
    unloaded.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeedSequence


def _replication_rngs(seed: int, T: int, omegas) -> list:
    """``default_rng([seed, 1, T, omega])`` for each omega, in one pass.

    SeedSequence hashes the 32-bit words of its entropy with uint32
    arithmetic whose constants do not depend on the data, so that hash runs
    here once over all omegas, each a single word, and yields every
    stream's ``generate_state(4, uint64)``.  PCG64 seeds itself from those
    words exactly as from a SeedSequence, so the states are the same.
    """
    omegas = list(omegas)
    if omegas and not 0 <= min(omegas) <= max(omegas) < 2**32:
        raise ValueError("replication numbers must lie in [0, 2**32)")
    key = [*_words(seed), 1, *_words(T)]
    words = np.empty((len(key) + 1, len(omegas)), np.uint32)
    words[:-1] = np.array(key, np.uint32)[:, None]
    words[-1] = omegas
    # SeedSequence.mix_entropy into a pool of 4 words: hash in the first 4,
    # mix each pool word into the other 3, then hash and mix in the rest
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * len(words))

    def hashmix(v, i, n):
        v = (v ^ xor[i : i + n]) * mul[i : i + n]
        return v ^ v >> 16

    pool = hashmix(words[:4], 0, 4)
    i = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], i, 3))
        i += 3
    for word in words[4:]:
        pool = _mix(pool, hashmix(word, i, 4))
        i += 4
    # SeedSequence.generate_state(4, uint64): 8 words cycled from the pool
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (np.concatenate([pool, pool]) ^ xor) * mul
    state ^= state >> 16
    states = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    seq = _fixed_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seq(row))) for row in states]


def _coefficients(spec, k, rngs, fixed_real):
    """C, rho and sigma2 of the columns of the replications with streams
    ``rngs``, k per replication: drawn from each stream in turn (redraw
    mode), or the shared realization's first k repeated."""
    m = len(rngs)
    if fixed_real is None:
        C = eigenvalues(spec.law, k)
        rho = draw_rho(*prior_shapes(k), rngs)
        return np.tile(C, m), rho.ravel(), innovation_variance(C, rho).ravel()
    return tuple(np.tile(v[:k], m) for v in (fixed_real.C, fixed_real.rho, fixed_real.sigma2))


def _run_group(spec, runs, seed, fixed_real):
    """The sums, true coefficients and last states by T of ``runs``, the
    replications of one kernel group, which ``_merge`` judges: each seeds
    its own stream and realizes its coefficients (unless they are shared),
    and ``fold_runs`` simulates and folds their columns together."""
    rngs = [_replication_rngs(seed, T, omegas) for T, _, omegas in runs]
    C, rho, sigma2 = (
        np.concatenate(v)
        for v in zip(*(_coefficients(spec, k, r, fixed_real) for (_, k, _), r in zip(runs, rngs)))
    )
    return fold_runs(runs, rngs, np.sqrt(C), rho, np.sqrt(sigma2))


def fold_runs(runs, rngs, sd0, rho, sd):
    """Simulate AR(1) columns, stationary from initial scale ``sd0`` with
    coefficients ``rho`` and innovation scales ``sd``, into their lag sums.

    A run (T, k, omegas) is T transitions of k columns of each of its streams,
    ``rngs[i]``; the runs come longest T first, one per T.  Each stream draws
    its normals chunk by chunk, in the order ``simulate`` draws them.  The
    rows run in segments, each ending at a run's T, where that run's columns,
    the last ones, drop out; the columns still running are laid out again at
    the front of the scratch, in chunks of as many rows as fill CHUNK_ELEMENTS
    alpha and beta terms, or a half-full group's where fewer columns run, but
    no more than the segment's T.  Every array the size of a row chunk is a
    view into the two slabs of ``_workspace``, each the group's largest chunk
    and its leading row.  ``fold_lag_terms`` folds each chunk's alpha terms,
    then its beta terms, onto their running sums through the terms slab.  A
    non-finite state leaves a non-finite sum, which ``column_faults`` codes
    NON_FINITE.

    Returns, by T, the alpha and beta sums, rho and last states of the run's
    streams, each (len(omegas), k): views allocated before the scratch and
    not written once the run ends.
    """
    edges = np.cumsum([0] + [len(omegas) * k for _, k, omegas in runs]).tolist()
    # the chunk rows of the segment ending at each run's T: one under half of
    # GROUP_COLUMNS wide takes a half-full one's; a cap at T moves no boundary
    chunk_rows = [max(1, min(T, CHUNK_ELEMENTS // max(2 * ca, GROUP_COLUMNS)))
                  for (T, _, _), ca in zip(runs, edges[1:])]
    # what the group returns is allocated before its scratch, so nothing it
    # keeps lies past the scratch, whose memory the next group reuses whole
    sums, last = np.zeros((2, edges[-1])), np.empty(edges[-1])
    x_part, terms_part = _workspace(max((r + 1) * ca for r, ca in zip(chunk_rows, edges[1:])))
    done = 0
    out = {}
    for end in range(len(runs), 0, -1):
        T, k, omegas = runs[end - 1]
        ca, rows = edges[end], chunk_rows[end - 1]
        # row 0 carries the states on: the front of the same buffer, which
        # _view never regrows (it raises)
        x = _view(x_part, (rows + 1, ca))
        while done < T:
            n = min(rows, T - done)
            # the normals go through the terms slab, free until the terms
            # of this chunk fill it; the first chunk takes row 0
            lead = int(done == 0)
            z = _view(terms_part, ((n + lead) * ca,))
            for (_, kr, o), r, a, b in zip(runs, rngs, edges, edges[1 : end + 1]):
                zr = z[(n + lead) * a : (n + lead) * b].reshape(len(o), n + lead, kr)
                for row, rng in zip(zr, r):
                    rng.standard_normal(out=row)
                x[1 - lead : n + 1, a:b].reshape(n + lead, len(o), kr)[...] = zr.transpose(1, 0, 2)
            if lead:
                x[0] *= sd0
            x[1 : n + 1] *= sd[:ca]
            ar1_steps(x[: n + 1], rho[:ca])
            # the terms go through the slab once the normals are out of it
            fold_lag_terms(x[: n + 1], sums[:, :ca], _view(terms_part, (n + 1, ca)))
            x[0] = x[n]
            done += n

        # the run ends here: its last states leave the scratch before they go
        m, cols = len(omegas), slice(edges[end - 1], ca)
        last[cols] = x[0, cols]
        out[T] = tuple(v[cols].reshape(m, k) for v in (*sums, rho, last))
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on, which taskset or a cpuset can make
    fewer than the host's: the ``auto`` worker count and the pool's cap."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class Records:
    """One T's replications as ``collect`` keeps them: its (kT,) eigenvalues C,
    the kept ones' alpha and beta sums, truths and last states, each (m, kT) in
    replication order, and the dropped ones' numbers by fault name.  Both
    estimates are derived from them: alpha / beta and its ``minus_root``."""

    T: int
    kT: int
    C: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    truth: np.ndarray
    last: np.ndarray
    dropped: dict[str, list[int]]

    @property
    def est_c(self) -> np.ndarray:
        return self.alpha / self.beta

    @property
    def est_b(self) -> np.ndarray:
        sigma2 = innovation_variance(self.C, self.truth)
        return minus_root(self.alpha, self.beta, sigma2, *prior_shapes(self.kT))


def _merge(groups, levels, law) -> list[Records]:
    """Per T of levels, ``Records`` from the plan's ``_run_group`` outputs:
    stacked in replication order, popped as stacked, and judged in one call
    with sigma2 recomputed from the truths and ``law``'s eigenvalues; each
    fault ranked, the faulty dropped; the rest keep their sums, not estimates."""
    merged = []
    for T, k_T in levels:
        # the groups run on from replication 1: row j is replication j + 1's
        alpha, beta, *kept = map(np.concatenate, zip(*(g.pop(T) for g in groups if T in g)))
        C = eigenvalues(law, k_T)
        sigma2 = innovation_variance(C, kept[0])
        fault = column_faults(alpha, beta, sigma2, *prior_shapes(k_T))
        reason = fault[np.arange(len(fault)), deciding_component(fault)]
        dropped = {name: bad for code, name in FAULT_NAMES.items()
                   if (bad := (np.flatnonzero(reason == code) + 1).tolist())}
        keep = reason == 0 if reason.any() else slice(None)  # a slice copies nothing
        merged.append(Records(T, k_T, C, *(r[keep] for r in (alpha, beta, *kept)), dropped))
    return merged


def collect(config: ExperimentConfig, workers: int | None = None):
    """Run the Monte Carlo study: its shared realization (None in redraw
    mode) and one ``Records`` per T, in grid order, the same for any count
    of ``workers``, an int >= 1 (None or 1 runs inline).  Every T's drops
    are logged before the one verdict on them."""
    if workers is None:
        workers = 1
    elif not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    spec = config.spec

    fixed_real = None
    if spec.rho_mode == "fixed":
        fixed_real = realize(spec, np.random.default_rng([config.seed, 2]))
    elif spec.rho_mode == "explicit":
        fixed_real = realize(spec)

    levels = tuple((T, truncation_order(T, config.kT_rule)) for T in config.T_grid)
    blocks = _partition(config.N, workers)
    plan = [g for lo, hi in blocks for g in _plan(levels, lo, hi)]
    run = functools.partial(_run_group, spec, seed=config.seed, fixed_real=fixed_real)
    if len(blocks) == 1:
        groups = list(map(run, plan))
    else:
        # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # one task a group, in plan order: a worker that is done takes the
        # next, and the last block's short T come last, so the tail is short
        with ProcessPoolExecutor(max_workers=min(len(blocks), usable_cpus())) as pool:
            groups = list(pool.map(run, plan))

    records = _merge(groups, levels, spec.law)
    aborted = 0
    for r in records:
        for name, bad in r.dropped.items():
            aborted += len(bad)
            logger.warning(f"T=%d: aborted %d {name} replications: %s", r.T, len(bad), bad)
    # a T that kept nothing fails the run even on a grid long enough to
    # hold its N drops under the threshold
    total = len(levels) * config.N
    if aborted > ABORT_THRESHOLD * total or not all(len(r.beta) for r in records):
        raise AbortedReplicationsError(aborted, total)
    return fixed_real, records


def build_reports(config: ExperimentConfig, fixed_real, records) -> list[EfmseReport]:
    """One report per (T, estimator), classical first, in the order of
    ``records``: each T's EFMSEs over its kept replications, beside the
    limits of ``fixed_real``, or of the prior where it is None."""
    spec, reports = config.spec, []
    for r in records:
        if fixed_real is None:
            limits = (prior_param_limit(spec.prior, r.kT),
                      prior_pred_limit(spec.law, spec.prior, r.kT))
        else:
            limits = theory_param_limit(fixed_real, r.kT), theory_pred_limit(fixed_real, r.kT)
        for name, est in (("classical", r.est_c), ("bayes", r.est_b)):
            inp = EfmseInput(estimates=est, truth=r.truth, last_coeffs=r.last)
            ep = efmse_param(inp)
            reports.append(EfmseReport(
                example=config.label, T=r.T, N=inp.N, kT=r.kT, estimator=name,
                efmse_param=ep, efmse_pred=efmse_pred(inp), t_efmse_param=r.T * ep,
                theory_param_limit=limits[0], theory_pred_limit=limits[1],
                ref_one_over_T=1.0 / r.T,
            ))
    return reports


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[EfmseReport]:
    """Run the full Monte Carlo study and return one report per (T, estimator):
    ``build_reports`` on what ``collect`` returns, with its arguments."""
    return build_reports(config, *collect(config, workers))


def _csv_text(header: str, rows) -> str:
    """A CSV table under its header line.  A float cell is the repr of a
    builtin float, the shortest digits that round-trip, so emitted tables
    are exactly reproducible and diffable."""
    lines = (",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
             for row in rows)
    return "\n".join((header, *lines)) + "\n"


def _json_text(obj) -> str:
    """Strict JSON (a non-finite number raises ValueError), indented."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def emit_reports(reports, formats, output_dir) -> list[Path]:
    """Write efmse.csv / efmse.json plus the two plot tables; returns paths.

    ``formats`` follows ExperimentConfig's rule.  Every table is serialized
    before any file is written, so bad formats or a bad report (such as a
    non-finite value bound for strict JSON) leave no output.
    """
    formats = _check_formats(formats)
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to emit")
    texts = {}
    if "csv" in formats:
        texts["efmse.csv"] = _csv_text(CSV_HEADER, map(dataclasses.astuple, reports))
    if "json" in formats:
        texts["efmse.json"] = _json_text([dataclasses.asdict(r) for r in reports])

    by_T: dict[int, dict[str, EfmseReport]] = {}
    for r in reports:
        by_T.setdefault(r.T, {})[r.estimator] = r
    for T, pair in by_T.items():
        if not {"classical", "bayes"} <= pair.keys():
            raise ValueError(f"T={T} lacks one of the two estimator reports")
    for fname, field in (("plot_param.csv", "efmse_param"), ("plot_pred.csv", "efmse_pred")):
        rows = [(T, getattr(pair["classical"], field), getattr(pair["bayes"], field), 1.0 / T)
                for T, pair in by_T.items()]
        texts[fname] = _csv_text("T,classical,bayes,one_over_T", rows)
    return [_write_text(Path(output_dir) / name, text) for name, text in texts.items()]


def _write_text(path: Path, text: str) -> Path:
    """Write text to path atomically: to a temporary file beside it, then
    renamed over it, so a failed write leaves any earlier file whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _positivity(key, example, T, N):
    # T is range-checked by truncation_order and positivity_diagnostic
    if N < 1:
        raise ValueError(f"positivity diagnostic needs N >= 1, got {N}")
    spec, _ = example_model(example, T)
    per_component = np.zeros(spec.k_max)
    all_hold = 0
    for i in range(1, N + 1):
        rng = np.random.default_rng([*key, i])
        real = realize(spec, rng)
        holds = positivity_diagnostic(simulate(real, T, rng), real.rho) >= 0.0
        per_component += holds
        all_hold += bool(holds.all())
    fractions = (per_component / N).tolist()
    return {"satisfied_fraction": all_hold / N, "component_fractions": fractions}, {}, None


# kind -> (stream code, parameter defaults, runner).  A default's type is
# its parameter's type; a runner takes the stream key and the parameters and
# returns (outputs, targets, pass), pass None where the check is informational.
DIAGNOSTICS = {
    "bartlett": (1, {"rho": 0.6, "sigma2": 1.0, "T": 4000, "N": 4000}, bartlett_check),
    "normality": (2, {"rho": 0.5, "T": 3000, "N": 2000}, normality_check),
    "ergodic": (3, {"rho": 0.9, "C": 1.0, "n": 200_000}, ergodic_check),
    "positivity": (4, {"example": 1, "T": 500, "N": 100}, _positivity),
}


def run_diagnostics(kind: str, params: dict | None, seed: int, output_dir) -> Path:
    """Run one statistical self-check and write diag_<kind>.json.

    Parameters not given take the kind's defaults; each must have its
    default's type (int, or any real number for a float).  The check runs
    on its own ``[seed, 3, stream]`` stream, and the record holds inputs,
    outputs, targets and the pass verdict (None where informational).
    """
    if kind not in DIAGNOSTICS:
        raise ValueError(f"diagnostic kind must be one of {tuple(DIAGNOSTICS)}, got {kind!r}")
    stream, defaults, runner = DIAGNOSTICS[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {kind} parameters: {', '.join(unknown)} "
                         f"(accepted: {', '.join(sorted(defaults))})")
    inputs = {}
    for name, default in defaults.items():
        value, typ = params.get(name, default), type(default)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (_is_int(value) if typ is int else real):
            raise ValueError(f"{kind} parameter {name} must be {typ.__name__}, got {value!r}")
        try:
            inputs[name] = typ(value)
        except OverflowError:
            raise ValueError(f"{kind} parameter {name} is beyond float range: {value!r}") from None
    seed = _check_seed(seed)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outputs, targets, verdict = runner([seed, 3, stream], **inputs)
    except ArithmeticError as exc:
        raise ValueError(f"{kind} diagnostic is not computable at {inputs}: {exc}") from exc
    record = {"kind": kind, "seed": seed, "inputs": inputs, "outputs": outputs,
              "targets": targets, "pass": verdict}
    return _write_text(Path(output_dir) / f"diag_{kind}.json", _json_text(record))
