"""Bootstrap confidence intervals for the error-rate estimates.

Nonparametric bootstrap stratified by protected group: every replicate keeps
each group's row count, re-fits all nuisance models and the borrowing weight,
and re-computes every estimate. Intervals are t-intervals around the
full-sample point estimate, truncated to [0, 1]. Replicates where a cell is
inestimable, or whose model fits fail (ModelError, LinAlgError), are
recorded as NA and excluded from the standard error; any other exception is
a bug and propagates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import AuditDataset, ExternalDataset
from .models import ModelError
from .pipeline import PipelineConfig, run_pipeline


@dataclass
class BootstrapResult:
    point: float | None
    replicates: np.ndarray  # (B,) with NaN marking NA replicates
    se: float | None
    lower: float | None
    upper: float | None
    B: int
    na_count: int
    level: float
    seed: int
    truncated_low: bool = False
    truncated_high: bool = False

    @property
    def all_na(self) -> bool:
        return self.na_count == self.B


def stratified_resample(ds: AuditDataset, rng) -> AuditDataset:
    """Resample rows with replacement within each group; per-group counts are
    preserved exactly. Groups are drawn in code order for determinism, each
    from its rows in row order."""
    by_group = np.argsort(ds.group_codes, kind="stable")
    sizes = np.bincount(ds.group_codes, minlength=ds.schema.n_groups)
    chosen = [rows[rng.integers(0, len(rows), size=len(rows))]
              for rows in np.split(by_group, np.cumsum(sizes)[:-1]) if len(rows)]
    return ds.take(np.concatenate(chosen))


def _replicate_values(args):
    """One replicate's value per cell of keys, the point run's cells."""
    internal, external, config, child_seq, keys = args
    rng = np.random.default_rng(child_seq)
    resampled = stratified_resample(internal, rng)
    pipeline_seed = int(rng.integers(0, 2**31 - 1))
    try:
        result = run_pipeline(resampled, external, config, pipeline_seed)
    except (ModelError, np.linalg.LinAlgError):
        return np.full(len(keys), np.nan)  # whole replicate inestimable
    return result.report.values(keys)


def _t_multiplier(B: int, level: float) -> float:
    """t_{B-1} quantile at 1 - (1 - level) / 2, the same bits as scipy.stats.t.ppf."""
    from scipy.special import stdtrit  # imported here so audits without intervals skip it

    return float(stdtrit(B - 1, 1.0 - (1.0 - level) / 2.0))


def bootstrap_estimates(internal: AuditDataset, external: ExternalDataset | None,
                        config: PipelineConfig, B: int, seed: int,
                        level: float = 0.95, n_jobs: int = 1,
                        ) -> dict[tuple[int | None, str, str], BootstrapResult]:
    """Bootstrap every cell of the estimate report.

    Returns a map (group code or None, metric, method) -> BootstrapResult, in
    report order. A replicate whose report has other cells raises. The
    interval is point +/- t_{B-1, 1-(1-level)/2} * se, truncated to [0, 1];
    it is absent (None bounds) when the point estimate is undefined or every
    replicate came back NA.
    """
    if B < 2:
        raise ValueError("B must be at least 2")
    point_run = run_pipeline(internal, external, config, seed)
    keys = point_run.report.keys()

    root = np.random.SeedSequence(seed)
    children = root.spawn(B)  # SeedSequence pickles, so tasks work across processes
    tasks = [(internal, external, config, child, keys) for child in children]

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            replicate_rows = list(pool.map(_replicate_values, tasks))
    else:
        replicate_rows = [_replicate_values(task) for task in tasks]
    matrix = np.vstack(replicate_rows)  # (B, cells)

    t_mult = _t_multiplier(B, level)
    out = {}
    for j, (key, entry) in enumerate(zip(keys, point_run.report.entries)):
        reps = matrix[:, j]
        na_count = int(np.sum(np.isnan(reps)))
        point = entry.value if entry.defined else None
        if point is None or na_count == B:
            out[key] = BootstrapResult(point=point, replicates=reps, se=None,
                                       lower=None, upper=None, B=B,
                                       na_count=na_count, level=level, seed=seed)
            continue
        good = reps[~np.isnan(reps)]
        se = float(np.std(good, ddof=1)) if len(good) > 1 else 0.0
        raw_lo = point - t_mult * se
        raw_hi = point + t_mult * se
        lower = max(raw_lo, 0.0)
        upper = min(raw_hi, 1.0)
        out[key] = BootstrapResult(
            point=point, replicates=reps, se=se, lower=lower, upper=upper,
            B=B, na_count=na_count, level=level, seed=seed,
            truncated_low=raw_lo < 0.0, truncated_high=raw_hi > 1.0,
        )
    return out
