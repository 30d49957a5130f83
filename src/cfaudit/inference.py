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

import decimal
from dataclasses import dataclass
from decimal import Decimal
from statistics import NormalDist

import numpy as np

from .config import check_level
from .dataset import AuditDataset, ExternalDataset
from .pipeline import PipelineConfig, map_tasks, run_cells, run_pipeline


@dataclass
class BootstrapResult:
    point: float | None
    replicates: np.ndarray  # (B,) with NaN marking NA replicates
    se: float | None = None
    lower: float | None = None
    upper: float | None = None
    # whether the interval was cut at 0 or at 1; None without an interval
    truncated_low: bool | None = None
    truncated_high: bool | None = None

    @property
    def B(self) -> int:
        return len(self.replicates)

    @property
    def na_count(self) -> int:
        return int(np.count_nonzero(np.isnan(self.replicates)))


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
    values, _ = run_cells(resampled, external, config, pipeline_seed, keys)
    return values


# Working precision of the t-quantile solve, in decimal digits, and the
# relative Newton step at which it stops. A 50-digit P(|T| <= t) moves the
# root by at most ~1e-34 relative even where P(|T| > t) is 2^-52, so the
# stop sits above that noise and far below half a float ulp (1.1e-16).
T_DIGITS = 50
T_STEP_TOL = Decimal("1e-30")


def _atan(y: Decimal) -> Decimal:
    """atan(y) for y >= 0 in the current decimal context: halve the angle,
    atan(y) = 2 atan(y / (1 + sqrt(1 + y^2))), until y <= 0.05, then sum
    the Taylor series."""
    halvings = 0
    while y > Decimal("0.05"):
        y /= 1 + (1 + y * y).sqrt()
        halvings += 1
    y2, term, total, k = y * y, y, y, 1
    while True:
        term *= -y2
        k += 2
        new = total + term / k
        if new == total:
            return total * 2 ** halvings
        total = new


def _t_start(nu: int, q: float) -> float:
    """A positive float start for the t_nu quantile at q in (1/2, 1): the
    normal quantile z plus the first Cornish-Fisher term (z^3 + z) / (4 nu),
    Abramowitz & Stegun 26.7.5."""
    z = NormalDist().inv_cdf(q)
    return z + (z * z + 1.0) * z / (4.0 * nu)


def _t_multiplier(B: int, level: float) -> float:
    """t_{B-1} quantile at q = 1 - (1 - level) / 2, correctly rounded.

    With nu = B - 1 and x = nu / (nu + t^2), P(|T| <= t) is the finite
    series of Abramowitz & Stegun 26.7.3 (odd nu, with atan(t / sqrt(nu)))
    or 26.7.4 (even nu) in powers of x. Its slope in t is
    c x^((nu+1)/2), with c = (nu - 1) / sqrt(nu) times the last series
    coefficient (times 2/pi for odd nu; 2/pi for nu = 1). Newton steps on
    P(|T| <= t) = 2q - 1 in T_DIGITS-digit decimal arithmetic start from
    _t_start; a step that leaves the bracket of points seen on either side
    of the root is replaced by bisection. The root is rounded to a float
    once. Levels that check_level rejects raise ValueError.
    """
    nu = B - 1
    q = check_level(level)
    with decimal.localcontext() as ctx:
        ctx.prec = T_DIGITS
        p = 2 * Decimal(q) - 1
        odd = nu % 2
        # term ratios of the series: (2j-1)/(2j) for even nu, 2j/(2j+1) for odd
        ratios = [Decimal(2 * j + odd - 1) / (2 * j + odd) for j in range(1, (nu - 2) // 2 + 1)]
        root_nu = Decimal(nu).sqrt()
        slope = max(nu - 1, 1) / root_nu  # c, built up below
        for r in ratios:
            slope *= r
        if odd:
            two_over_pi = 1 / (2 * _atan(Decimal(1)))
            slope *= two_over_pi
        lo, hi = Decimal(0), Decimal("Infinity")
        t = Decimal(_t_start(nu, q))
        while True:
            d = nu + t * t
            x = nu / d
            series = Decimal(1)
            for r in reversed(ratios):
                series = 1 + series * x * r
            if odd:
                cdf = two_over_pi * (_atan(t / root_nu) + (t * root_nu / d * series if nu > 1 else 0))
            else:
                cdf = t / d.sqrt() * series
            gap = cdf - p
            if gap < 0:
                lo = t
            else:
                hi = t
            new = t - gap / (slope * x ** (Decimal(nu + 1) / 2))
            if abs(new - t) <= T_STEP_TOL * t:
                return float(new)
            t = new if lo < new < hi else (lo + hi) / 2


def bootstrap_estimates(internal: AuditDataset, external: ExternalDataset | None,
                        config: PipelineConfig, B: int, seed: int,
                        level: float = 0.95, n_jobs: int = 1,
                        ) -> dict[tuple[int | None, str, str], BootstrapResult]:
    """Bootstrap every cell of the estimate report.

    Returns a map (group code or None, metric, method) -> BootstrapResult, in
    report order. A replicate whose report has other cells raises. The
    interval is point +/- t_{B-1, 1-(1-level)/2} * se, truncated to [0, 1];
    it and the standard error are absent (None) when the point estimate is
    undefined or fewer than two replicates are defined.
    """
    if B < 2:
        raise ValueError("B must be at least 2")
    check_level(level)
    point_run = run_pipeline(internal, external, config, seed)
    keys = point_run.report.keys()

    root = np.random.SeedSequence(seed)
    children = root.spawn(B)  # SeedSequence pickles, so tasks work across processes
    tasks = [(internal, external, config, child, keys) for child in children]
    matrix = np.vstack(map_tasks(_replicate_values, tasks, n_jobs))  # (B, cells)

    t_mult = _t_multiplier(B, level)
    out = {}
    for j, (key, entry) in enumerate(zip(keys, point_run.report.entries)):
        reps = matrix[:, j]
        good = reps[~np.isnan(reps)]
        point = entry.value
        if point is None or len(good) < 2:  # no standard error to give
            out[key] = BootstrapResult(point=point, replicates=reps)
            continue
        se = float(np.std(good, ddof=1))
        raw_lo = point - t_mult * se
        raw_hi = point + t_mult * se
        out[key] = BootstrapResult(
            point=point, replicates=reps, se=se,
            lower=max(raw_lo, 0.0), upper=min(raw_hi, 1.0),
            truncated_low=raw_lo < 0.0, truncated_high=raw_hi > 1.0,
        )
    return out
