"""Counterfactual error-rate estimators.

Two estimation routes for group error rates of a binary predictor measured
against the untreated outcome:

* comparison: inverse-probability-of-no-treatment weighted ratios computed
  inside each group's confusion cell;
* proposed: the overall weighted rate multiplied by a group-membership
  ratio built from outcome regressions among untreated rows and a
  group-membership model, which stays computable for groups too small for
  the cell-restricted route.

An estimate whose denominator is empty has no value instead of raising, so
replication sweeps can count inestimable cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import AuditDataset

# The one definition of each metric: its error cell (flagged, outcome), so
# that a group's rate is P(S = flagged | Y0 = outcome, A = a). Cells are
# listed in this order everywhere.
METRICS = {"cFPR": (1, 0), "cFNR": (0, 1)}
METHODS = ("comparison", "proposed-internal", "proposed-borrowing")

# weighted sums below this are treated as exactly zero
SUM_FLOOR = 1e-300


@dataclass
class NuisanceEstimates:
    """Per-row nuisance predictions aligned with a dataset.

    Column j of group_prob is group code j of the schema; rows sum to one.
    """

    propensity: np.ndarray  # P(D=1 | A, X, S) per row
    mu0_s1: np.ndarray  # P(Y=1 | D=0, S=1, X) per row
    mu0_s0: np.ndarray  # P(Y=1 | D=0, S=0, X) per row
    mu0_all: np.ndarray  # P(Y=1 | D=0, X) per row
    group_prob: np.ndarray  # (n, K) P(A=a | X)

    def __post_init__(self):
        n = len(self.propensity)
        for name in ("mu0_s1", "mu0_s0", "mu0_all"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from propensity")
        if self.group_prob.ndim != 2 or len(self.group_prob) != n:
            raise ValueError("group_prob needs one row per propensity")
        for name in ("propensity", "mu0_s1", "mu0_s0", "mu0_all"):
            col = getattr(self, name)
            if np.any(col < 0.0) or np.any(col > 1.0):
                raise ValueError(f"{name} outside [0, 1]")
        row_sums = self.group_prob.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ValueError("group_prob rows must sum to 1")


@dataclass
class ErrorRateEstimate:
    metric: str  # a key of METRICS
    method: str
    group: int | None  # group code; None = overall
    value: float | None  # clipped to [0, 1]; None when undefined
    raw_value: float | None = None  # unclipped, for diagnostics

    @property
    def defined(self) -> bool:
        return self.value is not None

    @property
    def clipped(self) -> bool:
        return self.value != self.raw_value


def _undefined(metric, method, group) -> ErrorRateEstimate:
    return ErrorRateEstimate(metric=metric, method=method, group=group, value=None)


def _cell(metric: str) -> tuple[int, int]:
    """The (flagged, outcome) cell of a metric in METRICS."""
    try:
        return METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric: {metric!r}") from None


def comparison_rate(ds: AuditDataset, propensity, group: int | None, metric: str,
                    method: str = "comparison") -> ErrorRateEstimate:
    """Inverse-probability-weighted rate of one group, or overall for None.

    Untreated rows with the metric's outcome, weighted by
    1 / (1 - propensity) and restricted to the group: the weighted share of
    them whose prediction is the metric's flag. Undefined (not an error)
    when they carry no weight.
    """
    flagged, outcome = _cell(metric)
    in_denom = (ds.d == 0) & (ds.y == outcome)
    if group is not None:
        in_denom &= ds.group_codes == group
    denom = in_denom * (1.0 / (1.0 - np.asarray(propensity, dtype=np.float64)))
    num = float(np.sum(denom * (ds.s == flagged)))
    den = float(np.sum(denom))
    if den < SUM_FLOOR:
        return _undefined(metric, method, group)
    value = num / den
    return ErrorRateEstimate(metric=metric, method=method, group=group,
                             value=value, raw_value=value)


def membership_ratio(ds: AuditDataset, nuis: NuisanceEstimates, group: int,
                     metric: str) -> float:
    """Plug-in estimate of the group-membership probability ratio.

    The numerator conditions on the metric's prediction stratum via the
    stratified untreated outcome regression and the group indicator; the
    denominator uses the unstratified regression and the group-membership
    model. The regressions model Y = 1, so a metric whose outcome is 0 takes
    their complements. Returns NaN when a required sum is zero.
    """
    if nuis.group_prob.shape[1] != ds.schema.n_groups:
        raise ValueError(f"group_prob has {nuis.group_prob.shape[1]} columns; the schema "
                         f"has {ds.schema.n_groups} groups")
    flagged, outcome = _cell(metric)
    mu_strat, mu_all = (nuis.mu0_s1 if flagged else nuis.mu0_s0), nuis.mu0_all
    if not outcome:
        mu_strat, mu_all = 1.0 - mu_strat, 1.0 - mu_all
    in_group = (ds.group_codes == group).astype(np.float64)
    in_stratum = (ds.s == flagged).astype(np.float64)
    h_col = nuis.group_prob[:, group]

    num_top = float(np.sum(mu_strat * in_group * in_stratum))
    num_bot = float(np.sum(mu_strat * in_stratum))
    den_top = float(np.sum(mu_all * h_col))
    den_bot = float(np.sum(mu_all))
    if num_bot < SUM_FLOOR or den_bot < SUM_FLOOR:
        return np.nan
    den = den_top / den_bot
    if den < SUM_FLOOR:
        return np.nan
    return (num_top / num_bot) / den


def proposed_rate(ds: AuditDataset, nuis: NuisanceEstimates,
                  overall: ErrorRateEstimate, group: int,
                  method: str = "proposed-internal") -> ErrorRateEstimate:
    """Proposed group estimator: overall rate times the membership ratio.

    The raw product can leave [0, 1]; the reported value is clipped to it,
    and the raw product is kept for diagnostics. A group with no rows has no
    estimate: only the clamp of its membership probability would keep the
    ratio's denominator above zero.
    """
    metric = overall.metric
    if not overall.defined or not np.any(ds.group_codes == group):
        return _undefined(metric, method, group)
    if overall.value == 0.0:
        # multiplicative form: a zero overall rate pins every group at zero
        return ErrorRateEstimate(metric=metric, method=method, group=group,
                                 value=0.0, raw_value=0.0)
    ratio = membership_ratio(ds, nuis, group, metric)
    if np.isnan(ratio):
        return _undefined(metric, method, group)
    raw = overall.value * ratio
    value = min(max(raw, 0.0), 1.0)
    return ErrorRateEstimate(metric=metric, method=method, group=group,
                             value=value, raw_value=raw)


def report_keys(n_groups: int, methods) -> list[tuple[int | None, str, str]]:
    """The report's cells in order: (group code or None, metric, method) for
    each method, then each metric, the overall rate first, then group codes
    0..n_groups-1."""
    return [(group, metric, method) for method in methods for metric in METRICS
            for group in (None, *range(n_groups))]


def group_label(group: int | None, labels) -> str:
    """A cell's group as written: "overall", or the label of its code."""
    return "overall" if group is None else labels[group]


@dataclass
class ErrorRateReport:
    entries: list[ErrorRateEstimate] = field(default_factory=list)

    def keys(self) -> list[tuple[int | None, str, str]]:
        return [(e.group, e.metric, e.method) for e in self.entries]

    def values(self, keys=None) -> np.ndarray:
        """Each entry's value in order, NaN where undefined. Given keys, the
        cells the caller expects, raises unless the report has exactly those."""
        if keys is not None and self.keys() != keys:
            raise RuntimeError("the report's cells differ from the expected cells")
        return np.array([e.value if e.defined else np.nan for e in self.entries])

    def to_json_rows(self, labels) -> list[dict]:
        """One row per entry, naming group code c by labels[c]."""
        return [
            {
                "group": group_label(e.group, labels),
                "metric": e.metric,
                "method": e.method,
                "value": e.value,
                "raw_value": e.raw_value,
                "defined": e.defined,
                "clipped": e.clipped,
            }
            for e in self.entries
        ]


def estimate_all(ds: AuditDataset, nuis: NuisanceEstimates,
                 methods=METHODS, borrowed_group_prob: np.ndarray | None = None,
                 ) -> ErrorRateReport:
    """Full report: one estimate per cell of report_keys(n_groups, methods),
    in that order. Component failures become undefined entries; the report
    itself always completes.

    borrowed_group_prob supplies the blended group-membership matrix used by
    the "proposed-borrowing" method, which needs it.
    """
    by_method = {method: nuis for method in methods}
    if "proposed-borrowing" in by_method:
        if borrowed_group_prob is None:
            raise ValueError("proposed-borrowing needs borrowed_group_prob")
        by_method["proposed-borrowing"] = replace(nuis, group_prob=borrowed_group_prob)
    report = ErrorRateReport()
    for group, metric, method in report_keys(ds.schema.n_groups, methods):
        nuis_m = by_method[method]
        if group is None:
            estimate = overall = comparison_rate(ds, nuis_m.propensity, None, metric, method)
        elif method == "comparison":
            estimate = comparison_rate(ds, nuis_m.propensity, group, metric)
        else:
            estimate = proposed_rate(ds, nuis_m, overall, group, method=method)
        report.entries.append(estimate)
    return report
