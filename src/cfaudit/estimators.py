"""Counterfactual error-rate estimators.

Two estimation routes for group error rates of a binary predictor measured
against the untreated outcome:

* comparison: inverse-probability-of-no-treatment weighted ratios computed
  inside each group's confusion cell;
* proposed: the overall weighted rate multiplied by a group-membership
  ratio built from outcome regressions among untreated rows and a
  group-membership model, which stays computable for groups too small for
  the cell-restricted route.

Estimates carry a ``defined`` flag instead of raising when a denominator
is empty, so replication sweeps can count inestimable cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import AuditDataset

METRICS = ("cFPR", "cFNR")
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

    def with_group_prob(self, group_prob: np.ndarray) -> "NuisanceEstimates":
        return replace(self, group_prob=group_prob)


@dataclass
class ErrorRateEstimate:
    metric: str  # "cFPR" | "cFNR"
    method: str
    group: int | None  # group code; None = overall
    value: float | None  # clipped to [0, 1]; None when undefined
    raw_value: float | None = None  # unclipped, for diagnostics
    defined: bool = True
    clipped: bool = False


def _undefined(metric, method, group) -> ErrorRateEstimate:
    return ErrorRateEstimate(metric=metric, method=method, group=group,
                             value=None, raw_value=None, defined=False)


def _weighted_ratio(numer_ind, denom_ind, weights) -> tuple[float, bool]:
    num = float(np.sum(numer_ind * weights))
    den = float(np.sum(denom_ind * weights))
    if den < SUM_FLOOR:
        return np.nan, False
    return num / den, True


def _cell_indicators(ds: AuditDataset, metric: str):
    untreated = (ds.d == 0).astype(np.float64)
    if metric == "cFPR":
        numer = untreated * ds.s * (1 - ds.y)
        denom = untreated * (1 - ds.y)
    elif metric == "cFNR":
        numer = untreated * (1 - ds.s) * ds.y
        denom = untreated * ds.y
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    return numer, denom


def comparison_rate(ds: AuditDataset, propensity, group: int,
                    metric: str) -> ErrorRateEstimate:
    """Cell-restricted weighted estimator for one group.

    Untreated rows in the relevant confusion cells, weighted by
    1 / (1 - propensity), restricted to the group. Undefined (not an error)
    when the group contributes no denominator weight.
    """
    numer, denom = _cell_indicators(ds, metric)
    in_group = (ds.group_codes == group).astype(np.float64)
    weights = 1.0 / (1.0 - np.asarray(propensity, dtype=np.float64))
    value, ok = _weighted_ratio(numer * in_group, denom * in_group, weights)
    if not ok:
        return _undefined(metric, "comparison", group)
    return ErrorRateEstimate(metric=metric, method="comparison", group=group,
                             value=value, raw_value=value)


def overall_rate(ds: AuditDataset, propensity, metric: str,
                 method: str = "comparison") -> ErrorRateEstimate:
    """Overall weighted rate: the group estimator with the indicator removed."""
    numer, denom = _cell_indicators(ds, metric)
    weights = 1.0 / (1.0 - np.asarray(propensity, dtype=np.float64))
    value, ok = _weighted_ratio(numer, denom, weights)
    if not ok:
        return _undefined(metric, method, None)
    return ErrorRateEstimate(metric=metric, method=method, group=None,
                             value=value, raw_value=value)


def membership_ratio(ds: AuditDataset, nuis: NuisanceEstimates, group: int,
                     metric: str) -> float:
    """Plug-in estimate of the group-membership probability ratio.

    The numerator conditions on the prediction stratum via the stratified
    untreated outcome regression and the group indicator; the denominator
    uses the unstratified regression and the group-membership model. For the
    false-positive metric the outcome regressions enter as complements.
    Returns NaN when a required sum is zero.
    """
    if nuis.group_prob.shape[1] != ds.schema.n_groups:
        raise ValueError(f"group_prob has {nuis.group_prob.shape[1]} columns; the schema "
                         f"has {ds.schema.n_groups} groups")
    in_group = (ds.group_codes == group).astype(np.float64)
    h_col = nuis.group_prob[:, group]
    if metric == "cFNR":
        mu_strat = nuis.mu0_s0
        mu_all = nuis.mu0_all
        in_stratum = (1 - ds.s).astype(np.float64)
    elif metric == "cFPR":
        mu_strat = 1.0 - nuis.mu0_s1
        mu_all = 1.0 - nuis.mu0_all
        in_stratum = ds.s.astype(np.float64)
    else:
        raise ValueError(f"unknown metric: {metric!r}")

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

    The raw product can leave [0, 1]; the reported value is clipped with the
    clipped flag recorded and the raw product kept for diagnostics.
    """
    metric = overall.metric
    if not overall.defined:
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
                             value=value, raw_value=raw, clipped=value != raw)


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
        by_method["proposed-borrowing"] = nuis.with_group_prob(borrowed_group_prob)
    report = ErrorRateReport()
    for group, metric, method in report_keys(ds.schema.n_groups, methods):
        nuis_m = by_method[method]
        if group is None:
            estimate = overall = overall_rate(ds, nuis_m.propensity, metric, method=method)
        elif method == "comparison":
            estimate = comparison_rate(ds, nuis_m.propensity, group, metric)
        else:
            estimate = proposed_rate(ds, nuis_m, overall, group, method=method)
        report.entries.append(estimate)
    return report
