"""End-to-end estimation pipeline shared by the CLI, the bootstrap, and the
simulation lab: nuisance fitting (optionally cross-fit), external borrowing,
and the full estimator report; and the replicate runner that the bootstrap
and the simulation lab map over their tasks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .borrowing import BORROW_METRICS, BlendedMembership, grid_intervals, select_alpha
from .config import check_choice
from .dataset import AuditDataset, ExternalDataset
from .estimators import (METHODS, ErrorRateReport, NuisanceEstimates,
                         estimate_all)
from .models import ModelError, NuisanceModels, cross_fit, membership_probs


@dataclass
class PipelineConfig(NuisanceModels):
    """The nuisance models plus the borrowing step's settings."""

    borrow: bool = True
    borrow_metric: str = "brier"
    alpha_grid_step: float = 0.001

    def __post_init__(self):
        super().__post_init__()
        check_choice("borrow_metric", self.borrow_metric, BORROW_METRICS)
        grid_intervals(self.alpha_grid_step)

    def reported_methods(self, external: bool) -> tuple[str, ...]:
        """The methods a run reports: proposed-borrowing only when borrowing
        is on and the run has external data."""
        return tuple(m for m in METHODS
                     if m != "proposed-borrowing" or (external and self.borrow))


@dataclass
class PipelineResult:
    report: ErrorRateReport
    nuisances: NuisanceEstimates
    alpha: float | None  # None when borrowing was not run
    blend: BlendedMembership | None


def _stage_seeds(seed) -> list[int]:
    """The cross-fitting, internal-membership and external-membership seeds
    of a run, derived from its seed."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(3)]


def internal_nuisances(internal: AuditDataset, config: PipelineConfig,
                       seed: int) -> NuisanceEstimates:
    """The cross-fit nuisances of run_pipeline(internal, _, config, seed).
    They read neither the external data nor the borrowing settings, so runs
    that differ only there can fit them once."""
    crossfit_seed, h_int_seed, _ = _stage_seeds(seed)
    return cross_fit(internal, config, seed=crossfit_seed, h_seed=h_int_seed)


def run_pipeline(internal: AuditDataset, external: ExternalDataset | None,
                 config: PipelineConfig, seed: int,
                 nuisances: NuisanceEstimates | None = None) -> PipelineResult:
    """Fit nuisances, optionally select the borrowing weight, and build the
    report. Deterministic given the seed; per-stage seeds are derived from it.
    nuisances, when given, must be internal_nuisances(internal, config, seed)."""
    nuis = nuisances if nuisances is not None else internal_nuisances(internal, config, seed)

    methods = config.reported_methods(external is not None)
    blend = None
    alpha = None
    borrowed = None
    if "proposed-borrowing" in methods:
        if external.n == 0 or np.count_nonzero(np.bincount(internal.group_codes)) < 2:
            # nothing to borrow from, or no second group to score a blend on:
            # the blend degenerates to the internal model
            alpha = 0.0
            borrowed = nuis.group_prob
        else:
            # fitted on the external rows, which carry the shared covariates only
            schema = internal.schema
            h_ext = membership_probs(external.x, external.group_codes,
                                     internal.x[:, schema.shared_index], schema.n_groups,
                                     config.h_external, _stage_seeds(seed)[2])
            blend = select_alpha(h_ext, nuis.group_prob, internal.group_codes,
                                 metric=config.borrow_metric,
                                 grid_step=config.alpha_grid_step)
            alpha = blend.alpha
            borrowed = blend.h_star

    report = estimate_all(internal, nuis, methods=methods,
                          borrowed_group_prob=borrowed)
    return PipelineResult(report=report, nuisances=nuis, alpha=alpha, blend=blend)


# The failures of a model fit that make a replicate NaN; any other exception
# is a bug and propagates.
FIT_ERRORS = (ModelError, np.linalg.LinAlgError)


def run_cells(internal: AuditDataset, external: ExternalDataset | None,
              config: PipelineConfig, seed: int, cells,
              nuisances: NuisanceEstimates | None = None) -> tuple[np.ndarray, float]:
    """One replicate: the run_pipeline value per cell of cells and its alpha,
    NaN when borrowing did not run. A fit that fails with one of FIT_ERRORS
    makes the whole replicate NaN."""
    try:
        result = run_pipeline(internal, external, config, seed, nuisances)
    except FIT_ERRORS:
        return np.full(len(cells), np.nan), np.nan
    alpha = result.alpha if result.alpha is not None else np.nan
    return result.report.values(cells), alpha


def map_tasks(fn, tasks: list, n_jobs: int) -> list:
    """[fn(task) for task in tasks], in n_jobs worker processes when n_jobs > 1."""
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here so serial runs skip it

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
