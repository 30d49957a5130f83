"""End-to-end estimation pipeline shared by the CLI, the bootstrap, and the
simulation lab: nuisance fitting (optionally cross-fit), external borrowing,
and the full estimator report."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .borrowing import BORROW_METRICS, BlendedMembership, grid_intervals, select_alpha
from .config import check_at_least, check_choice
from .dataset import AuditDataset, ExternalDataset
from .estimators import (METHODS, ErrorRateReport, NuisanceEstimates,
                         estimate_all)
from .models import (BinarySpec, MulticlassConfig, MulticlassModel,
                     NuisanceSpec, cross_fit, fit_group_membership,
                     predict_group_probs)


@dataclass
class PipelineConfig:
    pi: BinarySpec = field(default_factory=BinarySpec)
    mu: BinarySpec = field(default_factory=BinarySpec)
    h_internal: MulticlassConfig = field(default_factory=MulticlassConfig)
    h_external: MulticlassConfig = field(default_factory=MulticlassConfig)
    crossfit_k: int = 1
    borrow: bool = True
    borrow_metric: str = "brier"
    alpha_grid_step: float = 0.001
    methods: tuple[str, ...] = METHODS

    def __post_init__(self):
        check_choice("borrow_metric", self.borrow_metric, BORROW_METRICS)
        for method in self.methods:
            check_choice("methods", method, METHODS)
        grid_intervals(self.alpha_grid_step)
        check_at_least("crossfit_k", self.crossfit_k, 1)

    def reported_methods(self, external: bool) -> tuple[str, ...]:
        """The methods a run reports: proposed-borrowing only when borrowing
        is on and the run has external data."""
        return tuple(m for m in self.methods
                     if m != "proposed-borrowing" or (external and self.borrow))


@dataclass
class PipelineResult:
    report: ErrorRateReport
    nuisances: NuisanceEstimates
    alpha: float | None  # None when borrowing was not run
    blend: BlendedMembership | None


def fit_external_membership(external: ExternalDataset,
                            config: MulticlassConfig) -> MulticlassModel:
    """Train the membership model on the external rows (external covariates only)."""
    return fit_group_membership(external.x, external.group_codes, config)


def run_pipeline(internal: AuditDataset, external: ExternalDataset | None,
                 config: PipelineConfig, seed: int) -> PipelineResult:
    """Fit nuisances, optionally select the borrowing weight, and build the
    report. Deterministic given the seed; per-stage seeds are derived from it."""
    children = np.random.SeedSequence(seed).spawn(3)
    crossfit_seed = int(children[0].generate_state(1)[0])
    h_int_seed = int(children[1].generate_state(1)[0])
    h_ext_seed = int(children[2].generate_state(1)[0])

    spec = NuisanceSpec(
        pi=config.pi,
        mu=config.mu,
        h=replace(config.h_internal, seed=h_int_seed),
    )
    nuis = cross_fit(internal, spec, k=config.crossfit_k, seed=crossfit_seed)

    methods = config.reported_methods(external is not None)
    blend = None
    alpha = None
    borrowed = None
    if "proposed-borrowing" in methods:
        if external.n == 0:
            # nothing to borrow from: the blend degenerates to the internal model
            alpha = 0.0
            borrowed = nuis.group_prob
        else:
            external_model = fit_external_membership(
                external, replace(config.h_external, seed=h_ext_seed))
            schema = internal.schema
            shared = [schema.covariates.index(c) for c in schema.external_covariates]
            h_ext = predict_group_probs(external_model, internal.x[:, shared],
                                        schema.n_groups)
            blend = select_alpha(h_ext, nuis.group_prob, internal.group_codes,
                                 metric=config.borrow_metric,
                                 grid_step=config.alpha_grid_step)
            alpha = blend.alpha
            borrowed = blend.h_star

    report = estimate_all(internal, nuis, methods=methods,
                          borrowed_group_prob=borrowed)
    return PipelineResult(report=report, nuisances=nuis, alpha=alpha, blend=blend)
