"""Counterfactual error-rate auditing of binary risk predictors, built for
small protected subgroups: ratio-form estimators, adaptive external-data
borrowing, stratified bootstrap intervals, and a simulation laboratory with
an exact-counting ground truth."""

from .borrowing import BlendedMembership, brier_score, multiclass_auc, select_alpha
from .dataset import (AuditDataset, DataError, ExternalDataset, GroupKey,
                      LevelSetMismatch, MissingColumn, MissingValue,
                      NonBinaryValue, SchemaSpec, UnknownLevel, load_external,
                      load_internal, subgroup_counts, write_external,
                      write_internal)
from .estimators import (ErrorRateEstimate, ErrorRateReport, NuisanceEstimates,
                         comparison_rate, estimate_all, membership_ratio,
                         overall_rate, proposed_rate, report_keys)
from .inference import BootstrapResult, bootstrap_estimates, stratified_resample
from .models import (BinaryModel, BinarySpec, CrossFitPlan, DegenerateLabels,
                     MulticlassConfig, MulticlassModel, NuisanceSpec,
                     Separation, SingularDesign, cross_fit, fit_logistic,
                     fit_multiclass, make_crossfit_plan, predict_binary,
                     predict_multiclass)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .simlab import (DgpCoefficients, OracleTruth, Population, RiskModel,
                     ScenarioConfig, ScenarioResult, default_coefficients,
                     generate_population,
                     oracle_error_rates, run_scenario, sim_schema,
                     to_audit_dataset, to_external_dataset, train_risk_model)

__version__ = "0.1.0"
