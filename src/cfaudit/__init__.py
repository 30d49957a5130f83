"""Counterfactual error-rate auditing of binary risk predictors, built for
small protected subgroups: ratio-form estimators, adaptive external-data
borrowing, stratified bootstrap intervals, and a simulation laboratory with
an exact-counting ground truth."""

__version__ = "0.1.0"
