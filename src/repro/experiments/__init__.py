"""Experiment drivers: one module per paper table/figure."""

from repro.experiments.common import ExperimentResult, ExperimentRow

__all__ = ["ExperimentResult", "ExperimentRow"]
