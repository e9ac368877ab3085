"""Benchmark harness: config parsing, dataset generation, sweeps, reports."""
from .config import (ALGORITHMS, AUTOENCODERS, SWEEP_AXES, BaselineSpec,
                     DatasetSpec, ExperimentConfig, SweepSpec, TrainSpec,
                     load_config, parse_config)
from .datasets import generate_pair
from .report import summarize, write_plot_data
from .sweep import (ResultRow, csv_content_hash, evaluate_grid_point,
                    load_rows, run_sweep, train_model, write_rows)

__all__ = [
    "ALGORITHMS", "AUTOENCODERS", "SWEEP_AXES", "BaselineSpec", "DatasetSpec",
    "ExperimentConfig", "SweepSpec", "TrainSpec", "load_config",
    "parse_config", "generate_pair", "summarize", "write_plot_data",
    "ResultRow", "csv_content_hash", "evaluate_grid_point", "load_rows",
    "run_sweep", "train_model", "write_rows",
]
