"""Experiment driver: configs, training loop, evaluation, reports."""

from .config import (VARIANTS, LossWeights, TrainConfig, config_text,
                     parse_config, parse_data_config)
from .data import TrainData
from .trainer import TrainingDiverged, TrainResult, train
from .evaluate import (build_report, drive, load_model, open_run,
                       render_frame, union_l1, write_heatmaps)

__all__ = [
    "VARIANTS", "LossWeights", "TrainConfig", "config_text",
    "parse_config", "parse_data_config",
    "TrainData",
    "TrainingDiverged", "TrainResult", "train",
    "build_report", "drive",
    "load_model", "open_run", "render_frame", "union_l1", "write_heatmaps",
]
