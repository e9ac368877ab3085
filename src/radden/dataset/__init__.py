"""Synthetic radar-signature dataset generation."""
from .channel import SPEED_OF_LIGHT, ChannelModel, WallClass, channel_response
from .corrupt import (add_noise, add_point_clutter, shuffle_labels,
                      signal_reference)
from .frontal import frontal_phantoms
from .gait import GaitParams, ScattererTrack, gait_trajectory
from .signatures import RadarConfig, hrrp, radar_returns, spectrogram, to_db_normalize
from .stack_io import ImageStack, load_dataset, load_stack, save_dataset, save_stack

__all__ = [
    "SPEED_OF_LIGHT", "ChannelModel", "WallClass", "channel_response",
    "add_noise", "add_point_clutter", "shuffle_labels",
    "signal_reference", "frontal_phantoms", "GaitParams", "ScattererTrack",
    "gait_trajectory", "RadarConfig", "hrrp", "radar_returns", "spectrogram",
    "to_db_normalize", "ImageStack", "load_dataset", "load_stack",
    "save_dataset", "save_stack",
]
