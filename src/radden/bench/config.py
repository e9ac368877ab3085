"""Experiment configuration: dataclasses plus a strict INI-style file format.

Every key in the file maps one-to-one onto a config field; unknown sections or
keys are hard errors so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..dataset import WallClass
from ..errors import ConfigError

__all__ = [
    "ALGORITHMS",
    "AUTOENCODERS",
    "BaselineSpec",
    "DatasetSpec",
    "ExperimentConfig",
    "SweepSpec",
    "TrainSpec",
    "load_config",
    "parse_config",
]

ALGORITHMS = ("dae", "sparse_dae", "stacked_sdae", "svd", "wavelet")
AUTOENCODERS = ALGORITHMS[:3]  # the trained algorithms

SIGNATURE_KINDS = ("spectrogram", "hrrp", "frontal")

# sweep axis -> the ResultRow field that records its grid value
SWEEP_AXES = {"snr": "snr_db", "mismatch": "mismatch_pct", "scr": "scr_db"}


@dataclass
class DatasetSpec:
    kind: str = "spectrogram"
    wall_class: str = "low"
    carrier_hz: float = 2.4e9
    bandwidth_hz: float = 0.0
    freq_count: int = 1
    realizations: int = 4
    intervals: int = 8
    noise_draws: int = 10
    snr_db: float = -10.0
    scr_db: float = 0.0
    pfa: float = 0.0
    image_rows: int = 64
    image_cols: int = 64
    db_floor: float = -70.0
    db_ceil: float = -20.0
    headroom_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNATURE_KINDS:
            raise ConfigError(f"unknown signature kind {self.kind!r}")
        WallClass(self.wall_class)  # ConfigError on an unknown name
        for name in ("realizations", "intervals", "noise_draws"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 <= self.pfa <= 1.0):
            raise ConfigError("pfa must lie in [0, 1]")
        if self.kind == "hrrp" and self.bandwidth_hz <= 0:
            raise ConfigError("hrrp generation needs bandwidth_hz > 0")
        if self.db_ceil <= self.db_floor:
            raise ConfigError("db_ceil must exceed db_floor")
        if not (0.0 <= self.headroom_db < self.db_ceil - self.db_floor):
            raise ConfigError("headroom_db must lie in [0, dB span)")

    @property
    def count(self):
        """Total paired columns Q = intervals x realizations x noise draws."""
        return self.intervals * self.realizations * self.noise_draws

    @property
    def image_shape(self):
        if self.kind == "frontal":
            return (31, 31)
        return (self.image_rows, self.image_cols)


@dataclass
class SweepSpec:
    axis: str = "snr"
    values: tuple[float, ...] = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (0, 1)
    algorithms: tuple[str, ...] = ("dae", "sparse_dae", "stacked_sdae")
    split: float = 0.7
    mismatch: float = 0.0  # fixed mismatch when the axis is something else

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep grid must be non-empty")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        if not self.algorithms:
            raise ConfigError("algorithm list must be non-empty")
        if not (0.0 < self.split < 1.0):
            raise ConfigError("split fraction must lie in (0, 1)")
        if not (0.0 <= self.mismatch <= 1.0):
            raise ConfigError("mismatch must lie in [0, 1]")
        if self.axis == "mismatch" and self.mismatch != 0.0:
            raise ConfigError("a fixed mismatch is ignored on the mismatch "
                              "axis, whose values set it")
        for name in ("values", "seeds", "algorithms"):
            listed = getattr(self, name)
            if len(set(listed)) != len(listed):
                raise ConfigError(f"sweep {name} {listed} repeat an entry")


@dataclass
class TrainSpec:
    dae_nodes: int = 500
    dae_lambda: float = 1.0
    sparse_nodes: int = 128
    sparse_lambda: float = 1.0
    sparse_mu: float = 1.0
    stacked_sizes: tuple[int, int, int] = (256, 128, 64)
    stacked_mu: tuple[float, float, float] = (1.0, 1.0, 1.0)
    stacked_lambda: tuple[float, float, float] = (1.0, 1.0, 3.5)
    outer_iterations: int = 20
    outer_tolerance: float = 1e-6
    ista_iterations: int = 40
    ista_tolerance: float = 1e-6

    def __post_init__(self):
        if self.dae_nodes < 1 or self.sparse_nodes < 1:
            raise ConfigError("hidden sizes must be >= 1")
        for name in ("stacked_sizes", "stacked_mu", "stacked_lambda"):
            if len(getattr(self, name)) != 3:
                raise ConfigError(f"{name} needs 3 entries, got "
                                  f"{getattr(self, name)}")
        l0, l1, l2 = self.stacked_sizes
        if not (l0 > l1 > l2 >= 1):
            raise ConfigError("stacked sizes must strictly decrease")
        if self.outer_iterations < 1 or self.ista_iterations < 1:
            raise ConfigError("iteration counts must be >= 1")


@dataclass
class BaselineSpec:
    svd_energy: float = 0.95
    wavelet_levels: int = 2
    wavelet_keep: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.svd_energy <= 1.0):
            raise ConfigError("svd_energy must lie in (0, 1]")
        if not (0.0 < self.wavelet_keep <= 1.0):
            raise ConfigError("wavelet_keep must lie in (0, 1]")
        if self.wavelet_levels < 1:
            raise ConfigError("wavelet_levels must be >= 1")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    baselines: BaselineSpec = field(default_factory=BaselineSpec)
    output_dir: str = "results"


_SECTIONS = {
    "dataset": DatasetSpec,
    "sweep": SweepSpec,
    "train": TrainSpec,
    "baselines": BaselineSpec,
    "output": None,
}


def _convert(raw, annotation, name):
    try:
        if annotation == "str":
            return raw
        if annotation == "int":
            return int(raw)
        if annotation == "float":
            return float(raw)
        parts = raw.split()
        if "int" in annotation:  # tuple of ints
            return tuple(int(p) for p in parts)
        if "float" in annotation:
            return tuple(float(p) for p in parts)
        return tuple(parts)  # tuple of strings
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for key {name}") from exc


def parse_config(text) -> ExperimentConfig:
    """Parse the INI experiment format; unknown sections/keys are errors."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    kwargs = {}
    output_dir = "results"
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        if section == "output":
            for key, val in parser.items(section):
                if key != "directory":
                    raise ConfigError(f"unknown key {key!r} in [output]")
                output_dir = val
            continue
        cls = _SECTIONS[section]
        annotations = {f.name: str(f.type) for f in fields(cls)}
        sec_kwargs = {}
        for key, val in parser.items(section):
            if key not in annotations:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            sec_kwargs[key] = _convert(val, annotations[key], key)
        kwargs[section] = cls(**sec_kwargs)
    return ExperimentConfig(output_dir=output_dir, **kwargs)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())
