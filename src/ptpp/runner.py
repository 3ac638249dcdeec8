"""One-call wiring of pipeline → decision → localization per detector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import PtConfig, detect_pt
from .detector import DetectionResult, DetectorConfig, detect, localize_rpeaks
from .errors import ConfigError
from .pipeline import PipelineConfig, StageOutputs, run_pipeline

DETECTORS = ("ptpp", "pt")


def default_pipeline_config(detector: str) -> PipelineConfig:
    """The preprocessing variant each detector was designed around."""
    if detector == "ptpp":
        return PipelineConfig()
    if detector == "pt":
        return PipelineConfig(band_high_hz=15.0, smooth_enabled=False)
    raise ConfigError(f"unknown detector {detector!r}, expected one of "
                      f"{DETECTORS}")


@dataclass
class DetectorRun:
    r_peaks: np.ndarray  # raw-trace coordinates, after localization
    detection: DetectionResult  # integrated-signal coordinates
    stages: StageOutputs
    # One tag per localized peak: that of the detection it came from.
    provenance: list[str]


def run_detector(detector: str, samples: np.ndarray, fs: float,
                 pipeline_cfg: PipelineConfig | None = None,
                 detector_cfg: DetectorConfig | None = None,
                 pt_cfg: PtConfig | None = None) -> DetectorRun:
    """Run one detector end to end on a single channel."""
    if detector not in DETECTORS:
        raise ConfigError(f"unknown detector {detector!r}, expected one of "
                          f"{DETECTORS}")
    if pipeline_cfg is None:
        pipeline_cfg = default_pipeline_config(detector)
    stages = run_pipeline(samples, fs, pipeline_cfg)
    if detector == "ptpp":
        detection = detect(stages, fs, detector_cfg)
    else:
        detection = detect_pt(stages, fs, pt_cfg)
    sources: list[int] = []
    peaks = localize_rpeaks(samples, detection, stages.stage_delays_samples, fs,
                            sources=sources)
    return DetectorRun(r_peaks=peaks, detection=detection, stages=stages,
                       provenance=[detection.provenance[k] for k in sources])
