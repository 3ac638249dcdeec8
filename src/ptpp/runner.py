"""One-call wiring of pipeline → decision → localization per detector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import PtConfig, detect_pt
from .detector import DetectionResult, DetectorConfig, detect, localize_rpeaks
from .errors import ConfigError
from .pipeline import PipelineConfig, run_pipeline

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
    # One tag per localized peak: that of the detection it came from.
    provenance: list[str]


def run_detector(detector: str, samples: np.ndarray, fs: float,
                 pipeline_cfg: PipelineConfig | None = None,
                 detector_cfg: DetectorConfig | None = None,
                 pt_cfg: PtConfig | None = None) -> DetectorRun:
    """Run one detector end to end on a single channel.

    Each stage array is let go as soon as nothing needs it: the pipeline
    runs with ``intermediates=False``, so the derivative, squared and
    smoothed signals die as the next stage is built; the decision layer
    reads only the band-passed and integrated signals, localization only
    the delays. At its peak a run holds about three record-lengths.
    :func:`ptpp.run_pipeline` with its default returns every stage.
    """
    default_cfg = default_pipeline_config(detector)  # ConfigError if unknown
    stages = run_pipeline(samples, fs, pipeline_cfg or default_cfg,
                          intermediates=False)
    if detector == "ptpp":
        detection = detect(stages, fs, detector_cfg)
    else:
        detection = detect_pt(stages, fs, pt_cfg)
    delays = stages.stage_delays_samples
    del stages
    sources: list[int] = []
    peaks = localize_rpeaks(samples, detection, delays, fs, sources=sources)
    return DetectorRun(r_peaks=peaks, detection=detection,
                       provenance=[detection.provenance[k] for k in sources])
