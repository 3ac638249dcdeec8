"""Pan-Tompkins++ R-peak detection toolkit.

Typical use::

    from ptpp import run_detector, synth_ecg, SynthSpec, match_beats, metrics

    record, truth = synth_ecg(SynthSpec(duration_s=30.0))
    run = run_detector("ptpp", record.channels[0].samples,
                       record.sampling_rate_hz)
    report = match_beats(run.r_peaks, truth, record.sampling_rate_hz)
"""

from .baseline import PtConfig, detect_pt
from .detector import (DetectionResult, DetectorConfig, ThresholdState,
                       detect, find_candidates, init_thresholds,
                       localize_rpeaks, mean_slope, threshold3, update_rule1,
                       update_rule2)
from .errors import (ConfigError, InputTooShortError, ParseError,
                     ProcessingError, PtppError, UnsupportedFormatError)
from .evaluation import (MatchReport, Metrics, SynthSpec, match_beats,
                         metrics, synth_ecg, time_detectors)
from .io import (AnnotationSet, Channel, HeaderInfo, Record, decode_format16,
                 decode_format212, load_annotations, load_csv,
                 load_wfdb_record, parse_wfdb_header, save_annotations,
                 save_csv)
from .pipeline import (PipelineConfig, StageOutputs, bandpass, derivative,
                       flattop_kernel, ms_to_samples, mwi, run_pipeline,
                       smooth, square)
from .runner import DETECTORS, DetectorRun, default_pipeline_config, run_detector

__version__ = "0.1.0"

__all__ = [
    "AnnotationSet", "Channel", "ConfigError", "DETECTORS", "DetectionResult",
    "DetectorConfig", "DetectorRun", "HeaderInfo", "InputTooShortError",
    "MatchReport", "Metrics", "ParseError", "PipelineConfig",
    "ProcessingError", "PtConfig", "PtppError", "Record", "StageOutputs",
    "SynthSpec", "ThresholdState", "UnsupportedFormatError", "bandpass",
    "decode_format16", "decode_format212", "default_pipeline_config",
    "derivative", "detect", "detect_pt", "find_candidates", "flattop_kernel",
    "init_thresholds", "load_annotations", "load_csv", "load_wfdb_record",
    "localize_rpeaks", "match_beats", "mean_slope", "metrics", "ms_to_samples",
    "mwi", "parse_wfdb_header", "run_detector", "run_pipeline",
    "save_annotations", "save_csv", "smooth", "square", "synth_ecg",
    "threshold3", "time_detectors", "update_rule1", "update_rule2",
    "__version__",
]
