"""notegrid: framewise label matrices from interval annotations.

Converts high-resolution note annotations (MIDI files or onset/offset
text files) into framewise binary label matrices under six labeling
functions that differ in rounding mode and random boundary shifts,
measures the resulting label noise with framewise precision, recall and
f-measure, and runs a desk-scale experiment showing that sub-frame
annotation misalignment measurably degrades a framewise classifier.
"""

from .annotation import Annotation, parse_tsv, to_tsv, validate
from .errors import (ContractError, DivergenceError, FormatError,
                     NotegridError, RangeError, UnsupportedError,
                     ValidationError)
from .metrics import (DisagreementStats, EvalCounts, disagreement,
                      evaluate_against_reference, framewise_counts, resample,
                      truncate, windowed_counts)
from .midi import parse_midi
from .quantize import (FrameGrid, LabelingFunction, LabelMatrix,
                       QuantizedArrays, noise_ceiling, quantize_interval,
                       rasterize, rasterize_with_records)
from .synth import (FeatureMatrix, SynthConfig, generate_corpus,
                    generate_piece, label_templates, render_features)
from .trainer import (Dataset, ExperimentRow, ExperimentTable, ModelParams,
                      TrainConfig, bce_loss, bce_loss_and_gradient,
                      make_examples, predict, run_sensitivity_experiment,
                      train)

__version__ = "0.1.0"

__all__ = [
    "Annotation", "parse_tsv", "to_tsv", "validate", "parse_midi",
    "ContractError", "DivergenceError", "FormatError", "NotegridError",
    "RangeError", "UnsupportedError", "ValidationError",
    "FrameGrid", "LabelingFunction", "LabelMatrix", "QuantizedArrays",
    "quantize_interval", "rasterize", "rasterize_with_records",
    "noise_ceiling",
    "DisagreementStats", "EvalCounts", "disagreement",
    "evaluate_against_reference", "framewise_counts", "resample",
    "truncate", "windowed_counts",
    "FeatureMatrix", "SynthConfig", "generate_corpus", "generate_piece",
    "label_templates", "render_features",
    "Dataset", "ExperimentRow", "ExperimentTable", "ModelParams",
    "TrainConfig", "bce_loss", "bce_loss_and_gradient",
    "make_examples", "predict", "run_sensitivity_experiment", "train",
    "__version__",
]
