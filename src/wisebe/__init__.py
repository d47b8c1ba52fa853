"""Multi-reference evaluation of sentence boundary detection.

The window-based score compares a candidate segmentation against all
references fused together, then scales the result by how much those
references agree among themselves.  Classic exact-position metrics and
agreement measures live alongside it for comparison.
"""

from .aggregation import build_general_reference, build_window_reference
from .agreement import fleiss_kappa, pearson
from .baselines import strict_prf
from .corpus import Document, load_corpus, load_document
from .errors import (AlignmentError, BadThreshold, ConstantSequence,
                     DegenerateAgreement, DuplicateLabel, EmptyTranscript,
                     MissingReferences, NoBoundaries, UnknownFormat,
                     WisebeError)
from .model import (CANDIDATE, REFERENCE, BoundaryVector, ReferenceSet,
                    Transcript, parse_segmented_text, to_segmented_text)
from .report import (EvalConfig, evaluate_agreement, evaluate_corpus,
                     evaluate_document, render_agreement, render_report)
from .scoring import (combine_score, harmonic_f1, windowed_precision,
                      windowed_recall, wisebe_score)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "BadThreshold", "BoundaryVector", "CANDIDATE", "ConstantSequence",
    "DegenerateAgreement", "Document", "DuplicateLabel", "EmptyTranscript",
    "EvalConfig", "MissingReferences", "NoBoundaries", "REFERENCE", "ReferenceSet",
    "Transcript", "UnknownFormat", "WisebeError", "build_general_reference",
    "build_window_reference", "combine_score", "evaluate_agreement", "evaluate_corpus",
    "evaluate_document", "fleiss_kappa", "harmonic_f1", "load_corpus", "load_document",
    "parse_segmented_text", "pearson", "render_agreement", "render_report",
    "strict_prf", "to_segmented_text", "windowed_precision", "windowed_recall",
    "wisebe_score",
]
