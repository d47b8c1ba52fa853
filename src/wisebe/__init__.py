"""Multi-reference evaluation of sentence boundary detection.

The window-based score compares a candidate segmentation against all
references fused together, then scales the result by how much those
references agree among themselves.  Classic exact-position metrics and
agreement measures live alongside it for comparison.
"""

from .aggregation import (GeneralReference, WindowReference,
                          build_general_reference, build_window_reference,
                          consensus_reference)
from .agreement import agreement_stats, fleiss_kappa, pearson
from .baselines import (PRF, lenient_prf, mean_prf, mean_ser, slot_error_rate,
                        strict_prf)
from .corpus import Document, load_corpus, load_document
from .errors import (AlignmentError, BadThreshold, ConstantSequence,
                     DegenerateAgreement, EmptyTranscript, MissingReferences,
                     NoBoundaries, UnknownFormat, WisebeError)
from .model import (CANDIDATE, REFERENCE, BoundaryVector, ReferenceSet,
                    Transcript, align, normalize_and_tokenize,
                    parse_segmented_text, to_segmented_text)
from .report import (REPORT_FIELDS, AgreementReport, EvalConfig,
                     evaluate_agreement, evaluate_corpus, evaluate_document,
                     evaluate_single, render_agreement, render_report)
from .scoring import (combine_score, harmonic_f1, windowed_precision,
                      windowed_recall, wisebe_score)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport", "AlignmentError", "BadThreshold", "BoundaryVector",
    "CANDIDATE", "ConstantSequence", "DegenerateAgreement", "Document",
    "EmptyTranscript", "EvalConfig", "GeneralReference", "MissingReferences",
    "NoBoundaries", "PRF", "REFERENCE", "REPORT_FIELDS", "ReferenceSet",
    "Transcript", "UnknownFormat", "WindowReference", "WisebeError",
    "agreement_stats", "align", "build_general_reference",
    "build_window_reference", "combine_score", "consensus_reference",
    "evaluate_agreement", "evaluate_corpus", "evaluate_document",
    "evaluate_single", "fleiss_kappa", "harmonic_f1", "lenient_prf",
    "load_corpus", "load_document", "mean_prf", "mean_ser",
    "normalize_and_tokenize", "parse_segmented_text", "pearson",
    "render_agreement", "render_report", "slot_error_rate", "strict_prf",
    "to_segmented_text", "windowed_precision", "windowed_recall",
    "wisebe_score",
]
