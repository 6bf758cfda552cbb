"""Recognition and parsing for binary LCFRS via transitive closure of a seed
matrix, with the product lowered to Boolean matrix multiplication.

``run_recognition`` is the one recognition entry point.  Everything not
re-exported here stays importable from its own module; ``lcfrs.bundled``,
the shipped grammars, is bound by ``import lcfrs``."""

from . import bundled
from .boolmat import KERNEL_KIND
from .grammar import (
    AnalysisReport,
    Grammar,
    GrammarError,
    analyze,
    contact_rank,
    is_balanced,
    parse_grammar,
    to_single_initial,
    validate,
)
from .oracle import enumerate_language, tabular_recognize
from .recognizer import (
    DerivationNode, EngineUnsupported, RunResult, extract_derivation, run_recognition,
)

__version__ = "0.1.0"

__all__ = [
    # parse
    "parse_grammar",
    "Grammar",
    "GrammarError",
    "validate",
    "to_single_initial",
    # analyze
    "analyze",
    "AnalysisReport",
    "contact_rank",
    "is_balanced",
    # run
    "run_recognition",
    "RunResult",
    "EngineUnsupported",
    "extract_derivation",
    "DerivationNode",
    # oracles
    "tabular_recognize",
    "enumerate_language",
    # kernel
    "KERNEL_KIND",
]
