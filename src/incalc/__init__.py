"""incalc: set-valued probabilistic reasoning over weighted sample spaces.

Uncertainty is represented by incidences, the sets of sample-space points
at which sentences are true, rather than by bare numbers.  Probabilities
are read off incidences as exact rationals, connectives act on incidences
as plain set operations, and partially known incidences are handled as
lower/upper bound pairs tightened by propagation.
"""

from .construct import (
    RecordTable,
    TargetSpec,
    incidences_from_probabilities,
    incidences_from_records,
    parse_targets,
)
from .errors import (
    DegenerateMarginalError,
    FormulaSyntaxError,
    IncalcError,
    InfeasibleTargetError,
    InstanceTooLargeError,
    KBError,
    RecordTableError,
    UnboundAtomError,
    UnknownSentenceError,
    WidthMismatchError,
    ZeroProbabilityError,
)
from .kb import KnowledgeBase, Query, kb_fragment, parse_kb
from .logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Not,
    Or,
    Top,
    format_formula,
    incidence_of,
    parse_formula,
    subformulas,
)
from .probability import (
    Correlation,
    cond_prob,
    correlation,
    prob,
)
from .propagation import (
    FIXPOINT,
    INCONSISTENT,
    BoundAssignment,
    PropagationOutcome,
    check_consistency,
    propagate,
)
from .space import (
    Incidence,
    SampleSpace,
    parse_incidence_text,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "Bottom",
    "BoundAssignment",
    "Correlation",
    "DegenerateMarginalError",
    "FALSE",
    "FIXPOINT",
    "Formula",
    "FormulaSyntaxError",
    "Implies",
    "INCONSISTENT",
    "IncalcError",
    "Incidence",
    "InfeasibleTargetError",
    "InstanceTooLargeError",
    "KBError",
    "KnowledgeBase",
    "Not",
    "Or",
    "PropagationOutcome",
    "Query",
    "RecordTable",
    "RecordTableError",
    "SampleSpace",
    "TRUE",
    "TargetSpec",
    "Top",
    "UnboundAtomError",
    "UnknownSentenceError",
    "WidthMismatchError",
    "ZeroProbabilityError",
    "check_consistency",
    "cond_prob",
    "correlation",
    "format_formula",
    "incidence_of",
    "incidences_from_probabilities",
    "incidences_from_records",
    "kb_fragment",
    "parse_formula",
    "parse_incidence_text",
    "parse_kb",
    "parse_targets",
    "prob",
    "propagate",
    "subformulas",
]
