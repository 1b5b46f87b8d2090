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
    InconsistentBoundsError,
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
    atom_names,
    format_formula,
    holds_at,
    incidence_of,
    parse_formula,
    subformulas,
)
from .probability import (
    Correlation,
    ProbabilityInterval,
    cond_prob,
    correlation,
    prob,
    prob_interval,
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
    StorageCost,
    parse_incidence_text,
    storage_costs,
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
    "InconsistentBoundsError",
    "InfeasibleTargetError",
    "InstanceTooLargeError",
    "KBError",
    "KnowledgeBase",
    "Not",
    "Or",
    "ProbabilityInterval",
    "PropagationOutcome",
    "Query",
    "RecordTable",
    "RecordTableError",
    "SampleSpace",
    "StorageCost",
    "TRUE",
    "TargetSpec",
    "Top",
    "UnboundAtomError",
    "UnknownSentenceError",
    "WidthMismatchError",
    "ZeroProbabilityError",
    "atom_names",
    "check_consistency",
    "cond_prob",
    "correlation",
    "format_formula",
    "holds_at",
    "incidence_of",
    "incidences_from_probabilities",
    "incidences_from_records",
    "kb_fragment",
    "parse_formula",
    "parse_incidence_text",
    "parse_kb",
    "parse_targets",
    "prob",
    "prob_interval",
    "propagate",
    "storage_costs",
    "subformulas",
]
