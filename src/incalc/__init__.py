"""incalc: set-valued probabilistic reasoning over weighted sample spaces.

Uncertainty is represented by incidences, the sets of sample-space points
at which sentences are true, rather than by bare numbers.  Probabilities
are read off incidences as exact rationals, connectives act on incidences
as plain set operations, and partially known incidences are handled as
lower/upper bound pairs tightened by propagation.
"""

from types import ModuleType as _ModuleType

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
    propagate,
)
from .space import (
    Incidence,
    SampleSpace,
    parse_incidence_text,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
