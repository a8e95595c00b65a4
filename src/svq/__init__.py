"""Three-valued quantum propositions over Hilbert subspaces.

Propositions about a quantum system are closed subspaces; a state makes a
proposition true, false, or leaves it with no truth value at all. On top of
that membership predicate the package provides the subspace lattice,
supervaluational formula evaluation, idealized cloning and evaporation
dynamics, an append-only tensed truth ledger with a past-fixity audit, and
a small scenario language with a CLI (``svq``).
"""

from .errors import (
    BadProbability,
    DimensionMismatch,
    DimensionTooSmall,
    DuplicateIdentifier,
    EmptySpan,
    NonMonotoneAssertion,
    NormLost,
    NotCloneShape,
    PrecisificationBlowup,
    ScenarioSyntaxError,
    StepError,
    SvqError,
    UnknownAtom,
    UnknownIdentifier,
    ZeroVector,
)
from .hilbert import (
    DEFAULT_TOL,
    Operator,
    StateVector,
    apply_operator,
    haar_state,
    haar_unitary,
    inner,
    is_unitary,
    make_state,
    tensor,
)
from .lattice import (
    Subspace,
    TruthValue,
    join,
    meet,
    membership,
    orthocomplement,
    span_subspace,
    zero_subspace,
)
from .formulas import (
    GAP_CAP,
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    evaluate_classical,
    evaluate_super,
    formula_atoms,
)
from .dynamics import (
    FeasibilityReport,
    blackhole_evaporate,
    check_cloner_feasibility,
    sample_past_reconstruction,
    truth_transition,
)
from .ledger import (
    Ledger,
    TensedRecord,
    Violation,
    check_past_unalterability,
    derive_tense,
    ledger_lines,
    record_valuation,
)
from .scenario import (
    Scenario,
    compile_scenario,
    format_formula,
    format_scenario,
    parse_scenario,
)
from .runner import Report, emit_report, run_scenario

__version__ = "0.1.0"
