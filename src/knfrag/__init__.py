"""Clausal fragments of multi-modal logic K.

Parsing and printing, Kripke model checking, the model constructions used
in expressiveness arguments, clause translations between fragments,
bounded satisfiability, and mechanical replays of the fragment-separation
results.  See the README for the grammar, the model JSON layout, and the
command-line interface.
"""

from .combinators import (
    add_successor_world,
    intersect,
    override_valuation,
    product,
    product_world,
)
from .expressiveness import (
    COUNTEREXAMPLE,
    EQUIVALENT_UP_TO_BOUND,
    Counterexample,
    TheoremReport,
    THEOREM_IDS,
    Verdict,
    enumerate_fragment,
    parse_fragment_spec,
    replay_theorem,
    replay_theorems,
    search_weak_translation,
    strong_translation_check,
    weak_equiv_check,
)
from .hierarchy import hierarchy_dot
from .semantics import (
    KripkeFrame,
    KripkeModel,
    PointedModel,
    check,
    enumerate_extensions,
    enumerate_models,
    model_from_json,
    model_to_json,
)
from .solver import (
    SAT,
    UNKNOWN_AT_BOUND,
    UNSAT,
    CapExceeded,
    SatResult,
    sat_bruteforce,
    sat_tableau,
    to_nnf,
    tree_model_bound,
)
from .syntax import (
    And,
    BOTTOM,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    Formula,
    FragmentDescriptor,
    InternalError,
    Modality,
    Not,
    NotClausalError,
    Or,
    ParseError,
    Prop,
    TOP,
    Top,
    classify,
    formula_modalities,
    is_positive_literal,
    letters,
    parse,
    recognize_clausal,
    to_text,
)
from .translate import (
    FreshLetterSource,
    fresh_letters_of,
    krom_to_krom_box,
    krom_to_krom_diamond,
)

__version__ = "0.1.0"
