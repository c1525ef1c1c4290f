"""Clausal fragments of multi-modal logic K.

Parsing and printing, Kripke model checking, the model constructions used
in expressiveness arguments, clause translations between fragments,
bounded satisfiability, and mechanical replays of the fragment-separation
results.  See the README for the grammar, the model JSON layout, and the
command-line interface.  Each public name is declared once, in its module's
`__all__`; the package republishes them in module order.
"""

from . import combinators, expressiveness, hierarchy, semantics, solver, syntax, translate
from .combinators import *
from .expressiveness import *
from .hierarchy import *
from .semantics import *
from .solver import *
from .syntax import *
from .translate import *

__all__ = [
    name
    for module in (combinators, expressiveness, hierarchy, semantics, solver, syntax, translate)
    for name in module.__all__
]
__version__ = "0.1.0"
