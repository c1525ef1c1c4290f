"""Krom clause rewritings that clear diamonds (or boxes) out of literals.

Both rewritings keep the formula Krom, introduce one fresh letter and one
extra clause per step, and produce an equi-satisfiable result; the fresh
letters are `_f0, _f1, ...`, skipping any that are already taken.

A step fires on a clause's first literal occurrence (negated literals
before positive ones) that still contains an offending modal constructor.
When the offending constructor is outermost, the occurrence is replaced by
a guarded literal on the opposite side of the clause and a defining clause
is added:

    prefix (<a>x | rest)   ->   prefix (~[a]p | rest)  &  prefix [a](p | x)
    prefix (~<a>x | rest)  ->   prefix ([a]p | rest)   &  prefix [a](~p | ~x)

(dually with boxes and diamonds swapped when boxes are being cleared).
When the offending constructor sits below the other kind of modality, one
peeling step names the operand instead:

    prefix ([b]x | rest)   ->   prefix ([b]p | rest)   &  prefix [b](~p | x)
    prefix (~[b]x | rest)  ->   prefix (~[b]p | rest)  &  prefix [b](~x | p)

Each step removes exactly one offending constructor, so the step count,
the added clauses, and the fresh letters all equal the initial offending
count.

One pass over a stack of clauses, the input's first clause on top: a
popped clause with no offending literal is emitted, and otherwise a step
pushes the defining clause, then the rewritten one.  So a clause is
rewritten until clean, then come its defining clauses, the last one first,
each translated in full; fresh letters are numbered in step order.

Validation happens once: the input's clauses were validated when built,
and its test is the Krom length test, made in the one walk that counts
the steps and collects the letters to avoid.  Steps build unchecked, the
clauses through slot setters, since each literal is a part of an input
literal or a guard over a fresh letter; so is the output formula.  The
scan sees every emitted literal end its modal chain at a letter or T, and
`classify` confirms the output's fragment.
"""

from __future__ import annotations

from .syntax import Box, Clause, ClausalFormula, Diamond, Formula, InternalError, Prop, Top
from .syntax import _Record, _unchecked, classify

_prefix, _negatives = Clause.prefix.__set__, Clause.negatives.__set__
_positives = Clause.positives.__set__

__all__ = ["FreshLetterSource", "krom_to_krom_box", "krom_to_krom_diamond", "fresh_letters_of"]


class FreshLetterSource(_Record):
    """Emits letters `_f<k>` that collide neither with `reserved` nor each other.
    Mutable, unlike the other records, and so unhashable."""

    __slots__ = ("reserved", "counter")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, reserved: set[str] | None = None, counter: int = 0):
        self.reserved = set() if reserved is None else reserved
        self.counter = counter

    def next(self) -> str:
        while True:
            letter = f"_f{self.counter}"
            self.counter += 1
            if letter not in self.reserved:
                self.reserved.add(letter)
                return letter


def _offending_count(lit: Formula, bad, letters=None) -> int:
    """Modal constructors in `lit` whose subtree contains a `bad` one: those
    at or above the innermost `bad` constructor of the modal chain.  Given a
    set `letters`, the letter that ends the chain, if any, is added to it."""
    count = depth = 0
    while (t := type(lit)) is Diamond or t is Box:
        depth += 1
        if t is bad:
            count = depth
        lit = lit.operand
    if letters is not None and t is Prop:
        letters.add(lit.letter)
    return count


def _find_offending(clause: Clause, bad):
    """(side, index, literal) of the first literal with a `bad` constructor in
    its chain, side 0 for negatives; None once every chain ends at T or a letter."""
    for side, lits in enumerate((clause.negatives, clause.positives)):
        for i, lit in enumerate(lits):
            g = lit
            while (t := type(g)) is Diamond or t is Box:
                if t is bad:
                    return side, i, lit
                g = g.operand
            if t is not Prop and t is not Top:
                raise InternalError("rewriting built a disjunct that is not a positive literal")
    return None


def _rewrite_step(clause: Clause, side, index, lit, bad, letter):
    """One elimination or peeling step; returns (rewritten, defining) clauses."""
    p = _unchecked(Prop, letter=letter)
    guard = _unchecked(Box if bad is Diamond else Diamond, modality=lit.modality, operand=p)
    sides = [clause.negatives, clause.positives]
    before, after = sides[side][:index], sides[side][index + 1:]
    defining = [(), ()]
    if isinstance(lit, bad):
        # Outermost constructor is the offending kind: swap sides under a
        # guard of the other kind and define the guard one step deeper.
        sides[side], sides[1 - side] = before + after, (guard,) + sides[1 - side]
        defining[side] = (p, lit.operand)
    else:
        # Outermost constructor is the harmless kind with offenders below:
        # name its operand and rewrite the defining clause later.
        sides[side] = before + (guard,) + after
        defining[side], defining[1 - side] = (lit.operand,), (p,)
    rewritten, added = object.__new__(Clause), object.__new__(Clause)
    _prefix(rewritten, clause.prefix)
    _negatives(rewritten, sides[0])
    _positives(rewritten, sides[1])
    _prefix(added, clause.prefix + (lit.modality,))
    _negatives(added, defining[0])
    _positives(added, defining[1])
    return rewritten, added


def _eliminate(cf: ClausalFormula, bad) -> ClausalFormula:
    step_limit, taken = 0, set()  # one walk of the input: the steps it needs, its letters
    for c in cf.clauses:
        lits = c.negatives + c.positives
        if len(lits) > 2:
            raise ValueError("input is not Krom")
        for lit in lits:
            step_limit += _offending_count(lit, bad, taken)
    fresh = FreshLetterSource(taken)
    out, stack, steps = [], list(reversed(cf.clauses)), 0
    while stack:
        clause = stack.pop()
        found = _find_offending(clause, bad)
        if found is None:
            out.append(clause)
            continue
        steps += 1
        if steps > step_limit:
            raise InternalError("rewriting failed to shrink")
        stack.extend(reversed(_rewrite_step(clause, *found, bad, fresh.next())))
    result = _unchecked(ClausalFormula, clauses=tuple(out))
    if len(result.clauses) != len(cf.clauses) + steps:
        raise InternalError("rewriting did not add one clause per step")
    flags = classify(result)
    if not (flags.krom and (flags.box_only if bad is Diamond else flags.diamond_only)):
        raise InternalError("box rewriting left a non-Krom or diamond literal" if bad is Diamond
                            else "diamond rewriting left a non-Krom or box literal")
    return result


def krom_to_krom_box(cf: ClausalFormula) -> ClausalFormula:
    """Rewrite a Krom formula so no literal contains a diamond."""
    return _eliminate(cf, Diamond)


def krom_to_krom_diamond(cf: ClausalFormula) -> ClausalFormula:
    """Rewrite a Krom formula so no literal contains a box (clause prefixes
    keep their boxes)."""
    return _eliminate(cf, Box)


def fresh_letters_of(original: ClausalFormula, translated: ClausalFormula) -> list[str]:
    """The fresh letters a translation introduced, in counter order."""
    new = translated.alphabet() - original.alphabet()
    return sorted(new, key=lambda l: (len(l), l))
