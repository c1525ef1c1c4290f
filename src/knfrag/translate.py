"""Krom clause rewritings that clear diamonds (or boxes) out of literals.

Both rewritings keep the formula Krom, introduce one fresh letter and one
extra clause per step, and produce an equi-satisfiable result; the fresh
letters are `_f0, _f1, ...`, skipping any that are already taken.

A step fires on the first literal occurrence (clauses left to right,
negated literals before positive ones) that still contains an offending
modal constructor.  When the offending constructor is outermost, the
occurrence is replaced by a guarded literal on the opposite side of the
clause and a defining clause is appended right after:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    Formula,
    InternalError,
    Prop,
    classify,
)

__all__ = [
    "FreshLetterSource",
    "krom_to_krom_box",
    "krom_to_krom_diamond",
    "fresh_letters_of",
]


@dataclass
class FreshLetterSource:
    """Emits letters `_f<k>` that collide neither with `reserved` nor each other."""

    reserved: set[str] = field(default_factory=set)
    counter: int = 0

    def next(self) -> str:
        while True:
            letter = f"_f{self.counter}"
            self.counter += 1
            if letter not in self.reserved:
                self.reserved.add(letter)
                return letter


def _offending_count(lit: Formula, bad) -> int:
    """Modal constructors in `lit` whose subtree contains a `bad` one: those
    at or above the innermost `bad` constructor of the modal chain."""
    count = depth = 0
    while isinstance(lit, (Diamond, Box)):
        depth += 1
        if isinstance(lit, bad):
            count = depth
        lit = lit.operand
    return count


def _find_offending(clause: Clause, bad):
    """(side, index, literal) of the first offending literal, side 0 for
    the negatives and 1 for the positives; None if there is none."""
    for side, lits in enumerate((clause.negatives, clause.positives)):
        for i, lit in enumerate(lits):
            if _offending_count(lit, bad):
                return side, i, lit
    return None


def _rewrite_step(clause: Clause, side, index, lit, bad, fresh):
    """One elimination or peeling step; returns (rewritten, defining) clauses."""
    good = Box if bad is Diamond else Diamond
    p = Prop(fresh.next())
    sides = [list(clause.negatives), list(clause.positives)]
    defining = [(), ()]
    if isinstance(lit, bad):
        # Outermost constructor is the offending kind: swap sides under a
        # guard of the other kind and define the guard one step deeper.
        del sides[side][index]
        sides[1 - side].insert(0, good(lit.modality, p))
        defining[side] = (p, lit.operand)
    else:
        # Outermost constructor is the harmless kind with offenders below:
        # name its operand and recurse on the defining clause later.
        sides[side][index] = good(lit.modality, p)
        defining[side], defining[1 - side] = (lit.operand,), (p,)
    rewritten = Clause(clause.prefix, tuple(sides[0]), tuple(sides[1]))
    return rewritten, Clause(clause.prefix + (lit.modality,), *defining)


def _eliminate(cf: ClausalFormula, bad) -> ClausalFormula:
    if not classify(cf).krom:
        raise ValueError("input is not Krom")
    fresh = FreshLetterSource(set(cf.alphabet()))
    clauses = list(cf.clauses)
    step_limit = sum(
        _offending_count(l, bad)
        for c in cf.clauses
        for l in c.negatives + c.positives
    )
    steps = 0
    i = 0
    while i < len(clauses):
        found = _find_offending(clauses[i], bad)
        if found is None:
            i += 1
            continue
        side, index, lit = found
        rewritten, defining = _rewrite_step(clauses[i], side, index, lit, bad, fresh)
        clauses[i] = rewritten
        clauses.insert(i + 1, defining)
        steps += 1
        if steps > step_limit:
            raise InternalError("rewriting failed to shrink")
    result = ClausalFormula(tuple(clauses))
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
