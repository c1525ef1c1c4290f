"""Formulas of multi-modal K, their clausal shape, and fragment classification.

Surface grammar (see `parse`):

    formula := imp
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "<" ident ">" unary | "[" ident "]" unary | atom
    atom    := "T" | "F" | ident | "(" formula ")"
    ident   := [a-z][a-z0-9_]*

`T` is verum and `F` abbreviates `~T`.  `->` is right-associative and
desugars into negation and disjunction; `<a>` / `[a]` are the diamond and
box indexed by modality `a`.  Idents with a leading underscore are reserved
for machine-generated letters (the parser accepts them so that translated
formulas read back, but users should not introduce them).
Nodes, clauses and clausal formulas are immutable `__slots__` records, not
dataclasses.  `parse`, `to_text` and the nodes' `repr` are loops over
explicit stacks, and a node compares, hashes, pickles and copies as its
text, so no nesting depth or chain length meets the recursion limit.
`parse` reads its lexemes with one `findall` and builds each node from
parts it has already checked; a lexeme's offset, line and column are
computed only for a `ParseError`.  `_nnf_table` reads a formula, in one
loop, into the hash-consed table of its negation normal form that every
evaluator reads: both SAT engines, the bitsliced checks and the search.
It is the one general walk of a formula: `letters` and
`formula_modalities` read the same table.

A *positive literal* is built from `T`, letters, diamonds and boxes only.
A *clause* is a (possibly empty) chain of boxes over a disjunction of
literals and negated literals; a conjunction of clauses is a clausal
formula.  Clauses carry their negated and positive literals separately,
and print in implicative form (`p & q -> r`).
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Iterable

__all__ = [
    "Modality",
    "Formula",
    "Top",
    "Prop",
    "Not",
    "Or",
    "And",
    "Diamond",
    "Box",
    "TOP",
    "BOTTOM",
    "Clause",
    "ClausalFormula",
    "FragmentDescriptor",
    "ParseError",
    "NotClausalError",
    "InternalError",
    "parse",
    "to_text",
    "recognize_clausal",
    "classify",
    "is_positive_literal",
    "clause_texts",
    "letters",
    "formula_modalities",
]

class InternalError(RuntimeError):
    """A guarantee the library re-checks before returning did not hold.

    This signals a bug in knfrag, never bad input; the checks raising it
    run under every interpreter flag, `python -O` included.
    """


_IDENT_RE = re.compile(r"_?[a-z][a-z0-9_]*\Z")


class Modality(str):
    """Index of an accessibility relation: a validated name, and a `str` that
    equals, hashes and sorts like it (`Modality("a") == "a"`).  Given a
    Modality, `Modality(m)` returns `m` itself."""

    __slots__ = ()

    def __new__(cls, name):
        if isinstance(name, Modality):
            return name
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise ValueError(f"bad modality name: {name!r}")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str.__str__(self)

    def __repr__(self):
        return f"Modality(name={self.name!r})"


# --- Abstract syntax ---


class _Record:
    """An immutable record of its classes' `__slots__` fields, base first:
    `__reduce__` rebuilds it through its constructor, for `pickle` and `copy`,
    and it compares and hashes by `__reduce__` and prints its fields in order,
    with `repr` a loop over an explicit stack that prints sets sorted."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        cls.__match_args__ = cls._fields

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item._fields):
                v = getattr(item, name)
                parts += [f"{', ' if i else ''}{name}=", v if isinstance(v, _Record) else _repr(v)]
            stack += reversed(parts + [")"])
        return "".join(out)


def _repr(value) -> str:
    """`repr`, with a nonempty set's items sorted: equal sets may iterate in
    different orders, as a set and its deep copy can."""
    if type(value) not in (set, frozenset) or not value:
        return repr(value)
    items = "{" + ", ".join(sorted(map(repr, value))) + "}"
    return items if type(value) is set else f"frozenset({items})"


class Formula(_Record):
    """Base class for formula nodes.  A node reduces to its canonical text,
    so `==`, `hash`, `pickle` and `copy` all read `to_text`."""

    __slots__ = ()

    def __reduce__(self):
        # Through the text, not the fields: `to_text` and `parse` are loops,
        # so formulas of any depth compare, hash, pickle and copy.
        return parse, (to_text(self),)

    def __str__(self):
        return to_text(self)


class Top(Formula):
    __slots__ = ()


class Prop(Formula):
    __slots__ = ("letter",)

    def __init__(self, letter):
        if not _IDENT_RE.match(letter):
            raise ValueError(f"bad letter: {letter!r}")
        _set_letter(self, letter)


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand):
        _set_negated(self, operand)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)


class Or(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("modality", "operand")

    def __init__(self, modality, operand):
        _set_modality(self, Modality(modality))
        _set_operand(self, operand)


class Diamond(_Modal):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


# Stores past the frozen `__setattr__`: `_set` for records, slot descriptors (faster) for nodes.
_set = object.__setattr__
_set_letter, _set_negated = Prop.letter.__set__, Not.operand.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_modality, _set_operand = _Modal.modality.__set__, _Modal.operand.__set__

TOP = Top()
BOTTOM = Not(TOP)


def is_positive_literal(f: Formula) -> bool:
    """True for formulas built from T, letters, diamonds and boxes only."""
    while isinstance(f, (Diamond, Box)):
        f = f.operand
    return isinstance(f, (Top, Prop))


def _chain(f: Formula, cls, link=None) -> list[tuple[tuple | None, Formula]]:
    """The leaves of the maximal `cls` (And or Or) subtree at f, left to
    right, each with its path as a linked (parent, step) pair; `link` is
    the path of f itself, None at the root."""
    leaves = []
    stack = [(link, f)]
    while stack:
        link, g = stack.pop()
        if isinstance(g, cls):
            stack.append(((link, "right"), g.right))
            stack.append(((link, "left"), g.left))
        else:
            leaves.append((link, g))
    return leaves


def letters(f: Formula) -> frozenset[str]:
    """All propositional letters occurring in f, read off `_nnf_table`."""
    return frozenset(_nnf_table(f)[2])


def formula_modalities(f: Formula) -> frozenset[Modality]:
    """All modalities occurring in f, read off `_nnf_table`."""
    return _nnf_table(f)[4]


LIT, NEG, AND, OR, DIA, BOX = range(6)  # the kinds of `_nnf_table` rows; kind ^ 1 is the dual


def _nnf_table(f: Formula) -> tuple[list[tuple], int, dict, list[int], frozenset]:
    """f's negation normal form as a hash-consed table, built by one loop
    that reads f for both SAT engines, the bitsliced checks, `letters` and
    `formula_modalities`.

    Each row follows its children: (LIT or NEG, letter or None for T, None),
    (AND or OR, left id, right id) or (DIA or BOX, modality, operand id).
    Polarity is read off f as the loop goes, and a dict local to the call
    numbers the distinct rows, so two NNF subformulas are equal exactly when
    they share an id.  A left operand is read before its right one, so the
    rows of the root's left operand are exactly those up to its id.  The
    stack does not dedupe, so the loop also counts the NNF's diamond
    occurrences per modal depth: the depth rises when a modal node is popped
    and falls when its row's marker, which comes off once the operand is
    done, is popped; a marker holds the row's modality, or None, where a
    node holds its polarity.  The same depth gives each letter of f the
    modal depths it is read at, as one mask with bit d for depth d.
    Returns the rows, the root's id, that map from the letters of f to
    their masks, the profile, which ends in 0 at the nesting depth, and
    the modalities of f.  A node that is not a formula raises TypeError.
    """
    ids, done, stack, profile, depth = {}, [], [(f, False)], [0], 0
    reads, mods = {}, set()
    while stack:
        g, negated = stack.pop()
        t = type(g)
        if t is Not:
            stack.append((g.operand, not negated))
        elif t is And or t is Or:
            kind = AND if (t is And) != negated else OR
            stack += ((kind, None), (g.right, negated), (g.left, negated))
        elif t is Diamond or t is Box:
            kind = DIA if (t is Diamond) != negated else BOX
            if kind == DIA:
                profile[depth] += 1
            depth += 1
            if depth == len(profile):
                profile.append(0)
            mods.add(g.modality)
            stack += ((kind, g.modality), (g.operand, negated))
        else:
            if type(negated) is not bool:  # a row's marker: its parts are done
                b = done.pop()
                if g >= DIA:
                    depth -= 1
                    row = (g, negated, b)
                else:
                    row = (g, done.pop(), b)
            elif t is Prop:
                reads[g.letter] = reads.get(g.letter, 0) | 1 << depth
                row = (NEG if negated else LIT, g.letter, None)
            elif t is Top:
                row = (NEG if negated else LIT, None, None)
            else:
                raise TypeError(f"not a formula: {g!r}")
            done.append(ids.setdefault(row, len(ids)))
    return list(ids), done[0], reads, profile, frozenset(mods)


# --- Clausal form ---


def _unchecked(cls, **fields):
    """A `cls` value holding `fields` as given, with no validation: for
    parts that were validated where they were built or read."""
    value = object.__new__(cls)
    for name in fields:
        _set(value, name, fields[name])
    return value


def _lit_tuple(items: Iterable) -> tuple[Formula, ...]:
    out = []
    for l in items:
        if not isinstance(l, Formula) or not is_positive_literal(l):
            raise ValueError(f"not a positive literal: {l}")
        out.append(l)
    return tuple(out)


class Clause(_Record):
    """A box prefix over a disjunction of negated and positive literals.

    `negatives` holds the literals that occur negated; `positives` the
    plain ones.  A bare literal is the clause with empty negatives, a bare
    negated literal the clause with empty positives.
    """

    __slots__ = ("prefix", "negatives", "positives")

    def __init__(self, prefix=(), negatives=(), positives=()):
        _set(self, "prefix", tuple(Modality(m) for m in prefix))
        _set(self, "negatives", _lit_tuple(negatives))
        _set(self, "positives", _lit_tuple(positives))
        if not self.negatives and not self.positives:
            raise ValueError("empty clause")

    def to_formula(self) -> Formula:
        disjuncts = [Not(l) for l in self.negatives] + list(self.positives)
        body = reduce(Or, disjuncts)
        for m in reversed(self.prefix):
            body = Box(m, body)
        return body

    def __str__(self):
        return _clause_text(self)


class ClausalFormula(_Record):
    """A non-empty conjunction of clauses."""

    __slots__ = ("clauses",)

    def __init__(self, clauses):
        clauses = tuple(clauses)
        if not clauses:
            raise ValueError("clausal formula needs at least one clause")
        if not all(isinstance(c, Clause) for c in clauses):
            raise ValueError("clauses must be Clause values")
        _set(self, "clauses", clauses)

    def to_formula(self) -> Formula:
        return reduce(And, (c.to_formula() for c in self.clauses))

    def alphabet(self) -> frozenset[str]:
        """The letters of the literals, each read at the end of its chain."""
        acc = set()
        for c in self.clauses:
            for l in c.negatives + c.positives:
                while type(l) is Diamond or type(l) is Box:
                    l = l.operand
                if type(l) is Prop:
                    acc.add(l.letter)
        return frozenset(acc)

    def __str__(self):
        if len(self.clauses) == 1:
            return _clause_text(self.clauses[0])
        return " & ".join(clause_texts(c)[1] for c in self.clauses)


def clause_texts(c: Clause) -> tuple[str, str]:
    """The clause's text alone, and as a conjunct of a longer clausal
    formula: a prefix-free disjunction there is parenthesised."""
    text = _clause_text(c)
    if not c.prefix and len(c.negatives) + len(c.positives) >= 2:
        return text, f"({text})"
    return text, text


class FragmentDescriptor(_Record):
    """Which clausal fragments a formula inhabits."""

    __slots__ = ("horn", "krom", "core", "box_only", "diamond_only")

    def __init__(self, horn: bool, krom: bool, core: bool, box_only: bool, diamond_only: bool):
        _set(self, "horn", horn)
        _set(self, "krom", krom)
        _set(self, "core", core)
        _set(self, "box_only", box_only)
        _set(self, "diamond_only", diamond_only)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def classify(cf: ClausalFormula) -> FragmentDescriptor:
    """Fragment membership of a clausal formula.

    Horn: every clause has at most one positive literal.  Krom: every
    clause has at most two literals.  Core: both.  box_only/diamond_only:
    no diamond (resp. box) inside any literal; the clause prefix does not
    count.  One walk down each literal's modal chain.
    """
    horn = all(len(c.positives) <= 1 for c in cf.clauses)
    krom = all(len(c.negatives) + len(c.positives) <= 2 for c in cf.clauses)
    kinds = set()
    for c in cf.clauses:
        for l in c.negatives + c.positives:
            while (t := type(l)) is Diamond or t is Box:
                kinds.add(t)
                l = l.operand
    return FragmentDescriptor(horn, krom, horn and krom, Diamond not in kinds, Box not in kinds)


# --- Parsing ---


class ParseError(ValueError):
    """Syntax error with position and the token kinds that were expected."""

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column
        self.expected = tuple(expected)


# Lexemes: `->`, an ident, or any other non-space character, which is a
# symbol or, when it is none, a character the grammar stops on.
_LEXEME_RE = re.compile(r"->|_?[a-z][a-z0-9_]*|\S")
_SYMBOLS = frozenset(("->", "T", "F", "~", "&", "|", "(", ")", "<", ">", "[", "]"))


def _position(text, offset):
    """1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _fail(text, index, expected=(), message=None):
    """Raise the `ParseError` for lexeme `index` of `text` (past the last one:
    the end), with `message` or "expected ..., found ...".  Offsets are read
    here only.  A character that starts no token is reported first, wherever
    it stands: stray characters are errors before any grammar error is."""
    offset, lexeme = len(text), ""
    for j, m in enumerate(_LEXEME_RE.finditer(text)):
        if m[0] not in _SYMBOLS and not _IDENT_RE.match(m[0]):
            raise ParseError(f"unexpected character {m[0]!r}", *_position(text, m.start()))
        if j == index:
            offset, lexeme = m.start(), m[0]
    if message is None:
        message = f"expected {' or '.join(expected)}, found {lexeme or 'end of input'!r}"
    raise ParseError(message, *_position(text, offset), expected)


def _desugar_implies(antecedent: Formula, consequent: Formula) -> Formula:
    # An implication whose antecedent is a conjunction desugars clause-style
    # (~a | ~b | c), so implicative clause text reads back as a clause.
    disjuncts = [Not(g) for _, g in _chain(antecedent, And)] + [consequent]
    return reduce(Or, disjuncts)


# Binary operator -> (precedence, node class or desugaring); `->` groups to the right.
_BINARY = {"->": (0, _desugar_implies), "|": (1, Or), "&": (2, And)}


def parse(text: str, alphabet=None) -> Formula:
    """Parse `text` into a formula.

    If `alphabet` is given, letters outside it are rejected.  Raises
    `ParseError` with line/column and the expected-token set on bad input.
    One `findall` reads the lexemes, and one loop by operator precedence
    builds the nodes from parts it has checked, without validating them
    again: `pending` holds the (left operand, precedence, constructor) of
    each binary operator awaiting its right operand, `prefixes` the unary
    operators awaiting theirs, and `opened` the (pending, prefixes) saved at
    each `(`.
    """
    lexemes = _LEXEME_RE.findall(text)
    lexemes.append("")  # the end
    alphabet = None if alphabet is None else frozenset(alphabet)  # letters, not substrings
    new = object.__new__
    atoms, modalities = {"T": TOP, "F": BOTTOM}, {}  # one node per letter, one Modality per name
    pending, prefixes, opened = [], [], []
    i = 0
    while True:
        lexeme = lexemes[i]
        i += 1
        f = atoms.get(lexeme)
        if f is None:
            if lexeme == "~":
                prefixes.append((Not, None))
                continue
            if lexeme == "(":
                opened.append((pending, prefixes))
                pending, prefixes = [], []
                continue
            if lexeme == "<" or lexeme == "[":
                name = lexemes[i]
                m = modalities.get(name)
                if m is None:
                    if not _IDENT_RE.match(name):
                        _fail(text, i, ("ident",))
                    m = modalities[name] = Modality(name)
                close = ">" if lexeme == "<" else "]"
                if lexemes[i + 1] != close:
                    _fail(text, i + 1, (close,))
                prefixes.append((Diamond if lexeme == "<" else Box, m))
                i += 2
                continue
            if not _IDENT_RE.match(lexeme):
                _fail(text, i - 1, ("T", "F", "ident", "(", "~", "<", "["))
            if alphabet is not None and lexeme not in alphabet:
                _fail(text, i - 1, message=f"letter {lexeme!r} not in the declared alphabet")
            f = atoms[lexeme] = new(Prop)
            _set_letter(f, lexeme)
        # f is a whole operand: apply its prefixes, then read the operator
        # after it; a `)` or the end makes the group's value the operand.
        while True:
            while prefixes:
                cls, m = prefixes.pop()
                g = new(cls)
                if m is None:
                    _set_negated(g, f)
                else:
                    _set_modality(g, m)
                    _set_operand(g, f)
                f = g
            lexeme = lexemes[i]
            prec, make = _BINARY.get(lexeme, (-1, None))  # -1: a group ends
            floor = prec or 1  # an `->` reduces only the tighter operators
            while pending and pending[-1][1] >= floor:
                left, _, join = pending.pop()
                if join is _desugar_implies:
                    f = join(left, f)
                else:
                    g = new(join)
                    _set_left(g, left)
                    _set_right(g, f)
                    f = g
            if make is not None:
                pending.append((f, prec, make))
                i += 1
                break
            if lexeme == ")" and opened:
                pending, prefixes = opened.pop()
                i += 1
            elif lexeme == "" and not opened:
                return f
            else:
                _fail(text, i, (")",) if opened else ("end",))


# --- Printing ---

_OPERATORS = {And: (2, " & "), Or: (1, " | ")}


def to_text(f) -> str:
    """Canonical text; reparsing yields a structurally identical value.

    Accepts formulas, clauses and clausal formulas; clauses print in
    implicative form.  One loop over a stack of literal strings and
    (node, precedence its position needs) items, with no recursion: a
    left operand needs its operator's precedence, a right one one more,
    the operand of a prefix 3, and a conjunction or disjunction below the
    precedence its position needs is parenthesised.
    """
    if isinstance(f, (Clause, ClausalFormula)):
        return str(f)
    out = []
    stack = [(f, 0)]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        g, need = item
        t = type(g)
        if t is Prop:
            emit(g.letter)
        elif t is Top:
            emit("T")
        elif t is Not and type(g.operand) is Top:
            emit("F")
        elif t is Not or t is Diamond or t is Box:
            emit("~" if t is Not else f"<{g.modality}>" if t is Diamond else f"[{g.modality}]")
            push((g.operand, 3))
        elif t is And or t is Or:
            prec, op = _OPERATORS[t]
            if prec < need:
                emit("(")
                push(")")
            push((g.right, prec + 1))
            push(op)
            push((g.left, prec))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def _clause_text(c: Clause) -> str:
    n, m = len(c.negatives), len(c.positives)
    if n == 0:
        body = " | ".join(to_text(l) for l in c.positives)
    elif m == 0:
        body = " | ".join("~" + to_text(l) for l in c.negatives)
    else:
        ante = " & ".join(to_text(l) for l in c.negatives)
        cons = " | ".join(to_text(l) for l in c.positives)
        body = f"{ante} -> {cons}"
    if c.prefix and n + m >= 2:
        body = f"({body})"
    return "".join(f"[{a}]" for a in c.prefix) + body


# --- Clausal-form recognition ---


class NotClausalError(ValueError):
    """Raised when a formula is not literally in clausal form.

    `path` navigates from the root to the offending subformula via
    attribute names ("left", "right", "operand").
    """

    def __init__(self, message, path, offending=None):
        super().__init__(message)
        self.path = tuple(path)
        self.offending = offending


def _path(link) -> tuple[str, ...]:
    """The steps of a linked (parent, step) path, root first."""
    steps = []
    while link is not None:
        link, step = link
        steps.append(step)
    return tuple(reversed(steps))


def _recognize_clause(f: Formula, link) -> Clause:
    # Every disjunct is tested as a literal here and the prefix holds parsed
    # `Box` modalities, so the clause is built without validating it again.
    if is_positive_literal(f):
        return _unchecked(Clause, prefix=(), negatives=(), positives=(f,))
    prefix = []
    while isinstance(f, Box):
        prefix.append(f.modality)
        f, link = f.operand, (link, "operand")
    negatives, positives = [], []
    for leaf, d in _chain(f, Or, link):
        if is_positive_literal(d):
            positives.append(d)
        elif isinstance(d, Not) and is_positive_literal(d.operand):
            negatives.append(d.operand)
        else:
            what = "disjunct is not a literal" if isinstance(f, Or) else "not a clause"
            raise NotClausalError(f"{what}: {to_text(d)}", _path(leaf), d)
    return _unchecked(Clause, prefix=tuple(prefix), negatives=tuple(negatives),
                      positives=tuple(positives))


def recognize_clausal(f: Formula) -> ClausalFormula:
    """Read a formula as a conjunction of clauses.

    Purely syntactic: conjunction and disjunction chains are flattened in
    order, nothing is reordered or simplified.  Leading boxes over a bare
    positive literal are absorbed into the literal (the literal-as-clause
    reading), not the prefix.  Raises `NotClausalError` otherwise.
    """
    return ClausalFormula(tuple(_recognize_clause(g, link) for link, g in _chain(f, And)))
