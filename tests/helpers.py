"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import re
import threading
from itertools import combinations_with_replacement, islice, product

from knfrag import (
    COUNTEREXAMPLE,
    EQUIVALENT_UP_TO_BOUND,
    And,
    BOTTOM,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    KripkeFrame,
    KripkeModel,
    Modality,
    Not,
    NotClausalError,
    Or,
    ParseError,
    PointedModel,
    Prop,
    TOP,
    Top,
    InternalError,
    check,
    classify,
    enumerate_extensions,
    enumerate_fragment,
    enumerate_models,
    is_positive_literal,
    to_text,
)
from knfrag import expressiveness
from knfrag.solver import (
    DEFAULT_MODEL_CAP,
    SAT,
    UNKNOWN_AT_BOUND,
    UNSAT,
    CapExceeded,
    SatResult,
    _largest_tree,
    _tree_to_model,
    _world_bound,
    sat_tableau,
)
from knfrag.syntax import _desugar_implies, _position
from knfrag.translate import FreshLetterSource, _offending_count


# --- Independent truth oracle: table filling over all (subformula, world) ---


def subformulas_postorder(f):
    seen = []
    def walk(g):
        if isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, (Or, And)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Diamond, Box)):
            walk(g.operand)
        seen.append(g)
    walk(f)
    return seen


def table_check(model, world, f):
    """Bottom-up truth table over every subformula and world.  Entries are
    keyed by node identity: a formula hashes by its whole text."""
    table = {}
    for g in subformulas_postorder(f):
        for w in model.frame.worlds:
            if (id(g), w) in table:
                continue
            if isinstance(g, Prop):
                value = g.letter in model.valuation[w]
            elif isinstance(g, Not):
                value = not table[(id(g.operand), w)]
            elif isinstance(g, Or):
                value = table[(id(g.left), w)] or table[(id(g.right), w)]
            elif isinstance(g, And):
                value = table[(id(g.left), w)] and table[(id(g.right), w)]
            elif isinstance(g, Diamond):
                value = any(
                    table[(id(g.operand), v)]
                    for v in model.frame.successors(w, g.modality)
                )
            elif isinstance(g, Box):
                value = all(
                    table[(id(g.operand), v)]
                    for v in model.frame.successors(w, g.modality)
                )
            else:
                value = True
            table[(id(g), w)] = value
    return table[(id(f), world)]


# --- Reference walkers: hand-written traversals, one per question, that
# check the answers the library reads off its one NNF table walk and its
# clausal chain loop ---


def reference_letters(f):
    acc = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Prop):
            acc.add(g.letter)
        elif isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Diamond, Box)):
            stack.append(g.operand)
    return frozenset(acc)


def reference_modalities(f):
    acc = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Diamond, Box)):
            acc.add(g.modality)
            stack.append(g.operand)
    return frozenset(acc)


def reference_node_count(f):
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Diamond, Box)):
            stack.append(g.operand)
    return n


def reference_has_node(f, cls):
    """Whether f has a node of class `cls`."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            return True
        if isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Diamond, Box)):
            stack.append(g.operand)
    return False


def reference_offending_count(lit, bad):
    def walk(g):
        if isinstance(g, (Diamond, Box)):
            inner_count, inner_bad = walk(g.operand)
            contains = inner_bad or isinstance(g, bad)
            return inner_count + (1 if contains else 0), contains
        return 0, False

    return walk(lit)[0]


def _reference_or_chain(f, path):
    if isinstance(f, Or):
        yield from _reference_or_chain(f.left, path + ("left",))
        yield from _reference_or_chain(f.right, path + ("right",))
    else:
        yield path, f


def _reference_clause(f, path):
    if is_positive_literal(f):
        return Clause((), (), (f,))
    if isinstance(f, Not) and is_positive_literal(f.operand):
        return Clause((), (f.operand,), ())
    if isinstance(f, Box):
        inner = _reference_clause(f.operand, path + ("operand",))
        return Clause((f.modality,) + inner.prefix, inner.negatives, inner.positives)
    if isinstance(f, Or):
        negatives, positives = [], []
        for subpath, d in _reference_or_chain(f, path):
            if is_positive_literal(d):
                positives.append(d)
            elif isinstance(d, Not) and is_positive_literal(d.operand):
                negatives.append(d.operand)
            else:
                raise NotClausalError(f"disjunct is not a literal: {to_text(d)}", subpath, d)
        return Clause((), tuple(negatives), tuple(positives))
    raise NotClausalError(f"not a clause: {to_text(f)}", path, f)


def reference_recognize_clausal(f):
    """The recursive reader: copies the path tuple at every level."""
    conjuncts = []

    def walk(g, path):
        if isinstance(g, And):
            walk(g.left, path + ("left",))
            walk(g.right, path + ("right",))
        else:
            conjuncts.append((path, g))

    walk(f, ())
    return ClausalFormula(tuple(_reference_clause(g, path) for path, g in conjuncts))


# --- Reference Krom rewriting: one clause list, each defining clause
# inserted after the clause it defines, which is then rescanned ---


def _reference_find_offending(clause: Clause, bad):
    """(side, index, literal) of the first offending literal, side 0 for
    the negatives and 1 for the positives; None if there is none."""
    for side, lits in enumerate((clause.negatives, clause.positives)):
        for i, lit in enumerate(lits):
            if _offending_count(lit, bad):
                return side, i, lit
    return None


def _reference_rewrite_step(clause: Clause, side, index, lit, bad, fresh):
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


def reference_eliminate(cf: ClausalFormula, bad) -> ClausalFormula:
    """`krom_to_krom_box` is `reference_eliminate(cf, Diamond)`, and
    `krom_to_krom_diamond` is `reference_eliminate(cf, Box)`: every step
    builds its clauses with the validating constructors."""
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
        found = _reference_find_offending(clauses[i], bad)
        if found is None:
            i += 1
            continue
        side, index, lit = found
        rewritten, defining = _reference_rewrite_step(clauses[i], side, index, lit, bad, fresh)
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


def reference_formula_key(f):
    """The recursive sort key that once ordered the fragment's literal pool:
    T, letters, diamonds, boxes; then modality; then operand."""
    if isinstance(f, Prop):
        return (1, f.letter)
    if isinstance(f, Diamond):
        return (2, f.modality, reference_formula_key(f.operand))
    if isinstance(f, Box):
        return (3, f.modality, reference_formula_key(f.operand))
    return (0,)  # Top


def reference_nnf(f):
    """Negation normal form by structural recursion, an oracle for `to_nnf`
    and for the tableau's NNF table."""
    if isinstance(f, (Top, Prop)):
        return f
    if isinstance(f, Or):
        return Or(reference_nnf(f.left), reference_nnf(f.right))
    if isinstance(f, And):
        return And(reference_nnf(f.left), reference_nnf(f.right))
    if isinstance(f, Diamond):
        return Diamond(f.modality, reference_nnf(f.operand))
    if isinstance(f, Box):
        return Box(f.modality, reference_nnf(f.operand))
    g = f.operand
    if isinstance(g, (Top, Prop)):
        return f
    if isinstance(g, Not):
        return reference_nnf(g.operand)
    if isinstance(g, Or):
        return And(reference_nnf(Not(g.left)), reference_nnf(Not(g.right)))
    if isinstance(g, And):
        return Or(reference_nnf(Not(g.left)), reference_nnf(Not(g.right)))
    if isinstance(g, Diamond):
        return Box(g.modality, reference_nnf(Not(g.operand)))
    return Diamond(g.modality, reference_nnf(Not(g.operand)))


def reference_diamond_profile(nnf):
    """Diamond occurrences of an NNF formula at each modal depth, read off
    the NNF copy itself: the oracle for the profile that `_nnf_table`
    counts while it builds the table both SAT engines read."""
    counts = [0]
    stack = [(nnf, 0)]
    while stack:
        g, d = stack.pop()
        if isinstance(g, (Diamond, Box)):
            if isinstance(g, Diamond):
                counts[d] += 1
            if d + 1 == len(counts):
                counts.append(0)
            stack.append((g.operand, d + 1))
        elif isinstance(g, (Or, And)):
            stack.append((g.left, d))
            stack.append((g.right, d))
        elif isinstance(g, Not):
            stack.append((g.operand, d))
    return counts


def reference_letter_depths(nnf):
    """Each letter of an NNF formula mapped to the modal depths it occurs
    at, bit d for depth d, read off the NNF copy with an explicit depth:
    the oracle for the masks that `_nnf_table` returns."""
    depths = {}
    stack = [(nnf, 0)]
    while stack:
        g, d = stack.pop()
        if isinstance(g, Prop):
            depths[g.letter] = depths.get(g.letter, 0) | 1 << d
        elif isinstance(g, (Diamond, Box)):
            stack.append((g.operand, d + 1))
        elif isinstance(g, (Or, And)):
            stack.append((g.left, d))
            stack.append((g.right, d))
        elif isinstance(g, Not):
            stack.append((g.operand, d))
    return depths


def reference_bruteforce(f, max_worlds=None, model_cap=DEFAULT_MODEL_CAP):
    """The brute-force loop that checks every tree it counts: the oracle for
    `sat_bruteforce`, which counts but does not check the trees holding a
    letter where f does not read it.  Its own enumeration, in the order
    `sat_bruteforce` documents: node counts ascending, then the root mask,
    then the multisets of the sorted (size, label, subtree) pool in
    depth-first order, with at most profile[d] children at depth d."""
    nnf = reference_nnf(f)
    profile = reference_diamond_profile(nnf)
    bound = _world_bound(profile)
    alpha = tuple(sorted(reference_letter_depths(nnf)))
    mods = tuple(sorted(reference_modalities(f)))
    memo = {}

    def sets(mask):
        return frozenset(a for j, a in enumerate(alpha) if mask >> j & 1)

    def bodies(n, level):
        if n == 1 or not profile[level]:
            return [()] if n == 1 else []
        pool = sorted((size, (label, sub)) for size in range(1, n)
                      for sub in trees(size, level + 1) for label in range(len(mods)))
        out = []

        def extend(start, total, chosen):
            if total == n - 1:
                out.append(tuple(pool[i][1] for i in chosen))
            elif len(chosen) < profile[level]:
                for i in range(start, len(pool)):
                    if total + pool[i][0] < n:
                        extend(i, total + pool[i][0], chosen + (i,))

        extend(0, 0, ())
        return out

    def trees(n, level):
        if (n, level) not in memo:
            memo[n, level] = [(m, b) for m in range(1 << len(alpha)) for b in bodies(n, level)]
        return memo[n, level]

    count = 0
    for n in range(1, min(bound if max_worlds is None else max_worlds, _largest_tree(profile)) + 1):
        for mask, body in trees(n, 0):
            count += 1
            if count > model_cap:
                raise CapExceeded(f"model cap {model_cap} exceeded")
            model = _tree_to_model(sets(mask), body, sets, mods.__getitem__, frozenset(alpha))
            if check(model, "w0", f):
                return SatResult(SAT, PointedModel(model, "w0"))
    return SatResult(UNSAT if max_worlds is None or max_worlds >= bound else UNKNOWN_AT_BOUND)


def reference_multisets(sizes, budget, most):
    """(total, picks) for each non-decreasing tuple `picks` of at most `most`
    indices into the ascending `sizes` whose sizes sum to a total up to
    `budget`, in depth-first order (a tuple before its extensions) from
    (0, ()): the all-totals walk that `_multisets` prunes to one total."""
    yield 0, ()
    stack = [(0, 0, ())] if most else []
    while stack:
        i, total, chosen = stack.pop()
        if i < len(sizes) and total + sizes[i] <= budget:
            t, picked = total + sizes[i], chosen + (i,)
            stack.append((i + 1, total, chosen))
            if len(picked) < most:
                stack.append((i, t, picked))
            yield t, picked


def reference_pools(profile, n_labels, n_letters):
    """pool(n, level): the (size, (label, subtree)) entries of every subtree
    size below n at level + 1, sorted whole, over subtrees whose bodies are
    the all-totals walk filtered to their total.  Brute force's pools as it
    built them before it grew each once per call."""
    memo = {}

    def pool(n, level):
        return sorted((size, (label, sub)) for size in range(1, n)
                      for sub in trees(size, level + 1) for label in range(n_labels))

    def trees(n, level):
        if (n, level) not in memo:
            bodies = [()] if n == 1 else []
            if n > 1 and profile[level]:
                entries = pool(n, level)
                bodies = [tuple(entries[i][1] for i in picks) for total, picks in
                          reference_multisets([size for size, _ in entries], n - 1, profile[level])
                          if total == n - 1]
            memo[n, level] = [(m, b) for m in range(1 << n_letters) for b in bodies]
        return memo[n, level]

    return pool


def literals_by_size(max_size, alphabet, mods, allow_dia, allow_box):
    """Every literal up to the size, in one list: the rows of
    `expressiveness._literal_rows` laid end to end."""
    rows = expressiveness._literal_rows(alphabet, mods, allow_dia, allow_box)
    return [lit for row in islice(rows, max_size) for lit in row]


def reference_fragment_pool(alphabet, modalities, size_bound, fragment):
    """The literals and clause pool of a fragment, built by the two
    recursive pickers and the loop nest that `_multisets` replaced.  Pool
    entries are (size, prefix, negative indices, positive indices) into
    the literals."""
    req = expressiveness.parse_fragment_spec(fragment)
    alphabet = tuple(sorted(str(l) for l in set(alphabet)))
    mods = tuple(sorted({Modality(m) for m in modalities}))
    lits = literals_by_size(
        size_bound, alphabet, mods, allow_dia=not req.box_only, allow_box=not req.diamond_only
    )
    sized = [(s, l) for s, l, _ in lits]

    def side_multisets(count, budget):
        out = []

        def pick(start, remaining, left, chosen):
            if left == 0:
                if remaining == 0:
                    out.append(tuple(chosen))
                return
            for i in range(start, len(sized)):
                size = sized[i][0]
                if size > remaining - (left - 1):
                    break
                chosen.append(i)
                pick(i, remaining - size, left - 1, chosen)
                chosen.pop()

        pick(0, budget, count, [])
        return out

    max_m = 1 if req.horn else size_bound
    pool = []
    for prefix_len in range(0, size_bound):
        for prefix in product(mods, repeat=prefix_len):
            for n in range(0, size_bound + 1):
                for m in range(0, max_m + 1):
                    if n + m < 1 or req.krom and n + m > 2:
                        continue
                    if prefix_len and n == 0 and m == 1:
                        continue
                    connective_cost = prefix_len + n + (n + m - 1)
                    lit_budget = size_bound - connective_cost
                    for total in range(n + m, lit_budget + 1):
                        for neg_total in range(n, total - m + 1):
                            for negs in side_multisets(n, neg_total):
                                for poss in side_multisets(m, total - neg_total):
                                    pool.append((connective_cost + total, prefix, negs, poss))
    pool.sort(key=lambda clause: clause[0])
    return [l for _, l in sized], pool


def reference_fragment_layers(alphabet, modalities, size_bound, fragment):
    """`reference_fragment_pool` and the fragment's size layers: layer s
    holds the size-s formulas as pool index tuples."""
    lits, pool = reference_fragment_pool(alphabet, modalities, size_bound, fragment)
    layers = [[] for _ in range(size_bound + 1)]

    def pick(start, budget, chosen):
        for i in range(start, len(pool)):
            cost = pool[i][0] if not chosen else pool[i][0] + 1
            if cost > budget:
                break
            chosen.append(i)
            layers[size_bound - budget + cost].append(tuple(chosen))
            pick(i, budget - cost, chosen)
            chosen.pop()

    pick(0, size_bound, [])
    return lits, pool, layers


# --- Independent bitsliced oracle: the post-order stack code `Batch.value`
# ran before it read the NNF table, kept as written then.  It shares the
# batches' packed values and `Batch._modal`, not the table the tableau reads ---

_LETTER, _TOP, _NOT, _AND, _OR, _DIAMOND, _BOX = range(7)
_TOP_OP, _NOT_OP, _AND_OP, _OR_OP = (_TOP, None), (_NOT, None), (_AND, None), (_OR, None)


class Program:
    """A formula compiled to post-order stack code, with the letters and
    modality names it mentions."""

    __slots__ = ("code", "letters", "modalities")

    def __init__(self, code, letters, modalities):
        self.code = code
        self.letters = letters
        self.modalities = modalities


def compile_formula(f) -> Program:
    """Post-order code for f: one instruction per node, emitted in pre-order
    (each node before its children, the right child before the left) by a
    loop over an explicit stack of its own, then reversed.  It shares no
    traversal with the library, and deep formulas raise no RecursionError."""
    code = []
    emit = code.append
    letters = set()
    mods = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Prop:
            emit((_LETTER, g.letter))
            letters.add(g.letter)
        elif t is Not:
            emit(_NOT_OP)
            stack.append(g.operand)
        elif t is And or t is Or:
            emit(_AND_OP if t is And else _OR_OP)
            stack += (g.left, g.right)
        elif t is Diamond or t is Box:
            mods.add(g.modality)
            emit((_DIAMOND if t is Diamond else _BOX, g.modality))
            stack.append(g.operand)
        elif t is Top:
            emit(_TOP_OP)
        else:
            raise TypeError(f"not a formula: {g!r}")
    code.reverse()
    return Program(code, frozenset(letters), frozenset(mods))


def program_value(batch, program: Program) -> int:
    """The program's truth at every world of every model of the batch."""
    packed, full = batch.packed, batch.layout.full
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program.code:
        if op == _LETTER:
            push(packed.get(arg, 0))
        elif op == _NOT:
            push(full ^ pop())
        elif op == _AND:
            push(pop() & pop())
        elif op == _OR:
            push(pop() | pop())
        elif op == _TOP:
            push(full)
        else:
            push(batch._modal(op == _BOX, arg, pop()))
    return pop()


def reference_least_upper_bounds(cases, alphabet, modalities, max_size, fragment):
    """For each (batch, truth) case, a list whose entry s - 1 is the AND on
    the batch of the clauses of size at most s in the pool of
    `reference_fragment_layers` that hold wherever the truth does, for s =
    1..max_size; each clause is valued by `program_value(batch, compile_formula(...))`."""
    lits, pool = reference_fragment_pool(alphabet, modalities, max_size, fragment)
    programs = [(size, compile_formula(Clause(prefix, tuple(lits[i] for i in negs),
                                              tuple(lits[i] for i in poss)).to_formula()))
                for size, prefix, negs, poss in pool]  # ascending size
    bounds, values = [], {}  # values: batch -> each clause's value there
    for batch, truth in cases:
        if batch not in values:
            values[batch] = [program_value(batch, program) for _, program in programs]
        row, value = [], batch.layout.full
        for (size, _), v in zip(programs, values[batch]):
            while len(row) < size - 1:
                row.append(value)
            if not truth & ~v:
                value &= v
        bounds.append(row + [value] * (max_size - len(row)))
    return bounds


# --- Reference parser: the tokenizer and loop `parse` had before it read
# its lexemes with one `findall`, kept as written then; `_position` and
# `_desugar_implies` are shared, unchanged ---


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<ident>_?[a-z][a-z0-9_]*)|(?P<sym>[TF~&|()<>\[\]]))"
)


def _reference_tokenize(text):
    """(kind, lexeme, offset) triples, the last of kind "end"; a symbol is
    its own kind.  Each match must start where the last one ended."""
    tokens, pos = [], 0
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        lexeme = m[kind]
        pos = m.end()
        tokens.append((lexeme if kind == "sym" else kind, lexeme, pos - len(lexeme)))
    rest = text[pos:].lstrip()
    if rest:
        offset = len(text) - len(rest)
        raise ParseError(f"unexpected character {rest[0]!r}", *_position(text, offset))
    tokens.append(("end", "", len(text)))
    return tokens


def _reference_fail(text, token, expected):
    _, lexeme, offset = token
    shown = lexeme or "end of input"
    message = f"expected {' or '.join(expected)}, found {shown!r}"
    raise ParseError(message, *_position(text, offset), expected)


_REFERENCE_BINARY = {"arrow": (0, _desugar_implies), "|": (1, Or), "&": (2, And)}


def reference_parse(text, alphabet=None):
    """`parse` through a tokenizer that keeps every token's offset and
    nodes built by their validating constructors."""
    tokens = _reference_tokenize(text)
    alphabet = None if alphabet is None else frozenset(alphabet)
    props, modalities = {}, {}  # one node per letter, one Modality per name
    pending, prefixes, opened = [], [], []
    i = 0
    while True:
        kind, lexeme, offset = tokens[i]
        i += 1
        if kind == "ident":
            f = props.get(lexeme)
            if f is None:
                if alphabet is not None and lexeme not in alphabet:
                    message = f"letter {lexeme!r} not in the declared alphabet"
                    raise ParseError(message, *_position(text, offset))
                f = props[lexeme] = Prop(lexeme)
        elif kind == "T":
            f = TOP
        elif kind == "F":
            f = BOTTOM
        elif kind == "~":
            prefixes.append((Not, None))
            continue
        elif kind == "(":
            opened.append((pending, prefixes))
            pending, prefixes = [], []
            continue
        elif kind == "<" or kind == "[":
            close = ">" if kind == "<" else "]"
            if tokens[i][0] != "ident":
                _reference_fail(text, tokens[i], ("ident",))
            if tokens[i + 1][0] != close:
                _reference_fail(text, tokens[i + 1], (close,))
            name = tokens[i][1]
            if name not in modalities:
                modalities[name] = Modality(name)
            prefixes.append((Diamond if kind == "<" else Box, modalities[name]))
            i += 2
            continue
        else:
            _reference_fail(text, tokens[i - 1], ("T", "F", "ident", "(", "~", "<", "["))
        # f is a whole operand: apply its prefixes, then read the operator
        # after it; a `)` or the end makes the group's value the operand.
        while True:
            while prefixes:
                cls, m = prefixes.pop()
                f = cls(f) if m is None else cls(m, f)
            kind = tokens[i][0]
            prec, make = _REFERENCE_BINARY.get(kind, (-1, None))  # -1: a group ends
            floor = prec or 1  # an `->` reduces only the tighter operators
            while pending and pending[-1][1] >= floor:
                left, _, join = pending.pop()
                f = join(left, f)
            if make is not None:
                pending.append((f, prec, make))
                i += 1
                break
            if kind == ")" and opened:
                pending, prefixes = opened.pop()
                i += 1
            elif kind == "end" and not opened:
                return f
            else:
                _reference_fail(text, tokens[i], (")",) if opened else ("end",))


# --- Random generators (plain seeded random, no framework) ---


def random_formula(rng, depth, letters=("p", "q"), mods=("a", "b")):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.15:
            return TOP
        return Prop(rng.choice(letters))
    if roll < 0.40:
        return Not(random_formula(rng, depth - 1, letters, mods))
    if roll < 0.55:
        return Or(
            random_formula(rng, depth - 1, letters, mods),
            random_formula(rng, depth - 1, letters, mods),
        )
    if roll < 0.70:
        return And(
            random_formula(rng, depth - 1, letters, mods),
            random_formula(rng, depth - 1, letters, mods),
        )
    ctor = Diamond if roll < 0.85 else Box
    return ctor(rng.choice(mods), random_formula(rng, depth - 1, letters, mods))


def random_literal(rng, depth, letters=("p", "q"), mods=("a", "b"),
                   allow_dia=True, allow_box=True):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.2:
            return TOP
        return Prop(rng.choice(letters))
    ctors = ([Diamond] if allow_dia else []) + ([Box] if allow_box else [])
    if not ctors:
        return Prop(rng.choice(letters))
    ctor = rng.choice(ctors)
    return ctor(
        rng.choice(mods),
        random_literal(rng, depth - 1, letters, mods, allow_dia, allow_box),
    )


def random_clause(rng, letters, mods, lit_depth=2, allow_dia=True, allow_box=True,
                  max_negatives=2, max_positives=1):
    while True:
        n = rng.randint(0, max_negatives)
        m = rng.randint(0, max_positives)
        if n + m >= 1:
            break
    prefix = tuple(rng.choice(mods) for _ in range(rng.randint(0, 2)))
    make = lambda: random_literal(
        rng, rng.randint(0, lit_depth), letters, mods, allow_dia, allow_box
    )
    return Clause(prefix, tuple(make() for _ in range(n)), tuple(make() for _ in range(m)))


def random_hornbox_formula(rng, letters=("p", "q", "r"), mods=("a", "b"),
                           max_clauses=4, lit_depth=2):
    count = rng.randint(1, max_clauses)
    return ClausalFormula(tuple(
        random_clause(rng, letters, mods, lit_depth, allow_dia=False)
        for _ in range(count)
    ))


def random_horndia_formula(rng, letters=("p", "q", "r"), mods=("a", "b"),
                           max_clauses=4, lit_depth=2):
    count = rng.randint(1, max_clauses)
    return ClausalFormula(tuple(
        random_clause(rng, letters, mods, lit_depth, allow_box=False)
        for _ in range(count)
    ))


def random_model(rng, max_worlds=5, letters=("p", "q", "r"), mods=("a", "b"),
                 edge_bias=0.3, letter_bias=0.5, frame=None):
    if frame is None:
        k = rng.randint(1, max_worlds)
        worlds = [f"w{i}" for i in range(k)]
        relations = {}
        for m in mods:
            pairs = [
                (u, v) for u in worlds for v in worlds if rng.random() < edge_bias
            ]
            if pairs:
                relations[m] = pairs
        frame = KripkeFrame(worlds, relations)
    valuation = {
        w: {l for l in letters if rng.random() < letter_bias}
        for w in frame.worlds
    }
    return KripkeModel(frame, valuation, set(letters))


def random_modal_3cnf(rng, clauses, n_letters=3, depth=1, modality="a0"):
    """Random modal 3-CNF (Giunchiglia & Sebastiani, CADE 1996): `clauses`
    clauses of 3 literals over the letters p0.. and one modality.  Each
    literal is negated with probability 1/2; below `depth` its atom is a
    letter with probability 1/2 and otherwise a box over such a clause one
    level shallower."""
    letters = [f"p{i}" for i in range(n_letters)]

    def clause(d):
        lits = []
        for _ in range(3):
            if d == 0 or rng.random() < 0.5:
                atom = Prop(rng.choice(letters))
            else:
                atom = Box(modality, clause(d - 1))
            lits.append(Not(atom) if rng.random() < 0.5 else atom)
        return Or(Or(lits[0], lits[1]), lits[2])

    f = clause(depth)
    for _ in range(clauses - 1):
        f = And(f, clause(depth))
    return f


def enlarge_valuation(rng, model, grow_bias=0.3):
    """A model on the same frame whose valuation is a pointwise superset."""
    valuation = {
        w: set(ls) | {l for l in model.alphabet if rng.random() < grow_bias}
        for w, ls in model.valuation.items()
    }
    return KripkeModel(model.frame, valuation, model.alphabet)


# --- Exhaustive corpora ---


def formulas_up_to_size(max_size, letters=("p",), mods=("a",)):
    """Every formula tree with at most `max_size` constructors."""
    by_size = {1: [TOP] + [Prop(l) for l in letters]}
    for n in range(2, max_size + 1):
        row = []
        for sub in by_size[n - 1]:
            row.append(Not(sub))
            for m in mods:
                row.append(Diamond(m, sub))
                row.append(Box(m, sub))
        for i in range(1, n - 1):
            for left in by_size[i]:
                for right in by_size[n - 1 - i]:
                    row.append(Or(left, right))
                    row.append(And(left, right))
        by_size[n] = row
    return [f for n in range(1, max_size + 1) for f in by_size[n]]


def depth_bounded_literals(max_depth=2, letters=("p", "q"), mods=("a",)):
    rows = [[TOP] + [Prop(l) for l in letters]]
    for _ in range(max_depth):
        prev = rows[-1]
        rows.append([c(m, l) for c in (Diamond, Box) for m in mods for l in prev])
    return [l for row in rows for l in row]


def krom_corpus(max_depth=2, letters=("p", "q"), mods=("a",)):
    """Single Krom clauses over depth-bounded literals, plus unary-clause pairs."""
    literals = depth_bounded_literals(max_depth, letters, mods)
    clauses = []
    for l in literals:
        clauses.append(Clause((), (), (l,)))
        clauses.append(Clause((), (l,), ()))
    for l1, l2 in combinations_with_replacement(literals, 2):
        clauses.append(Clause((), (), (l1, l2)))
        clauses.append(Clause((), (l1, l2), ()))
    for l1, l2 in product(literals, repeat=2):
        clauses.append(Clause((), (l1,), (l2,)))
    corpus = [ClausalFormula((c,)) for c in clauses]
    corpus.extend(
        ClausalFormula((Clause((), (), (l1,)), Clause((), (l2,), ())))
        for l1, l2 in product(literals, repeat=2)
    )
    return corpus


# --- Reference model-stream loops: one model, one world, one `check` at a time ---


def reference_weak_equiv(f, g, alphabet, max_worlds):
    """(status, counterexample model, world, details) by the scalar loop
    over `enumerate_models`; the counterexample fields are None when the
    formulas agree up to the bound."""
    mods = reference_modalities(f) | reference_modalities(g)
    for model in enumerate_models(alphabet, mods, max_worlds):
        for w in model.frame.worlds:
            a = check(model, w, f)
            if a != check(model, w, g):
                return COUNTEREXAMPLE, model, w, {"left": a, "right": not a}
    return EQUIVALENT_UP_TO_BOUND, None, None, None


def reference_strong(f, g, max_worlds, alphabet=None):
    """Like `reference_weak_equiv`, trying every extension of each model
    over g's extra letters through `enumerate_extensions`."""
    base = frozenset(alphabet) if alphabet is not None else reference_letters(f)
    new = reference_letters(g) - base
    mods = reference_modalities(f) | reference_modalities(g)
    for model in enumerate_models(base, mods, max_worlds):
        extensions = list(enumerate_extensions(model, new)) if new else [model]
        for w in model.frame.worlds:
            a = check(model, w, f)
            b = any(check(ext, w, g) for ext in extensions)
            if a != b:
                return COUNTEREXAMPLE, model, w, {"left": a, "extended_right": b}
    return EQUIVALENT_UP_TO_BOUND, None, None, None


def reference_conservative(cf, out):
    """Whether `out`, a translation of the clausal formula `cf`, is
    conservative, by scalar loops over `enumerate_models` and `check`.
    Forward: every model of cf with up to 3 worlds extends, over the fresh
    letters (`enumerate_extensions`), to a model of out at the same world.
    Converse: models of out satisfy cf, which reads only the base alphabet;
    checked on every model with up to 2 worlds, and certified in general by
    the tableau's UNSAT for out and not cf."""
    f, g = cf.to_formula(), out.to_formula()
    fresh = sorted(out.alphabet() - cf.alphabet())
    for model in enumerate_models(cf.alphabet(), {"a"}, 3):
        extensions = None
        for w in model.frame.worlds:
            if not check(model, w, f):
                continue
            if extensions is None:
                extensions = list(enumerate_extensions(model, fresh))
            if not any(check(ext, w, g) for ext in extensions):
                return False
    for model in enumerate_models(out.alphabet(), {"a"}, 2):
        for w in model.frame.worlds:
            if check(model, w, g) and not check(model, w, f):
                return False
    return sat_tableau(And(g, Not(f))).status == "UNSAT"


def reference_search(target, fragment, alphabet, size_bound, max_worlds, modalities=None):
    """First candidate of `enumerate_fragment` that agrees with the target
    at every world of every model up to the bound, or None."""
    if modalities is None:
        modalities = {Modality("a")} | reference_modalities(target)
    points = [
        (model, w, check(model, w, target))
        for model in enumerate_models(alphabet, modalities, max_worlds)
        for w in model.frame.worlds
    ]
    for cf in enumerate_fragment(alphabet, modalities, size_bound, fragment):
        g = cf.to_formula()
        if all(check(model, w, g) == truth for model, w, truth in points):
            return cf
    return None


def note_replays(monkeypatch, note):
    """Wrap every catalogue entry so that each evaluation first calls
    `note(theorem_id)`."""
    def noted(theorem_id, replay):
        def wrapper(*run):
            note(theorem_id)
            return replay(*run)
        return wrapper

    for theorem_id, (replay, cites) in list(expressiveness._CATALOGUE.items()):
        monkeypatch.setitem(expressiveness._CATALOGUE, theorem_id,
                            (noted(theorem_id, replay), cites))


def count_replays(monkeypatch):
    """Wrap every catalogue entry with a counter of its evaluations, safe
    across threads; returns the counts by theorem id."""
    lock = threading.Lock()
    counts = dict.fromkeys(expressiveness.THEOREM_IDS, 0)

    def counted(theorem_id):
        with lock:
            counts[theorem_id] += 1

    note_replays(monkeypatch, counted)
    return counts
