"""Seeded input generators and an independent truth evaluator for the benchmark.

The generators are copies of the corpus generators in `tests/helpers.py`, kept
here so that an edit to the test suite cannot change a workload.  They build
inputs through the public constructors only.

`holds` is a table-filling evaluator that shares no code with `knfrag.check`:
it works on `plain` models (world list, successor lists keyed by modality
name, letter sets) and fills a truth table over every subformula and world.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from knfrag import (
    And,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    KripkeFrame,
    KripkeModel,
    Not,
    Or,
    Prop,
    TOP,
)


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


# --- Random generators (plain seeded random) ---


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


# --- Input text ---


def render(f) -> str:
    """Fully parenthesised input text; the program's own printer is not used."""
    kind = type(f).__name__
    if kind == "Top":
        return "T"
    if kind == "Prop":
        return f.letter
    if kind == "Not":
        return "~" + render(f.operand)
    if kind == "Diamond":
        return f"<{f.modality.name}>" + render(f.operand)
    if kind == "Box":
        return f"[{f.modality.name}]" + render(f.operand)
    op = " & " if kind == "And" else " | "
    return "(" + render(f.left) + op + render(f.right) + ")"


# --- Independent evaluator ---


def plain_from_model(model) -> dict:
    """Worlds, successor lists by modality name and letter sets of a model."""
    succ = {}
    for m, pairs in model.frame.relations.items():
        table = succ.setdefault(str(m), {})
        for u, v in pairs:
            table.setdefault(u, []).append(v)
    return {
        "worlds": list(model.frame.worlds),
        "succ": succ,
        "val": {w: set(ls) for w, ls in model.valuation.items()},
    }


def plain_from_json(data: dict) -> dict:
    """The same structure from the model JSON layout."""
    succ = {}
    for m, pairs in data.get("relations", {}).items():
        table = succ.setdefault(m, {})
        for u, v in pairs:
            table.setdefault(u, []).append(v)
    val = {w: set() for w in data["worlds"]}
    for w, ls in data.get("valuation", {}).items():
        val[w] = set(ls)
    return {"worlds": list(data["worlds"]), "succ": succ, "val": val}


def _postorder(f, out, seen):
    if id(f) in seen:
        return
    seen.add(id(f))
    kind = type(f).__name__
    if kind in ("Not", "Diamond", "Box"):
        _postorder(f.operand, out, seen)
    elif kind in ("And", "Or"):
        _postorder(f.left, out, seen)
        _postorder(f.right, out, seen)
    out.append(f)


def holds(plain: dict, world: str, f) -> bool:
    """Truth of `f` at `world`, by filling a table over subformulas and worlds."""
    order = []
    _postorder(f, order, set())
    worlds, succ, val = plain["worlds"], plain["succ"], plain["val"]
    table = {}
    for g in order:
        kind = type(g).__name__
        row = {}
        for w in worlds:
            if kind == "Top":
                row[w] = True
            elif kind == "Prop":
                row[w] = g.letter in val[w]
            elif kind == "Not":
                row[w] = not table[id(g.operand)][w]
            elif kind == "And":
                row[w] = table[id(g.left)][w] and table[id(g.right)][w]
            elif kind == "Or":
                row[w] = table[id(g.left)][w] or table[id(g.right)][w]
            else:
                sub = table[id(g.operand)]
                vs = succ.get(g.modality.name, {}).get(w, ())
                if kind == "Diamond":
                    row[w] = any(sub[v] for v in vs)
                else:
                    row[w] = all(sub[v] for v in vs)
        table[id(g)] = row
    return table[id(f)][world]
