"""Bounded expressiveness checks and mechanical replays of the known results.

`weak_equiv_check` compares two formulas over every model (same alphabet)
up to a world bound; `strong_translation_check` lets the second formula use
fresh letters and searches model extensions for them.  Both call
`_compare`, one flag apart, and answer equivalence-up-to-the-bound or a
concrete pointed counterexample.  `search_weak_translation` refutes
translatability claims by exhausting a clausal fragment up to a size bound,
growing its clause pool by size, or at once when the fragment's least upper
bound of the target, computed on one batch from distinct values in memory
linear in their count, is not the target.  `replay_theorem` re-runs the
concrete model constructions behind each catalogued result and reports step
by step: each replay yields `(description, outcome)` pairs, recorded with
each outcome as a `bool`.  A corollary cites the results it rests on by id,
and `replay_theorems` replays several ids in one run, each once.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from itertools import product as iproduct
from operator import and_, itemgetter

from .combinators import add_successor_world, intersect, override_valuation, product
from .semantics import (
    _CHUNK_CELLS,
    KripkeFrame,
    KripkeModel,
    PointedModel,
    check,
    valuation_batches,
)
from .solver import DEFAULT_NODE_CAP, CapExceeded, sat_bruteforce, sat_tableau
from .solver import _at_least_one, _expand, _multisets
from .syntax import (
    And,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    Formula,
    FragmentDescriptor,
    Modality,
    Prop,
    TOP,
    classify,
    clause_texts,
    parse,
    recognize_clausal,
)
from .syntax import AND, DIA, NEG, OR, _nnf_table, _Record, _set
from .translate import krom_to_krom_box, krom_to_krom_diamond

__all__ = [
    "EQUIVALENT_UP_TO_BOUND",
    "COUNTEREXAMPLE",
    "Counterexample",
    "Verdict",
    "TheoremReport",
    "THEOREM_IDS",
    "weak_equiv_check",
    "strong_translation_check",
    "search_weak_translation",
    "enumerate_fragment",
    "parse_fragment_spec",
    "replay_theorem",
    "replay_theorems",
]

EQUIVALENT_UP_TO_BOUND = "EQUIVALENT_UP_TO_BOUND"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
_PROOF_DEPTH = 100  # `_compare` proves only below this modal depth


class Counterexample(_Record):
    __slots__ = ("pointed", "details")

    def __init__(self, pointed: PointedModel, details: dict):
        _set(self, "pointed", pointed)
        _set(self, "details", details)


class Verdict(_Record):
    __slots__ = ("status", "counterexample")

    def __init__(self, status: str, counterexample: Counterexample | None = None):
        _set(self, "status", status)
        _set(self, "counterexample", counterexample)


def _rows_agree(rows, left, right, n_letters, n_mods, max_worlds) -> bool:
    """Whether the tableau closes (left & ~right) | (~left & right), on a copy
    of `rows` with each row's dual (kinds LIT/NEG, AND/OR, DIA/BOX swapped
    over dual children) hash-consed in, under a cap of the work a proof
    saves: a node per row, world slice and batch (cells as in `_Layout`)."""
    ids, dual = {row: i for i, row in enumerate(rows)}, []
    for kind, a, b in rows:
        if kind > NEG:
            a, b = (dual[a] if kind < DIA else a), dual[b]
        dual.append(ids.setdefault((kind ^ 1, a, b), len(ids)))
    xor = (OR, ids.setdefault((AND, left, dual[right]), len(ids)),
           ids.setdefault((AND, dual[left], right), len(ids)))
    root = ids.setdefault(xor, len(ids))
    cap, k = 0, 1  # summed only up to the default cap, so it stays a small int
    while cap < DEFAULT_NODE_CAP and k < max_worlds:
        k += 1
        cap += len(rows) * k << max(0, k * n_letters + n_mods * k * k - _CHUNK_CELLS)
    try:
        return _expand(list(ids), [root], [min(cap, DEFAULT_NODE_CAP)]) is None
    except CapExceeded:
        return False


def _compare(f, g, alphabet, max_worlds, strong) -> Verdict:
    """The first point, in the order of `enumerate_models` over the alphabet,
    where f ("left") disagrees with g ("right"), or, if `strong`, with "some
    assignment to g's fresh letters satisfies g" ("extended_right"): then the
    alphabet defaults to f's letters and g's other letters are fresh, else to
    both sides'.  The sides are the root's children in one NNF table of `f & g`,
    equal exactly when they share a row, and then g has no fresh letter, so
    they agree before any model is valued.  With no fresh letters
    `exists_fresh` is the identity, and below modal depth `_PROOF_DEPTH`
    (`_expand` recurses per level) the tableau runs once on the XOR of the rows
    before the first 2-world batch: closed, the rows agree on every model; open
    or capped, the models are valued on."""
    _at_least_one(max_worlds=max_worlds)
    rows, root, reads, profile, modalities = _nnf_table(And(f, g))
    _, left, right = rows[root]
    own = (frozenset(a for kind, a, _ in rows[:left + 1] if kind <= NEG) - {None}  # f's rows
           if strong else reads.keys())
    alphabet = frozenset(own if alphabet is None else map(str, alphabet))
    if not own <= alphabet:
        raise ValueError("f mentions letters outside its alphabet" if strong
                         else "formulas mention letters outside the alphabet")
    for letter in alphabet - own:  # read off no formula, so `Prop` checks it
        Prop(letter)
    if left == right:
        return Verdict(EQUIVALENT_UP_TO_BOUND)
    fresh = reads.keys() - alphabet
    prove = not fresh and len(profile) <= _PROOF_DEPTH
    for batch in valuation_batches(alphabet, modalities, max_worlds, fresh):
        if prove and batch.layout.k > 1:
            prove = False
            if _rows_agree(rows, left, right, len(alphabet), len(modalities), max_worlds):
                return Verdict(EQUIVALENT_UP_TO_BOUND)
        values = batch.value(rows)
        lhs = batch.exists_fresh(values[left])
        diff = lhs ^ batch.exists_fresh(values[right])
        if diff:
            pointed, a = batch.first_difference(diff, lhs)
            key = "extended_right" if strong else "right"
            return Verdict(COUNTEREXAMPLE, Counterexample(pointed, {"left": a, key: not a}))
    return Verdict(EQUIVALENT_UP_TO_BOUND)


def weak_equiv_check(f: Formula, g: Formula, alphabet=None, max_worlds: int = 3) -> Verdict:
    """Pointwise agreement of f and g on every model over the alphabet
    (and the union of their modalities) with up to `max_worlds` worlds.

    Up to 2**12 models, frames and valuations alike, are checked at once
    (`semantics.valuation_batches`) on one NNF table of `f & g`, whose
    root's children are the two sides: the first set bit of the XOR of
    their values is the first disagreement in the deterministic order of
    `enumerate_models` (frame, then valuation mask, then world), which is
    returned as the counterexample.  When f and g have one negation normal
    form, such as a De Morgan or duality rewrite of each other, the two
    children are one row, and the check answers without valuing a model.
    Once the one-world models agree, a tableau proof that f and g agree on
    every model, tried below modal depth 100, gives the same bounded answer.
    Memory per batch is O(rows * k * B) bits, with rows the distinct NNF
    subformulas of f and g, k the world count and B <= 2**12 the models in
    the batch.
    """
    return _compare(f, g, alphabet, max_worlds, False)


def strong_translation_check(
    f: Formula, g: Formula, max_worlds: int = 3, alphabet=None
) -> Verdict:
    """Model-extension agreement: on every model over f's alphabet and every
    world, f holds iff some extension over g's extra letters satisfies g.

    Bitsliced like `weak_equiv_check`, on one NNF table of `f & g`, and
    answered as it is, without valuing a model, when f and g share a row
    (g then has no fresh letter), or, with no fresh letter, by the same
    tableau proof.  The fresh-letter cells take the low
    model bits, so "some extension satisfies g" is an OR over each block of
    2**(k*|fresh|) bits.  The first counterexample is the one the order of
    `enumerate_models` over f's alphabet meets first.  Memory per batch is
    O(rows * k * B) bits, with B <= max(2**12, 2**(k*|fresh|)) the models
    in the batch.
    """
    return _compare(f, g, alphabet, max_worlds, True)


# --- Fragment-bounded candidate enumeration ---


_FRAGMENT_FLAGS = {"horn": (True, False), "krom": (False, True),  # name -> (horn, krom)
                   "core": (True, True), "bool": (False, False)}


def parse_fragment_spec(spec: str) -> FragmentDescriptor:
    """Required-property flags from a name like "horn", "krom-box",
    "core-diamond", or "bool" (no constraints)."""
    name = spec.strip().lower()
    suffix = next((s for s in ("-box", "-diamond", "-dia") if name.endswith(s)), "")
    name = name[: len(name) - len(suffix)]
    if name not in _FRAGMENT_FLAGS:
        raise ValueError(f"unknown fragment spec: {spec!r}")
    horn, krom = _FRAGMENT_FLAGS[name]
    return FragmentDescriptor(horn, krom, horn and krom,
                              suffix == "-box", suffix.startswith("-dia"))


def _literal_rows(alphabet, mods, allow_dia, allow_box):
    """A list of the literals of each size from 1 up, as (size, literal,
    index of its operand in the lists laid end to end, None for T and the
    letters): T, letters, diamonds, boxes; then modality, as in `mods`; then operand."""
    kinds = [kind for kind, allowed in ((Diamond, allow_dia), (Box, allow_box)) if allowed]
    row, start = [(1, l, None) for l in (TOP, *map(Prop, alphabet))], 0
    for s in count(2):
        yield row
        row, start = [(s, kind(m, lit), o) for kind in kinds for m in mods
                      for o, (_, lit, _) in enumerate(row, start)], start + len(row)


def _pool_by_size(alphabet, modalities, size_bound, fragment):
    """A fragment's literals (`_literal_rows`) and clauses, grown by size:
    for s = 1 to the bound, yields the same two lists with the size-s ones
    appended, so indices stay stable.  A clause is (size, prefix, negative
    and positive literal indices).  A negative literal costs its size plus
    two (its `Not` and an `Or`), a positive one its size plus one, so a
    clause's size is its prefix length plus both costs minus one.  The
    tuples of each total are listed once: a literal added at size s costs
    at least s + 1, so it never enters a smaller total."""
    req = fragment if isinstance(fragment, FragmentDescriptor) else parse_fragment_spec(fragment)
    alphabet = tuple(sorted(str(l) for l in set(alphabet)))
    mods = tuple(sorted({Modality(m) for m in modalities}))
    rows = _literal_rows(alphabet, mods, not req.box_only, not req.diamond_only)
    widest = 2 if req.krom else size_bound
    lits, pool, bodies = [], [], [None]  # bodies[b]: (negatives, positives) of size b
    negs, poss = [], []  # the literal index tuples of each total cost, built once
    for s in range(1, size_bound + 1):
        lits += next(rows)
        for t in range(len(negs), s + 2):
            negs.append(list(_multisets([size + 2 for size, *_ in lits], t, widest)))
            poss.append(list(_multisets([size + 1 for size, *_ in lits], t,
                                        1 if req.horn else widest)))
        bodies.append([(ns, ps) for c in range(s + 2) for ns in negs[c] for ps in poss[s + 1 - c]
                       if not (req.krom and len(ns) + len(ps) > 2)])
        pool += [(s, prefix, ns, ps) for p in range(s) for prefix in iproduct(mods, repeat=p)
                 for ns, ps in bodies[s - p]
                 if not (p and not ns and len(ps) == 1)]  # same as the box-extended literal
        yield lits, pool


def _least_upper_bound(batch, truth, size_bound, req):
    """The AND on the batch of the clauses of the fragment `req` up to the
    bound that hold wherever `truth` does, from the distinct values of its
    literals, bodies (least costs as in `_pool_by_size`) and boxed bodies."""
    kinds = [box for box, ok in ((False, not req.box_only), (True, not req.diamond_only)) if ok]
    layout, levels, seen = batch.layout, [], set()  # over the batch's letters and modalities
    budget, full, mods = size_bound + 1, layout.full, layout.mods
    new = [full, *(batch.packed.get(l, 0) for l in layout.letters)]
    for _ in range(size_bound):  # levels[s - 1]: the literal values of least size s
        levels.append([v for v in dict.fromkeys(new) if v not in seen])
        seen.update(levels[-1])
        new = [batch._modal(box, m, v) for v in levels[-1] for box in kinds for m in mods]
    bodies = {(0, 0): {0: 0}}  # (negatives, positives) -> {OR of the literals: least cost}
    for n, m in [(n, t - n) for t in range(budget // 2) for n in range(t + 1)]:
        for value, cost in bodies.get((n, m), {}).items():
            for size, level in enumerate(levels[:budget - cost - 1], 1):
                for key, c, flip in (((n + 1, m), cost + size + 2, full),
                                     ((n, m + 1), cost + size + 1, 0)):
                    if c <= budget and not (req.krom and n + m == 2 or req.horn and key[1] > 1):
                        row = bodies.setdefault(key, {})
                        for v in level:
                            row[flip ^ v | value] = min(row.get(flip ^ v | value, c), c)
    room = dict.fromkeys(seen, 0)  # clause value -> the most prefix boxes it may take
    for key, row in bodies.items():  # none over a bare positive literal, as in the pool
        for value, cost in row.items() if key not in ((0, 0), (0, 1)) else ():
            room[value] = max(room.get(value, 0), budget - cost)
    for left in range(size_bound - 1, 0, -1):
        for w in [batch._modal(True, m, v) for v, r in room.items() if r == left for m in mods]:
            room[w] = max(room.get(w, 0), left - 1)
    return reduce(and_, (v for v in room if not truth & ~v), full)


def _layer(pool, live, s):
    """Layer s over the `live` pool indices, as pool index tuples: k clauses
    take k - 1 `And`s, so the multisets whose sizes plus one sum to s + 1."""
    return [tuple(live[i] for i in picks)
            for picks in _multisets([pool[j][0] + 1 for j in live], s + 1, s + 1)]


def _literal_value(lits, batch, values, i):
    """Literal i's value on the batch, kept in `values` by literal index:
    T's and a letter's read off it, any other's one `_modal` step from its operand's."""
    if i not in values:
        _, lit, operand = lits[i]
        if operand is None:
            values[i] = batch.layout.full if lit is TOP else batch.packed.get(lit.letter, 0)
        else:
            values[i] = batch._modal(type(lit) is Box, lit.modality,
                                     _literal_value(lits, batch, values, operand))
    return values[i]


def _text_order(lits, pool, built, picks):
    """A candidate's text, which is its key in `enumerate_fragment`'s order,
    and its clauses in (size, text) order.  `built` maps a pool index to
    its `Clause` and `clause_texts`, made on first need."""
    for j in picks:
        if j not in built:
            _, prefix, *sides = pool[j]
            clause = Clause(prefix, *(tuple(lits[i][1] for i in side) for side in sides))
            built[j] = (clause, *clause_texts(clause))
    order = sorted(picks, key=lambda j: (pool[j][0], built[j][1]))
    key = " & ".join(built[j][2] for j in order) if len(order) > 1 else built[order[0]][1]
    return key, tuple(built[j][0] for j in order)


def enumerate_fragment(alphabet, modalities, size_bound, fragment):
    """All clausal formulas of a fragment up to a size bound.

    Size is the constructor count of the rendered formula, prefix boxes
    included.  Literal and clause multisets are kept in a canonical order,
    so reorderings of the same clause body appear once.  Yields in
    ascending size, then text order, each size layer and the clauses it
    adds built on reaching it.
    """
    built, layers = {}, _pool_by_size(alphabet, modalities, size_bound, fragment)
    for s, (lits, pool) in enumerate(layers, 1):
        every = range(len(pool))
        layer = (_text_order(lits, pool, built, picks) for picks in _layer(pool, every, s))
        yield from (ClausalFormula(clauses) for _, clauses in sorted(layer, key=itemgetter(0)))


def search_weak_translation(
    target: Formula, fragment, alphabet, formula_size_bound: int, max_worlds: int = 3,
    modalities=None,
) -> ClausalFormula | None:
    """First fragment formula weakly equivalent to `target` at the bound,
    or None when the exhaustive search refutes every candidate.

    Candidates range over one generic modality (plus any in the target)
    unless `modalities` says otherwise; a target that mentions a letter
    outside `alphabet`, or a modality outside an explicit `modalities`,
    raises `ValueError`; `alphabet=None` means the target's own letters.
    Size layers and their clauses are built and tried one at a time; of a
    layer's agreeing candidates only the least text, the first of
    `enumerate_fragment`, is rendered.  Only the target is read into an
    NNF table: a candidate's value on a batch is the AND of
    its clauses', a clause's the OR of its `_literal_value`s under its
    prefix boxes.  If layer 1 fails and the fragment's least upper bound of
    the target on the first batch (Selman & Kautz, JACM 1996) is not the
    target, None is returned; later layers use only clauses true there
    wherever the target is.  Memory: the pool up to the layer reached, a layer's index tuples,
    and k * B bits per value (target, literal, clause, and the bound's).
    """
    _at_least_one(max_worlds=max_worlds, formula_size_bound=formula_size_bound)
    rows, root, reads, _, used_mods = _nnf_table(target)
    if modalities is None:
        modalities = {"a"} | used_mods
    mods = frozenset(str(m) for m in modalities)
    alphabet = frozenset(reads if alphabet is None else map(str, alphabet))
    if not reads.keys() <= alphabet:
        raise ValueError("target mentions letters outside the alphabet")
    if not used_mods <= mods:
        raise ValueError("target mentions modalities outside the search's modalities")
    batches = valuation_batches(alphabet, mods, max_worlds)
    seen, built = [], {}  # seen: (batch, target value, {literal: value}, {clause: value})

    def clause_value(b, j):
        batch, _, lit_values, values = seen[b]
        _, prefix, negs, poss = pool[j]
        value = 0
        for i in negs:
            value |= batch.layout.full ^ _literal_value(lits, batch, lit_values, i)
        for i in poss:
            value |= _literal_value(lits, batch, lit_values, i)
        for m in reversed(prefix):
            value = batch._modal(True, m, value)
        values[j] = value
        return value

    def agrees(picks):
        for i in count():
            if i == len(seen):
                batch = next(batches, None)
                if batch is None:
                    return True
                seen.append((batch, batch.value(rows)[root], {}, {}))
            _, truth, _, values = seen[i]
            value = -1
            for j in picks:
                value &= values[j] if j in values else clause_value(i, j)
            if value != truth:
                return False

    def implied(j):  # true on the first batch wherever the target is
        values = seen[0][3]
        return not seen[0][1] & ~(values[j] if j in values else clause_value(0, j))

    req = fragment if isinstance(fragment, FragmentDescriptor) else parse_fragment_spec(fragment)
    for s, (lits, pool) in enumerate(_pool_by_size(alphabet, mods, formula_size_bound, req), 1):
        live = [j for j in range(len(pool)) if s == 1 or implied(j)]
        found = [_text_order(lits, pool, built, picks)
                 for picks in _layer(pool, live, s) if agrees(picks)]
        if found:
            return ClausalFormula(min(found, key=itemgetter(0))[1])
        batch, truth, _, _ = seen[0]  # layer 1 holds T
        if s == 1 and truth != _least_upper_bound(batch, truth, formula_size_bound, req):
            return None
    return None


# --- Theorem replays ---


class TheoremReport(_Record):
    __slots__ = ("theorem", "steps")

    def __init__(self, theorem: str, steps: tuple):
        _set(self, "theorem", theorem)
        _set(self, "steps", steps)

    @property
    def overall(self) -> bool:
        return all(ok for _, ok in self.steps)


def _model(worlds, rels, val, alphabet) -> KripkeModel:
    return KripkeModel(KripkeFrame(worlds, rels), val, alphabet)


def _surgery(texts, psi, base, cases):
    """Separation by valuation surgery: the target `psi` is refuted at w0 of
    `base`; each case's candidate fails there, a surgered model makes the
    target hold at every world, and the candidate still fails at w0.  A
    case is (candidate text, its name, surgered model, hold step, its own
    steps in between, its name in the still-fails step)."""
    yield "the target is refuted at w0 of the base model", not check(base, "w0", psi)
    for cand_text, name, surgered, holds, steps, still in cases:
        cand = texts[cand_text]
        yield f"{name} fails at w0", not check(base, "w0", cand)
        yield holds, all(check(surgered, w, psi) for w in surgered.frame.worlds)
        yield from steps
        yield f"{still} still fails at w0", not check(surgered, "w0", cand)


def _replay_horn_vs_bool(texts, clausal):
    # A candidate with consequent p fails once q holds everywhere, one with
    # consequent q once p does, and one with an empty consequent once both do.
    base = _model(["w0", "w1"], {"a": [("w0", "w1")]}, {"w1": ["p"]}, {"p", "q"})
    worlds = base.frame.worlds
    q_all = override_valuation(base, "q", worlds)
    p_all = override_valuation(base, "p", worlds)
    kept = ((f"positive literal {t} keeps its truth at w0 under the enlargement",
             (not check(base, "w0", texts[t])) or check(q_all, "w0", texts[t]))
            for t in ("<a>p", "[a]p", "p"))
    holds = "the target holds at every world"
    yield from _surgery(texts, texts["p | q"], base, [
        ("p", "candidate with consequent p", q_all, f"after setting q everywhere {holds}", kept,
         "candidate with consequent p"),
        ("q", "candidate with consequent q", p_all, f"after setting p everywhere {holds}", (),
         "candidate with consequent q"),
        ("~T", "candidate with empty consequent", override_valuation(p_all, "q", worlds),
         f"with p and q everywhere {holds}", (), "the empty-consequent candidate"),
    ])


def _replay_krom_vs_bool(texts, clausal):
    base = _model(["w0"], {}, {"w0": ["p", "q"]}, {"p", "q", "r"})
    yield from _surgery(texts, texts["p & q -> r"], base, [
        (cand, f"candidate {cand}", override_valuation(base, letter, worlds),
         f"{label} makes the target hold at every world", (), f"candidate {cand}")
        for cand, letter, worlds, label in [
            ("~p", "r", base.frame.worlds, "letters within {p,q}: set r everywhere"),
            ("r", "q", (), "letters within {p,r}: empty q out"),
            ("~q", "p", (), "letters within {q,r}: empty p out"),
        ]
    ])


def _fan_witnesses():
    frame = {"a": [("w0", "w1"), ("w0", "w2")]}
    m1 = _model(["w0", "w1", "w2"], frame, {"w1": ["p"]}, {"p"})
    m2 = _model(["w0", "w1", "w2"], frame, {"w2": ["p"]}, {"p"})
    return m1, m2


def _replay_intersection_closure(texts, clausal):
    phi = clausal["[a]p & (p -> q)"].to_formula()
    frame = {"a": [("w0", "w1")]}
    m1 = _model(["w0", "w1"], frame, {"w1": ["p", "q"]}, {"p", "q"})
    m2 = _model(["w0", "w1"], frame, {"w0": ["q"], "w1": ["p"]}, {"p", "q"})
    yield "first model satisfies the box-fragment Horn formula at w0", check(m1, "w0", phi)
    yield "second model satisfies it at w0", check(m2, "w0", phi)
    both = intersect(m1, m2)
    yield "their intersection still satisfies it at w0", check(both, "w0", phi)

    # Sharpness: a diamond breaks closure on the fan witnesses.
    psi = texts["<a>p"]
    f1, f2 = _fan_witnesses()
    yield ("both fan models satisfy the diamond formula at w0",
           check(f1, "w0", psi) and check(f2, "w0", psi))
    yield (
        "the fan intersection refutes the diamond formula at w0",
        not check(intersect(f1, f2), "w0", psi),
    )


def _replay_hornbox_vs_horn(texts, clausal):
    psi = texts["<a>p"]
    m1, m2 = _fan_witnesses()
    yield "first witness satisfies the diamond formula at w0", check(m1, "w0", psi)
    yield "second witness satisfies it at w0", check(m2, "w0", psi)
    both = intersect(m1, m2)
    yield (
        "p is false at every world of the intersection",
        all(not both.holds(w, "p") for w in both.frame.worlds),
    )
    yield "the intersection refutes the diamond formula at w0", not check(both, "w0", psi)
    # A box-fragment sample survives the same surgery, as the closure demands.
    sample = texts["~[a]p"]
    yield (
        "a box-only sample true in both witnesses is true in the intersection",
        check(m1, "w0", sample)
        and check(m2, "w0", sample)
        and check(both, "w0", sample),
    )


def _replay_product_closure(texts, clausal):
    phi = clausal["<a>p & (p -> q)"].to_formula()
    m1 = _model(["u0", "u1"], {"a": [("u0", "u1")]}, {"u1": ["p"]}, {"p", "q"})
    m2 = _model(["v0", "v1"], {"a": [("v0", "v1")]}, {"v1": ["p"]}, {"p", "q"})
    yield "first model satisfies the diamond-fragment Horn formula", check(m1, "u0", phi)
    yield "second model satisfies it", check(m2, "v0", phi)
    prod = product(m1, m2)
    yield "the product satisfies it at the paired world", check(prod, "(u0,v0)", phi)
    yield (
        "the product has as many worlds as the factors multiplied",
        len(prod.frame.worlds) == len(m1.frame.worlds) * len(m2.frame.worlds),
    )


def _replay_horndia_vs_horn(texts, clausal):
    psi = texts["[a]p -> q"]
    m1 = _model(["w0", "w1"], {"a": [("w0", "w1")]}, {}, {"p", "q"})
    m2 = _model(["v0"], {}, {"v0": ["q"]}, {"p", "q"})
    yield "the chain model satisfies the target at w0", check(m1, "w0", psi)
    yield "the isolated-q model satisfies the target at v0", check(m2, "v0", psi)
    prod = product(m1, m2)
    pw = "(w0,v0)"
    yield (
        "the paired world has no successors",
        not prod.frame.successors(pw, "a"),
    )
    yield "the boxed letter holds vacuously there", check(prod, pw, texts["[a]p"])
    yield "q is false there", not prod.holds(pw, "q")
    yield "so the product refutes the target at the paired world", not check(prod, pw, psi)


def _replay_krom_equiv(to, texts, clausal):
    """Krom against Krom restricted to `to` literals ("box" or "diamond"):
    the rewriting into the fragment, and the separation on one alphabet."""
    if to == "box":
        translate, target = krom_to_krom_box, "<a>p"
        expected = "~[a]_f0 & [a](_f0 | p)"
        corpus = ["<a>p", "<a><b>p", "~<a>p", "<a>p | q", "[b]<a>p", "<a>p & ~<a>p"]
        rewrites = "the diamond literal rewrites to its two-clause form"
        base = _model(["w0"], {}, {}, {"p"})
        added = {"p"}
        fails = "the diamond target fails at the isolated world"
        grows = "after adding a p-successor the target holds"
        kept, cand = ("p", "[a]p", "[a][a]p"), texts["p"]
    else:
        translate, target = krom_to_krom_diamond, "[a]p -> q"
        expected = "(<a>_f0 | q) & [a](~_f0 | ~p)"
        corpus = ["[a]p", "[a][b]p", "~[a]p", "[a]p -> q", "<b>[a]p", "[a]p & ~[a]p"]
        rewrites = "the negated box literal rewrites to its two-clause form"
        base = _model(["w0", "w1"], {"a": [("w0", "w1")]}, {"w1": ["p"]}, {"p", "q"})
        added = set()
        fails = "the boxed target fails at the chain root"
        grows = "after adding an empty successor the target holds"
        kept, cand = ("p", "q", "<a>p", "<a><a>p"), texts["q"]
    psi = texts[target]
    yield rewrites, translate(clausal[target]) == clausal[expected]

    # Equi-satisfiability by a dual route: the small original goes to the
    # exhaustive bounded oracle, the translation (more letters, larger bound)
    # to the tableau.
    for text in corpus:
        cf = clausal[text]
        out = translate(cf)
        d = classify(out)
        yield (f"translation of {text} lands in the {to}-restricted Krom fragment",
               d.krom and (d.box_only if to == "box" else d.diamond_only))
        f = cf.to_formula()
        yield (f"translation of {text} is equi-satisfiable",
               sat_bruteforce(f).status
               == sat_tableau(out.to_formula()).status)

    # Same-alphabet separation: the added successor flips the target while
    # the fragment's literals keep their truth at old worlds.
    yield fails, not check(base, "w0", psi)
    grown = add_successor_world(base, "w0", "a", added)
    yield grows, check(grown, "w0", psi)
    for lit_text in kept:
        lit = texts[lit_text]
        yield (
            f"{to}-only literal {lit_text} keeps its truth at the old world",
            check(base, "w0", lit) == check(grown, "w0", lit),
        )
    yield (
        f"a {to}-restricted Krom candidate stays false while the target flipped",
        (not check(base, "w0", cand)) and (not check(grown, "w0", cand)),
    )


def _replay_horn_krom_incomparable(texts, clausal, horn_vs_bool, krom_vs_bool):
    d_or = classify(clausal["p | q"])
    yield "the disjunctive witness is Krom but not Horn", d_or.krom and not d_or.horn
    d_imp = classify(clausal["p & q -> r"])
    yield "the implicative witness is Horn but not Krom", d_imp.horn and not d_imp.krom
    yield "the Horn separation argument replays", horn_vs_bool
    yield "the Krom separation argument replays", krom_vs_bool
    for text in ("<a>p", "p | q", "p & q -> r", "~p"):
        d = classify(clausal[text])
        yield (f"core status of {text} is the Horn-Krom conjunction",
               d.core == (d.horn and d.krom))


def _replay_box_dia_incomparable(texts, clausal, hornbox, horndia, krombox, kromdia):
    d_dia = classify(clausal["<a>p"])
    yield ("the diamond witness lives in the diamond-restricted core fragment",
           d_dia.core and d_dia.diamond_only and not d_dia.box_only)
    d_box = classify(clausal["[a]p -> q"])
    yield ("the box witness lives in the box-restricted core fragment",
           d_box.core and d_box.box_only and not d_box.diamond_only)
    yield "the intersection argument against a box-only translation replays", hornbox
    yield "the product argument against a diamond-only translation replays", horndia
    yield "the same-alphabet Krom-level separations replay", krombox and kromdia


# id -> (replay, ids of the results it cites).  A replay, called with the
# run's `texts` and `clausal` readings and the overall verdict of each cited
# result in citation order, is a generator of (description, outcome) pairs.
_CATALOGUE = {
    "horn-vs-bool": (_replay_horn_vs_bool, ()),
    "krom-vs-bool": (_replay_krom_vs_bool, ()),
    "intersection-closure": (_replay_intersection_closure, ()),
    "hornbox-vs-horn": (_replay_hornbox_vs_horn, ()),
    "product-closure": (_replay_product_closure, ()),
    "horndia-vs-horn": (_replay_horndia_vs_horn, ()),
    "krombox-equiv": (lambda *run: _replay_krom_equiv("box", *run), ()),
    "kromdia-equiv": (lambda *run: _replay_krom_equiv("diamond", *run), ()),
    "horn-krom-incomparable": (_replay_horn_krom_incomparable, ("horn-vs-bool", "krom-vs-bool")),
    "box-dia-incomparable": (_replay_box_dia_incomparable, (
        "hornbox-vs-horn", "horndia-vs-horn", "krombox-equiv", "kromdia-equiv")),
}

THEOREM_IDS = tuple(_CATALOGUE)

# The hierarchy `hierarchy.hierarchy_dot` draws, each part in DOT order.  An
# edge runs from the stronger fragment to the weaker, "solid" with fresh
# letters allowed and "dashed" on one alphabet, and names the results above
# it rests on; the Krom cluster is one class by the results it names.  No
# replay yet witnesses KromBox -> coreBox or KromDia -> coreDia.
_HIERARCHY = {
    "nodes": ("Bool", "Horn", "Krom", "core", "HornBox", "HornDia", "KromBox", "KromDia",
              "coreBox", "coreDia"),
    "cluster": (("Krom", "KromBox", "KromDia"), ("krombox-equiv", "kromdia-equiv")),
    "edges": (
        ("Horn", "HornBox", "solid", ("intersection-closure", "hornbox-vs-horn")),
        ("Horn", "HornDia", "solid", ("product-closure", "horndia-vs-horn")),
        ("core", "coreBox", "solid", ("intersection-closure", "hornbox-vs-horn")),
        ("core", "coreDia", "solid", ("product-closure", "horndia-vs-horn")),
        ("KromBox", "coreBox", "solid", ()),
        ("KromDia", "coreDia", "solid", ()),
        ("Bool", "Horn", "dashed", ("horn-vs-bool",)),
        ("Bool", "Krom", "dashed", ("krom-vs-bool",)),
        ("Horn", "core", "dashed", ("krom-vs-bool",)),
        ("Krom", "core", "dashed", ("horn-vs-bool",)),
        ("Krom", "KromBox", "dashed", ("krombox-equiv",)),
        ("Krom", "KromDia", "dashed", ("kromdia-equiv",)),
        ("HornBox", "coreBox", "dashed", ("krom-vs-bool",)),
        ("HornDia", "coreDia", "dashed", ("krom-vs-bool",)),
    ),
}


class _Readings(dict):
    # One run's reading of each catalogue text, made on first use.
    def __init__(self, read):
        self.read = read

    def __missing__(self, text):
        return self.setdefault(text, self.read(text))


def replay_theorems(theorem_ids) -> list:
    """Reports for the ids, replayed in one run: each catalogued result is
    replayed at most once, however many of the ids cite it, and each text
    it reads is parsed once.  Its reports and formulas are local dicts."""
    texts = _Readings(parse)
    run = {}, texts, _Readings(lambda text: recognize_clausal(texts[text]))
    return [_replay(theorem_id, *run) for theorem_id in theorem_ids]


def replay_theorem(theorem_id: str) -> TheoremReport:
    """Re-run one catalogued construction, a run of its own; see
    `THEOREM_IDS`.  The results it cites are replayed first, once each."""
    return replay_theorems([theorem_id])[0]


def _replay(theorem_id, reports, texts, clausal):
    # The report for the id, replayed after the results it cites unless
    # the run's `reports` already hold it.
    if theorem_id not in _CATALOGUE:
        known = ", ".join(THEOREM_IDS)
        raise ValueError(f"unknown theorem id {theorem_id!r} (known: {known})")
    if theorem_id not in reports:
        replay, cites = _CATALOGUE[theorem_id]
        verdicts = [_replay(cited, reports, texts, clausal).overall for cited in cites]
        run = replay(texts, clausal, *verdicts)
        reports[theorem_id] = TheoremReport(theorem_id, tuple((d, bool(ok)) for d, ok in run))
    return reports[theorem_id]
