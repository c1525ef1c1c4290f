"""Satisfiability: a bounded exhaustive oracle and a tableau decision procedure.

`sat_bruteforce` walks canonical tree-shaped models in a fixed order (node
count ascending, then root letter mask, then the sorted child entries),
with the root as the designated world.  Trees with depth up to the
formula's modal nesting depth, in which a node at depth d has at most as
many children as the NNF formula has diamond occurrences at modal depth
d, are a complete class for satisfiability, so exhausting them up to
`tree_model_bound` worlds certifies unsatisfiability.  It counts every
tree but checks only those whose letters f reads at their depths, on
scratch tables with int worlds, streaming each node count's root bodies
from subtree pools grown once per call, and enumerating only the child
multisets of the wanted size, and builds a model only for the first
satisfying one.  `sat_tableau` is
a complete decision procedure over a table of f's NNF subformulas,
hash-consed per call and decoded by `to_nnf`.
One loop in `syntax` builds that table and, in the same walk, the letters
with the modal depths each is read at, the modalities and the per-depth
diamond counts, so both engines and `tree_model_bound` read f once; the
bitsliced checks read the same table.
Every satisfiable verdict from either engine carries a witness model that
is re-validated with `check` before being returned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .semantics import KripkeFrame, KripkeModel, PointedModel, _check, check
from .syntax import (
    And,
    Box,
    Diamond,
    Formula,
    InternalError,
    Modality,
    Not,
    Or,
    Prop,
    Top,
)
from .syntax import AND, DIA, LIT, NEG, OR, _nnf_table, _Record, _set

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN_AT_BOUND",
    "SatResult",
    "CapExceeded",
    "DEFAULT_MODEL_CAP",
    "DEFAULT_NODE_CAP",
    "sat_bruteforce",
    "sat_tableau",
    "tree_model_bound",
    "to_nnf",
]

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN_AT_BOUND = "UNKNOWN_AT_BOUND"

DEFAULT_MODEL_CAP = 10_000_000
DEFAULT_NODE_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """The configured resource ceiling was hit before a verdict."""


class SatResult(_Record):
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: PointedModel | None = None):
        _set(self, "status", status)
        _set(self, "witness", witness)


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on letters and T, decoded from the
    table `sat_tableau` decides over, so equal subformulas share one node."""
    rows, root = _nnf_table(f)[:2]
    nodes = []
    for kind, a, b in rows:
        if kind <= NEG:
            a = Top() if a is None else Prop(a)
            nodes.append(a if kind == LIT else Not(a))
        elif kind <= OR:
            nodes.append((And if kind == AND else Or)(nodes[a], nodes[b]))
        else:
            nodes.append((Diamond if kind == DIA else Box)(a, nodes[b]))
    return nodes[root]


def _world_bound(profile: list[int]) -> int:
    branching = max(1, sum(profile))
    return sum(branching**k for k in range(len(profile)))


def tree_model_bound(f: Formula) -> int:
    """A world count B such that f is satisfiable iff it has a model with
    at most B worlds: sum of D^k for k up to the modal nesting depth,
    where D counts diamond occurrences after NNF (at least 1).  B is a
    count of worlds, never clamped by a count of models."""
    return _world_bound(_nnf_table(f)[3])


# --- Canonical tree-model enumeration ---


def _multisets(sizes, total, most):
    """Each non-decreasing tuple of at most `most` indices into the ascending
    `sizes` whose sizes sum to exactly `total`, in depth-first order (a tuple
    before its extensions, then its later siblings), skipping the picks that
    overshoot `total` or cannot reach it with the picks left.  A loop over a
    stack of (next index, total, tuple), no recursion, so nothing it yields
    is held in a reference cycle."""
    if total == 0:
        yield ()
    top, stack = (sizes[-1] if sizes else 0), ([(0, 0, ())] if most else [])
    while stack:
        i, t, chosen = stack.pop()
        left = most - len(chosen) - 1  # picks allowed after this one
        if not left:  # the last pick takes exactly the rest
            for j in range(bisect_left(sizes, total - t, i), bisect_right(sizes, total - t, i)):
                yield chosen + (j,)
            continue
        i = bisect_left(sizes, total - t - left * top, i)  # the first that can reach total
        if i < len(sizes) and t + sizes[i] <= total:  # the sizes ascend
            u, picked = t + sizes[i], chosen + (i,)
            stack.append((i + 1, t, chosen))  # its later siblings
            if u + sizes[i] <= total:
                stack.append((i, u, picked))  # its extensions, taken first
            if u == total:
                yield picked


def _reads_only(tree, level, unread) -> bool:
    """Whether no node of `tree`, rooted at `level`, holds a letter of
    unread[d] at its depth d."""
    mask, entries = tree
    return not mask & unread[level] and all(_reads_only(c, level + 1, unread) for _, c in entries)


def _bodies(n: int, level: int, profile, n_labels: int, n_letters: int, memo, unread=None):
    """Sorted child-entry tuples for a node at `level` whose subtree has
    exactly n nodes, with at most profile[level] children, streamed in
    order.  Given `unread`, a tuple in which a node at depth d holds a
    letter of unread[d] comes as None.  The pool of (label, subtree)
    entries, in (size, label, subtree) order, and their readability grow in
    memo[level] by one size's sorted `_vtrees` list per label."""
    if n == 1:
        yield ()
    elif profile[level]:
        entries, sizes, ok = memo.setdefault(level, ([], [], []))
        for size in range(sizes[-1] + 1 if sizes else 1, n):
            subs = _vtrees(size, level + 1, profile, n_labels, n_letters, memo)
            flags = [unread is None or _reads_only(sub, level + 1, unread) for sub in subs]
            for label in range(n_labels):
                entries += [(label, sub) for sub in subs]
                ok += flags
            sizes += [size] * (n_labels * len(subs))
        entry, readable = entries.__getitem__, ok.__getitem__
        for picks in _multisets(sizes, n - 1, profile[level]):
            yield tuple(map(entry, picks)) if all(map(readable, picks)) else None


def _vtrees(n: int, level: int, profile, n_labels: int, n_letters: int, memo) -> list:
    """Canonical valuated trees with exactly n nodes rooted at `level`, sorted.

    A valuated tree is (letter_mask, entries) with entries a tuple of
    (edge_label, child_tree) in the pool's (size, label, subtree) order.
    Keeping sibling entries in that order quotients out both sibling
    orderings and world renamings, so every tree model of this size
    appears exactly once.  The bodies stream in pool order, which is not
    tuple order once siblings of different sizes are compared, so they are
    sorted once here.  Lists are memoized per (n, level) and held whole;
    the root level is streamed by `sat_bruteforce` instead.
    """
    key = (n, level)
    if key not in memo:
        bodies = sorted(_bodies(n, level, profile, n_labels, n_letters, memo))
        memo[key] = [(mask, body) for mask in range(1 << n_letters) for body in bodies]
    return memo[key]


def _largest_tree(profile: list[int]) -> int:
    """Node count of the largest tree the per-depth branching allows."""
    size = 0
    for branch in reversed(profile):
        size = 1 + branch * size
    return size


def _tree_to_model(root_letters, entries, letters_of, modality_of, alphabet) -> KripkeModel:
    """A root with letters `root_letters` over a tree of (key, [(label,
    child), ...]) nodes as a model on the worlds w0, w1, ... in pre-order;
    a child's letters are `letters_of(key)` and an edge's modality is
    `modality_of(label)`."""
    valuation, succ = {"w0": root_letters}, {}
    stack = [("w0", entries, 0)] if entries else []  # (parent, entries, next index)
    while stack:
        parent, entries, i = stack.pop()
        if i + 1 < len(entries):
            stack.append((parent, entries, i + 1))
        label, (key, child) = entries[i]
        name = f"w{len(valuation)}"
        valuation[name] = letters_of(key)
        succ.setdefault(modality_of(label), {}).setdefault(parent, []).append(name)
        if child:
            stack.append((name, child, 0))
    table = {m: {u: tuple(sorted(vs)) for u, vs in rows.items()} for m, rows in succ.items()}
    return KripkeModel._direct(KripkeFrame._direct(tuple(valuation), table), valuation, alphabet)


def sat_bruteforce(
    f: Formula, max_worlds: int | None = None, model_cap: int = DEFAULT_MODEL_CAP
) -> SatResult:
    """Exhaustive bounded satisfiability over canonical tree models.

    Walks every tree model (up to renaming and sibling order) with depth
    at most the formula's modal nesting depth in which a node at depth d
    has at most as many children as the NNF formula has diamond
    occurrences at modal depth d, node counts ascending.  That class is
    satisfiability complete (a selective filtration of any tree model
    keeps one witness child per diamond), so exhausting it up to
    `tree_model_bound(f)` worlds proves UNSAT.  Returns the first witness
    in the enumeration order, UNSAT when `max_worlds` reaches the bound,
    and UNKNOWN_AT_BOUND otherwise.  `max_worlds=None` means that bound,
    read off the same table, so the answer is never UNKNOWN_AT_BOUND.
    Raises `CapExceeded` past `model_cap` enumerated trees of that class.

    Past one world, a tree with a letter at depth d that f reads at no
    modal depth d, by the letter's depth mask from the table, is counted,
    not checked: clearing those letters gives an earlier tree of the class
    with the same truth value, so the first witness and every cap outcome
    stay the same.  Each node count's bodies are streamed once, checked
    under root mask 0, and only the readable ones are kept, with their
    positions, for the other root masks.
    """
    if max_worlds is not None and max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if model_cap < 1:
        raise ValueError("model_cap must be at least 1")
    _, _, reads, profile, modalities = _nnf_table(f)
    if max_worlds is None:
        max_worlds = _world_bound(profile)
    alpha = tuple(sorted(reads))
    mods = tuple(sorted(modalities))
    child_sets = {}  # child masks only, which the memoized subtree lists hold anyway

    def letters_of(mask):
        if mask not in child_sets:
            child_sets[mask] = frozenset(a for j, a in enumerate(alpha) if mask >> j & 1)
        return child_sets[mask]

    def witness(root_letters, body):
        # Truth is invariant under world renaming, so the tree is checked
        # on scratch tables with int worlds, root 0.
        val, succ, stack = [root_letters], {}, [(0, body)]
        while stack:
            w, entries = stack.pop()
            for label, (key, child) in entries:
                succ.setdefault(mods[label], {}).setdefault(w, []).append(len(val))
                stack.append((len(val), child))
                val.append(letters_of(key))
        if not _check(val, succ, 0, f):
            return None
        model = _tree_to_model(root_letters, body, letters_of, mods.__getitem__, frozenset(alpha))
        if not check(model, "w0", f):
            raise InternalError("brute-force witness does not satisfy the formula")
        return SatResult(SAT, PointedModel(model, "w0"))

    memo, unread, count = {}, [0], 0
    for n in range(1, min(max_worlds, _largest_tree(profile)) + 1):
        if n == 2:
            # Only once one world is not enough: unread[d] has bit j when f
            # reads alpha[j] at no modal depth d.
            unread = [sum(1 << j for j, a in enumerate(alpha) if not reads[a] >> d & 1)
                      for d in range(len(profile))]
        kept, base = [], count
        for index, body in enumerate(_bodies(n, 0, profile, len(mods), len(alpha), memo, unread)):
            count += 1
            if count > model_cap:
                raise CapExceeded(f"model cap {model_cap} exceeded")
            if body is not None:
                kept.append((index, body))
                if (found := witness(frozenset(), body)) is not None:
                    return found
        trees = count - base  # per root mask
        for mask in range(1, 1 << len(alpha)):
            base, count = count, count + trees
            if not mask & unread[0]:
                # Root masks stream: one letter set each, built before its trees.
                root_letters = frozenset(a for j, a in enumerate(alpha) if mask >> j & 1)
                for index, body in kept:
                    if base + index >= model_cap:
                        raise CapExceeded(f"model cap {model_cap} exceeded")
                    if (found := witness(root_letters, body)) is not None:
                        return found
            if count > model_cap:
                raise CapExceeded(f"model cap {model_cap} exceeded")
    status = UNSAT if max_worlds >= _world_bound(profile) else UNKNOWN_AT_BOUND
    return SatResult(status)


# --- Tableau ---


def sat_tableau(f: Formula, node_cap: int = DEFAULT_NODE_CAP) -> SatResult:
    """Complete satisfiability test; SAT verdicts carry a finite tree witness."""
    if node_cap < 1:
        raise ValueError("node_cap must be at least 1")
    rows, root, reads, _, _ = _nnf_table(f)
    tree = _expand(rows, [root], [node_cap])
    if tree is None:
        return SatResult(UNSAT)
    # The tableau's atoms and modalities are final: both maps return them as is.
    model = _tree_to_model(*tree, frozenset, Modality, frozenset(reads))
    if not check(model, "w0", f):
        raise InternalError("tableau witness does not satisfy the formula")
    return SatResult(SAT, PointedModel(model, "w0"))


def _expand(rows, pending, budget):
    """Saturate one world; returns (atoms, children) or None on a clash.

    The queue and `seen` hold row ids of `_nnf_table`.  One branch state
    serves every disjunction: the queue read from `head`, `lits` (letter ->
    truth), the boxes and the diamonds.  A disjunction saves their sizes
    with its right disjunct and takes the left; a clash, here or in a
    successor, cuts them back and takes the latest saved one.
    """
    queue, head, lits, boxes, diamonds, choices, seen = list(pending), 0, {}, [], [], [], set()
    while True:
        while head < len(queue):
            g = queue[head]
            head += 1
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded("tableau node cap exceeded")
            if g in seen:
                continue
            seen.add(g)
            kind, a, b = rows[g]
            if kind == LIT:
                if a is not None and not lits.setdefault(a, True):
                    break
            elif kind == NEG:
                if a is None or lits.setdefault(a, False):
                    break
            elif kind == AND:
                queue += (a, b)
            elif kind == OR:
                choices.append((head, len(queue), len(lits), len(boxes), len(diamonds), b))
                queue.append(a)
                seen = set()  # each branch expands a formula once, counted from its start
            elif kind == DIA:
                diamonds.append((a, b))
            else:
                boxes.append((a, b))
        else:
            scopes = {}  # box operands by modality, grouped once per saturated world
            for m, operand in boxes:
                scopes.setdefault(m, []).append(operand)
            children = []
            for m, operand in diamonds:
                sub = _expand(rows, [operand] + scopes.get(m, []), budget)
                if sub is None:
                    break
                children.append((m, sub))
            else:
                return (frozenset(a for a, true in lits.items() if true), tuple(children))
        if not choices:
            return None
        head, n_queue, n_lits, n_boxes, n_diamonds, right = choices.pop()
        queue[n_queue:], boxes[n_boxes:], diamonds[n_diamonds:] = [right], [], []
        while len(lits) > n_lits:
            lits.popitem()  # a dict pops its newest key first
        seen = set()
