"""Model constructions: intersection, product, valuation override, added worlds.

All four return fresh immutable models and leave their inputs untouched.
"""

from __future__ import annotations

from .semantics import KripkeFrame, KripkeModel
from .syntax import Modality

__all__ = [
    "intersect",
    "product",
    "product_world",
    "override_valuation",
    "add_successor_world",
]


def intersect(m1: KripkeModel, m2: KripkeModel) -> KripkeModel:
    """Same frame and alphabet, valuation intersected world by world.

    The frames must be identical (same world identifiers, same relations).
    """
    if m1.frame != m2.frame:
        raise ValueError("intersection needs identical frames")
    if m1.alphabet != m2.alphabet:
        raise ValueError("intersection needs identical alphabets")
    val = {w: m1.valuation[w] & m2.valuation[w] for w in m1.frame.worlds}
    return KripkeModel._direct(m1.frame, val, m1.alphabet)


def product_world(u: str, v: str) -> str:
    """Canonical name of a product world."""
    return f"({u},{v})"


def product(m1: KripkeModel, m2: KripkeModel) -> KripkeModel:
    """Pairwise product: worlds are all pairs, relations act componentwise,
    and a letter holds at a pair iff it holds at both components.

    The frames may differ; the alphabets must match.
    """
    if m1.alphabet != m2.alphabet:
        raise ValueError("product needs identical alphabets")
    # Plain loops, not comprehensions: before Python 3.12 each comprehension
    # is a function call of its own, and this runs once per product.
    f1, f2 = m1.frame, m2.frame
    val1, val2 = m1.valuation, m2.valuation
    names, val = {}, {}
    for u in f1.worlds:
        row = names[u] = {}
        letters = val1[u]
        for v in f2.worlds:
            name = row[v] = product_world(u, v)
            val[name] = letters & val2[v]
    if len(val) != len(f1.worlds) * len(f2.worlds):
        raise ValueError("duplicate world identifiers")
    succ = {}
    for m, rows1 in f1._succ.items():
        rows2 = f2._succ.get(m)
        if rows2:
            rows = succ[m] = {}
            for u, us in rows1.items():
                for v, vs in rows2.items():
                    out = []
                    for u2 in us:
                        row = names[u2]
                        for v2 in vs:
                            out.append(row[v2])
                    # Sorted, because the text order of "(u,v)" need not be pair order.
                    out.sort()
                    rows[names[u][v]] = tuple(out)
    frame = KripkeFrame._direct(tuple(val), succ)
    return KripkeModel._direct(frame, val, m1.alphabet)


def override_valuation(m: KripkeModel, letter: str, worlds) -> KripkeModel:
    """The same model except `letter` holds exactly on `worlds`."""
    letter = str(letter)
    if letter not in m.alphabet:
        raise ValueError(f"letter {letter!r} not in the alphabet")
    worlds = set(str(w) for w in worlds)
    for w in worlds:
        if not m.frame.has_world(w):
            raise ValueError(f"unknown world {w!r}")
    val = {
        w: (ls | {letter} if w in worlds else ls - {letter})
        for w, ls in m.valuation.items()
    }
    return KripkeModel._direct(m.frame, val, m.alphabet)


def add_successor_world(m: KripkeModel, from_world: str, modality, val) -> KripkeModel:
    """Extend the model with one fresh world reachable from `from_world`.

    The fresh world is named "_x<k>" for the smallest unused k, appended to
    the world order, carries exactly the letters in `val`, and has a single
    incoming edge from `from_world` under `modality` and no outgoing edges.
    """
    from_world = str(from_world)
    if not m.frame.has_world(from_world):
        raise ValueError(f"unknown world {from_world!r}")
    val = frozenset(str(l) for l in val)
    if not val <= m.alphabet:
        extra = ", ".join(sorted(val - m.alphabet))
        raise ValueError(f"letters not in the alphabet: {extra}")
    k = 0
    while m.frame.has_world(f"_x{k}"):
        k += 1
    fresh = f"_x{k}"
    modality = Modality(modality)
    succ = dict(m.frame._succ)
    rows = dict(succ.get(modality, {}))
    rows[from_world] = tuple(sorted(rows.get(from_world, ()) + (fresh,)))
    succ[modality] = rows
    frame = KripkeFrame._direct(m.frame.worlds + (fresh,), succ)
    valuation = dict(m.valuation)
    valuation[fresh] = val
    return KripkeModel._direct(frame, valuation, m.alphabet)
