"""Kripke frames and structures, the satisfaction relation, and model streams.

`check` evaluates one formula at one world of one model.  The model
streams share one frame order: `enumerate_models` yields models one at a
time, and `valuation_batches` yields the same models in batches of up to
2**12, frames and valuations alike bitsliced, from one layout per world
count; `Batch.value` evaluates every row of a formula's NNF table on a
batch at once, for the bounded checks in `expressiveness`.

Worlds are strings.  A frame keeps its worlds in declared order and one
successor table, modality name -> world -> successors sorted by name, with
no entry for an empty row or relation, so equal frames have equal tables;
`relations` is derived from it.  Models add a declared alphabet and a
valuation; letters outside the alphabet are simply false everywhere, so
formulas mentioning fresh letters can be checked against base models.
Operations are pure and change no frame or model, but nothing guards those;
`PointedModel` is a frozen record, as formulas and result records are.
"""

from __future__ import annotations

import itertools

from .syntax import AND, BOX, LIT, NEG, OR, And, Box, Diamond, Formula, Modality, Not, Or, Prop, Top
from .syntax import _Record, _set

__all__ = [
    "KripkeFrame",
    "KripkeModel",
    "PointedModel",
    "check",
    "enumerate_extensions",
    "enumerate_models",
    "valuation_batches",
    "Batch",
    "model_from_json",
    "model_to_json",
]


class KripkeFrame:
    """A finite set of worlds with one successor table (see the module)."""

    __slots__ = ("worlds", "_succ", "_world_set")

    def __init__(self, worlds, relations=None):
        worlds = tuple(str(w) for w in worlds)
        if not worlds:
            raise ValueError("a frame needs at least one world")
        world_set = frozenset(worlds)
        if len(world_set) != len(worlds):
            raise ValueError("duplicate world identifiers")
        succ = {}
        for m, pairs in (relations or {}).items():
            m = Modality(m)
            rows = {}
            for u, v in sorted({(str(u), str(v)) for u, v in pairs}):
                if u not in world_set or v not in world_set:
                    raise ValueError(f"relation endpoint not a world: ({u}, {v})")
                rows.setdefault(u, []).append(v)
            if rows:
                succ[m] = {u: tuple(vs) for u, vs in rows.items()}
        self.worlds = worlds
        self._world_set = world_set
        self._succ = succ

    @classmethod
    def _direct(cls, worlds, succ):
        # Trusted fast path: distinct `worlds`, `succ` in the module's normal form.
        frame = object.__new__(cls)
        frame.worlds = worlds
        frame._world_set = frozenset(worlds)
        frame._succ = succ
        return frame

    @property
    def relations(self) -> dict:
        """The non-empty relations as frozensets of (u, v) pairs, built per access."""
        return {
            Modality(m): frozenset((u, v) for u, vs in rows.items() for v in vs)
            for m, rows in self._succ.items()
        }

    def __reduce__(self):
        # Through the constructor, so a copy is validated again.
        return type(self), (self.worlds, self.relations)

    def successors(self, world: str, modality) -> tuple[str, ...]:
        rows = self._succ.get(modality)
        return rows.get(world, ()) if rows else ()

    def has_world(self, world: str) -> bool:
        return world in self._world_set

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, KripkeFrame):
            return NotImplemented
        return self.worlds == other.worlds and self._succ == other._succ

    def __hash__(self):
        return hash((self.worlds, frozenset(self.relations.items())))

    def __repr__(self):
        rels = {str(m): sorted(ps) for m, ps in sorted(self.relations.items())}
        return f"KripkeFrame(worlds={list(self.worlds)}, relations={rels})"


class KripkeModel:
    """A frame together with an alphabet and a valuation."""

    __slots__ = ("frame", "alphabet", "valuation")

    def __init__(self, frame: KripkeFrame, valuation=None, alphabet=None):
        self.frame = frame
        val = {}
        for w, ls in (valuation or {}).items():
            w = str(w)
            if not frame.has_world(w):
                raise ValueError(f"valuation mentions unknown world {w!r}")
            val[w] = frozenset(str(l) for l in ls)
        if alphabet is None:
            alphabet = frozenset().union(*val.values()) if val else frozenset()
        self.alphabet = frozenset(str(l) for l in alphabet)
        for w, ls in val.items():
            if not ls <= self.alphabet:
                extra = ", ".join(sorted(ls - self.alphabet))
                raise ValueError(f"letters not in the alphabet at {w!r}: {extra}")
        empty = frozenset()
        self.valuation = {w: val.get(w, empty) for w in frame.worlds}

    @classmethod
    def _direct(cls, frame, valuation, alphabet):
        # Internal fast path: caller guarantees a complete, consistent valuation.
        m = object.__new__(cls)
        m.frame = frame
        m.valuation = valuation
        m.alphabet = alphabet
        return m

    def __reduce__(self):
        return type(self), (self.frame, self.valuation, self.alphabet)

    def letters_at(self, world: str) -> frozenset[str]:
        return self.valuation[world]

    def holds(self, world: str, letter: str) -> bool:
        return letter in self.valuation[world]

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.alphabet == other.alphabet
            and self.valuation == other.valuation
        )

    def __hash__(self):
        return hash((self.frame, self.alphabet, frozenset(self.valuation.items())))

    def __repr__(self):
        val = {w: sorted(ls) for w, ls in self.valuation.items() if ls}
        return f"KripkeModel({self.frame!r}, valuation={val}, alphabet={sorted(self.alphabet)})"


class PointedModel(_Record):
    """A model with a designated world."""

    __slots__ = ("model", "world")

    def __init__(self, model: KripkeModel, world: str):
        world = str(world)
        if not model.frame.has_world(world):
            raise ValueError(f"designated world {world!r} is not in the frame")
        _set(self, "model", model)
        _set(self, "world", world)


def check(model: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of `f` at `world` by structural recursion.

    A box over a world without successors is vacuously true; a diamond
    there is false.  Letters outside the model's alphabet are false.
    """
    world = str(world)
    if not model.frame.has_world(world):
        raise ValueError(f"unknown world {world!r}")
    return _check(model.valuation, model.frame._succ, world, f)


def _check(val, succ, w, f):
    t = type(f)
    if t is Prop:
        return f.letter in val[w]
    if t is Not:
        return not _check(val, succ, w, f.operand)
    if t is Or:
        return _check(val, succ, w, f.left) or _check(val, succ, w, f.right)
    if t is And:
        return _check(val, succ, w, f.left) and _check(val, succ, w, f.right)
    if t is Diamond:
        rows = succ.get(f.modality)
        if rows:
            op = f.operand
            for v in rows.get(w, ()):
                if _check(val, succ, v, op):
                    return True
        return False
    if t is Box:
        rows = succ.get(f.modality)
        if rows:
            op = f.operand
            for v in rows.get(w, ()):
                if not _check(val, succ, v, op):
                    return False
        return True
    if t is Top:
        return True
    raise TypeError(f"not a formula: {f!r}")


def enumerate_extensions(base: KripkeModel, new_letters):
    """All extensions of `base` over the fresh letters, exactly once each.

    The order is deterministic: one bit per (world, letter) cell, worlds in
    frame order and letters sorted, with the last cell varying fastest.
    The first yield assigns every new letter false everywhere.
    """
    new = tuple(sorted(set(str(l) for l in new_letters)))
    if clash := ", ".join(l for l in new if l in base.alphabet):
        raise ValueError(f"letters already in the alphabet: {clash}")
    alphabet, worlds = base.alphabet | frozenset(new), base.frame.worlds
    bits = list(itertools.product((0, 1), repeat=len(new)))
    choices = [[base.valuation[w].union(itertools.compress(new, b)) for b in bits] for w in worlds]
    for sets in itertools.product(*choices):
        yield KripkeModel._direct(base.frame, dict(zip(worlds, sets)), alphabet)


# --- Deterministic model streams ---


def _world_names(k):
    return tuple([f"w{i}" for i in range(k)])


def _frame(ws, mods, index: int) -> KripkeFrame:
    """The frame with counter `index` on the worlds `ws` over the sorted
    modality names `mods`.

    The counter holds one relation bitmask per modality, the last
    modality's lowest, and bit u*k + v of a mask is the pair (ws[u], ws[v])
    on k worlds.  `enumerate_models` counts it up and
    `Batch.first_difference` decodes it from a model index, so both follow
    this one frame order.
    """
    k = len(ws)
    succ = {}
    for i, m in enumerate(mods):
        mask = index >> (len(mods) - 1 - i) * k * k
        rows = {}
        for u in range(k):
            row = [ws[v] for v in range(k) if mask >> u * k + v & 1]
            if row:
                rows[ws[u]] = tuple(sorted(row))
        if rows:
            succ[m] = rows
    return KripkeFrame._direct(ws, succ)


def _valuation(ws, letters, mask: int) -> dict:
    # Bit i*|letters| + j of the mask puts letter j at world i.
    val = {}
    for w in ws:
        val[w] = frozenset([l for j, l in enumerate(letters) if mask >> j & 1])
        mask >>= len(letters)
    return val


def enumerate_models(alphabet, modalities, max_worlds: int):
    """All models over the alphabet and modalities with 1..max_worlds worlds.

    Deterministic: world count ascending, then relation bitmasks per
    modality ascending, then valuation bitmasks ascending (bit b of a
    relation mask is pair b in row-major world order; bit b of a valuation
    mask is cell b in world-then-sorted-letter order).
    """
    letters = tuple(sorted(str(l) for l in set(alphabet)))
    mods = tuple(sorted({Modality(m) for m in modalities}))
    alpha = frozenset(letters)
    for k in range(1, max_worlds + 1):
        ws = _world_names(k)
        vals = [_valuation(ws, letters, mask) for mask in range(1 << k * len(letters))]
        for index in range(1 << len(mods) * k * k):
            frame = _frame(ws, mods, index)
            for val in vals:
                yield KripkeModel._direct(frame, val, alpha)


# --- Bitsliced evaluation: up to 2**12 models at once ---
#
# This is the labelling algorithm of Clarke, Emerson & Sistla (TOPLAS 1986)
# over the subformula DAG, the rows of `syntax._nnf_table`, sliced across
# models as in Biham (FSE 1997).  A model on k worlds is one bit per cell,
# valuation cells and relation pairs alike (see `_Layout`), and a batch is
# a block of n = 2**c consecutive models.  A formula's value on it is one
# int: world w owns bits [w*n, (w+1)*n), and bit j of that slice is the
# truth at w in the block's j-th model.  The Boolean connectives are int
# operations.  At world u a diamond ORs, over the worlds v, the slice of v
# ANDed with the bits of the pair (u, v); it runs as one shift and mask per
# diagonal u - v.  A box is the dual diamond.

# Cells resolved inside one batch; a wider layout is split into blocks,
# which bounds a value at k * 2**12 bits.
_CHUNK_CELLS = 12


class _Layout:
    """The cells of the models on k worlds, and the packed values of their
    letters and relation pairs block by block.

    Valuation cells come first: fresh letters (world, then sorted letter),
    then the base letters the same way; bit b of a valuation mask is cell
    b, so a base model's mask is the valuation mask shifted right by
    k * len(fresh).  Relation cells follow: pair (u, v) of the i-th of the
    M sorted modalities is cell vcells + (M-1-i)*k*k + u*k + v.  So a
    model's index, frame counter (`_frame`) * 2**vcells + valuation mask,
    counts the models in the order of `enumerate_models`.  The lowest `low`
    cells vary inside a batch, the others from one block to the next; a
    batch's packed values are all that `Batch.value` reads of it.  Each
    in-batch cell's pattern is made from the one above it by a shift and
    an XOR, and `fresh_mask`, which `Batch.exists_fresh` keeps, from those
    of the fresh cells: once per layout, with no long division.
    """

    __slots__ = ("k", "n", "ones", "full", "low", "vcells", "blocks", "letters",
                 "fresh", "mods", "packed", "outside", "fresh_mask")

    def __init__(self, k, letters, fresh, mods):
        e = k * len(fresh)
        vcells = e + k * len(letters)
        cells = vcells + len(mods) * k * k
        low = min(cells, max(_CHUNK_CELLS, e))
        n = 1 << low
        ones = (1 << n) - 1
        self.k, self.n, self.ones, self.full = k, n, ones, (1 << k * n) - 1
        self.low, self.vcells, self.blocks = low, vcells, 1 << cells - low
        self.letters, self.fresh, self.mods = letters, fresh, mods
        # Bit j of a batch is set in cell b's pattern iff bit b of j is: 2**b
        # zeros then 2**b ones, repeated.  Each pattern is made from the next
        # cell's by a shift and an XOR, from the top cell down, so that
        # patterns[~b] is cell b's.
        patterns, bits = [], ones
        for b in range(low - 1, -1, -1):
            bits ^= bits >> (1 << b)
            patterns.append(bits)
        # Each cell's owner is a key and a slice: a letter and the cell's
        # world, or a modality's diagonal (m, u - v) and world u for the
        # pair (u, v).  A key's packed value holds its cells' bits, each in
        # its slice: the cells inside a batch are set here, the others per
        # block.
        self.packed, self.outside = {}, []
        b = 0
        for group in (fresh, letters):
            for w in range(k):
                for l in group:
                    b = self._own(b, l, w * n, patterns)
        for m in reversed(mods):
            for u in range(k):
                for v in range(k):
                    b = self._own(b, (m, u - v), u * n, patterns)
        # The first model of each block of 2**e, whose fresh cells, those
        # below e, are all false, in every world's slice.
        self.fresh_mask = None
        if e:
            heads = ones
            for bits in patterns[-e:]:
                heads &= ~bits
            self.fresh_mask = sum(heads << w * n for w in range(k))

    def _own(self, b, key, shift, patterns):
        # Cell b goes to `key` at `shift`; returns the next cell.
        if b < self.low:
            self.packed[key] = self.packed.get(key, 0) | patterns[~b] << shift
        else:
            self.outside.append((key, shift))
        return b + 1

    def batch(self, block: int) -> Batch:
        """The models with indices [block << low, (block + 1) << low)."""
        packed = self.packed
        if self.outside:
            packed = dict(packed)
            for i, (key, shift) in enumerate(self.outside):
                if block >> i & 1:
                    packed[key] = packed.get(key, 0) | self.ones << shift
        return Batch(self, packed, block << self.low)


class Batch:
    """A block of consecutive models; see `valuation_batches`."""

    __slots__ = ("layout", "packed", "start")

    def __init__(self, layout, packed, start):
        self.layout = layout
        self.packed = packed
        self.start = start

    def value(self, rows) -> list[int]:
        """The truth of every row of an `_nnf_table` at every world of every
        model of the block, by row id, each row valued once from its children's."""
        packed, full = self.packed, self.layout.full
        values = []
        push = values.append
        for kind, a, b in rows:
            if kind == LIT:
                push(full if a is None else packed.get(a, 0))
            elif kind == NEG:
                push(0 if a is None else full ^ packed.get(a, 0))
            elif kind == AND:
                push(values[a] & values[b])
            elif kind == OR:
                push(values[a] | values[b])
            else:
                push(self._modal(kind == BOX, a, values[b]))
        return values

    def _modal(self, box, modality, x):
        """[modality]x if `box`, else <modality>x: x moved by d slices and
        masked by the diagonal d, ORed over d.  A box is ~<modality>~x."""
        layout = self.layout
        n, full = layout.n, layout.full
        if box:
            x ^= full
        out = 0
        for d in range(1 - layout.k, layout.k):
            mask = self.packed.get((modality, d))
            if mask:
                out |= (x << d * n if d >= 0 else x >> -d * n) & mask
        return full ^ out if box else out

    def exists_fresh(self, value: int) -> int:
        """Bit j, for each j whose fresh-letter cells are all false, set iff
        some assignment to the fresh cells makes `value` true there; every
        other bit is clear.  Each block of 2**(k*|fresh|) bits is ORed into
        its lowest bit by shifts of 1, 2, 4, ... bits, and the layout's
        `fresh_mask` keeps those lowest bits."""
        layout = self.layout
        if layout.fresh_mask is None:
            return value
        step, width = 1, 1 << layout.k * len(layout.fresh)
        while step < width:
            value |= value >> step
            step <<= 1
        return value & layout.fresh_mask

    def first_difference(self, diff: int, value: int) -> tuple[PointedModel, bool]:
        """The first point, in the order of `enumerate_models`, at which the
        nonzero `diff` is set: the lowest model bit j set at some world,
        then the first such world.  Returns it as a pointed model over the
        base letters only, with the truth of `value` there."""
        layout = self.layout
        n = layout.n
        fold, rest = 0, diff
        while rest:
            fold |= rest
            rest >>= n
        fold &= layout.ones
        j = (fold & -fold).bit_length() - 1
        w = 0
        while not diff >> (w * n + j) & 1:
            w += 1
        index = self.start + j
        mask = (index & (1 << layout.vcells) - 1) >> layout.k * len(layout.fresh)
        ws = _world_names(layout.k)
        model = KripkeModel._direct(
            _frame(ws, layout.mods, index >> layout.vcells),
            _valuation(ws, layout.letters, mask),
            frozenset(layout.letters),
        )
        return PointedModel(model, ws[w]), bool(value >> (w * n + j) & 1)


def valuation_batches(letters, modalities, max_worlds: int, fresh=()):
    """Batches covering every model over `letters` and the modality names
    with 1..max_worlds worlds, extended by every assignment to the `fresh`
    letters, in the order of `enumerate_models`: blocks of model indices
    ascending (see `_Layout`), one layout per world count.  The edgeless
    frame's models lead each count's first batch and get no pass of their
    own: past one world, each of their points generates a one-world
    submodel, and truth is invariant under generated submodels (Blackburn,
    de Rijke & Venema, Modal Logic, 2001, Prop. 2.6).  At most 2**12
    models share a batch, unless the fresh-letter cells alone are more
    than 12: they never span two batches.  A value on a batch of k worlds
    takes k * 2**low bits, low = min(cells, max(12, k * |fresh|)), with
    cells = k * (|letters| + |fresh|) + M * k * k for M modalities.
    """
    letters = tuple(sorted(letters))
    fresh = tuple(sorted(fresh))
    mods = tuple(sorted(modalities))
    for k in range(1, max_worlds + 1):
        layout = _Layout(k, letters, fresh, mods)
        yield from map(layout.batch, range(layout.blocks))


# --- JSON model files ---


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _pairs(value) -> bool:
    return isinstance(value, list) and all(_strings(p) and len(p) == 2 for p in value)


def model_from_json(data: dict) -> tuple[KripkeModel, str | None]:
    """Build a model from the JSON object layout.

    Layout: {"worlds": [...], "relations": {mod: [[u, v], ...]},
    "valuation": {world: [letters]}, "alphabet": [...], "designated": w}.
    Everything but "worlds" is optional; a missing alphabet is inferred
    from the valuation.  Data of any other shape raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("model JSON must be an object")
    if "worlds" not in data:
        raise ValueError('model JSON needs a "worlds" list')
    relations = data.get("relations", {})
    valuation = data.get("valuation", {})
    alphabet = data.get("alphabet")
    designated = data.get("designated")
    if not _strings(data["worlds"]):
        raise ValueError('model JSON "worlds" must be a list of strings')
    if not (isinstance(relations, dict) and all(_pairs(ps) for ps in relations.values())):
        raise ValueError('model JSON "relations" must map modalities to lists of [u, v] pairs')
    if not (isinstance(valuation, dict) and all(_strings(ls) for ls in valuation.values())):
        raise ValueError('model JSON "valuation" must map worlds to lists of letters')
    if alphabet is not None and not _strings(alphabet):
        raise ValueError('model JSON "alphabet" must be a list of letters')
    if designated is not None and not isinstance(designated, str):
        raise ValueError('model JSON "designated" must be a world name')
    frame = KripkeFrame(data["worlds"], relations)
    model = KripkeModel(frame, valuation, alphabet)
    if designated is not None and not frame.has_world(designated):
        raise ValueError(f"designated world {designated!r} is not in the frame")
    return model, designated


def model_to_json(model: KripkeModel, designated: str | None = None) -> dict:
    """Serialize a model to the JSON object layout (sorted, deterministic)."""
    data = {
        "worlds": list(model.frame.worlds),
        "relations": {
            str(m): [list(p) for p in sorted(ps)]
            for m, ps in sorted(model.frame.relations.items())
        },
        "valuation": {
            w: sorted(ls) for w, ls in model.valuation.items() if ls
        },
        "alphabet": sorted(model.alphabet),
    }
    if designated is not None:
        data["designated"] = designated
    return data
