"""Kripke frames and structures, the satisfaction relation, and model streams.

`check` evaluates one formula at one world of one model.  The model
streams share one frame enumerator: `enumerate_models` yields models one at
a time, and `valuation_batches` with `compile_formula` evaluate a formula
under every valuation of a frame at once, for the bounded checks in
`expressiveness`.

Worlds are strings.  A frame keeps its worlds in declared order and one
successor table, modality name -> world -> successors sorted by name, with
no entry for an empty row or relation, so equal frames have equal tables;
`relations` is derived from it.  Models add a declared alphabet and a
valuation; letters outside the alphabet are simply false everywhere, so
formulas mentioning fresh letters can be checked against base models.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools

from .syntax import And, Box, Diamond, Formula, Modality, Not, Or, Prop, Top, subformulas

__all__ = [
    "KripkeFrame",
    "KripkeModel",
    "PointedModel",
    "check",
    "is_extension",
    "enumerate_extensions",
    "restrict_alphabet",
    "enumerate_models",
    "compile_formula",
    "valuation_batches",
    "Program",
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


class PointedModel:
    """A model with a designated world."""

    __slots__ = ("model", "world")

    def __init__(self, model: KripkeModel, world: str):
        world = str(world)
        if not model.frame.has_world(world):
            raise ValueError(f"designated world {world!r} is not in the frame")
        self.model = model
        self.world = world

    def __eq__(self, other):
        if not isinstance(other, PointedModel):
            return NotImplemented
        return self.model == other.model and self.world == other.world

    def __repr__(self):
        return f"PointedModel({self.model!r}, world={self.world!r})"


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


def is_extension(base: KripkeModel, ext: KripkeModel) -> bool:
    """True iff `ext` has the same frame, a superset alphabet, and agrees
    with `base` once restricted to the base alphabet."""
    if base.frame != ext.frame:
        return False
    if not base.alphabet <= ext.alphabet:
        return False
    return all(
        ext.valuation[w] & base.alphabet == base.valuation[w] for w in base.frame.worlds
    )


def enumerate_extensions(base: KripkeModel, new_letters):
    """All extensions of `base` over the fresh letters, exactly once each.

    The order is deterministic: one bit per (world, letter) cell, worlds in
    frame order and letters sorted, with the last cell varying fastest.
    The first yield assigns every new letter false everywhere.
    """
    new = tuple(sorted(set(str(l) for l in new_letters)))
    if any(l in base.alphabet for l in new):
        clash = ", ".join(l for l in new if l in base.alphabet)
        raise ValueError(f"letters already in the alphabet: {clash}")
    alphabet = base.alphabet | frozenset(new)
    cells = [(w, l) for w in base.frame.worlds for l in new]
    for bits in itertools.product((False, True), repeat=len(cells)):
        val = {w: set(base.valuation[w]) for w in base.frame.worlds}
        for (w, l), bit in zip(cells, bits):
            if bit:
                val[w].add(l)
        yield KripkeModel._direct(
            base.frame, {w: frozenset(ls) for w, ls in val.items()}, alphabet
        )


def restrict_alphabet(model: KripkeModel, alphabet) -> KripkeModel:
    """The same model with its valuation cut down to `alphabet`."""
    alphabet = frozenset(str(l) for l in alphabet)
    val = {w: ls & alphabet for w, ls in model.valuation.items()}
    return KripkeModel._direct(model.frame, val, alphabet)


# --- Deterministic model streams ---


def _world_names(k):
    return tuple([f"w{i}" for i in range(k)])


def _frames(mods, k: int):
    """Every frame on the worlds w0..w{k-1} over the sorted modality names
    `mods`, as a dict from modality name to successor rows (row u is the
    tuple of successor indices of world u); empty relations are left out.

    Order: one relation bitmask per modality, ascending, the last
    modality's varying fastest.  Bit b of a mask is pair b in row-major
    world order, so row u is bits [u*k, (u+1)*k) of it.
    """
    yield {}  # all masks 0; most early exits need no more
    rows = [()]
    for v in range(k):
        rows += [row + (v,) for row in rows]  # rows[r]: the set bits of r
    row_mask = (1 << k) - 1
    last = (1 << k * k) - 1
    masks = [0] * len(mods)
    while True:
        i = len(mods) - 1
        while i >= 0 and masks[i] == last:
            masks[i] = 0
            i -= 1
        if i < 0:
            return
        masks[i] += 1
        yield {
            m: tuple(rows[(mask >> u * k) & row_mask] for u in range(k))
            for m, mask in zip(mods, masks)
            if mask
        }


def _kripke_frame(ws, succ) -> KripkeFrame:
    return KripkeFrame._direct(ws, {
        m: {ws[u]: tuple(sorted([ws[v] for v in row])) for u, row in enumerate(rows) if row}
        for m, rows in succ.items()
    })


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
        for succ in _frames(mods, k):
            frame = _kripke_frame(ws, succ)
            for val in vals:
                yield KripkeModel._direct(frame, val, alpha)


# --- Bitsliced evaluation: every valuation of a frame at once ---
#
# This is the labelling algorithm of Clarke, Emerson & Sistla (TOPLAS 1986)
# sliced across models as in Biham (FSE 1997).  A batch is one frame on k
# worlds with a block of n = 2**c valuation masks.  A formula's value on
# it is one int: world w owns bits [w*n, (w+1)*n), and bit v of that
# slice is the truth at w under the block's v-th valuation mask.  The
# Boolean connectives are int operations; a diamond ORs the successor
# slices and a box ANDs them.

# Valuation cells resolved inside one batch; a wider layout is split into
# blocks, which bounds a value at k * 2**12 bits.
_CHUNK_CELLS = 12

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


def compile_formula(f: Formula) -> Program:
    """Post-order code for f: one instruction per node of `subformulas(f)`,
    reversed.  Deep formulas raise no RecursionError."""
    code = []
    emit = code.append
    letters = set()
    mods = set()
    for g in subformulas(f):
        t = type(g)
        if t is Prop:
            emit((_LETTER, g.letter))
            letters.add(g.letter)
        elif t is Not:
            emit(_NOT_OP)
        elif t is And or t is Or:
            emit(_AND_OP if t is And else _OR_OP)
        elif t is Diamond or t is Box:
            mods.add(g.modality)
            emit((_DIAMOND if t is Diamond else _BOX, g.modality))
        elif t is Top:
            emit(_TOP_OP)
        else:
            raise TypeError(f"not a formula: {g!r}")
    code.reverse()
    return Program(code, frozenset(letters), frozenset(mods))


class _Layout:
    """The valuation cells of k worlds and the letters' packed values.

    Cells are numbered fresh letters first (world, then sorted letter),
    then the base letters the same way; bit b of a valuation mask is cell
    b, so a base model's mask is the full mask shifted right by
    k * len(fresh).  The lowest `low` cells vary inside a batch, the
    others from one block of masks to the next.
    """

    __slots__ = ("k", "n", "ones", "full", "low", "blocks", "worlds", "letters",
                 "alphabet", "fresh", "inside", "outside")

    def __init__(self, k, letters, fresh, alphabet):
        e = k * len(fresh)
        cells = e + k * len(letters)
        low = min(cells, max(_CHUNK_CELLS, e))
        n = 1 << low
        ones = (1 << n) - 1
        inside, outside = {}, []
        b = 0
        for group in (fresh, letters):
            for w in range(k):
                shift = w * n
                for l in group:
                    if b < low:
                        # bit v of the slice is set iff bit b of v is
                        h = 1 << b
                        pattern = ones // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
                        inside[l] = inside.get(l, 0) | pattern << shift
                    else:
                        outside.append((l, b - low, ones << shift))
                    b += 1
        self.k, self.n, self.ones, self.full, self.low = k, n, ones, (1 << k * n) - 1, low
        self.blocks = 1 << cells - low
        self.inside, self.outside = inside, outside
        self.worlds = _world_names(k)
        self.letters, self.alphabet, self.fresh = letters, alphabet, fresh

    def block_letters(self, block: int) -> dict:
        if not self.outside:
            return self.inside
        lits = {l: 0 for l in (*self.fresh, *self.letters)}
        lits.update(self.inside)
        for l, bit, slice_ in self.outside:
            if block >> bit & 1:
                lits[l] |= slice_
        return lits


class Batch:
    """One frame with a block of valuations; see `valuation_batches`."""

    __slots__ = ("layout", "succ", "lits", "start")

    def __init__(self, layout, succ, lits, start):
        self.layout = layout
        self.succ = succ
        self.lits = lits
        self.start = start

    def value(self, program: Program) -> int:
        """The program's truth at every world under every valuation of the block."""
        lits, full = self.lits, self.layout.full
        stack = []
        push, pop = stack.append, stack.pop
        for op, arg in program.code:
            if op == _LETTER:
                push(lits.get(arg, 0))
            elif op == _NOT:
                push(full ^ pop())
            elif op == _AND:
                push(pop() & pop())
            elif op == _OR:
                push(pop() | pop())
            elif op == _TOP:
                push(full)
            else:
                push(self._modal(op == _BOX, arg, pop()))
        return pop()

    def _modal(self, box, modality, x):
        """[modality]x if `box`, else <modality>x."""
        rows = self.succ.get(modality)
        if rows is None:
            return self.layout.full if box else 0
        n, ones = self.layout.n, self.layout.ones
        parts = [(x >> w * n) & ones for w in range(len(rows))]
        out = 0
        for u, row in enumerate(rows):
            if box:
                acc = ones
                for v in row:
                    acc &= parts[v]
            else:
                acc = 0
                for v in row:
                    acc |= parts[v]
            out |= acc << u * n
        return out

    def exists_fresh(self, value: int) -> int:
        """Bit v, for each v whose fresh-letter cells are all false, set iff
        some assignment to the fresh cells makes `value` true there; every
        other bit is clear."""
        layout = self.layout
        width = 1 << layout.k * len(layout.fresh)
        if width == 1:
            return value
        step = 1
        while step < width:
            value |= value >> step
            step <<= 1
        return value & layout.full // ((1 << width) - 1)

    def first_difference(self, diff: int, value: int) -> tuple[PointedModel, bool]:
        """The first point, in the order of `enumerate_models`, at which the
        nonzero `diff` is set: the lowest valuation bit v set at some world,
        then the first such world.  Returns it as a pointed model over the
        base letters only, with the truth of `value` there."""
        layout = self.layout
        n = layout.n
        fold, rest = 0, diff
        while rest:
            fold |= rest
            rest >>= n
        fold &= layout.ones
        v = (fold & -fold).bit_length() - 1
        w = 0
        while not diff >> (w * n + v) & 1:
            w += 1
        mask = (self.start + v) >> layout.k * len(layout.fresh)
        model = KripkeModel._direct(
            _kripke_frame(layout.worlds, self.succ),
            _valuation(layout.worlds, layout.letters, mask),
            layout.alphabet,
        )
        return PointedModel(model, layout.worlds[w]), bool(value >> (w * n + v) & 1)


def valuation_batches(letters, modalities, max_worlds: int, fresh=()):
    """Batches covering every model over `letters` and the modality names
    with 1..max_worlds worlds, extended by every assignment to the `fresh`
    letters, in the order of `enumerate_models`: frames in its order, then
    blocks of valuation masks ascending.

    At most 2**12 masks share a batch, and the fresh-letter cells never
    span two batches.  A value on a batch of k worlds takes
    k * 2**min(k * (|letters| + |fresh|), 12) bits.
    """
    letters = tuple(sorted(letters))
    fresh = tuple(sorted(fresh))
    mods = tuple(sorted(modalities))
    alphabet = frozenset(letters)
    for k in range(1, max_worlds + 1):
        layout = _Layout(k, letters, fresh, alphabet)
        low = layout.low
        for succ in _frames(mods, k):
            for block in range(layout.blocks):
                yield Batch(layout, succ, layout.block_letters(block), block << low)


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
