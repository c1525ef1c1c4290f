import hashlib
import json
import random
from itertools import product as iproduct

import pytest

from knfrag import (
    And,
    KripkeFrame,
    KripkeModel,
    PointedModel,
    Prop,
    check,
    enumerate_extensions,
    enumerate_models,
    intersect,
    is_positive_literal,
    model_from_json,
    model_to_json,
    override_valuation,
    parse,
    product,
    product_world,
)
from knfrag.semantics import _Layout, valuation_batches
from knfrag.syntax import Modality, _nnf_table
from helpers import (
    compile_formula,
    enlarge_valuation,
    formulas_up_to_size,
    program_value,
    random_formula,
    random_literal,
    random_model,
    table_check,
)


@pytest.fixture
def fan_model():
    frame = KripkeFrame(["w0", "w1", "w2"], {"a": [("w0", "w1"), ("w0", "w2")]})
    return KripkeModel(frame, {"w1": ["p"]}, {"p"})


def test_check_diamond_witness(fan_model):
    assert check(fan_model, "w0", parse("<a>p")) is True
    assert check(fan_model, "w0", parse("[a]p")) is False


def test_box_vacuous_truth(fan_model):
    assert check(fan_model, "w1", parse("[a]T")) is True
    assert check(fan_model, "w1", parse("[a]F")) is True
    assert check(fan_model, "w1", parse("<a>T")) is False


def test_check_single_world_example():
    m = KripkeModel(KripkeFrame(["v0"]), {"v0": ["q"]}, {"p", "q"})
    assert check(m, "v0", parse("[a]p -> q")) is True


def test_check_unknown_world(fan_model):
    with pytest.raises(ValueError):
        check(fan_model, "nope", parse("p"))


def test_letters_outside_alphabet_are_false(fan_model):
    assert check(fan_model, "w0", parse("zz")) is False
    assert check(fan_model, "w0", parse("~zz")) is True


def test_check_agrees_with_table_filling_oracle():
    rng = random.Random(123)
    for _ in range(10_000):
        model = random_model(rng, max_worlds=4)
        f = random_formula(rng, depth=4, letters=("p", "q", "r"), mods=("a", "b"))
        w = rng.choice(model.frame.worlds)
        assert check(model, w, f) == table_check(model, w, f)


def test_check_agrees_with_table_filling_oracle_on_combined_models():
    # The benchmark's modelcheck shape: 3,000 points of products of up to 25
    # worlds with two modalities, and intersected and overridden models.
    rng = random.Random(456)
    for _ in range(1500):
        m1, m2 = random_model(rng, max_worlds=5), random_model(rng, max_worlds=5)
        f = random_formula(rng, depth=4, letters=("p", "q", "r"), mods=("a", "b"))
        prod = product(m1, m2)
        for _ in range(2):
            w = product_world(rng.choice(m1.frame.worlds), rng.choice(m2.frame.worlds))
            assert check(prod, w, f) == table_check(prod, w, f)
        other = random_model(rng, frame=m1.frame)
        grown = [w for w in m1.frame.worlds if rng.random() < 0.4]
        for model in (intersect(m1, other), override_valuation(m1, rng.choice("pqr"), grown)):
            w = rng.choice(model.frame.worlds)
            assert check(model, w, f) == table_check(model, w, f)


def test_positive_literal_monotone_under_enlargement():
    rng = random.Random(321)
    for _ in range(3000):
        model = random_model(rng, max_worlds=4)
        bigger = enlarge_valuation(rng, model)
        lit = random_literal(rng, rng.randint(0, 3), ("p", "q", "r"), ("a", "b"))
        assert is_positive_literal(lit)
        w = rng.choice(model.frame.worlds)
        if check(model, w, lit):
            assert check(bigger, w, lit)


def test_enumerate_extensions_counts():
    one = KripkeModel(KripkeFrame(["w0"]), {}, {"p"})
    assert len(list(enumerate_extensions(one, {"x"}))) == 2
    two = KripkeModel(KripkeFrame(["w0", "w1"]), {}, {"p"})
    assert len(list(enumerate_extensions(two, {"x"}))) == 4
    three = KripkeModel(KripkeFrame(["w0", "w1", "w2"]), {}, set())
    stream = enumerate_extensions(three, {"x", "y"})
    assert sum(1 for _ in stream) == 64


def test_enumerate_extensions_distinct_and_first_minimal(fan_model):
    base = KripkeModel(KripkeFrame(["w0", "w1"]), {"w0": ["p"]}, {"p"})
    exts = list(enumerate_extensions(base, {"x"}))
    assert len(set(exts)) == len(exts)
    first = exts[0]
    assert all("x" not in first.valuation[w] for w in first.frame.worlds)
    # Every extension keeps the base's frame and agrees with it on its letters.
    for model in (base, fan_model):
        for ext in enumerate_extensions(model, {"x"}):
            assert ext.frame == model.frame and ext.alphabet == model.alphabet | {"x"}
            assert all(ext.valuation[w] & model.alphabet == model.valuation[w]
                       for w in model.frame.worlds)


def test_enumerate_extensions_stream_is_pinned():
    # One bit per (world, letter) cell, worlds in frame order, letters sorted,
    # the last cell (w1, y) varying fastest; each item reads "w0 letters/w1 letters".
    base = KripkeModel(KripkeFrame(["w0", "w1"], {"a": [("w0", "w1")]}), {"w0": ["p"]}, {"p"})
    exts = list(enumerate_extensions(base, ["y", "x"]))
    assert ["/".join("".join(sorted(ext.valuation[w])) for w in ("w0", "w1")) for ext in exts] == [
        "p/", "p/y", "p/x", "p/xy",
        "py/", "py/y", "py/x", "py/xy",
        "px/", "px/y", "px/x", "px/xy",
        "pxy/", "pxy/y", "pxy/x", "pxy/xy",
    ]
    assert all(ext.frame is base.frame and ext.alphabet == {"p", "x", "y"} for ext in exts)


def test_enumerate_extensions_rejects_clash(fan_model):
    with pytest.raises(ValueError):
        list(enumerate_extensions(fan_model, {"p"}))


def test_model_json_roundtrip(fan_model):
    data = model_to_json(fan_model, "w0")
    model, designated = model_from_json(data)
    assert model == fan_model
    assert designated == "w0"


def test_model_json_defaults():
    model, designated = model_from_json({"worlds": ["u"]})
    assert model.frame.worlds == ("u",)
    assert designated is None
    assert model.alphabet == frozenset()
    with pytest.raises(ValueError):
        model_from_json({})
    with pytest.raises(ValueError):
        model_from_json({"worlds": ["u"], "designated": "v"})


def test_frame_validation():
    with pytest.raises(ValueError):
        KripkeFrame([])
    with pytest.raises(ValueError):
        KripkeFrame(["w0", "w0"])
    with pytest.raises(ValueError):
        KripkeFrame(["w0"], {"a": [("w0", "w1")]})


def test_frame_equality_ignores_empty_relations():
    f1 = KripkeFrame(["w0"], {"a": []})
    f2 = KripkeFrame(["w0"])
    assert f1 == f2 and hash(f1) == hash(f2)


def test_model_validation():
    frame = KripkeFrame(["w0"])
    with pytest.raises(ValueError):
        KripkeModel(frame, {"w1": ["p"]}, {"p"})
    with pytest.raises(ValueError):
        KripkeModel(frame, {"w0": ["q"]}, {"p"})
    with pytest.raises(ValueError):
        PointedModel(KripkeModel(frame, {}, set()), "w9")


def test_enumerate_models_is_deterministic_and_counted():
    first = list(enumerate_models({"p"}, {"a"}, 1))
    second = list(enumerate_models({"p"}, {"a"}, 1))
    assert first == second
    # 1 world: 2 relation masks x 2 valuations
    assert len(first) == 4
    # 2 worlds add 16 x 4
    assert len(list(enumerate_models({"p"}, {"a"}, 2))) == 4 + 64


@pytest.mark.parametrize("alphabet, mods, worlds, count, digest", [
    ({"p", "q"}, {"a", "b"}, 2, 4112,
     "4fdbb1ec8502e8987536649b81dcaf63f1f65db3cf6f461d5dc8d67fc656660f"),
    (set(), {"a"}, 3, 530, "4cbdd8a16f8259a4c4bd81b37d2d4e663a0445e301d1c711434944508fb7ae4c"),
])
def test_enumerate_models_order_is_pinned(alphabet, mods, worlds, count, digest):
    # sha256 of the JSON stream, recorded before the frame enumerator was
    # shared with the bitsliced checks.
    lines = [json.dumps(model_to_json(m), sort_keys=True)
             for m in enumerate_models(alphabet, mods, worlds)]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_valuation_batches_slice_frames_too():
    # Relation pairs are cells of the batch like valuation cells: {p,q} with
    # one modality at up to 3 worlds takes 10 batches (one per frame took
    # 530), one layout per world count.  Each world count's first batch
    # starts at model 0, and its lowest 2**(2k) models are the edgeless
    # frame over all its valuations.
    batches = list(valuation_batches({"p", "q"}, {"a"}, 3))
    assert len(batches) == 10
    firsts = {}
    for batch in batches:
        firsts.setdefault(batch.layout.k, batch)
    some, every = compile_formula(parse("<a>T")), compile_formula(parse("[a]F"))
    for k, batch in firsts.items():
        n, count = batch.layout.n, 1 << 2 * k
        edgeless = (1 << count) - 1  # bits of the edgeless models in a slice
        assert batch.start == 0 and batch.layout.full == (1 << k * n) - 1
        for value in (program_value(batch, some), batch.layout.full ^ program_value(batch, every)):
            assert all(value >> w * n & edgeless == 0 for w in range(k))
            assert value & batch.layout.ones > edgeless  # the first edge, at w0, lies inside
        models = [m for m in enumerate_models({"p", "q"}, {"a"}, k) if len(m.frame.worlds) == k]
        for j in (0, 1, count // 2, count - 1, count):
            pointed, _ = batch.first_difference(1 << j, 0)
            assert pointed.model == models[j]
            assert bool(pointed.model.frame.relations) == (j >= count)


@pytest.mark.parametrize("chunk", [2, 12])
def test_valuation_batches_cover_each_world_count_once_in_order(chunk, monkeypatch):
    # With a fresh letter and two modalities: at each world count, one
    # layout whose blocks run from model 0 to 2**cells - 1, each once and
    # in order, and the base model behind each index is the one
    # `enumerate_models` yields at that place.
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", chunk)
    by_k = {}
    for batch in valuation_batches({"p"}, {"a", "b"}, 2, fresh={"x"}):
        assert not by_k or batch.layout.k >= max(by_k)
        by_k.setdefault(batch.layout.k, []).append(batch)
    assert sorted(by_k) == [1, 2]
    for k, batches in by_k.items():
        layout, cells = batches[0].layout, 2 * k + 2 * k * k
        assert all(batch.layout is layout for batch in batches)
        assert [batch.start for batch in batches] == list(range(0, 1 << cells, layout.n))
        models = [m for m in enumerate_models({"p"}, {"a", "b"}, k) if len(m.frame.worlds) == k]
        assert len(models) << k == 1 << cells
        for batch in batches:
            for j in range(0, layout.n, 1 << k):  # the fresh cells, the lowest k, all false
                pointed, _ = batch.first_difference(1 << j, 0)
                assert pointed.world == "w0" and pointed.model == models[batch.start + j >> k]


def test_batch_values_a_modality_outside_its_layout_as_an_empty_relation():
    # A modality the layout does not hold has no diagonal masks, so its
    # diamond is false and its box true at every world of every model.
    for text, box in (("<b>p", False), ("[b]q", True)):
        rows, root = _nnf_table(parse(text))[:2]
        for batch in valuation_batches({"p", "q"}, {"a"}, 3):
            assert batch.value(rows)[root] == (batch.layout.full if box else 0)


def long_division_layout(k, letters, fresh, mods, chunk):
    """(packed, outside, fresh mask) of a `_Layout`, each cell pattern and
    the mask computed by long division: in a batch of n models, cell b's
    pattern is 2**b zeros then 2**b ones, repeated, and the mask has bit 0
    of each block of 2**(k * len(fresh)) bits set."""
    e = k * len(fresh)
    cells = e + k * len(letters) + len(mods) * k * k
    low = min(cells, max(chunk, e))
    n = 1 << low
    ones, full = (1 << n) - 1, (1 << k * n) - 1
    owners = [(l, w * n) for group in (fresh, letters) for w in range(k) for l in group]
    owners += [((m, u - v), u * n) for m in reversed(mods) for u in range(k) for v in range(k)]
    packed = {}
    for b, (key, shift) in enumerate(owners[:low]):
        h = 1 << b
        bits = ones // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
        packed[key] = packed.get(key, 0) | bits << shift
    return packed, owners[low:], full // ((1 << (1 << e)) - 1) if e else None


@pytest.mark.parametrize("chunk", [2, 5, 12])
def test_layouts_match_the_long_division_formulas(chunk, monkeypatch):
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", chunk)
    mods = (Modality("a"), Modality("b"))
    for k, nl, nf, nm in iproduct(range(1, 4), range(4), range(3), range(3)):
        letters, fresh = ("p", "q", "r")[:nl], ("x", "y")[:nf]
        layout = _Layout(k, letters, fresh, mods[:nm], frozenset(letters))
        got = layout.packed, layout.outside, layout.fresh_mask
        assert got == long_division_layout(k, letters, fresh, mods[:nm], chunk), (k, nl, nf, nm)


def test_enumerate_models_no_modalities():
    models = list(enumerate_models({"p", "q"}, set(), 1))
    assert len(models) == 4
    assert all(not m.frame.relations for m in models)


def test_compiled_code_stream_is_pinned():
    # sha256 of the stack code, recorded while compile_formula still had a
    # walker of its own.
    formulas = formulas_up_to_size(5)
    digest = hashlib.sha256()
    for f in formulas:
        code = compile_formula(f).code
        digest.update((" ".join(f"{op}:{arg}" for op, arg in code) + "\n").encode())
    assert len(formulas) == 818
    assert digest.hexdigest() == "dbab6154b2c61e1bdda4573caf566fa4f31bdf4e04915d1a2755ac63c8d31074"


def test_compile_rejects_a_non_formula_node():
    with pytest.raises(TypeError, match="not a formula"):
        compile_formula(And(Prop("p"), "q"))
