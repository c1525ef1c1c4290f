import hashlib
import json
import random

import pytest

from knfrag import (
    KripkeFrame,
    KripkeModel,
    add_successor_world,
    check,
    intersect,
    model_to_json,
    override_valuation,
    parse,
    product,
    product_world,
)
from helpers import random_hornbox_formula, random_horndia_formula, random_model


def fan_pair():
    frame = KripkeFrame(["w0", "w1", "w2"], {"a": [("w0", "w1"), ("w0", "w2")]})
    m1 = KripkeModel(frame, {"w1": ["p"]}, {"p"})
    m2 = KripkeModel(frame, {"w2": ["p"]}, {"p"})
    return m1, m2


def test_intersect_defeats_diamond():
    m1, m2 = fan_pair()
    psi = parse("<a>p")
    assert check(m1, "w0", psi) and check(m2, "w0", psi)
    both = intersect(m1, m2)
    assert all(not both.holds(w, "p") for w in both.frame.worlds)
    assert not check(both, "w0", psi)


def test_intersect_idempotent_and_commutative():
    m1, m2 = fan_pair()
    assert intersect(m1, m1) == m1
    assert intersect(m1, m2) == intersect(m2, m1)


def test_intersect_rejects_mismatch():
    m1, _ = fan_pair()
    other_frame = KripkeModel(KripkeFrame(["w0", "w1", "w2"]), {}, {"p"})
    with pytest.raises(ValueError):
        intersect(m1, other_frame)
    other_alpha = KripkeModel(m1.frame, {}, {"p", "q"})
    with pytest.raises(ValueError):
        intersect(m1, other_alpha)


def test_intersection_closure_random_hornbox():
    rng = random.Random(42)
    held = 0
    for _ in range(3000):
        m1 = random_model(rng, max_worlds=4, letters=("p", "q"), mods=("a",))
        m2 = random_model(rng, frame=m1.frame, letters=("p", "q"), mods=("a",),
                          letter_bias=0.7)
        phi = random_hornbox_formula(rng, letters=("p", "q"), mods=("a",),
                                     max_clauses=3).to_formula()
        w = rng.choice(m1.frame.worlds)
        if check(m1, w, phi) and check(m2, w, phi):
            held += 1
            assert check(intersect(m1, m2), w, phi)
    assert held > 100  # the property was actually exercised


def test_product_of_separation_witnesses():
    m1 = KripkeModel(KripkeFrame(["w0", "w1"], {"a": [("w0", "w1")]}), {}, {"p", "q"})
    m2 = KripkeModel(KripkeFrame(["v0"]), {"v0": ["q"]}, {"p", "q"})
    prod = product(m1, m2)
    pw = product_world("w0", "v0")
    assert prod.frame.worlds == (pw, product_world("w1", "v0"))
    assert prod.frame.successors(pw, "a") == ()
    assert not prod.holds(pw, "q")
    assert check(prod, pw, parse("[a]p"))
    assert not check(prod, pw, parse("[a]p -> q"))


def test_product_world_count():
    rng = random.Random(5)
    for _ in range(50):
        m1 = random_model(rng, max_worlds=4)
        m2 = random_model(rng, max_worlds=3)
        prod = product(m1, m2)
        assert len(prod.frame.worlds) == len(m1.frame.worlds) * len(m2.frame.worlds)


def test_product_unit_law():
    rng = random.Random(6)
    m1 = random_model(rng, max_worlds=4, letters=("p", "q"), mods=("a", "b"))
    unit_frame = KripkeFrame(["u"], {m: [("u", "u")] for m in ("a", "b")})
    unit = KripkeModel(unit_frame, {"u": ["p", "q"]}, {"p", "q"})
    prod = product(m1, unit)
    rename = {product_world(w, "u"): w for w in m1.frame.worlds}
    assert [rename[w] for w in prod.frame.worlds] == list(m1.frame.worlds)
    for w in m1.frame.worlds:
        assert prod.valuation[product_world(w, "u")] == m1.valuation[w]
        for m in ("a", "b"):
            succ = {rename[v] for v in prod.frame.successors(product_world(w, "u"), m)}
            assert succ == set(m1.frame.successors(w, m))


def test_product_closure_random_horndia():
    rng = random.Random(43)
    held = 0
    for _ in range(2000):
        m1 = random_model(rng, max_worlds=3, letters=("p", "q"), mods=("a",),
                          letter_bias=0.7)
        m2 = random_model(rng, max_worlds=3, letters=("p", "q"), mods=("a",),
                          letter_bias=0.7)
        phi = random_horndia_formula(rng, letters=("p", "q"), mods=("a",),
                                     max_clauses=3).to_formula()
        w1 = rng.choice(m1.frame.worlds)
        w2 = rng.choice(m2.frame.worlds)
        if check(m1, w1, phi) and check(m2, w2, phi):
            held += 1
            assert check(product(m1, m2), product_world(w1, w2), phi)
    assert held > 100


def test_closure_fails_outside_the_fragment():
    # the diamond witness breaks intersection closure
    m1, m2 = fan_pair()
    psi = parse("<a>p")
    assert check(m1, "w0", psi) and check(m2, "w0", psi)
    assert not check(intersect(m1, m2), "w0", psi)
    # the boxed implication breaks product closure
    n1 = KripkeModel(KripkeFrame(["w0", "w1"], {"a": [("w0", "w1")]}), {}, {"p", "q"})
    n2 = KripkeModel(KripkeFrame(["v0"]), {"v0": ["q"]}, {"p", "q"})
    xi = parse("[a]p -> q")
    assert check(n1, "w0", xi) and check(n2, "v0", xi)
    assert not check(product(n1, n2), product_world("w0", "v0"), xi)


def test_override_valuation():
    m1, _ = fan_pair()
    everywhere = override_valuation(m1, "p", m1.frame.worlds)
    assert all(everywhere.holds(w, "p") for w in m1.frame.worlds)
    nowhere = override_valuation(m1, "p", ())
    assert all(not nowhere.holds(w, "p") for w in m1.frame.worlds)
    assert override_valuation(m1, "p", ["w1"]) == m1
    with pytest.raises(ValueError):
        override_valuation(m1, "zz", ())
    with pytest.raises(ValueError):
        override_valuation(m1, "p", ["w9"])


def test_override_makes_disjunction_true():
    m1, _ = fan_pair()
    m = KripkeModel(m1.frame, m1.valuation, {"p", "q"})
    overridden = override_valuation(m, "q", m.frame.worlds)
    assert all(check(overridden, w, parse("p | q")) for w in m.frame.worlds)


def test_add_successor_world():
    base = KripkeModel(KripkeFrame(["w0"]), {}, {"p"})
    grown = add_successor_world(base, "w0", "a", {"p"})
    assert grown.frame.worlds == ("w0", "_x0")
    assert grown.frame.successors("w0", "a") == ("_x0",)
    assert grown.frame.successors("_x0", "a") == ()
    assert check(grown, "w0", parse("<a>p"))
    again = add_successor_world(grown, "w0", "a", set())
    assert again.frame.worlds == ("w0", "_x0", "_x1")


def test_add_successor_world_validation():
    base = KripkeModel(KripkeFrame(["w0"]), {}, {"p"})
    with pytest.raises(ValueError):
        add_successor_world(base, "w9", "a", set())
    with pytest.raises(ValueError):
        add_successor_world(base, "w0", "a", {"zz"})


def test_add_successor_world_leaves_other_modalities_alone():
    rng = random.Random(44)
    for _ in range(300):
        base = random_model(rng, max_worlds=4, letters=("p", "q"), mods=("a", "b"))
        w = rng.choice(base.frame.worlds)
        grown = add_successor_world(base, w, "a", {"p"})
        f = parse("<b>p | [b]q")
        for old in base.frame.worlds:
            assert check(base, old, f) == check(grown, old, f)


def test_box_literal_stability_under_added_letter_world():
    # adding a world that carries the letter keeps box-only literals stable
    # at every old world
    rng = random.Random(45)
    from helpers import random_literal, reference_has_node
    from knfrag import Diamond, is_positive_literal

    for _ in range(2000):
        base = random_model(rng, max_worlds=4, letters=("p",), mods=("a",))
        w = rng.choice(base.frame.worlds)
        grown = add_successor_world(base, w, "a", {"p"})
        lit = random_literal(rng, rng.randint(0, 3), ("p",), ("a",), allow_dia=False)
        assert is_positive_literal(lit) and not reference_has_node(lit, Diamond)
        for old in base.frame.worlds:
            assert check(base, old, lit) == check(grown, old, lit)


def test_empty_valuation_world_keeps_diamond_literals_stable():
    # needs a pre-existing successor at the surgered world, else <a>T flips
    rng = random.Random(46)
    from helpers import random_literal

    done = 0
    while done < 2000:
        base = random_model(rng, max_worlds=4, letters=("p", "q"), mods=("a",),
                            edge_bias=0.5)
        w = rng.choice(base.frame.worlds)
        if not base.frame.successors(w, "a"):
            continue
        done += 1
        grown = add_successor_world(base, w, "a", set())
        lit = random_literal(rng, rng.randint(0, 3), ("p", "q"), ("a",), allow_box=False)
        for old in base.frame.worlds:
            assert check(base, old, lit) == check(grown, old, lit)


# --- Combinator frames against the public constructor ---

# "(a!,b)" sorts before "(a,b)" although ("a", "b") < ("a!", "b"), and
# "w10" sorts before "w2": successor rows follow text order, not pair order.
_NAMES = ("a", "a!", "b", "w0", "w2", "w10", "_x0", "z,")


def _named_model(rng):
    worlds = rng.sample(_NAMES, rng.randint(1, 5))
    relations = {
        m: [(u, v) for u in worlds for v in worlds if rng.random() < 0.35]
        for m in ("a", "b")
    }
    valuation = {w: {l for l in "pqr" if rng.random() < 0.5} for w in worlds}
    return KripkeModel(KripkeFrame(worlds, relations), valuation, set("pqr"))


def _pairs(frame):
    return {str(m): set(ps) for m, ps in frame.relations.items()}


def _assert_same_frame(model, worlds, pairs):
    """`model`'s frame equals the one the public constructor builds from
    `worlds` and the expected `pairs`, in every observable way."""
    frame = model.frame
    expected = KripkeFrame(worlds, pairs)
    assert frame == expected and expected == frame
    assert hash(frame) == hash(expected)
    assert frame.worlds == expected.worlds
    for w in frame.worlds:
        for m in ("a", "b", "c"):
            succ = frame.successors(w, m)
            assert succ == expected.successors(w, m)
            assert succ == tuple(sorted(v for u, v in pairs.get(m, ()) if u == w))
    rebuilt = KripkeModel(expected, model.valuation, model.alphabet)
    assert model_to_json(model) == model_to_json(rebuilt)
    assert repr(model) == repr(rebuilt)


def test_combinator_frames_match_the_public_constructor():
    rng = random.Random(2024)
    for _ in range(400):
        m1, m2 = _named_model(rng), _named_model(rng)
        p1, p2 = _pairs(m1.frame), _pairs(m2.frame)

        prod = product(m1, m2)
        _assert_same_frame(
            prod,
            [product_world(u, v) for u in m1.frame.worlds for v in m2.frame.worlds],
            {m: {(product_world(u, v), product_world(u2, v2))
                 for u, u2 in p1.get(m, ()) for v, v2 in p2.get(m, ())}
             for m in ("a", "b")},
        )
        for u in m1.frame.worlds:
            for v in m2.frame.worlds:
                assert prod.valuation[product_world(u, v)] == m1.valuation[u] & m2.valuation[v]

        other = KripkeModel(m1.frame, {w: set("pq") for w in m1.frame.worlds}, set("pqr"))
        _assert_same_frame(intersect(m1, other), m1.frame.worlds, p1)
        grown = [w for w in m1.frame.worlds if rng.random() < 0.5]
        _assert_same_frame(override_valuation(m1, "p", grown), m1.frame.worlds, p1)

        w, m = rng.choice(m1.frame.worlds), rng.choice("abc")
        added = add_successor_world(m1, w, m, {"q"})
        fresh = added.frame.worlds[-1]
        expected = {k: set(ps) for k, ps in p1.items()}
        expected.setdefault(m, set()).add((w, fresh))
        _assert_same_frame(added, m1.frame.worlds + (fresh,), expected)


def test_product_rejects_colliding_world_names():
    left = KripkeModel(KripkeFrame(["a,b", "a"]), {}, set())
    right = KripkeModel(KripkeFrame(["c", "b,c"]), {}, set())
    with pytest.raises(ValueError):
        product(left, right)


def test_product_output_is_pinned():
    # sha256 over each product's JSON, repr, valuation key order, and
    # modality, row key and successor order, one pair a line; recorded from
    # the comprehension-built product.
    rng, digest = random.Random(2025), hashlib.sha256()
    for _ in range(500):
        prod = product(_named_model(rng), _named_model(rng))
        rows = [[m, [[u, list(vs)] for u, vs in succ.items()]]
                for m, succ in prod.frame._succ.items()]
        line = json.dumps([model_to_json(prod), repr(prod), list(prod.valuation), rows])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "6bdb5642f5b2dca06eaf01ed6f3e81faf80e72bf477d4a3b086695c4adeef425"
