import copy
import hashlib
import pickle
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import chain, count, islice, product

import pytest

from knfrag import (
    COUNTEREXAMPLE,
    EQUIVALENT_UP_TO_BOUND,
    THEOREM_IDS,
    TOP,
    And,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    Formula,
    FragmentDescriptor,
    KripkeFrame,
    KripkeModel,
    Not,
    Or,
    Prop,
    check,
    classify,
    enumerate_fragment,
    letters,
    model_to_json,
    parse,
    parse_fragment_spec,
    product_world,
    recognize_clausal,
    replay_theorem,
    replay_theorems,
    search_weak_translation,
    strong_translation_check,
    weak_equiv_check,
)
from knfrag import combinators, expressiveness
from knfrag.semantics import Batch, _Layout, valuation_batches
from knfrag.solver import CapExceeded, sat_bruteforce, sat_tableau, tree_model_bound
from knfrag.translate import FreshLetterSource, krom_to_krom_box, krom_to_krom_diamond
from helpers import (
    compile_formula,
    count_replays,
    literals_by_size,
    note_replays,
    program_value,
    random_clause,
    random_formula,
    reference_formula_key,
    reference_fragment_layers,
    reference_node_count,
    reference_least_upper_bounds,
    reference_search,
    reference_strong,
    reference_weak_equiv,
)


def test_weak_equiv_de_morgan():
    verdict = weak_equiv_check(parse("p | q"), parse("~(~p & ~q)"), max_worlds=2)
    assert verdict.status == EQUIVALENT_UP_TO_BOUND


def test_weak_equiv_counterexample_is_minimal():
    verdict = weak_equiv_check(parse("p | q"), parse("p"), max_worlds=3)
    assert verdict.status == COUNTEREXAMPLE
    pointed = verdict.counterexample.pointed
    assert len(pointed.model.frame.worlds) == 1
    assert pointed.model.holds(pointed.world, "q")
    assert not pointed.model.holds(pointed.world, "p")


def test_weak_equiv_krom_candidate_counterexample():
    verdict = weak_equiv_check(parse("p & q -> r"), parse("p -> r"), max_worlds=3)
    assert verdict.status == COUNTEREXAMPLE
    pointed = verdict.counterexample.pointed
    assert len(pointed.model.frame.worlds) == 1
    assert pointed.model.letters_at(pointed.world) == {"p"}


def test_weak_equiv_counterexample_disagrees():
    rng = random.Random(11)
    for _ in range(100):
        f = random_formula(rng, depth=3, letters=("p", "q"), mods=("a",))
        g = random_formula(rng, depth=3, letters=("p", "q"), mods=("a",))
        verdict = weak_equiv_check(f, g, max_worlds=2)
        if verdict.status == COUNTEREXAMPLE:
            pointed = verdict.counterexample.pointed
            assert check(pointed.model, pointed.world, f) != check(
                pointed.model, pointed.world, g
            )


def test_weak_equiv_reflexive_and_symmetric():
    rng = random.Random(12)
    for _ in range(60):
        f = random_formula(rng, depth=3, letters=("p", "q"), mods=("a",))
        assert weak_equiv_check(f, f, max_worlds=2).status == EQUIVALENT_UP_TO_BOUND
        g = random_formula(rng, depth=3, letters=("p", "q"), mods=("a",))
        assert (
            weak_equiv_check(f, g, max_worlds=2).status
            == weak_equiv_check(g, f, max_worlds=2).status
        )


def test_weak_equiv_rejects_outside_alphabet():
    with pytest.raises(ValueError):
        weak_equiv_check(parse("p"), parse("q"), alphabet={"p"})


def test_strong_translation_of_box_rewrite():
    f = parse("<a>p")
    g = krom_to_krom_box(recognize_clausal(f)).to_formula()
    verdict = strong_translation_check(f, g, max_worlds=3)
    assert verdict.status == EQUIVALENT_UP_TO_BOUND


def test_strong_translation_of_box_rewrite_values_one_batch_per_world_count(monkeypatch):
    # One layout per world count: at 2 worlds, 2 layouts and 2 batches,
    # where a pass over the edgeless frame of its own made 4 and 4.
    layouts, batches = [], []
    init, value = _Layout.__init__, Batch.value

    def counted_init(layout, *args):
        layouts.append(layout)
        init(layout, *args)

    def counted_value(batch, rows):
        batches.append(batch)
        return value(batch, rows)

    monkeypatch.setattr(_Layout, "__init__", counted_init)
    monkeypatch.setattr(Batch, "value", counted_value)
    f = parse("<a>p")
    g = krom_to_krom_box(recognize_clausal(f)).to_formula()
    assert strong_translation_check(f, g, max_worlds=2).status == EQUIVALENT_UP_TO_BOUND
    assert (len(layouts), len(batches)) == (2, 2)


def test_strong_translation_counterexample():
    verdict = strong_translation_check(parse("<a>p"), parse("[a]p"), max_worlds=2)
    assert verdict.status == COUNTEREXAMPLE


def test_strong_translation_identity():
    f = parse("<a>p | q")
    assert strong_translation_check(f, f, max_worlds=2).status == EQUIVALENT_UP_TO_BOUND


def test_weak_implies_strong_same_alphabet():
    # Over g's own letters the strong check has no fresh letter, and is the
    # weak check: the same answer, its right side under "extended_right".
    rng = random.Random(13)
    statuses = set()
    for _ in range(40):
        f = random_formula(rng, depth=2, letters=("p", "q"), mods=("a",))
        g = random_formula(rng, depth=2, letters=("p", "q"), mods=("a",))
        weak = weak_equiv_check(f, g, alphabet={"p", "q"}, max_worlds=2)
        strong = strong_translation_check(f, g, max_worlds=2, alphabet={"p", "q"})
        status, model, world, details = _answer(weak)
        if details is not None:
            details = {"left": details["left"], "extended_right": details["right"]}
        assert _answer(strong) == (status, model, world, details), (str(f), str(g))
        statuses.add(status)
    assert statuses == {EQUIVALENT_UP_TO_BOUND, COUNTEREXAMPLE}


# --- The bitsliced checks against the scalar reference loops ---


def _answer(verdict):
    ce = verdict.counterexample
    if ce is None:
        return verdict.status, None, None, None
    return verdict.status, model_to_json(ce.pointed.model), ce.pointed.world, ce.details


def _reference_answer(status, model, world, details):
    return status, None if model is None else model_to_json(model), world, details


def _weak_corpus():
    """Pairs (f, g, alphabet, max_worlds): random pairs, and pairs where g
    is f with a disjunct or conjunct added, which often agree on small
    frames and part only on larger ones."""
    corpus = []
    for seed, (lets, mods, count, depth, worlds) in enumerate([
        (("p", "q"), ("a",), 560, 3, 2),
        (("p",), ("a", "b"), 400, 3, 2),
        (("p", "q"), ("a",), 60, 2, 3),
    ]):
        rng = random.Random(f"weak-corpus:{seed}")
        for i in range(count):
            f = random_formula(rng, depth, lets, mods)
            g = random_formula(rng, depth, lets, mods)
            if i % 3 == 1:
                g = (Or if i % 2 else And)(f, random_formula(rng, 2, lets, mods))
            corpus.append((f, g, set(lets), worlds))
    for left, right in [
        ("<a>(p & ~q) & <a>(q & ~p) & <a>(~p & ~q)", "F"),  # parts at 3 worlds
        ("<a>(p & ~q) & <a>(q & ~p) & <a>(~p & ~q)", "<a>(p & q) & <a>~p"),
        ("[a](p | q) | [a](~p | q) | [a](p | ~q) | [a](~p | ~q)", "T"),  # parts only at 4
    ]:
        corpus.append((parse(left), parse(right), {"p", "q"}, 3))
    return corpus


def _check_weak_corpus(corpus):
    for f, g, alphabet, worlds in corpus:
        expected = _reference_answer(*reference_weak_equiv(f, g, alphabet, worlds))
        assert _answer(weak_equiv_check(f, g, alphabet=alphabet, max_worlds=worlds)) == expected, (
            str(f), str(g), worlds)


def test_weak_equiv_matches_the_scalar_loop():
    corpus = _weak_corpus()
    assert len(corpus) >= 1000
    _check_weak_corpus(corpus)


def test_weak_equiv_matches_on_empty_and_wide_alphabets():
    rng = random.Random("weak-alphabets")
    corpus = []
    for _ in range(60):
        f = random_formula(rng, 3, ("p",), ("a",))
        g = random_formula(rng, 3, ("p",), ("a",))
        corpus.append((f, g, {"p", "q", "r"}, 2))
        no_letters = [parse(str(h).replace("p", "T")) for h in (f, g)]
        corpus.append((*no_letters, set(), 3))
    _check_weak_corpus(corpus)


def test_weak_equiv_matches_across_valuation_blocks(monkeypatch):
    # Blocks of 2 cells split the valuations of every frame with 2 or more
    # worlds over {p,q}, and every relation, across batches.
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", 2)
    _check_weak_corpus(_weak_corpus()[::8])
    rng = random.Random("strong-blocks")
    for _ in range(40):
        f = random_formula(rng, 2, ("p", "q"), ("a",))
        g = random_formula(rng, 2, ("p", "q", "x"), ("a",))
        expected = _reference_answer(*reference_strong(f, g, 2))
        assert _answer(strong_translation_check(f, g, max_worlds=2)) == expected


@pytest.fixture(scope="module")
def two_modality_cases():
    """(check, f, g, expected answer) on two modalities at 2 worlds, as the
    scalar loop answers them.  Each g is f with a random disjunct or
    conjunct added (over {p,x} for the strong check, x fresh), so that the
    pair often agrees and parts late; pairs are kept by the world count
    of their counterexample (None when they agree), up to a quota each."""
    rng = random.Random("two-modality-blocks")
    quota = {(check_fn, worlds): 3 if worlds != 2 else 12
             for check_fn in (weak_equiv_check, strong_translation_check)
             for worlds in (None, 1, 2)}
    cases = []
    for i in count():
        check_fn = strong_translation_check if i % 2 else weak_equiv_check
        lets = ("p", "x") if i % 2 else ("p", "q")
        f = random_formula(rng, 3, lets[:1] if i % 2 else lets, ("a", "b"))
        g = (Or if i % 4 < 2 else And)(f, random_formula(rng, 3, lets, ("a", "b")))
        if i % 2:
            expected = _reference_answer(*reference_strong(f, g, 2))
        else:
            expected = _reference_answer(*reference_weak_equiv(f, g, {"p", "q"}, 2))
        key = (check_fn, expected[1] and len(expected[1]["worlds"]))
        if quota[key]:
            quota[key] -= 1
            cases.append((check_fn, f, g, expected))
        if not any(quota.values()):
            return cases


@pytest.mark.parametrize("chunk", [2, 5, 9])
def test_two_modalities_match_across_relation_block_edges(chunk, two_modality_cases, monkeypatch):
    # At 2 worlds over {p,q}, cells 0-3 are valuation cells, 4-7 the pairs
    # of b and 8-11 those of a: a batch edge at cell 2, 5 or 9 splits the
    # valuation cells, b's pairs or a's pairs across blocks.
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", chunk)
    parted_on = set()
    for check_fn, f, g, expected in two_modality_cases:
        if check_fn is weak_equiv_check:
            got = weak_equiv_check(f, g, alphabet={"p", "q"}, max_worlds=2)
        else:
            got = strong_translation_check(f, g, max_worlds=2)
        assert _answer(got) == expected, (check_fn.__name__, str(f), str(g))
        if expected[1] is not None:
            parted_on.add((check_fn, len(expected[1]["worlds"]), len(expected[1]["relations"])))
    assert {(weak_equiv_check, 2, 2), (strong_translation_check, 2, 2)} <= parted_on


@pytest.mark.parametrize("left, right", [
    ("[a]F & <b>(p & q) & <b>(p & ~q) & <b>(~p & q)", "F"),
    ("<b>(p & q) & <b>(p & ~q) & <a>(~p & q)", "F"),
    ("<b>(p & q) & <b>(p & ~q) & <b>~p", "<b>(p & q) & <b>(p & ~q) & <b>~p & [a]F"),
])
def test_two_modalities_part_at_three_worlds_as_the_scalar_loop(left, right):
    # Each pair agrees on every model of up to 2 worlds and parts on a
    # 3-world frame whose first modality has at most one pair, within 10**5
    # models of the start of the stream.
    f, g = parse(left), parse(right)
    expected = _reference_answer(*reference_weak_equiv(f, g, {"p", "q"}, 3))
    assert _answer(weak_equiv_check(f, g, alphabet={"p", "q"}, max_worlds=3)) == expected
    assert len(expected[1]["worlds"]) == 3


@pytest.mark.parametrize("left, right", [
    ("F", "<b>(x & p) & <b>(~x & p) & <a>~p"),
    ("[a]p", "[a]p | <b>(x & p) & <b>(~x & p) & <b>~p"),
])
def test_two_modality_strong_checks_part_at_three_worlds_as_the_scalar_loop(left, right):
    # As above, with a fresh letter x on the right.
    f, g = parse(left), parse(right)
    expected = _reference_answer(*reference_strong(f, g, 3, {"p"}))
    got = strong_translation_check(f, g, max_worlds=3, alphabet={"p"})
    assert _answer(got) == expected
    assert len(expected[1]["worlds"]) == 3


def test_exhaustive_two_modality_check_at_three_worlds():
    # 2**24 models at 3 worlds (2**18 frames, 2**6 valuations) and 4,112
    # below: 8-10 s when each frame was a batch of its own, about 0.2 s
    # now (2 CPUs, CPython 3.11.7).
    f = parse("<a><b>p | [b][a]q")
    verdict = weak_equiv_check(f, parse("<a><b>p | [b][a]q | F"), alphabet={"p", "q"}, max_worlds=3)
    assert verdict.status == EQUIVALENT_UP_TO_BOUND


def test_strong_translation_matches_the_scalar_loop():
    cases = []
    for text in ("<a>p", "~<a>p", "<a>p | q", "[a]<a>p", "<a>p & <a>q", "<a>p | <a>q",
                 "[a]p", "~[a]p", "[a]p -> q", "<a>[a]p", "[a]p | [a]q", "~[a]q | p"):
        f = parse(text)
        for translate in (krom_to_krom_box, krom_to_krom_diamond):
            cases.append((f, translate(recognize_clausal(f)).to_formula(), 2, None))
    cases.append((parse("<a>p"), parse("[a]p"), 3, None))
    rng = random.Random("strong-corpus")
    for _ in range(150):
        f = random_formula(rng, 2, ("p",), ("a",))
        g = random_formula(rng, 2, ("p", "x", "y"), ("a",))
        cases.append((f, g, 2, None))
        cases.append((f, g, 2, {"p", "q"}))
    fresh_counts = set()
    for f, g, worlds, alphabet in cases:
        expected = _reference_answer(*reference_strong(f, g, worlds, alphabet))
        got = strong_translation_check(f, g, max_worlds=worlds, alphabet=alphabet)
        assert _answer(got) == expected, (str(f), str(g), worlds, alphabet)
        fresh_counts.add(len(letters(g) - (alphabet or letters(f))))
    assert {1, 2} <= fresh_counts


# --- Sides on one NNF row are answered without enumerating models ---


def _law(g, slip):
    """g rewritten at its root by De Morgan, modal duality or, for letters,
    T and negations, double negation.  The law's negations are numbered
    in the order they are built; the one numbered `slip`, if any, is left
    out, which keeps the letters but usually not the meaning."""
    sites = count()

    def neg(h):
        return h if next(sites) == slip else Not(h)

    if isinstance(g, (And, Or)):
        dual = Or if isinstance(g, And) else And
        return neg(dual(neg(g.left), neg(g.right)))
    if isinstance(g, (Diamond, Box)):
        dual = Box if isinstance(g, Diamond) else Diamond
        return neg(dual(g.modality, neg(g.operand)))
    return neg(neg(g))


def _rewrite_somewhere(f, rng, slip):
    """f with `_law` applied at one random node: the root, or one found by
    descending into random children."""
    if isinstance(f, Not) and rng.random() < 0.6:
        return Not(_rewrite_somewhere(f.operand, rng, slip))
    if isinstance(f, (And, Or)) and rng.random() < 0.6:
        if rng.random() < 0.5:
            return type(f)(_rewrite_somewhere(f.left, rng, slip), f.right)
        return type(f)(f.left, _rewrite_somewhere(f.right, rng, slip))
    if isinstance(f, (Diamond, Box)) and rng.random() < 0.6:
        return type(f)(f.modality, _rewrite_somewhere(f.operand, rng, slip))
    return _law(f, slip)


def _rewrite_corpus():
    """(check, f, g, alphabet, max_worlds): g is f rewritten by one law at
    one node, and in every other pair by the same law with one negation
    slipped, so that the two sides have the same letters and often part."""
    corpus = []
    for seed, (lets, mods, pairs, worlds) in enumerate([
        (("p", "q"), ("a",), 500, 2),
        (("p",), ("a", "b"), 400, 2),
        (("p",), ("a",), 160, 3),
    ]):
        rng = random.Random(f"rewrite-corpus:{seed}")
        for i in range(pairs):
            f = random_formula(rng, 3, lets, mods)
            slip = rng.randrange(3) if i % 2 else None
            g = _rewrite_somewhere(f, rng, slip)
            check_fn = strong_translation_check if i % 4 >= 2 else weak_equiv_check
            corpus.append((check_fn, f, g, set(lets), worlds))
    return corpus


def test_rewrites_match_the_scalar_loop():
    # Correct rewrites share the NNF row of f and are answered at once;
    # slipped ones are enumerated, and a shortcut taken on equal letters
    # alone would call them equivalent.
    corpus = _rewrite_corpus()
    assert len(corpus) >= 1000
    seen = set()
    for check_fn, f, g, alphabet, worlds in corpus:
        if check_fn is weak_equiv_check:
            expected = _reference_answer(*reference_weak_equiv(f, g, alphabet, worlds))
            got = weak_equiv_check(f, g, alphabet=alphabet, max_worlds=worlds)
        else:
            expected = _reference_answer(*reference_strong(f, g, worlds))
            got = strong_translation_check(f, g, max_worlds=worlds)
        assert _answer(got) == expected, (check_fn.__name__, str(f), str(g), worlds)
        rows, root = expressiveness._nnf_table(And(f, g))[:2]
        seen.add((check_fn, worlds, rows[root][1] == rows[root][2], expected[0]))
    for check_fn in (weak_equiv_check, strong_translation_check):
        for worlds in (2, 3):
            assert {(check_fn, worlds, True, EQUIVALENT_UP_TO_BOUND),
                    (check_fn, worlds, False, COUNTEREXAMPLE)} <= seen


@pytest.mark.parametrize("check_fn, left, right, kwargs", [
    (weak_equiv_check, "[a](p -> q) & <a>r", "~<a>(p & ~q) & ~[a]~r", {"max_worlds": 4}),
    (weak_equiv_check, "~~p", "p", {"alphabet": {"p", "q", "r"}, "max_worlds": 3}),
    (strong_translation_check, "<a>p | q", "~([a]~p & ~q)", {"max_worlds": 3}),
    (strong_translation_check, "[b]p", "~<b>~p", {"alphabet": {"p", "q"}, "max_worlds": 2}),
])
def test_sides_on_one_row_enumerate_no_model(check_fn, left, right, kwargs, monkeypatch):
    def no_batches(*args):
        raise AssertionError("valuation_batches called")

    monkeypatch.setattr(expressiveness, "valuation_batches", no_batches)
    verdict = check_fn(parse(left), parse(right), **kwargs)
    assert (verdict.status, verdict.counterexample) == (EQUIVALENT_UP_TO_BOUND, None)
    with pytest.raises(AssertionError, match="valuation_batches called"):
        check_fn(parse(left), parse(f"{right} & T"), **kwargs)


# --- Past the one-world models, the tableau proves agreement on every model ---


def _sites(f, path=()):
    """(path, node) for every node of f, a path being the fields followed."""
    yield path, f
    for name in f._fields:
        child = getattr(f, name)
        if isinstance(child, Formula):
            yield from _sites(child, path + (name,))


def _put(f, path, new):
    """f with the node at `path` replaced by `new`."""
    if not path:
        return new
    parts = [getattr(f, name) for name in f._fields]
    i = f._fields.index(path[0])
    parts[i] = _put(parts[i], path[1:], new)
    return type(f)(*parts)


def _k_law(h, rng, lets, mods):
    """h rewritten by a law of K that keeps its meaning but not its NNF
    row: commutation, `& T`, `| F`, absorption, or absorption under h's
    own modality."""
    extra = random_formula(rng, 1, lets, mods)
    law = rng.randrange(5)
    if law == 0 and isinstance(h, (And, Or)) and h.left != h.right:
        return type(h)(h.right, h.left)
    if law == 1:
        return And(h, TOP) if rng.random() < 0.5 else Or(h, Not(TOP))
    if law == 2 and isinstance(h, Diamond):
        return Or(Diamond(h.modality, And(h.operand, extra)), h)
    if law == 2 and isinstance(h, Box):
        return And(h, Box(h.modality, Or(h.operand, extra)))
    return And(h, Or(extra, h)) if rng.random() < 0.5 else Or(And(h, extra), h)


def _one_world_law(h):
    """A modal h rewritten by a law that holds on one world only, where a
    world's only possible successor is itself: <m>x as <m>T & x, [m]x as
    [m]F | x."""
    if isinstance(h, Diamond):
        return And(Diamond(h.modality, TOP), h.operand)
    return Or(Box(h.modality, Not(TOP)), h.operand)


def _proof_corpus():
    """(check, f, g, alphabet, max_worlds): in even pairs g is f with one
    node rewritten by a law of K, in odd pairs with one modal node rewritten
    by a law of one world, so that g agrees with f on every one-world model
    and mostly parts from it at 2 or 3 worlds.  No pair shares a row."""
    corpus = []
    for seed, (lets, mods, pairs, worlds) in enumerate([
        (("p", "q"), ("a",), 700, 2),
        (("p",), ("a", "b"), 250, 2),
        (("p",), ("a",), 60, 3),
    ]):
        rng = random.Random(f"proof-corpus:{seed}")
        made = 0
        while made < pairs:
            f = random_formula(rng, 3, lets, mods)
            if made % 2 == 0:
                path, h = rng.choice(list(_sites(f)))
                g = _put(f, path, _k_law(h, rng, lets, mods))
            else:
                modal = [site for site in _sites(f) if isinstance(site[1], (Diamond, Box))]
                if not modal:
                    continue
                path, h = rng.choice(modal)
                g = _put(f, path, _one_world_law(h))
            rows, root = expressiveness._nnf_table(And(f, g))[:2]
            if rows[root][1] == rows[root][2]:
                continue
            check_fn = strong_translation_check if made % 4 >= 2 else weak_equiv_check
            corpus.append((check_fn, f, g, set(lets), worlds))
            made += 1
    # Three successors of different kinds need 3 worlds.
    f = parse("<a>(p & [a]F) & <a>(p & <a>T) & <a>~p")
    g = parse("<a>(p & [a]F) & <a>(p & <a>T) & <a>~p & F")
    corpus += [(weak_equiv_check, f, g, {"p"}, 3), (strong_translation_check, f, g, {"p"}, 3)]
    return corpus


def _check_against_the_scalar_loop(check_fn, f, g, alphabet, worlds):
    if check_fn is weak_equiv_check:
        expected = _reference_answer(*reference_weak_equiv(f, g, alphabet, worlds))
    else:
        expected = _reference_answer(*reference_strong(f, g, worlds, alphabet))
    got = check_fn(f, g, alphabet=alphabet, max_worlds=worlds)
    assert _answer(got) == expected, (check_fn.__name__, str(f), str(g), worlds)
    return got


def test_proofs_past_one_world_match_the_scalar_loop(monkeypatch):
    # Every pair agrees on the one-world models, so each runs the tableau
    # once: the K laws close it, most one-world laws leave it open, and
    # where a batch or two is all that is left to value, its node cap,
    # that work, often stops it first.
    proofs = []
    expand = expressiveness._expand

    def recorded(rows, pending, budget):
        proofs.append("capped")
        tree = expand(rows, pending, budget)
        proofs[-1] = "closed" if tree is None else "open"
        return tree

    monkeypatch.setattr(expressiveness, "_expand", recorded)
    corpus = _proof_corpus()
    assert len(corpus) >= 1000
    seen, parted_at = set(), set()
    for check_fn, f, g, alphabet, worlds in corpus:
        before = len(proofs)
        verdict = _check_against_the_scalar_loop(check_fn, f, g, alphabet, worlds)
        assert len(proofs) == before + 1, (str(f), str(g))
        seen.add((check_fn, proofs[-1], verdict.status))
        if verdict.counterexample:
            parted_at.add(len(verdict.counterexample.pointed.model.frame.worlds))
    assert parted_at == {2, 3}
    for check_fn in (weak_equiv_check, strong_translation_check):
        assert {(check_fn, "closed", EQUIVALENT_UP_TO_BOUND), (check_fn, "open", COUNTEREXAMPLE),
                (check_fn, "capped", EQUIVALENT_UP_TO_BOUND),
                (check_fn, "capped", COUNTEREXAMPLE)} <= seen, check_fn.__name__


def test_proof_outcomes_over_the_corpus_are_pinned(monkeypatch):
    # How each pair's proof ends, and the nodes the proofs take from their
    # budgets, a capped proof its cap plus one.
    outcomes, taken = [], []
    expand = expressiveness._expand

    def recorded(rows, pending, budget):
        outcomes.append("capped")
        start = budget[0]
        try:
            tree = expand(rows, pending, budget)
        finally:
            taken.append(start - budget[0])
        outcomes[-1] = "closed" if tree is None else "open"
        return tree

    monkeypatch.setattr(expressiveness, "_expand", recorded)
    for check_fn, f, g, alphabet, worlds in _proof_corpus():
        check_fn(f, g, alphabet=alphabet, max_worlds=worlds)
    assert Counter(outcomes) == {"closed": 80, "open": 294, "capped": 638}
    assert sum(taken) == 17684


def test_a_capped_proof_leaves_the_answer_to_the_models(monkeypatch):
    calls = []

    def capped(rows, pending, budget):
        calls.append(budget[0])
        raise CapExceeded("tableau node cap exceeded")

    monkeypatch.setattr(expressiveness, "_expand", capped)
    corpus = _proof_corpus()[:60]
    statuses = {_check_against_the_scalar_loop(*case).status for case in corpus}
    assert statuses == {EQUIVALENT_UP_TO_BOUND, COUNTEREXAMPLE}
    assert len(calls) == len(corpus) and min(calls) > 0


def test_a_proof_answers_at_any_bound():
    # The proof's node cap counts the work it saves only up to the default
    # cap, so a bound of a million worlds costs no more than one of 3.
    f, g = parse("[a](p -> q) & <b>r"), parse("<b>r & [a](~p | q)")
    for check_fn in (weak_equiv_check, strong_translation_check):
        verdict = check_fn(f, g, max_worlds=10**6)
        assert (verdict.status, verdict.counterexample) == (EQUIVALENT_UP_TO_BOUND, None)


@pytest.mark.parametrize("target, fragment, alphabet, size, worlds, found", [
    ("p | q", "horn", {"p", "q"}, 5, 2, False),
    ("p | q", "krom", {"p", "q"}, 5, 2, True),
    ("p & q -> r", "krom", {"p", "q", "r"}, 4, 2, False),
    ("p & q", "core", {"p", "q"}, 4, 3, True),
    ("[a]T", "core", {"p"}, 3, 2, True),
    ("<a>p", "core", {"p"}, 4, 3, True),
    ("<a>p", "horn-box", {"p"}, 4, 2, False),
    ("~p | [a]p", "horn", {"p"}, 5, 2, True),
])
def test_search_matches_the_scalar_loop(target, fragment, alphabet, size, worlds, found):
    f = parse(target)
    expected = reference_search(f, fragment, alphabet, size, worlds)
    assert (expected is not None) == found
    assert search_weak_translation(f, fragment, alphabet, size, max_worlds=worlds) == expected


SEARCH_FRAGMENTS = ("horn", "krom", "core", "horn-box", "krom-diamond", "core-box", "bool")


@pytest.mark.parametrize("fragment", SEARCH_FRAGMENTS)
def test_search_matches_the_scalar_loop_on_random_targets(fragment, monkeypatch):
    # Each third target is drawn from the fragment at size 4, so it is found;
    # the others are random and searched at size 3.  Every fourth case is
    # repeated with the models split into batches of 4.
    rng = random.Random(f"search-corpus-{fragment}")
    alphabet = {"p", "q"}
    outcomes = set()
    for i in range(16):
        mods = ("a",) if i % 2 else ("a", "b")
        if i % 3 == 0:
            size = 4
            target = rng.choice(list(enumerate_fragment(alphabet, mods, 4, fragment))).to_formula()
        else:
            size = 3
            target = random_formula(rng, 3, ("p", "q"), mods)
        expected = reference_search(target, fragment, alphabet, size, 2, set(mods))
        case = (str(target), fragment, mods, size)
        assert search_weak_translation(
            target, fragment, alphabet, size, max_worlds=2, modalities=set(mods)
        ) == expected, case
        if i % 4 == 0:
            with monkeypatch.context() as patched:
                patched.setattr("knfrag.semantics._CHUNK_CELLS", 2)
                assert search_weak_translation(
                    target, fragment, alphabet, size, max_worlds=2, modalities=set(mods)
                ) == expected, case
        outcomes.add(expected is not None)
    assert outcomes == {True, False}


def test_search_without_an_alphabet_searches_over_the_targets_letters():
    # alphabet=None reads the target's letters off the table the search
    # builds anyway; each answer is that of the call given `letters(target)`.
    rng = random.Random("search-alphabet-none")
    outcomes = set()
    for i in range(105):
        fragment = SEARCH_FRAGMENTS[i % len(SEARCH_FRAGMENTS)]
        mods = ("a",) if i % 2 else ("a", "b")
        target = random_formula(rng, rng.randint(1, 3), ("p", "q", "r")[: 1 + i % 3], mods)
        size = 2 + i // len(SEARCH_FRAGMENTS) % 3
        expected = search_weak_translation(target, fragment, letters(target), size, max_worlds=2)
        found = search_weak_translation(target, fragment, None, size, max_worlds=2)
        assert found == expected, (str(target), fragment, size)
        outcomes.add(found is not None)
    assert outcomes == {True, False}


IMPLIED_CLAUSE_FRAGMENTS = SEARCH_FRAGMENTS + ("krom-box", "core-diamond")


def test_implied_clause_filter_matches_the_reference(monkeypatch):
    # 2,000 random targets over {p,q},{a}, each fragment at size bounds 2-4
    # and 2 worlds; one search in four runs on batches of 4 models.  A
    # refutation before the last layer comes from the filter alone, so
    # some must occur for the comparison to test it.
    rng = random.Random("implied-clause-filter")
    layer, reached, expected = expressiveness._layer, [], {}

    def recorded_layer(pool, live, s):
        reached.append(s)
        return layer(pool, live, s)

    monkeypatch.setattr(expressiveness, "_layer", recorded_layer)
    outcomes = {"found": 0, "refuted at the last layer": 0, "refuted before it": 0}
    for i in range(2000):
        fragment = IMPLIED_CLAUSE_FRAGMENTS[i % len(IMPLIED_CLAUSE_FRAGMENTS)]
        size = 2 + i // len(IMPLIED_CLAUSE_FRAGMENTS) % 3
        target = random_formula(rng, rng.choice((1, 2, 3)), ("p", "q"), ("a",))
        case = (str(target), fragment, size)
        if case not in expected:
            expected[case] = reference_search(target, fragment, {"p", "q"}, size, 2)
        reached.clear()
        with monkeypatch.context() as patched:
            if i % 4 == 0:
                patched.setattr("knfrag.semantics._CHUNK_CELLS", 2)
            found = search_weak_translation(target, fragment, {"p", "q"}, size, max_worlds=2)
        assert found == expected[case], case
        if found is not None:
            outcomes["found"] += 1
        elif max(reached) < size:
            outcomes["refuted before it"] += 1
        else:
            outcomes["refuted at the last layer"] += 1
    assert min(outcomes.values()) >= 20, outcomes


FRAGMENT_SPECS = [name + suffix for name in ("horn", "krom", "core", "bool")
                  for suffix in ("", "-box", "-diamond")]


def test_least_upper_bound_matches_the_clause_by_clause_and(monkeypatch):
    # Each fragment spec over each alphabet and modality set: at size
    # bounds 1-7 with one modality and at most two letters, 1-5 otherwise
    # (at 7 the reference pool reaches 63,547 clauses).  Three targets,
    # one of them a random clause, on the first batch and on a random
    # 2-world batch; one combination in four runs on batches of 4 models.
    rng = random.Random("least-upper-bound")
    cases = 0
    for i, (fragment, alphabet, mods) in enumerate(product(
        FRAGMENT_SPECS, ((), ("p",), ("p", "q"), ("p", "q", "r")), (("a",), ("a", "b"))
    )):
        size = 7 if len(mods) == 1 and len(alphabet) <= 2 else 5
        letters_or_p = alphabet or ("p",)
        with monkeypatch.context() as patched:
            if i % 4 == 0:
                patched.setattr("knfrag.semantics._CHUNK_CELLS", 2)
            batches = list(valuation_batches(alphabet, mods, 2))
            two_world = [b for b in batches if b.layout.k == 2]
            targets, points = [], []
            for batch in (batches[0], rng.choice(two_world)):
                for j in range(3):
                    target = (random_clause(rng, letters_or_p, mods).to_formula() if j == 2
                              else random_formula(rng, rng.randint(1, 3), letters_or_p, mods))
                    targets.append(target)
                    points.append((batch, program_value(batch, compile_formula(target))))
            want = reference_least_upper_bounds(points, alphabet, mods, size, fragment)
            req = parse_fragment_spec(fragment)
            for target, (batch, truth), row in zip(targets, points, want):
                for s, expected in enumerate(row, 1):
                    got = expressiveness._least_upper_bound(batch, truth, s, req)
                    assert got == expected, (fragment, alphabet, mods, s, str(target),
                                             batch.layout.k, batch.start)
                    cases += 1
    assert cases >= 1000, cases


def test_krom_refutation_memory_stays_bounded():
    # The size-7 Krom refutation ends after layer 1 and the least upper
    # bound, so it builds only the size-1 clauses and keeps no candidate
    # text, `Clause` or compiled clause program: it peaks near 12 KB.  A
    # pool built to size 7 before layer 1 took it to 0.4-0.8 MB.
    tracemalloc.start()
    try:
        found = search_weak_translation(
            parse("p & q -> r"), "krom", {"p", "q", "r"}, 7, max_worlds=3
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < 200_000, peak


def test_search_breaks_ties_in_a_layer_by_text():
    # `[a]~T` and `~<a>T` both have size 3 and agree with the target; the
    # search tries the whole layer and returns the one whose text is least.
    target = parse("~<a>T")
    found = search_weak_translation(target, "horn", {"p", "q"}, 4, max_worlds=2)
    assert str(found) == "[a]~T"
    first = next(cf for cf in enumerate_fragment({"p", "q"}, {"a"}, 4, "horn")
                 if weak_equiv_check(target, cf.to_formula(), {"p", "q"}, 2).status
                 == EQUIVALENT_UP_TO_BOUND)
    assert found == first


def test_krom_refutation_renders_no_text_and_compiles_no_clause(monkeypatch):
    def no_text(clause):
        raise AssertionError(f"rendered {clause}")

    tables = []
    nnf_table = expressiveness._nnf_table

    def counting_table(f):
        tables.append(f)
        return nnf_table(f)

    monkeypatch.setattr(expressiveness, "clause_texts", no_text)
    monkeypatch.setattr(expressiveness, "_nnf_table", counting_table)
    target = parse("p & q -> r")
    found = search_weak_translation(target, "krom", {"p", "q", "r"}, 7, max_worlds=3)
    assert found is None
    # one table, of the target: each literal is valued from its operand,
    # where compiling each of the 508 literals took 509 calls and compiling
    # each of the 3,972 pool clauses 3,973
    assert len(tables) == 1 and tables[0] is target, len(tables)


@pytest.mark.parametrize("check, f, g", [
    (weak_equiv_check, "<a>p & (q | <a>p)", "<a>p"),
    (strong_translation_check, "<a>p", "<a>p & (x | <a>p)"),
])
def test_each_distinct_subformula_is_valued_once_per_batch(check, f, g, monkeypatch):
    # `<a>p` occurs twice in one side and once in the other: it is one row of
    # the table of f & g, so one `_modal` call per batch, where compiling
    # each side to its own post-order code made three.
    batches, calls = [], []
    value, modal = Batch.value, Batch._modal

    def counted_value(batch, rows):
        batches.append(batch)
        return value(batch, rows)

    def counted_modal(batch, *args):
        calls.append(batch)
        return modal(batch, *args)

    monkeypatch.setattr(Batch, "value", counted_value)
    monkeypatch.setattr(Batch, "_modal", counted_modal)
    # Blocks of 2 cells, so that the weak pair, which the tableau proves
    # after the one-world models, still values more than one batch.
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", 2)
    assert check(parse(f), parse(g)).status == EQUIVALENT_UP_TO_BOUND
    assert len(batches) > 1 and calls == batches, (len(batches), len(calls))


@pytest.mark.parametrize("run", [
    tree_model_bound,
    sat_tableau,
    sat_bruteforce,
    lambda f: weak_equiv_check(f, Prop("p")),
    lambda f: weak_equiv_check(Prop("p"), f),
    lambda f: strong_translation_check(f, Prop("p")),
    lambda f: strong_translation_check(Prop("p"), f),
    lambda f: search_weak_translation(f, "horn", {"p"}, 3),
], ids=["bound", "tableau", "brute", "weak-left", "weak-right", "strong-left", "strong-right",
        "search"])
@pytest.mark.parametrize("junk", ["q", 3, None])
def test_a_non_formula_node_is_a_type_error(run, junk):
    # The one NNF table reads every query's formula, and reads no unknown
    # child as T: `tree_model_bound` of such a formula once returned 1.
    for f in (And(Prop("p"), junk), Not(junk), Diamond("a", junk)):
        with pytest.raises(TypeError, match="not a formula"):
            run(f)


def test_searches_build_the_pool_only_up_to_the_layer_reached(monkeypatch):
    # A refutation tries layer 1 and then needs only the least upper bound,
    # so no clause above size 1 is built, and none is valued; an answer at
    # layer 4 of 11 builds the 172 clauses of size at most 4, where the
    # whole pool up to size 11 holds 133,692.
    layer, pool_by_size = expressiveness._layer, expressiveness._pool_by_size
    reached, pools = [], []

    def recorded_layer(pool, live, s):
        reached.append(s)
        return layer(pool, live, s)

    def recorded_pool_by_size(*args):
        for lits, pool in pool_by_size(*args):
            pools.append(pool)
            yield lits, pool

    monkeypatch.setattr(expressiveness, "_layer", recorded_layer)
    monkeypatch.setattr(expressiveness, "_pool_by_size", recorded_pool_by_size)
    for target, fragment, alphabet, size, layers, clauses, found in (
        ("p | q", "horn", {"p", "q"}, 7, [1], 3, "None"),
        ("p & q -> r", "krom", {"p", "q", "r"}, 7, [1], 4, "None"),
        ("p -> q", "krom", {"p", "q", "r"}, 11, [1, 2, 3, 4], 172, "p -> q"),
    ):
        reached.clear()
        pools.clear()
        got = search_weak_translation(parse(target), fragment, alphabet, size, max_worlds=3)
        assert str(got) == found and reached == layers, (target, reached)
        pool = pools[-1]
        assert len(pool) == clauses and max(s for s, *_ in pool) == layers[-1], (target, len(pool))


@pytest.mark.parametrize("chunk", [12, 9])
def test_literals_are_valued_from_their_operands(chunk, monkeypatch):
    # With 9 cells a batch ends inside the relation cells: after a's first
    # pair at 2 worlds, after b's third at 3.  Literals are valued from the
    # largest down, so each one's operand chain is valued on demand.
    monkeypatch.setattr("knfrag.semantics._CHUNK_CELLS", chunk)
    lits = literals_by_size(5, ("p", "q"), ("a", "b"), True, True)
    programs = [compile_formula(lit) for _, lit, _ in lits]
    batches = chain(valuation_batches({"p", "q"}, {"a", "b"}, 2),
                    islice(valuation_batches({"p", "q"}, {"a", "b"}, 3), 0, None, 997))
    worlds = set()
    for batch in batches:
        values = {}
        for i in reversed(range(len(lits))):
            got = expressiveness._literal_value(lits, batch, values, i)
            assert got == program_value(batch, programs[i]), (str(lits[i][1]), batch.start)
        worlds.add(batch.layout.k)
    assert len(lits) == 1023 and worlds == {1, 2, 3}


@pytest.mark.parametrize("target, modalities, message", [
    ("p | q", None, "target mentions letters outside the alphabet"),
    ("<b>p", {"a"}, "target mentions modalities outside the search's modalities"),
])
def test_search_rejects_targets_outside_its_language(target, modalities, message):
    with pytest.raises(ValueError, match=message):
        search_weak_translation(parse(target), "horn", {"p"}, 3, max_worlds=2,
                                modalities=modalities)


def test_literal_pool_keeps_the_sorted_order():
    for alphabet, mods, allow_dia, allow_box in product(
        (("p",), ("p", "q")), (("a",), ("a", "b")), (False, True), (False, True)
    ):
        lits = literals_by_size(7, alphabet, mods, allow_dia, allow_box)
        pool = [(size, l) for size, l, _ in lits]
        assert pool == sorted(pool, key=lambda t: (t[0], reference_formula_key(t[1])))
        assert all(l.operand is lits[o][1] if size > 1 else o is None for size, l, o in lits)


def _canonical_layers(lits, pool, layers, ids):
    """The pool as a sorted list of clause ids, and each layer as a sorted
    list of candidates, a candidate being the sorted tuple of its clause
    ids; `ids` numbers each (size, prefix, negatives, positives) once."""
    keys = [ids.setdefault((size, prefix, tuple(lits[i] for i in negs),
                            tuple(lits[i] for i in poss)), len(ids))
            for size, prefix, negs, poss in pool]
    return sorted(keys), [sorted(tuple(sorted(keys[j] for j in picks)) for picks in layer)
                          for layer in layers]


def _layers_built_when_reached(alphabet, mods, size, fragment):
    """The pool and its layers 0..size, each from the search's per-layer
    builder over the whole pool."""
    *_, (lits, pool) = expressiveness._pool_by_size(alphabet, mods, size, fragment)
    return [l for _, l, _ in lits], pool, [expressiveness._layer(pool, range(len(pool)), s)
                                           for s in range(size + 1)]


def assert_layers_match_reference(alphabet, mods, size, fragment):
    ids = {}
    got = _canonical_layers(*_layers_built_when_reached(alphabet, mods, size, fragment), ids)
    want = _canonical_layers(*reference_fragment_layers(alphabet, mods, size, fragment), ids)
    assert got == want, (alphabet, mods, size, fragment)


@pytest.mark.parametrize("fragment", [name + suffix for name in ("horn", "krom", "core", "bool")
                                      for suffix in ("", "-box", "-diamond")])
def test_fragment_layers_match_the_reference(fragment):
    for alphabet, mods, size in product(((), ("p",), ("p", "q")), (("a",), ("a", "b")),
                                        range(1, 7)):
        assert_layers_match_reference(alphabet, mods, size, fragment)


def test_krom_layers_at_size_7_match_the_reference():
    assert_layers_match_reference(("p", "q", "r"), ("a",), 7, "krom")
    _, pool, layers = _layers_built_when_reached(("p", "q", "r"), ("a",), 7, "krom")
    assert len(pool) == 3972
    assert [len(layer) for layer in layers] == [0, 4, 12, 48, 166, 606, 2012, 6788]


def test_weak_equiv_deep_formula_needs_no_recursion():
    f = Prop("p")
    for _ in range(3000):
        f = Not(f)
    assert weak_equiv_check(f, Prop("p")).status == EQUIVALENT_UP_TO_BOUND
    verdict = weak_equiv_check(Not(f), Prop("p"))
    assert verdict.status == COUNTEREXAMPLE
    assert verdict.counterexample.details == {"left": True, "right": False}


# sha256 of the newline-joined `str` stream, recorded from the pruning-free
# enumerator that kept scanning the size-sorted pool past the budget.
FRAGMENT_STREAMS = [
    ({"p", "q"}, {"a"}, 5, "horn", 382,
     "76818c7133357a9be45add047ae50e1e36e5803b46ddb3f62ea26eb42c3b29f4"),
    ({"p", "q", "r"}, {"a"}, 5, "krom", 836,
     "127f7c11f2973f1e8a0e00e23b200a7e06eaafc19ffacf1aca6280bd45e6435b"),
    ({"p"}, {"a", "b"}, 5, "core", 1209,
     "ab1afb8086890944c3acf3c9d4ff04d8bed1ed2b4a99377b49f018045b8aa2e8"),
    ({"p", "q"}, {"a"}, 6, "krom-box", 607,
     "6ca9fe6401bf7303ab25bd93c3a58d395ce4146ba6ec93e2a25d25833f41b8ce"),
    ({"p", "q"}, {"a"}, 6, "horn-diamond", 409,
     "a9b880f501156c2ab3b3094ab420db57c244b0ebe6a306b4e346d62a1b8b3f17"),
    ({"p", "q", "r"}, {"a"}, 6, "krom", 2848,
     "050aaafeade861499407532bb889f793699ca761f211d9dad434ed1f7e233838"),
]


@pytest.mark.parametrize("alphabet, mods, size, fragment, count, digest", FRAGMENT_STREAMS)
def test_enumerate_fragment_stream_is_pinned(alphabet, mods, size, fragment, count, digest):
    items = [str(cf) for cf in enumerate_fragment(alphabet, mods, size, fragment)]
    assert len(items) == count
    assert hashlib.sha256("\n".join(items).encode()).hexdigest() == digest


def test_parse_fragment_spec():
    d = parse_fragment_spec("horn")
    assert d.horn and not d.krom and not d.box_only
    d = parse_fragment_spec("krom-box")
    assert d.krom and d.box_only and not d.horn
    d = parse_fragment_spec("core-diamond")
    assert d.horn and d.krom and d.diamond_only
    d = parse_fragment_spec("bool")
    assert not d.horn and not d.krom
    with pytest.raises(ValueError):
        parse_fragment_spec("weird")


def test_enumerate_fragment_respects_constraints():
    seen = 0
    for cf in enumerate_fragment({"p", "q"}, {"a"}, 5, "core-box"):
        seen += 1
        d = classify(cf)
        assert d.horn and d.krom and d.box_only
        assert reference_node_count(cf.to_formula()) <= 5
        assert cf.alphabet() <= {"p", "q"}
    assert seen > 50


def test_enumerate_fragment_sizes_ascend():
    sizes = [reference_node_count(cf.to_formula()) for cf in enumerate_fragment({"p"}, {"a"}, 4, "horn")]
    assert sizes == sorted(sizes)


def test_search_finds_target_inside_fragment():
    found = search_weak_translation(parse("p | q"), "krom", {"p", "q"}, 7, max_worlds=3)
    assert found is not None
    assert str(found) == "p | q"


def test_search_small_horn_refutation():
    # size 4 keeps this quick; the acceptance suite runs the full size-7 bound
    found = search_weak_translation(parse("p | q"), "horn", {"p", "q"}, 4, max_worlds=3)
    assert found is None


def test_search_equivalent_smaller_candidate():
    # the boxed tautology has weakly equivalent core candidates, e.g. T
    found = search_weak_translation(parse("[a]T"), "core", {"p"}, 3, max_worlds=2)
    assert found is not None
    assert weak_equiv_check(parse("[a]T"), found.to_formula()).status == EQUIVALENT_UP_TO_BOUND


def test_theorem_catalogue_complete():
    assert set(THEOREM_IDS) == {
        "horn-vs-bool",
        "krom-vs-bool",
        "intersection-closure",
        "hornbox-vs-horn",
        "product-closure",
        "horndia-vs-horn",
        "krombox-equiv",
        "kromdia-equiv",
        "horn-krom-incomparable",
        "box-dia-incomparable",
    }


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_replays_pass(theorem_id):
    report = replay_theorem(theorem_id)
    assert report.theorem == theorem_id
    assert report.steps
    failing = [d for d, ok in report.steps if not ok]
    assert report.overall, failing


def test_replay_unknown_id():
    with pytest.raises(ValueError):
        replay_theorem("no-such-result")


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_replay_report_shape(theorem_id):
    report = replay_theorem(theorem_id)
    assert type(report.steps) is tuple
    assert all(isinstance(d, str) and isinstance(ok, bool) for d, ok in report.steps)
    assert report.overall == all(ok for _, ok in report.steps)


def unchanged(m, *args):
    return m


def union(m1, m2):
    # `intersect` gone wrong: the valuations are joined, not met.
    val = {w: m1.valuation[w] | m2.valuation[w] for w in m1.frame.worlds}
    return KripkeModel(m1.frame, val, m1.alphabet)


def product_without_edges(m1, m2):
    prod = combinators.product(m1, m2)
    return KripkeModel(KripkeFrame(prod.frame.worlds), prod.valuation, prod.alphabet)


def product_of_unions(m1, m2):
    val = {product_world(u, v): m1.valuation[u] | m2.valuation[v]
           for u in m1.frame.worlds for v in m2.frame.worlds}
    return KripkeModel(combinators.product(m1, m2).frame, val, m1.alphabet)


@pytest.mark.parametrize("theorem_id, construction, wrong", [
    ("horn-vs-bool", "override_valuation", unchanged),
    ("krom-vs-bool", "override_valuation", unchanged),
    ("intersection-closure", "intersect", union),
    ("hornbox-vs-horn", "intersect", union),
    ("product-closure", "product", product_without_edges),
    ("horndia-vs-horn", "product", product_of_unions),
    ("krombox-equiv", "add_successor_world", unchanged),
    ("kromdia-equiv", "add_successor_world", unchanged),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_replay_fails_without_its_model_construction(theorem_id, construction, wrong,
                                                     monkeypatch):
    # Each replay rests on its model construction: a wrong one fails it.
    monkeypatch.setattr(expressiveness, construction, wrong)
    assert not replay_theorem(theorem_id).overall


def test_hornbox_sample_fails_on_a_union_of_the_witnesses(monkeypatch):
    # The box-only sample is false wherever p holds at both w1 and w2, so
    # the step can fail: it fails when `intersect` joins the valuations.
    monkeypatch.setattr(expressiveness, "intersect", union)
    steps = dict(replay_theorem("hornbox-vs-horn").steps)
    assert steps["a box-only sample true in both witnesses is true in the intersection"] is False


@pytest.mark.parametrize("bound", [0, -1])
@pytest.mark.parametrize("call", [
    lambda bound: weak_equiv_check(parse("p"), parse("q"), max_worlds=bound),
    lambda bound: strong_translation_check(parse("p"), parse("~p"), max_worlds=bound),
    lambda bound: search_weak_translation(parse("p"), "horn", {"p"}, 3, max_worlds=bound),
])
def test_bounded_checks_reject_bounds_below_one(call, bound):
    with pytest.raises(ValueError, match="max_worlds must be at least 1"):
        call(bound)


@pytest.mark.parametrize("letter", [str, Prop], ids=["str", "Prop"])
@pytest.mark.parametrize("call", [
    lambda f, alphabet: weak_equiv_check(f, f, alphabet, 1),
    lambda f, alphabet: strong_translation_check(f, f, 1, alphabet=alphabet),
], ids=["weak", "strong"])
def test_bounded_checks_read_an_alphabet_alike(call, letter):
    alphabet = [letter("p")]
    assert call(parse("p"), alphabet).status == EQUIVALENT_UP_TO_BOUND
    with pytest.raises(ValueError, match="outside"):
        call(parse("p | q"), alphabet)


@pytest.mark.parametrize("entry", ["P", "", "1p", "p q"])
@pytest.mark.parametrize("call", [
    lambda f, g, alphabet: weak_equiv_check(f, g, alphabet, 1),
    lambda f, g, alphabet: strong_translation_check(f, g, 1, alphabet=alphabet),
    lambda f, g, alphabet: search_weak_translation(f, "horn", alphabet, 1, 1),
], ids=["weak", "strong", "search"])
def test_bounded_checks_reject_alphabet_entries_that_are_not_letters(call, entry):
    # No formula can name such an entry; the search's literals refuse it too.
    for f, g in [(parse("p"), parse("q")), (parse("p"), parse("p"))]:
        with pytest.raises(ValueError, match=re.escape(f"bad letter: {entry!r}")):
            call(f, g, {"p", "q", entry})


@pytest.mark.parametrize("size", [0, -3])
def test_search_rejects_size_bounds_below_one(size):
    with pytest.raises(ValueError, match="formula_size_bound must be at least 1"):
        search_weak_translation(parse("p | q"), "horn", {"p", "q"}, size)


def assert_next_run_replays_each_result_once(monkeypatch):
    counts = count_replays(monkeypatch)
    reports = replay_theorems(THEOREM_IDS)
    assert counts == dict.fromkeys(THEOREM_IDS, 1)
    assert all(report.overall for report in reports)


def test_replay_run_leaves_no_state(monkeypatch):
    with pytest.raises(ValueError):
        replay_theorems(["horn-vs-bool", "no-such-result"])
    report = replay_theorem("box-dia-incomparable")
    assert report.overall
    assert_next_run_replays_each_result_once(monkeypatch)


@pytest.mark.parametrize("run, order", [
    (lambda: replay_theorems(THEOREM_IDS),
     ["horn-vs-bool", "krom-vs-bool", "intersection-closure", "hornbox-vs-horn",
      "product-closure", "horndia-vs-horn", "krombox-equiv", "kromdia-equiv",
      "horn-krom-incomparable", "box-dia-incomparable"]),
    (lambda: replay_theorem("box-dia-incomparable"),
     ["hornbox-vs-horn", "horndia-vs-horn", "krombox-equiv", "kromdia-equiv",
      "box-dia-incomparable"]),
    (lambda: replay_theorems(THEOREM_IDS[::-1]),
     ["hornbox-vs-horn", "horndia-vs-horn", "krombox-equiv", "kromdia-equiv",
      "box-dia-incomparable", "horn-vs-bool", "krom-vs-bool", "horn-krom-incomparable",
      "product-closure", "intersection-closure"]),
], ids=["all", "box-dia-incomparable", "all-reversed"])
def test_replays_run_in_citation_order(run, order, monkeypatch):
    # Cited results run first, in citation order, and a run skips the ones
    # it has already replayed.
    ran = []
    note_replays(monkeypatch, ran.append)
    run()
    assert ran == order


def test_replay_outcomes_are_recorded_as_bool(monkeypatch):
    def loose(texts, clausal):
        yield "an empty outcome", []
        yield "a non-empty outcome", [0]

    monkeypatch.setitem(expressiveness._CATALOGUE, "horn-vs-bool", (loose, ()))
    report = replay_theorem("horn-vs-bool")
    assert report.steps == (("an empty outcome", False), ("a non-empty outcome", True))


def test_replay_failing_midway_leaves_no_state(monkeypatch):
    # A replay that raises after yielding a step ends the run with no
    # report saved and no run left open.
    def broken(texts, clausal):
        yield "a first step", True
        raise RuntimeError("replay broke")

    replay, cites = expressiveness._CATALOGUE["krom-vs-bool"]
    monkeypatch.setitem(expressiveness._CATALOGUE, "krom-vs-bool", (broken, cites))
    with pytest.raises(RuntimeError, match="replay broke"):
        replay_theorems(THEOREM_IDS)
    monkeypatch.setitem(expressiveness._CATALOGUE, "krom-vs-bool", (replay, cites))
    assert_next_run_replays_each_result_once(monkeypatch)


def test_replay_theorems_matches_single_replays():
    reports = replay_theorems(THEOREM_IDS)
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    assert reports == [replay_theorem(t) for t in THEOREM_IDS]


def test_concurrent_runs_share_no_reports(monkeypatch):
    # Each run replays each result once; runs in other threads do not save
    # it any work, so every thread's runs count in full.
    counts = count_replays(monkeypatch)
    workers, runs = 6, 4
    results = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers, timeout=60)

    def worker(i):
        barrier.wait()
        for _ in range(runs):
            results[i].append([r.overall for r in replay_theorems(THEOREM_IDS)])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[[True] * len(THEOREM_IDS)] * runs] * workers
    assert counts == dict.fromkeys(THEOREM_IDS, workers * runs)


@pytest.mark.parametrize("record, field", [
    (lambda: sat_tableau(parse("p")), "status"),
    (lambda: weak_equiv_check(parse("p"), parse("q"), max_worlds=1), "status"),
    (lambda: weak_equiv_check(parse("p"), parse("q"), max_worlds=1).counterexample, "details"),
    (lambda: replay_theorem("horn-vs-bool"), "steps"),
    (lambda: TOP, "letter"),
    (lambda: Prop("p"), "letter"),
    (lambda: Not(TOP), "operand"),
    (lambda: Or(TOP, TOP), "left"),
    (lambda: And(TOP, TOP), "right"),
    (lambda: Diamond("a", TOP), "modality"),
    (lambda: Box("a", TOP), "operand"),
    (lambda: Clause(positives=[TOP]), "positives"),
    (lambda: recognize_clausal(parse("p & q")), "clauses"),
    (lambda: classify(recognize_clausal(parse("p"))), "horn"),
    (lambda: sat_tableau(parse("p")).witness, "world"),
], ids=["SatResult", "Verdict", "Counterexample", "TheoremReport", "Top", "Prop", "Not", "Or",
        "And", "Diamond", "Box", "Clause", "ClausalFormula", "FragmentDescriptor", "PointedModel"])
def test_result_records_are_frozen(record, field):
    with pytest.raises(FrozenInstanceError):
        setattr(record(), field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(record(), field)


def every_record():
    """One value of each record type, built the way the library builds it."""
    verdict = weak_equiv_check(parse("p"), parse("q"), max_worlds=1)
    source = FreshLetterSource({"p"})
    source.next()
    return [TOP, Prop("p"), Not(TOP), Or(TOP, Prop("q")), And(Prop("p"), TOP),
            Diamond("a", Prop("p")), Box("b", TOP), parse("<a>(p | ~q) & [b]T"),
            Clause(["a"], [Prop("p")], [Diamond("b", TOP)]), recognize_clausal(parse("p & (q | r)")),
            FragmentDescriptor(True, False, False, True, True), sat_tableau(parse("<a>p")),
            sat_tableau(parse("p & ~p")), verdict, verdict.counterexample,
            weak_equiv_check(parse("p"), parse("p"), max_worlds=1),
            replay_theorem("horn-vs-bool"), source, sat_tableau(parse("<a>p")).witness]


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_records_round_trip_through_pickle_and_copy(record):
    # Each copy is rebuilt through the constructor, so it is validated again.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    assert type(shallow) is type(deep) is type(record)
    assert shallow == record and deep == record and repr(deep) == repr(record)
    if type(record) is FreshLetterSource:
        assert deep.next() == record.next() == "_f1" and "_f1" not in FreshLetterSource().reserved
    elif "details" not in repr(record):  # a counterexample's details are a dict
        assert hash(shallow) == hash(deep) == hash(record)


def test_record_prints_its_sets_sorted():
    # A deep copy of a set may iterate in another order than the original.
    source = FreshLetterSource({"q", "p", "_f0"})
    assert repr(source) == "FreshLetterSource(reserved={'_f0', 'p', 'q'}, counter=0)"
    assert repr(FreshLetterSource(frozenset({"q", "p"}))) == (
        "FreshLetterSource(reserved=frozenset({'p', 'q'}), counter=0)")
    assert repr(FreshLetterSource()) == "FreshLetterSource(reserved=set(), counter=0)"


def test_fresh_letter_source_is_mutable_and_unhashable():
    source = FreshLetterSource()
    source.counter = 5
    assert source.next() == "_f5" and source == FreshLetterSource({"_f5"}, 6)
    with pytest.raises(TypeError):
        hash(source)


# Fragment pairs that no path of the hierarchy may join, in either
# direction, and the result that separates each pair.
INCOMPARABLE = {
    ("Horn", "Krom"): "horn-krom-incomparable",
    ("HornBox", "HornDia"): "box-dia-incomparable",
    ("coreBox", "coreDia"): "box-dia-incomparable",
}


def reachable(edges, start):
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        for src, dst, _, _ in edges:
            if src == node and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def test_hierarchy_edges_rest_on_catalogued_results():
    table = expressiveness._HIERARCHY
    nodes, (cluster, cluster_ids), edges = table["nodes"], table["cluster"], table["edges"]
    assert set(cluster) <= set(nodes)
    assert all(src in nodes and dst in nodes and style in ("solid", "dashed")
               for src, dst, style, _ in edges)
    in_table = set(cluster_ids).union(*(ids for _, _, _, ids in edges))
    cited = in_table | set(INCOMPARABLE.values())
    assert cited <= set(THEOREM_IDS)
    assert all(report.overall for report in replay_theorems(sorted(cited)))
    # The closure witness `p | q` of these two edges is replayed nowhere yet.
    assert [(src, dst) for src, dst, _, ids in edges if not ids] == [
        ("KromBox", "coreBox"), ("KromDia", "coreDia")]
    citing_none = [t for t in THEOREM_IDS if not expressiveness._CATALOGUE[t][1]]
    assert len(citing_none) == 8
    assert [t for t in citing_none if t not in in_table] == []
    for (a, b), theorem in INCOMPARABLE.items():
        assert b not in reachable(edges, a) and a not in reachable(edges, b), theorem
