import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from knfrag import (
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    Modality,
    Prop,
    BOTTOM,
    TOP,
)
from knfrag import (
    EQUIVALENT_UP_TO_BOUND,
    FragmentDescriptor,
    InternalError,
    NotClausalError,
    classify,
    parse,
    recognize_clausal,
    strong_translation_check,
    to_text,
)
from knfrag.solver import sat_bruteforce, sat_tableau, tree_model_bound
from knfrag.syntax import _unchecked
from knfrag.translate import (
    FreshLetterSource,
    _offending_count,
    fresh_letters_of,
    krom_to_krom_box,
    krom_to_krom_diamond,
)
from helpers import (
    formulas_up_to_size,
    krom_corpus,
    random_formula,
    random_literal,
    reference_eliminate,
    reference_offending_count,
)


def rc(text):
    return recognize_clausal(parse(text))


def test_fresh_letter_source_skips_reserved():
    source = FreshLetterSource({"_f0", "_f2", "p"})
    assert source.next() == "_f1"
    assert source.next() == "_f3"
    assert source.next() == "_f4"


def test_box_translation_of_diamond_literal():
    out = krom_to_krom_box(rc("<a>p"))
    assert str(out) == "~[a]_f0 & [a](_f0 | p)"


def test_diamond_translation_of_negated_box():
    out = krom_to_krom_diamond(rc("[a]p -> q"))
    assert str(out) == "(<a>_f0 | q) & [a](~_f0 | ~p)"


def test_translation_identity_on_clean_input():
    for text in ("p | q", "[a](p -> q)", "~p | ~q", "p & q"):
        cf = rc(text)
        assert krom_to_krom_box(cf) == cf
        assert krom_to_krom_diamond(cf) == cf
    # box literals survive the box translation, diamonds the diamond one
    assert krom_to_krom_box(rc("[a][b]p")) == rc("[a][b]p")
    assert krom_to_krom_diamond(rc("<a><b>p")) == rc("<a><b>p")


def test_translation_rejects_non_krom():
    with pytest.raises(ValueError, match="^input is not Krom$"):
        krom_to_krom_box(rc("p & q -> r"))
    with pytest.raises(ValueError, match="^input is not Krom$"):
        krom_to_krom_diamond(rc("~p | ~q | r"))


def test_nested_diamond_two_steps():
    cf = rc("<a><b>p")
    out = krom_to_krom_box(cf)
    d = classify(out)
    assert d.krom and d.box_only
    assert fresh_letters_of(cf, out) == ["_f0", "_f1"]
    assert len(out.clauses) == len(cf.clauses) + 2


def test_nested_box_two_steps():
    cf = rc("[a][b]p")
    out = krom_to_krom_diamond(cf)
    d = classify(out)
    assert d.krom and d.diamond_only
    assert fresh_letters_of(cf, out) == ["_f0", "_f1"]
    assert len(out.clauses) == len(cf.clauses) + 2


def test_top_literals_rewrite_cleanly():
    for text in ("<a>T", "~<a>T"):
        out = krom_to_krom_box(rc(text))
        assert classify(out).box_only
    for text in ("[a]T", "~[a]T"):
        out = krom_to_krom_diamond(rc(text))
        assert classify(out).diamond_only


def _step_count(cf, out):
    return len(out.clauses) - len(cf.clauses)


def _offending_total(cf, bad):
    return sum(
        _offending_count(l, bad) for c in cf.clauses for l in c.negatives + c.positives
    )


def test_termination_and_size_accounting():
    from knfrag import Box, Diamond

    for text in ("<a>p", "<a><b>p", "[b]<a>p", "~[b]<a>p", "<a>p | <b>q",
                 "<a>[b]<a>p", "~<a>[b]p | q"):
        cf = rc(text)
        out = krom_to_krom_box(cf)
        expect = _offending_total(cf, Diamond)
        assert _step_count(cf, out) == expect
        assert len(fresh_letters_of(cf, out)) == expect
        out2 = krom_to_krom_diamond(cf)
        expect2 = _offending_total(cf, Box)
        assert _step_count(cf, out2) == expect2


def test_fresh_letters_avoid_capture():
    cf = recognize_clausal(parse("~[a]_f0 & [a](_f0 | p) & <b>q"))
    out = krom_to_krom_box(cf)
    assert "_f0" not in fresh_letters_of(cf, out)
    assert classify(out).box_only


def test_corpus_fragment_and_equisatisfiability():
    corpus = krom_corpus()
    assert 1000 <= len(corpus) <= 2000
    rng = random.Random(3)
    sample = rng.sample(corpus, 150)
    for cf in sample:
        f = cf.to_formula()
        base = sat_bruteforce(f, tree_model_bound(f)).status
        for translate in (krom_to_krom_box, krom_to_krom_diamond):
            out = translate(cf)
            d = classify(out)
            assert d.krom
            assert d.box_only if translate is krom_to_krom_box else d.diamond_only
            assert cf.alphabet() <= out.alphabet()
            assert sat_tableau(out.to_formula()).status == base


_modality = st.sampled_from([Modality("a"), Modality("b")])
_literal = st.recursive(
    st.sampled_from([TOP, Prop("p"), Prop("q")]),
    lambda inner: st.builds(Diamond, _modality, inner)
    | st.builds(Box, _modality, inner),
    max_leaves=3,
)


@st.composite
def _krom_formula(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        prefix = tuple(draw(st.lists(_modality, max_size=2)))
        n = draw(st.integers(0, 2))
        m = draw(st.integers(0, 2 - n)) if n else draw(st.integers(1, 2))
        negatives = tuple(draw(_literal) for _ in range(n))
        positives = tuple(draw(_literal) for _ in range(m))
        clauses.append(Clause(prefix, negatives, positives))
    return ClausalFormula(tuple(clauses))


@settings(max_examples=200, deadline=None)
@given(_krom_formula())
def test_translations_keep_krom_and_satisfiability(cf):
    base = sat_tableau(cf.to_formula()).status
    boxed = krom_to_krom_box(cf)
    d = classify(boxed)
    assert d.krom and d.box_only
    assert sat_tableau(boxed.to_formula()).status == base
    diamonded = krom_to_krom_diamond(cf)
    d = classify(diamonded)
    assert d.krom and d.diamond_only
    assert sat_tableau(diamonded.to_formula()).status == base
    # Conservativity at one world: two worlds can take minutes on one
    # drawn example.
    for out in (boxed, diamonded):
        verdict = strong_translation_check(cf.to_formula(), out.to_formula(), 1)
        assert verdict.status == EQUIVALENT_UP_TO_BOUND


def test_translations_are_conservative_on_the_corpus():
    # The bitsliced strong check at 2 worlds on every corpus formula, both
    # directions; tests/test_acceptance.py runs the scalar oracle on 12 of
    # them at its bounds.  At 3 worlds the corpus takes minutes.
    for cf in krom_corpus():
        f = cf.to_formula()
        for translate in (krom_to_krom_box, krom_to_krom_diamond):
            verdict = strong_translation_check(f, translate(cf).to_formula(), 2)
            assert verdict.status == EQUIVALENT_UP_TO_BOUND, (to_text(f), translate.__name__)


@pytest.mark.parametrize("translate, message", [
    (krom_to_krom_box, "box rewriting left a non-Krom or diamond literal"),
    (krom_to_krom_diamond, "diamond rewriting left a non-Krom or box literal"),
], ids=["krom_to_krom_box", "krom_to_krom_diamond"])
def test_translation_rechecks_its_fragment(monkeypatch, translate, message):
    # A classifier that sees every output as neither box- nor diamond-only
    # makes the re-check fail; the failure is an InternalError under every
    # interpreter flag, not an assert, and names the direction.
    fake = FragmentDescriptor(True, True, True, False, False)
    monkeypatch.setattr("knfrag.translate.classify", lambda cf: fake)
    with pytest.raises(InternalError) as raised:
        translate(rc("<a>p | [a]q"))
    assert str(raised.value) == message


# --- one pass over a clause stack emits what the step-by-step rewriting did ---


def random_krom_formula(rng):
    """1-5 Krom clauses over literals up to 4 modalities deep, with letters
    that include the fresh-letter names `_f0` and `_f2`."""
    letters, mods = ("p", "q", "_f0", "_f2"), ("a", "b")
    clauses = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, 2)
        n = rng.randint(0, size)
        lits = [random_literal(rng, rng.randint(0, 4), letters, mods) for _ in range(size)]
        prefix = tuple(rng.choice(mods) for _ in range(rng.randint(0, 2)))
        clauses.append(Clause(prefix, tuple(lits[:n]), tuple(lits[n:])))
    return ClausalFormula(tuple(clauses))


def assert_translations_match_reference(cf):
    for translate, bad in ((krom_to_krom_box, Diamond), (krom_to_krom_diamond, Box)):
        out, expected = translate(cf), reference_eliminate(cf, bad)
        assert out == expected
        assert str(out) == str(expected)
        assert fresh_letters_of(cf, out) == fresh_letters_of(cf, expected)
        for c in out.clauses:
            # every clause built unchecked is one the validating constructor
            # builds, its prefix of `Modality` values included
            assert c == Clause(c.prefix, c.negatives, c.positives)
            assert all(type(m) is Modality for m in c.prefix)


def test_translations_match_the_reference_rewriting_on_the_corpus():
    for cf in krom_corpus():
        assert_translations_match_reference(cf)


def test_translations_match_the_reference_rewriting_on_random_formulas():
    rng = random.Random(20)
    for _ in range(2000):
        assert_translations_match_reference(random_krom_formula(rng))


@pytest.mark.parametrize("translate", [krom_to_krom_box, krom_to_krom_diamond])
def test_translation_rechecks_every_emitted_literal(monkeypatch, translate):
    # Steps build their literals unchecked; a fresh letter built as `~T`
    # leaves a guard that is no positive literal, and the one scan of each
    # emitted clause reports it.
    monkeypatch.setattr("knfrag.translate._unchecked",
                        lambda cls, **fields: BOTTOM if cls is Prop else _unchecked(cls, **fields))
    with pytest.raises(InternalError) as raised:
        translate(rc("<a>p | [a]q"))
    assert str(raised.value) == "rewriting built a disjunct that is not a positive literal"


# --- the offending count walks the modal chain in a loop ---


def assert_offending_count_matches_reference(f):
    for bad in (Diamond, Box):
        assert _offending_count(f, bad) == reference_offending_count(f, bad)


def test_offending_count_matches_reference():
    for f in formulas_up_to_size(5):
        assert_offending_count_matches_reference(f)
    for cf in krom_corpus():
        for lit in (l for c in cf.clauses for l in c.negatives + c.positives):
            assert_offending_count_matches_reference(lit)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_offending_count_matches_reference_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    assert_offending_count_matches_reference(random_formula(rng, depth=5))


def test_offending_count_of_a_long_modal_chain():
    lit = Prop("p")
    for i in range(3000):
        lit = (Diamond if i == 1000 else Box)("a", lit)
    assert _offending_count(lit, Diamond) == 2000
    assert _offending_count(lit, Box) == 3000


# --- the printed translations are pinned ---


def _krom_inputs():
    yield from krom_corpus()
    for f in formulas_up_to_size(5):
        try:
            cf = recognize_clausal(f)
        except NotClausalError:
            continue
        if classify(cf).krom:
            yield cf


def test_translations_are_pinned():
    # sha256 of both translations of each input, printed one a line,
    # recorded from the rewriting that spelled out all four side cases.
    digest, count = hashlib.sha256(), 0
    for cf in _krom_inputs():
        for translate in (krom_to_krom_box, krom_to_krom_diamond):
            digest.update(str(translate(cf)).encode() + b"\n")
            count += 1
    assert count == 3592
    assert digest.hexdigest() == "e312b82e8e4353fdf4ee80496204852a89b6a143d34f69866069c4235a2e3a0b"
