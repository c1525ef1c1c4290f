import copy
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knfrag import (
    And,
    Box,
    Clause,
    ClausalFormula,
    Diamond,
    FragmentDescriptor,
    Modality,
    Not,
    NotClausalError,
    Or,
    ParseError,
    Prop,
    TOP,
    Top,
    classify,
    formula_modalities,
    is_positive_literal,
    letters,
    parse,
    recognize_clausal,
    to_text,
)
from knfrag.syntax import _nnf_table
from helpers import (
    formulas_up_to_size,
    krom_corpus,
    random_clause,
    random_formula,
    reference_has_node,
    reference_letters,
    reference_modalities,
    reference_parse,
    reference_recognize_clausal,
)


def test_parse_disjunction():
    assert parse("p | q") == Or(Prop("p"), Prop("q"))


def test_parse_diamond():
    assert parse("<a>p") == Diamond("a", Prop("p"))


def test_parse_implication_desugars():
    assert parse("[a]p -> q") == Or(Not(Box("a", Prop("p"))), Prop("q"))


def test_parse_implication_splits_conjunctive_antecedent():
    # implicative clause text must read back as a clause
    assert parse("p & q -> r") == Or(Or(Not(Prop("p")), Not(Prop("q"))), Prop("r"))


def test_parse_precedence_and_associativity():
    assert parse("p | q | r") == Or(Or(Prop("p"), Prop("q")), Prop("r"))
    assert parse("p & q | r") == Or(And(Prop("p"), Prop("q")), Prop("r"))
    assert parse("~p & q") == And(Not(Prop("p")), Prop("q"))
    assert parse("<a>p & q") == And(Diamond("a", Prop("p")), Prop("q"))
    # right-associative implication
    assert parse("p -> q -> r") == parse("p -> (q -> r)")


def test_parse_constants():
    assert parse("T") == TOP
    assert parse("F") == Not(TOP)


def test_parse_error_position_and_expected():
    operand = ("T", "F", "ident", "(", "~", "<", "[")
    cases = [
        ("p | ", 1, 5, operand),
        ("", 1, 1, operand),
        ("p &\n  )", 2, 3, operand),
        ("<T>p", 1, 2, ("ident",)),
        ("<a]p", 1, 3, (">",)),
        ("[a>p", 1, 3, ("]",)),
        ("p q", 1, 3, ("end",)),
        ("p)", 1, 2, ("end",)),
        ("((p) q)", 1, 6, (")",)),
        ("(p", 1, 3, (")",)),
    ]
    for text, line, column, expected in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)
    with pytest.raises(ParseError) as err:
        parse("(p |\n ~r)", alphabet={"p", "q"})
    assert str(err.value) == "letter 'r' not in the declared alphabet at 2:3"
    assert err.value.expected == ()


def test_parse_error_positions_across_lines_and_whitespace():
    # Messages, positions and expected tokens recorded from the tokenizer
    # that tracked line and column for every token.
    operand = ("T", "F", "ident", "(", "~", "<", "[")
    cases = [
        ("p &\r\n\t(q |\r\n\t  $ r)", None, "unexpected character '$' at 3:4", 3, 4, ()),
        ("p &\r\n\t(q | ~r)", {"p", "q"},
         "letter 'r' not in the declared alphabet at 2:8", 2, 8, ()),
        ("p & \t\n  ", None,
         "expected T or F or ident or ( or ~ or < or [, found 'end of input' at 2:3",
         2, 3, operand),
        ("<a\n]p", None, "expected >, found ']' at 2:1", 2, 1, (">",)),
        ("p & $", None, "unexpected character '$' at 1:5", 1, 5, ()),
        ("p $ q", None, "unexpected character '$' at 1:3", 1, 3, ()),
    ]
    for text, alphabet, message, line, column, expected in cases:
        with pytest.raises(ParseError) as err:
            parse(text, alphabet)
        assert (str(err.value), err.value.line, err.value.column) == (message, line, column)
        assert err.value.expected == expected


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse("p ? q")
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p q")


def test_parse_declared_alphabet():
    assert parse("p | q", alphabet={"p", "q"}) == Or(Prop("p"), Prop("q"))
    with pytest.raises(ParseError):
        parse("p | r", alphabet={"p", "q"})


def test_parse_reads_a_string_alphabet_as_its_letters():
    # A string alphabet holds its characters, as in the bounded checks, so
    # "pq" declares the letters p and q, not the letter pq.
    for alphabet in ("pq", ["p", "q"], iter("pq")):
        assert parse("p | q", alphabet=alphabet) == Or(Prop("p"), Prop("q"))
    for parser in (parse, reference_parse):
        with pytest.raises(ParseError, match="letter 'pq' not in the declared alphabet at 1:1"):
            parser("pq", alphabet="pq")


def test_print_examples():
    assert to_text(Or(Prop("p"), Prop("q"))) == "p | q"
    clause = Clause(prefix=("a",), negatives=(Prop("p"), Prop("q")), positives=(Prop("r"),))
    assert to_text(clause) == "[a](p & q -> r)"
    assert to_text(Clause(positives=(Diamond("a", Prop("p")),))) == "<a>p"


def test_print_needs_parens():
    assert to_text(Not(Or(Prop("p"), Prop("q")))) == "~(p | q)"
    assert to_text(And(Or(Prop("p"), Prop("q")), Prop("r"))) == "(p | q) & r"
    assert to_text(Or(Prop("p"), And(Prop("q"), Prop("r")))) == "p | q & r"
    assert to_text(Diamond("a", And(Prop("p"), Prop("q")))) == "<a>(p & q)"


def test_roundtrip_random_asts():
    rng = random.Random(20240817)
    for _ in range(10_000):
        f = random_formula(rng, depth=6)
        assert parse(to_text(f)) == f


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roundtrip_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    f = random_formula(random.Random(seed), depth=5)
    assert parse(to_text(f)) == f


def test_recognize_disjunction_is_krom_clause():
    cf = recognize_clausal(parse("p | q"))
    assert len(cf.clauses) == 1
    d = classify(cf)
    assert d.krom and not d.horn


def test_recognize_rejects_negated_disjunction():
    with pytest.raises(NotClausalError):
        recognize_clausal(parse("~(p | q)"))


def test_recognize_prefixed_clause():
    cf = recognize_clausal(parse("[a][b](~p | <a>q)"))
    clause = cf.clauses[0]
    assert clause.prefix == (Modality("a"), Modality("b"))
    assert clause.negatives == (Prop("p"),)
    assert clause.positives == (Diamond("a", Prop("q")),)


def test_recognize_error_path():
    with pytest.raises(NotClausalError) as err:
        recognize_clausal(parse("p & ~(q & r)"))
    assert err.value.path == ("right",)


def test_recognize_inverse_of_to_formula():
    rng = random.Random(7)
    trials = 0
    while trials < 2000:
        clauses = tuple(
            random_clause(rng, ("p", "q"), ("a", "b")) for _ in range(rng.randint(1, 3))
        )
        # a prefixed bare positive literal reads back with the boxes absorbed
        # into the literal, so the generator avoids that shape
        if any(c.prefix and not c.negatives and len(c.positives) == 1 for c in clauses):
            continue
        cf = ClausalFormula(clauses)
        trials += 1
        assert recognize_clausal(cf.to_formula()) == cf


def test_clausal_text_reparses():
    rng = random.Random(8)
    trials = 0
    while trials < 2000:
        clauses = tuple(
            random_clause(rng, ("p", "q"), ("a", "b")) for _ in range(rng.randint(1, 3))
        )
        if any(c.prefix and not c.negatives and len(c.positives) == 1 for c in clauses):
            continue
        cf = ClausalFormula(clauses)
        trials += 1
        assert recognize_clausal(parse(str(cf))) == cf


def test_classify_examples():
    d = classify(recognize_clausal(parse("p & q -> r")))
    assert d.horn and not d.krom and not d.core and d.box_only and d.diamond_only
    d = classify(recognize_clausal(parse("p | q")))
    assert not d.horn and d.krom
    d = classify(recognize_clausal(parse("<a>p")))
    assert d.horn and d.krom and d.core and not d.box_only and d.diamond_only


def test_classify_core_is_conjunction():
    rng = random.Random(9)
    for _ in range(500):
        cf = ClausalFormula(tuple(
            random_clause(rng, ("p", "q"), ("a",), max_positives=2)
            for _ in range(rng.randint(1, 3))
        ))
        d = classify(cf)
        assert d.core == (d.horn and d.krom)


def test_positive_literals():
    assert is_positive_literal(parse("<a>[b]p"))
    assert is_positive_literal(TOP)
    assert not is_positive_literal(parse("~p"))
    assert not is_positive_literal(parse("p | q"))


def test_clause_validation():
    with pytest.raises(ValueError):
        Clause((), (), ())
    with pytest.raises(ValueError):
        Clause((), (Not(Prop("p")),), ())
    with pytest.raises(ValueError):
        ClausalFormula(())
    with pytest.raises(ValueError, match="^clauses must be Clause values$"):
        ClausalFormula([Prop("p")])


def test_letters_and_alphabet():
    f = parse("<a>p & (q -> r)")
    assert letters(f) == {"p", "q", "r"}
    cf = recognize_clausal(parse("(p -> q) & <a>r"))
    assert cf.alphabet() == {"p", "q", "r"}


def test_letters_and_modalities_reject_a_non_formula_node():
    # Both read the NNF table, which raises TypeError on a node that is not
    # a formula, as every other reader of the table does.
    for view in (letters, formula_modalities):
        with pytest.raises(TypeError):
            view(And(Prop("p"), "q"))
        with pytest.raises(TypeError):
            view(Diamond("a", Or(Prop("p"), 3)))


def test_fresh_letter_idents_parse():
    f = parse("~[a]_f0 & [a](_f0 | p)")
    assert letters(f) == {"_f0", "p"}
    assert parse(to_text(f)) == f


# --- Modality: a validated name that is a str ---


@pytest.mark.parametrize("bad", ["", "A", "1a", "a b", "a-b", "<a>", None, 3, b"a", ("a",)])
def test_modality_rejects_bad_names_and_non_strings(bad):
    with pytest.raises(ValueError):
        Modality(bad)
    with pytest.raises(ValueError):
        Diamond(bad, TOP)


def test_modality_contract():
    a = Modality("a")
    assert repr(a) == "Modality(name='a')"
    assert a.name == "a" and type(a.name) is str and type(str(a)) is str
    assert Modality(a) is a
    assert sorted([Modality("b"), Modality("a1"), Modality("a"), Modality("_z")]) == [
        Modality("_z"), Modality("a"), Modality("a1"), Modality("b")]
    # The one deliberate change: a Modality now equals and hashes like its name.
    assert a == "a" and hash(a) == hash("a") and {a: 1}["a"] == 1
    for attribute in ("name", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attribute, "b")
    assert repr(parse("<a>[b_2]p")) == (
        "Diamond(modality=Modality(name='a'), operand=Box(modality="
        "Modality(name='b_2'), operand=Prop(letter='p')))")
    assert Diamond("a", TOP) == Diamond(a, TOP) and hash(Diamond("a", TOP)) == hash(Diamond(a, TOP))


def test_printed_text_is_unchanged():
    # sha256 of the printed texts, recorded before Modality became a str.
    rng = random.Random(77)
    digest = hashlib.sha256()
    for _ in range(2000):
        f = random_formula(rng, depth=5, letters=("p", "q", "_f0"), mods=("a", "b", "c_1"))
        text = to_text(f)
        assert parse(text) == f
        digest.update((text + "\n").encode())
    assert digest.hexdigest() == "34a315ea32f395eb5b81f2f8e4b19ebca42221a21c827a1171c838e4500d55b9"


SOUP = ("p", "q", "r", "_f0", "T", "F", "~", "&", "|", "->", "(", ")", "<a>", "[b_1]",
        "<", ">", "[", "]", "a", " ", "\n", "?")


def parse_outcome(text, alphabet):
    try:
        return "ok " + to_text(parse(text, alphabet))
    except ParseError as e:
        return f"error {e} {e.line}:{e.column} {e.expected}"


def test_parse_results_are_unchanged():
    # sha256 of the printed formula or the error's message, position and
    # expected tokens, recorded before `parse` and `to_text` became loops.
    rng = random.Random(1961)
    texts = [to_text(random_formula(rng, depth=rng.randint(1, 6), letters=("p", "q", "r"),
                                    mods=("a", "b_1"))) for _ in range(1000)]
    texts += ["".join(rng.choice(SOUP) for _ in range(rng.randint(0, 16))) for _ in range(4000)]
    digest = hashlib.sha256()
    for text in texts:
        for alphabet in (None, {"p", "q"}):
            digest.update((parse_outcome(text, alphabet) + "\n").encode())
    assert digest.hexdigest() == "b0f4900b0efbcc82698c4fff9de1880ddf0e6333602dd4526a4d5a89c92e4972"


# --- `parse` against the tokenizer and loop it replaced ---


def parenthesised(f):
    """Fully parenthesised text, as the benchmark's command-line requests
    spell their formulas; `to_text` is not used."""
    if isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        return f"({parenthesised(f.left)}{op}{parenthesised(f.right)})"
    if isinstance(f, Not):
        return "~" + parenthesised(f.operand)
    if isinstance(f, (Diamond, Box)):
        left, right = ("<", ">") if isinstance(f, Diamond) else ("[", "]")
        return f"{left}{f.modality}{right}{parenthesised(f.operand)}"
    return to_text(f)


def balanced_conjunction(rng, target_len):
    """Random formulas joined by `&` into a balanced tree once their text
    reaches `target_len` characters."""
    parts, length = [], 0
    while not parts or length < target_len:
        parts.append(random_formula(rng, 4, ("p", "q", "r"), ("a", "b")))
        length += len(parenthesised(parts[-1])) + 3
    while len(parts) > 1:
        parts = [And(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


# Lexemes and stray characters for the differential soups: Unicode and
# ASCII spaces, non-ASCII and uppercase letters, digits, underscores that
# start no ident, halves of `->`, and brackets that need not balance.
DIFF_SOUP = SOUP + ("\t", "\u00a0", "\u2003", "\u00e9", "p\u00e9", "A", "Q", "_", "_1", "__p",
                    "-", ">", "->", "- >", "<b", "[a", "(", "))", "1", "p1_", "<_x>", "\r\n")


def parse_result(parser, text, alphabet):
    try:
        f = parser(text, alphabet)
    except ParseError as e:
        return "error", str(e), e.line, e.column, e.expected
    return "ok", f, to_text(f)


def test_parse_agrees_with_the_reference_parser():
    rng = random.Random(2026)
    texts = [to_text(random_formula(rng, depth=rng.randint(1, 7), letters=("p", "q", "_f0"),
                                    mods=("a", "b_1"))) for _ in range(2000)]
    texts += [parenthesised(balanced_conjunction(rng, int(10 * 100 ** rng.random())))
              for _ in range(300)]
    texts += ["".join(rng.choice(DIFF_SOUP) for _ in range(rng.randint(0, 20)))
              for _ in range(20_000)]
    assert min(map(len, texts[2000:2300])) >= 10 and max(map(len, texts[2000:2300])) >= 900
    outcomes = {"ok": 0, "error": 0}
    for text in texts:
        for alphabet in (None, {"p", "q"}):
            expected = parse_result(reference_parse, text, alphabet)
            assert parse_result(parse, text, alphabet) == expected, (text, alphabet)
            outcomes[expected[0]] += 1
    assert min(outcomes.values()) > 3000, outcomes


def test_parse_and_print_deep_input_need_no_recursion():
    # Texts are compared; `test_deep_formulas_compare_hash_and_print` covers `==`.
    script = (
        "import json, sys\n"
        "from knfrag import parse, to_text\n"
        "texts = json.load(sys.stdin)\n"
        "sys.setrecursionlimit(120)\n"
        "printed = [to_text(parse(text)) for text in texts]\n"
        "reprinted = [to_text(parse(text)) for text in printed]\n"
        "json.dump([printed, reprinted], sys.stdout)\n"
    )
    mixed, mixed_printed = "(" * 2000 + "p", "p"
    for i in range(2000):
        mixed += ") & q" if i % 2 else ") | q"
        mixed_printed = f"({mixed_printed}) & q" if i % 2 else f"{mixed_printed} | q"
    texts, expected = zip(
        ("~" * 100_000 + "p", "~" * 100_000 + "p"),
        ("(" * 100_000 + "p" + ")" * 100_000, "p"),
        ("<a>" * 20_000 + "p", "<a>" * 20_000 + "p"),
        ("([b]~" * 10_000 + "p" + ")" * 10_000, "[b]~" * 10_000 + "p"),
        ("p -> " * 5_000 + "q", "~p | (" * 4_999 + "~p | q" + ")" * 4_999),
        (mixed, mixed_printed),
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], input=json.dumps(texts),
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    printed, reprinted = json.loads(done.stdout)
    assert printed == list(expected)
    assert reprinted == printed


# --- the NNF table's letters and modalities, and the clausal loop, against
# hand-written walkers ---


def assert_walkers_match_reference(f):
    assert type(letters(f)) is frozenset and letters(f) == reference_letters(f)
    assert type(formula_modalities(f)) is frozenset
    assert formula_modalities(f) == reference_modalities(f)
    try:
        expected = reference_recognize_clausal(f)
    except NotClausalError as e:
        with pytest.raises(NotClausalError) as err:
            recognize_clausal(f)
        assert (str(err.value), err.value.path) == (str(e), e.path)
        assert err.value.offending is e.offending
        return
    cf = recognize_clausal(f)
    assert cf == expected
    for c in cf.clauses:
        # built unchecked from parts the reader tested: what the validating
        # constructor builds, prefix `Modality` values included
        assert c == Clause(c.prefix, c.negatives, c.positives)
        assert all(type(m) is Modality for m in c.prefix)
    assert_chain_walks_match_reference(cf)


def reference_flags(cf):
    lits = [l for c in cf.clauses for l in c.negatives + c.positives]
    horn = all(len(c.positives) <= 1 for c in cf.clauses)
    krom = all(len(c.negatives) + len(c.positives) <= 2 for c in cf.clauses)
    return FragmentDescriptor(
        horn, krom, horn and krom,
        not any(reference_has_node(l, Diamond) for l in lits),
        not any(reference_has_node(l, Box) for l in lits),
    )


def assert_chain_walks_match_reference(cf):
    # `classify` and `alphabet` walk each literal's modal chain once; the
    # references walk every node.
    assert classify(cf) == reference_flags(cf)
    union = lambda lits: frozenset().union(*map(reference_letters, lits))
    assert type(cf.alphabet()) is frozenset
    assert cf.alphabet() == union(l for c in cf.clauses for l in c.negatives + c.positives)


def test_walkers_match_reference_on_small_formulas():
    for f in formulas_up_to_size(5):
        assert_walkers_match_reference(f)


def test_walkers_match_reference_on_krom_corpus():
    for cf in krom_corpus():
        assert_walkers_match_reference(cf.to_formula())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walkers_match_reference_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    assert_walkers_match_reference(random_formula(rng, depth=5, mods=("a", "b")))
    clauses = tuple(random_clause(rng, ("p", "q"), ("a", "b")) for _ in range(rng.randint(1, 4)))
    assert_walkers_match_reference(ClausalFormula(clauses).to_formula())


def test_chain_walks_match_reference_on_krom_corpus():
    for cf in krom_corpus():
        assert_chain_walks_match_reference(cf)


def test_chain_walks_match_reference_on_random_clauses():
    # Up to two negated and two positive literals over p, q, _f0 and T, with
    # both modal kinds and literal depth up to 4.
    rng = random.Random(20)
    for _ in range(2000):
        clauses = tuple(
            random_clause(rng, ("p", "q", "_f0"), ("a", "b"), lit_depth=4,
                          max_negatives=2, max_positives=2)
            for _ in range(rng.randint(1, 4))
        )
        assert_chain_walks_match_reference(ClausalFormula(clauses))


def test_recognize_flat_conjunction_needs_no_recursion():
    f = Or(Prop("p0"), Diamond("a", Prop("q0")))
    for i in range(1, 10_000):
        f = And(f, Or(Prop(f"p{i}"), Diamond("a", Prop(f"q{i}"))))
    cf = recognize_clausal(f)
    assert len(cf.clauses) == 10_000
    assert cf.clauses[-1].positives == (Prop("p9999"), Diamond("a", Prop("q9999")))
    assert classify(cf) == FragmentDescriptor(False, True, False, False, True)
    assert letters(f) == {f"{x}{i}" for x in "pq" for i in range(10_000)}
    assert len(_nnf_table(f)[0]) == 5 * 10_000 - 1  # every node is a distinct row


def test_recognize_deep_box_prefix_needs_no_recursion():
    f = Or(Not(Prop("p")), Prop("q"))
    for _ in range(2000):
        f = Box("a", f)
    (clause,) = recognize_clausal(f).clauses
    assert clause.prefix == ("a",) * 2000
    assert (clause.negatives, clause.positives) == ((Prop("p"),), (Prop("q"),))
    g = And(Prop("p"), Prop("q"))
    for _ in range(3000):
        g = Box("b", g)
    with pytest.raises(NotClausalError) as err:
        recognize_clausal(g)
    assert err.value.path == ("operand",) * 3000
    assert err.value.offending == And(Prop("p"), Prop("q"))


def chain_repr(n):
    """The repr of the parsed conjunction of `(p_i | <a>q_i)`, i < n, built by a loop."""
    clause = ("Or(left=Prop(letter='p{0}'), right=Diamond(modality=Modality(name='a'), "
              "operand=Prop(letter='q{0}')))")
    return "And(left=" * (n - 1) + clause.format(0) + "".join(
        f", right={clause.format(i)})" for i in range(1, n))


def mixed_chain(n, modality="a"):
    """n nodes below the root, alternately `T | _` and `<modality>_`, over p."""
    f, m = Prop("p"), Modality(modality)
    for i in range(n):
        f = Diamond(m, f) if i % 2 else Or(TOP, f)
    return f


def test_deep_formulas_compare_hash_and_print():
    text = " & ".join(f"(p{i} | <a>q{i})" for i in range(10_000))
    f, g = parse(text), parse(text)
    assert f is not g and f == g and hash(f) == hash(g)
    assert repr(f) == chain_repr(10_000)
    assert repr(recognize_clausal(f)) == repr(recognize_clausal(g))
    last = f.right
    assert f != And(f.left, Or(last.left, Box("a", last.right.operand)))
    assert f != And(f.left, Or(last.left, Diamond("a", Prop("q_9999"))))
    assert f != And(f, TOP) and f != Or(f.left, f.right)
    nested, negated = mixed_chain(100_000), Prop("p")
    for _ in range(100_000):
        negated = Not(negated)
    again = mixed_chain(100_000)
    assert nested == again and hash(nested) == hash(again)
    assert nested != mixed_chain(100_000, "b") and nested != again.operand
    assert negated != Not(negated) and hash(negated) == hash(Not(negated.operand))
    assert repr(negated) == "Not(operand=" * 100_000 + "Prop(letter='p')" + ")" * 100_000
    assert repr(nested).count("Diamond(modality=Modality(name='a'), operand=") == 50_000


def test_deep_formulas_pickle_and_copy():
    # The 3,000-clause chain once raised RecursionError in `pickle` and `copy`.
    f = parse(" & ".join(f"(p{i} | <a>q{i})" for i in range(3000)))
    copies = [pickle.loads(pickle.dumps(f, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(f), copy.deepcopy(f)]:
        assert type(again) is And and again == f and repr(again) == repr(f)


def test_equal_formulas_hash_alike_and_print_as_before():
    rng = random.Random(22)
    formulas = [random_formula(rng, depth=rng.randint(0, 5), letters=("p", "q"), mods=("a", "b"))
                for _ in range(500)]
    assert repr(parse("[a](p | ~T) & <b>F")) == (
        "And(left=Box(modality=Modality(name='a'), operand=Or(left=Prop(letter='p'), "
        "right=Not(operand=Top()))), right=Diamond(modality=Modality(name='b'), "
        "operand=Not(operand=Top())))")
    for f, g in zip(formulas, formulas[1:] + formulas[:1]):
        again = parse(to_text(f))
        assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
        assert (f == g) == (to_text(f) == to_text(g))
    # Nodes of different kinds over the same parts differ.
    p, q = Prop("p"), Prop("q")
    assert len({And(p, q), Or(p, q), Diamond("a", p), Box("a", p), Not(p), p, TOP}) == 7
    assert Diamond("a", p) != Diamond("b", p) and Prop("p") != "p"
    # A node over a non-formula child has no text, so it neither compares nor hashes.
    for good, bad in ((Not(p), Not(3)), (And(p, q), And(p, "q"))):
        with pytest.raises(TypeError):
            good == bad
        with pytest.raises(TypeError):
            bad == good
        with pytest.raises(TypeError):
            hash(bad)


def test_nodes_match_by_field_order():
    def shape(f):
        match f:
            case And(Diamond(m, Prop(l)), r):
                return f"diamond {m} {l} and {to_text(r)}"
            case Or(left=Not(operand=Top())):
                return "bottom or"
            case Box(modality="a"):
                return "box a"
            case Prop(letter):
                return letter
        return None

    assert shape(parse("<b>p & (q | r)")) == "diamond b p and q | r"
    assert shape(parse("<b>[a]p & q")) is None
    assert shape(parse("F | p")) == "bottom or"
    assert shape(parse("[a]<b>T")) == "box a" and shape(parse("[b]T")) is None
    assert shape(Prop("x1")) == "x1"
    assert [cls.__match_args__ for cls in (Top, Prop, Not, Or, And, Diamond, Box)] == [
        (), ("letter",), ("operand",), ("left", "right"), ("left", "right"),
        ("modality", "operand"), ("modality", "operand")]
    assert Clause.__match_args__ == ("prefix", "negatives", "positives")
    assert FragmentDescriptor.__match_args__ == ("horn", "krom", "core", "box_only", "diamond_only")
