import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knfrag import (
    And,
    Box,
    Diamond,
    InternalError,
    KripkeFrame,
    Not,
    Or,
    Prop,
    check,
    enumerate_models,
    letters,
    model_to_json,
    parse,
    to_nnf,
)
from knfrag.solver import (
    SAT,
    UNKNOWN_AT_BOUND,
    UNSAT,
    CapExceeded,
    _bodies,
    _largest_tree,
    _multisets,
    _nnf_table,
    _tree_to_model,
    _world_bound,
    sat_bruteforce,
    sat_tableau,
    tree_model_bound,
)
from knfrag.syntax import BOX, DIA, Modality
from knfrag.translate import krom_to_krom_box, krom_to_krom_diamond
from helpers import (
    formulas_up_to_size,
    krom_corpus,
    random_formula,
    reference_bruteforce,
    reference_diamond_profile,
    reference_letter_depths,
    reference_letters,
    reference_modalities,
    reference_multisets,
    reference_nnf,
    reference_pools,
    table_check,
)


def test_nnf_pushes_negation_to_atoms():
    rng = random.Random(77)
    from knfrag import Or, Prop, Top

    def is_nnf(f):
        if isinstance(f, (Top, Prop)):
            return True
        if isinstance(f, Not):
            return isinstance(f.operand, (Top, Prop))
        if isinstance(f, (Or, And)):
            return is_nnf(f.left) and is_nnf(f.right)
        return is_nnf(f.operand)

    for _ in range(2000):
        f = random_formula(rng, depth=5)
        g = to_nnf(f)
        assert is_nnf(g)


def test_nnf_preserves_truth():
    rng = random.Random(78)
    from helpers import random_model

    for _ in range(2000):
        model = random_model(rng, max_worlds=4)
        f = random_formula(rng, depth=4, letters=("p", "q", "r"), mods=("a", "b"))
        w = rng.choice(model.frame.worlds)
        assert check(model, w, f) == check(model, w, to_nnf(f))


def test_tree_model_bound_examples():
    assert tree_model_bound(parse("p")) == 1
    assert tree_model_bound(parse("<a>p")) == 2
    assert tree_model_bound(parse("<a>p & <a>q")) == 3


def test_tree_model_bound_counts_negated_boxes():
    # ~[a]p becomes a diamond in NNF
    assert tree_model_bound(parse("~[a]p")) == 2
    # box-only formulas still get a positive bound
    assert tree_model_bound(parse("[a][a]p")) == 3


# --- the bound, letters and modalities come from the one NNF table walk ---


def assert_profile_matches_the_nnf_copy(f):
    expected = reference_diamond_profile(to_nnf(f))
    rows, _, reads, profile, modalities = _nnf_table(f)
    assert profile == expected
    assert reads.keys() == reference_letters(f)
    assert reads == reference_letter_depths(reference_nnf(f))
    assert {a for kind, a, _ in rows if kind in (DIA, BOX)} == modalities == reference_modalities(f)
    assert tree_model_bound(f) == _world_bound(expected)


def test_profile_matches_the_nnf_copy_on_corpora():
    rng = random.Random(5204)
    corpus = (formulas_up_to_size(5)
              + [cf.to_formula() for cf in krom_corpus()]
              + [random_formula(rng, depth=5) for _ in range(3000)])
    assert len(corpus) == 5204
    for f in corpus:
        assert_profile_matches_the_nnf_copy(f)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_profile_matches_the_nnf_copy_hypothesis(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    assert_profile_matches_the_nnf_copy(random_formula(rng, depth=6, mods=("a", "b")))


def test_bruteforce_unsat_propositional():
    assert sat_bruteforce(parse("p & ~p"), 1).status == UNSAT
    assert sat_bruteforce(parse("p & ~p"), 10).status == UNSAT


def test_bruteforce_diamond_witness():
    result = sat_bruteforce(parse("<a>p"), 2)
    assert result.status == SAT
    witness = result.witness
    assert witness.world == "w0"
    assert witness.model.frame.successors("w0", "a") == ("w1",)
    assert witness.model.holds("w1", "p")
    assert not witness.model.holds("w0", "p")


def test_bruteforce_modal_conflict():
    f = parse("[a]F & <a>T")
    assert sat_bruteforce(f, tree_model_bound(f)).status == UNSAT


def test_tree_model_bound_is_not_clamped_by_a_model_count():
    # The bound, 12,356,631 worlds, is above DEFAULT_MODEL_CAP; a clamp to
    # the cap would turn this exhausted UNSAT into UNKNOWN_AT_BOUND.
    f = parse("[a][a][a][a][a]p & [a]~T" + " & <a>T" * 26)
    assert tree_model_bound(f) == 12_356_631
    assert sat_bruteforce(f, tree_model_bound(f)).status == UNSAT


def test_bruteforce_unknown_below_bound():
    assert sat_bruteforce(parse("<a>p"), 1).status == UNKNOWN_AT_BOUND


def test_bound_profile_and_bruteforce_of_deep_input_need_no_recursion():
    # The bound of <a>x3,000 p has more than 4,300 digits, past what an int
    # may print by default, so the child compares it rather than printing it.
    script = (
        "import sys\n"
        "from knfrag import parse\n"
        "from knfrag.solver import _nnf_table, _world_bound, sat_bruteforce, tree_model_bound\n"
        "sys.setrecursionlimit(120)\n"
        "deep = parse('<a>' * 3000 + 'p')\n"
        "chain = parse(' & '.join(f'(p{i} | <a>q{i})' for i in range(10000)))\n"
        "print(tree_model_bound(deep) == _world_bound([1] * 3000 + [0]))\n"
        "print(_nnf_table(chain)[3])\n"
        "print(sat_bruteforce(deep, max_worlds=1).status)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n") == ["True", "[10000, 0]", UNKNOWN_AT_BOUND, ""]


def test_sat_results_hash_like_they_compare():
    # Equal results hash equal, witness and all.  A `Verdict` that carries a
    # counterexample stays unhashable: `Counterexample.details` is a dict
    # by design.
    f = parse("<a>p")
    tableau, again, brute = sat_tableau(f), sat_tableau(parse("<a>p")), sat_bruteforce(f, 2)
    assert tableau == again == brute
    assert hash(tableau) == hash(again) == hash(brute)
    assert len({tableau, again, brute, sat_tableau(parse("p & ~p"))}) == 2


def test_bruteforce_witnesses_validate():
    rng = random.Random(99)
    for _ in range(300):
        f = random_formula(rng, depth=3, letters=("p", "q"), mods=("a",))
        result = sat_bruteforce(f, min(tree_model_bound(f), 6))
        if result.status == SAT:
            assert check(result.witness.model, result.witness.world, f)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        sat_bruteforce(parse("<a>p & <a>q & <a>r & ~p & ~q & ~r"), 20, model_cap=10)


@pytest.mark.parametrize("cap", [0, -1])
def test_caps_below_one_are_value_errors(cap):
    with pytest.raises(ValueError, match="node_cap must be at least 1"):
        sat_tableau(parse("p"), node_cap=cap)
    with pytest.raises(ValueError, match="model_cap must be at least 1"):
        sat_bruteforce(parse("p"), 1, model_cap=cap)


def test_tableau_trivia():
    result = sat_tableau(parse("T"))
    assert result.status == SAT
    assert len(result.witness.model.frame.worlds) == 1
    assert sat_tableau(parse("F")).status == UNSAT
    assert sat_tableau(parse("p & ~p")).status == UNSAT


def test_tableau_classic_unsat():
    assert sat_tableau(parse("[a](p -> q) & <a>p & [a]~q")).status == UNSAT


def test_tableau_witness_validates():
    rng = random.Random(100)
    for _ in range(2000):
        f = random_formula(rng, depth=4, letters=("p", "q"), mods=("a", "b"))
        result = sat_tableau(f)
        if result.status == SAT:
            assert check(result.witness.model, result.witness.world, f)


def test_witness_frames_match_the_public_constructor():
    # Eleven successors name w1..w11, whose text order is not numeric order.
    f = parse(" & ".join(f"<a>p{i}" for i in range(11)) + " & <b>(<a>q & <b>T)")
    for result in (sat_tableau(f), sat_bruteforce(parse("<a><b>p & <b>q"), 4)):
        frame = result.witness.model.frame
        assert frame == KripkeFrame(frame.worlds, frame.relations)
        for w in frame.worlds:
            for m in ("a", "b"):
                expected = sorted(v for u, v in frame.relations.get(m, ()) if u == w)
                assert frame.successors(w, m) == tuple(expected)
    row = sat_tableau(f).witness.model.frame.successors("w0", "a")
    assert len(row) == 11 and list(row) != sorted(row, key=lambda w: int(w[1:]))


def test_tableau_branching_keeps_constraints():
    result = sat_tableau(parse("<a>(p | q) & [a]~p"))
    assert result.status == SAT
    assert check(result.witness.model, result.witness.world, parse("<a>q"))


def _tableau_pin_corpus():
    yield from formulas_up_to_size(5)
    yield from formulas_up_to_size(4, letters=("p", "q"), mods=("a", "b"))
    for cf in krom_corpus():
        for g in (cf, krom_to_krom_box(cf), krom_to_krom_diamond(cf)):
            yield g.to_formula()
    rng = random.Random(8732)
    for _ in range(3000):
        yield random_formula(rng, depth=5, letters=("p", "q"), mods=("a", "b"))


def test_tableau_answers_are_pinned():
    # sha256 of each formula's status, witness JSON and whether node caps
    # of 5 and 40 raise, one a line, recorded from the tableau that called
    # itself once per disjunct.
    digest, count = hashlib.sha256(), 0
    for f in _tableau_pin_corpus():
        result = sat_tableau(f)
        witness = result.witness and model_to_json(result.witness.model, result.witness.world)
        capped = []
        for cap in (5, 40):
            try:
                sat_tableau(f, node_cap=cap)
            except CapExceeded:
                capped.append(cap)
        line = json.dumps([result.status, witness, capped], sort_keys=True)
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 8732
    assert digest.hexdigest() == "e4b1699bd95febaeba725e08da67f6a4ea07671fcc5a81effdc85d1701c994a2"


def test_nnf_table_is_the_nnf():
    # `to_nnf` decodes the table back to the recursive NNF copy, and the
    # table is exactly hash-consed: one row per distinct subformula of that
    # copy, a negated literal counted as one node (its atom is a row of its
    # own only where it also occurs bare), so the walk stops at a negation.
    for f in _tableau_pin_corpus():
        nnf = reference_nnf(f)
        assert to_nnf(f) == nnf
        nodes, stack = set(), [nnf]
        while stack:
            g = stack.pop()
            nodes.add(g)
            if type(g) in (And, Or):
                stack += (g.left, g.right)
            elif type(g) in (Diamond, Box):
                stack.append(g.operand)
        assert len(_nnf_table(f)[0]) == len(nodes)


def test_bruteforce_answers_are_pinned():
    # sha256 of each formula's status and witness JSON at its tree bound,
    # and of its outcome under a cap of 2 trees, one a line, recorded from
    # the enumerator that built a model for every tree it counted.
    digest, count = hashlib.sha256(), 0
    corpus = list(formulas_up_to_size(5)) + [cf.to_formula() for cf in krom_corpus()]
    for f in corpus:
        result = sat_bruteforce(f, tree_model_bound(f))
        witness = result.witness and model_to_json(result.witness.model, result.witness.world)
        try:
            capped = sat_bruteforce(f, tree_model_bound(f), model_cap=2).status
        except CapExceeded:
            capped = "CapExceeded"
        line = json.dumps([result.status, witness, capped], sort_keys=True)
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 2204
    assert digest.hexdigest() == "5e1c64ea5486e8698de3d922606265c9297d8411c9ccf76ec25601d76d014bc7"


def test_bruteforce_default_bound_is_the_tree_model_bound():
    # `max_worlds=None` reads the bound off the one NNF table of the call.
    corpus = list(formulas_up_to_size(5)) + [cf.to_formula() for cf in krom_corpus()]
    for f in corpus:
        default, explicit = sat_bruteforce(f), sat_bruteforce(f, tree_model_bound(f))
        assert default.status == explicit.status != UNKNOWN_AT_BOUND
        assert default.witness == explicit.witness
        if default.witness is not None:
            assert model_to_json(default.witness.model) == model_to_json(explicit.witness.model)


def test_engines_agree_on_small_corpus():
    for f in formulas_up_to_size(4):
        assert sat_tableau(f).status == sat_bruteforce(f, tree_model_bound(f)).status


def test_unsat_means_valid_negation():
    # over every enumerated small model, an UNSAT formula holds nowhere and
    # the negation of an UNSAT formula holds everywhere
    corpus = [f for f in formulas_up_to_size(4) if sat_tableau(f).status == UNSAT]
    assert corpus
    for f in corpus[:40]:
        for model in enumerate_models(letters(f), {"a"}, 2):
            for w in model.frame.worlds:
                assert not check(model, w, f)
                assert check(model, w, Not(f))


def test_bruteforce_deterministic():
    f = parse("<a>(p | q)")
    first = sat_bruteforce(f, 3)
    second = sat_bruteforce(f, 3)
    assert first.witness.model == second.witness.model
    assert first.witness.world == second.witness.world


def test_bruteforce_cap_does_not_clamp_the_world_bound():
    # <a>T needs two worlds; a cap of one tree must not turn into a
    # one-world bound that certifies UNSAT.
    with pytest.raises(CapExceeded):
        sat_bruteforce(parse("<a>T"), 10, model_cap=1)
    assert sat_bruteforce(parse("<a>T"), 10, model_cap=2).status == SAT


def test_bruteforce_branches_per_modal_depth():
    # Two diamonds at depth 0 and two at depth 1: trees have at most
    # 1 + 2 + 2*2 = 7 nodes, so bound 21 is reached after a few hundred
    # trees instead of the ~93,000 a branching of 4 everywhere walks.
    assert sat_bruteforce(parse("<a><a>p & ~[a][a]T"), 21, model_cap=200).status == UNSAT


def test_bruteforce_cap_bounds_memory():
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            sat_bruteforce(
                parse("<a>p & <b>q & [a]~p & (r | s | t | u)"), 4, model_cap=20000
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bodies of each node count are streamed, and only the 36 of 8,256
    # three-world bodies with letters f reads at depth 1 are kept: the walk
    # peaks near 15 KB, where holding every body and its index tuple took
    # 1.09 MB.
    assert peak < 250_000


def test_bruteforce_builds_letter_sets_only_for_the_trees_it_counts():
    # 2**24 letter sets would take gigabytes; a cap of one tree stops the
    # walk at the second tree, after one letter set has been built.
    f = parse(" & ".join(f"p{i}" for i in range(24)))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(CapExceeded):
            sat_bruteforce(f, 1, model_cap=1)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert elapsed < 0.1


def test_bruteforce_memory_does_not_grow_with_the_trees_it_counts():
    # Root masks are streamed and keep no letter set once their trees are
    # counted, so 10,000 one-world trees fit in well under a megabyte.
    f = parse(" & ".join(f"p{i}" for i in range(24)))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            sat_bruteforce(f, 1, model_cap=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# First witnesses of formulas whose per-depth branching is smaller than
# their diamond count, as the global-branching enumerator found them, and
# of `<a>(p | q)`, whose witness shows that mask bit 0 names the first
# letter in sorted order.
PINNED_WITNESSES = {
    "<a>(p | q)": {
        "alphabet": ["p", "q"], "designated": "w0", "relations": {"a": [["w0", "w1"]]},
        "valuation": {"w1": ["p"]}, "worlds": ["w0", "w1"],
    },
    "<a>(<a>p & <a>q) & <a>r": {
        "alphabet": ["p", "q", "r"], "designated": "w0",
        "relations": {"a": [["w0", "w1"], ["w1", "w2"]]},
        "valuation": {"w1": ["r"], "w2": ["p", "q"]}, "worlds": ["w0", "w1", "w2"],
    },
    "<a>p & <a>q & <a><a>~p": {
        "alphabet": ["p", "q"], "designated": "w0",
        "relations": {"a": [["w0", "w1"], ["w1", "w2"]]},
        "valuation": {"w1": ["p", "q"]}, "worlds": ["w0", "w1", "w2"],
    },
    "<a>(<b>p & <b>q) & <b>~p & [b]q": {
        "alphabet": ["p", "q"], "designated": "w0",
        "relations": {"a": [["w0", "w2"]], "b": [["w0", "w1"], ["w2", "w3"]]},
        "valuation": {"w1": ["q"], "w3": ["p", "q"]}, "worlds": ["w0", "w1", "w2", "w3"],
    },
    "<a>(p & <a>~p) & <a>(~p & <a>p)": {
        "alphabet": ["p"], "designated": "w0",
        "relations": {"a": [["w0", "w1"], ["w0", "w3"], ["w1", "w2"], ["w3", "w4"]]},
        "valuation": {"w2": ["p"], "w3": ["p"]},
        "worlds": ["w0", "w1", "w2", "w3", "w4"],
    },
}


@pytest.mark.parametrize("text", sorted(PINNED_WITNESSES))
def test_bruteforce_first_witness_pinned(text):
    f = parse(text)
    result = sat_bruteforce(f, tree_model_bound(f))
    assert result.status == SAT
    witness = model_to_json(result.witness.model, result.witness.world)
    assert witness == PINNED_WITNESSES[text]


# The tableau expands a formula once per branch, and a branch starts at
# each disjunction.  The first two formulas are pairs of conjuncts with
# one NNF (`<a>p`, `<a>(p | q)`), expanded once, so their witnesses have
# one successor, not two.  In the last two, the disjunction starts a new
# branch that forgets what it has expanded: a repeated `<a>r` still
# queued behind it is expanded again (3 worlds), one already met before
# it is not (2 worlds).
PINNED_TABLEAU_WITNESSES = {
    "<a>p & ~[a]~p": {
        "alphabet": ["p"], "designated": "w0", "relations": {"a": [["w0", "w1"]]},
        "valuation": {"w1": ["p"]}, "worlds": ["w0", "w1"],
    },
    "<a>(p | q) & ~[a](~p & ~q)": {
        "alphabet": ["p", "q"], "designated": "w0", "relations": {"a": [["w0", "w1"]]},
        "valuation": {"w1": ["p"]}, "worlds": ["w0", "w1"],
    },
    "(p | q) & <a>r & <a>r": {
        "alphabet": ["p", "q", "r"], "designated": "w0",
        "relations": {"a": [["w0", "w1"], ["w0", "w2"]]},
        "valuation": {"w0": ["p"], "w1": ["r"], "w2": ["r"]}, "worlds": ["w0", "w1", "w2"],
    },
    "<a>r & (p | q) & <a>r": {
        "alphabet": ["p", "q", "r"], "designated": "w0", "relations": {"a": [["w0", "w1"]]},
        "valuation": {"w0": ["p"], "w1": ["r"]}, "worlds": ["w0", "w1"],
    },
}


@pytest.mark.parametrize("text", sorted(PINNED_TABLEAU_WITNESSES))
def test_tableau_witness_pinned(text):
    result = sat_tableau(parse(text))
    assert result.status == SAT
    witness = model_to_json(result.witness.model, result.witness.world)
    assert witness == PINNED_TABLEAU_WITNESSES[text]


def test_tree_to_model_builds_a_deep_chain_without_recursion():
    # A 5,000-node chain, five times the default recursion limit: worlds are
    # named in pre-order, so each world's one successor is the next.
    n = 5000
    entries = ()
    for i in range(n - 1, 0, -1):
        entries = (("a", (frozenset({"p"}) if i % 2 else frozenset(), entries)),)
    model = _tree_to_model(frozenset({"q"}), entries, frozenset, Modality, {"p", "q"})
    worlds = [f"w{i}" for i in range(n)]
    assert list(model.frame.worlds) == worlds
    assert all(model.frame.successors(u, "a") == (v,) for u, v in zip(worlds, worlds[1:]))
    assert not model.frame.successors(worlds[-1], "a")
    assert [sorted(a for a in "pq" if model.holds(w, a)) for w in worlds[:3]] == [["q"], ["p"], []]


def test_engines_agree_on_multimodal_corpus():
    rng = random.Random(2024)
    max_worlds = 4
    for _ in range(1000):
        f = random_formula(rng, depth=5, letters=("p", "q"), mods=("a", "b"))
        brute = sat_bruteforce(f, min(tree_model_bound(f), max_worlds))
        tableau = sat_tableau(f)
        for result in (brute, tableau):
            if result.status == SAT:
                assert table_check(result.witness.model, result.witness.world, f)
        if brute.status == UNKNOWN_AT_BOUND:
            # The tableau's witness is a tree in the enumerated class, so
            # brute force would have met it if it had at most max_worlds.
            assert (
                tableau.status == UNSAT
                or len(tableau.witness.model.frame.worlds) > max_worlds
            )
        else:
            assert brute.status == tableau.status


def _balanced_clauses(n):
    # A balanced `And` tree over (p_i | <a>q_i), built without the parser.
    row = [Or(Prop(f"p{i}"), Diamond("a", Prop(f"q{i}"))) for i in range(n)]
    while len(row) > 1:
        row = [And(*row[i:i + 2]) if i + 1 < len(row) else row[i] for i in range(0, len(row), 2)]
    return row[0]


def test_tableau_answers_wide_clause_sets_at_the_default_recursion_limit():
    # One branch state per world: no stack frame per disjunction on the branch.
    f = _balanced_clauses(2000)
    result = sat_tableau(f)
    assert result.status == SAT
    assert check(result.witness.model, result.witness.world, f)


def test_tableau_time_grows_near_linearly_in_clause_count():
    def best_of_three(n):
        f = _balanced_clauses(n)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            sat_tableau(f)
            runs.append(time.perf_counter() - start)
        return min(runs)

    # Eight times the clauses: near-linear growth reads about 12 times the
    # time, and a copy of the branch state per disjunction about 66 times.
    assert best_of_three(8000) < 24 * best_of_three(1000)


def test_tableau_time_grows_near_linearly_on_parsed_chains():
    # `parse` builds a conjunction chain left-deep; `seen` holds table ids,
    # so no lookup hashes a subtree.  600 clauses keep the witness `check`
    # below the default recursion limit.
    def best_of_three(n):
        f = parse(" & ".join(f"(p{i} | <a>q{i})" for i in range(n)))
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            result = sat_tableau(f)
            runs.append(time.perf_counter() - start)
        assert result.status == SAT
        assert check(result.witness.model, result.witness.world, f)
        return min(runs)

    # Eight times the clauses: near-linear growth reads about 10 times the
    # time, and a node hash per `seen` lookup about 4.5 times per doubling.
    assert best_of_three(600) < 24 * best_of_three(75)


def test_tableau_rejects_a_witness_that_fails_the_check(monkeypatch):
    monkeypatch.setattr("knfrag.solver.check", lambda model, world, f: False)
    with pytest.raises(InternalError):
        sat_tableau(parse("<a>p"))


def test_multisets_leave_no_reference_cycle():
    # A loop over a stack, not a closure that calls itself, so the tuples it
    # yields are freed by reference counting alone.
    gc.collect()
    gc.disable()
    try:
        rows = list(_multisets([1] * 128, 2, 2))
        assert len(rows) == 128 * 129 // 2
        del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_multisets_are_the_all_totals_walk_filtered_to_one_total():
    # `_multisets` skips the branches that overshoot the total or cannot
    # reach it; what is left must be the full walk's picks of that total,
    # in the same order.
    rng = random.Random("multisets-exact-total")
    for case in range(2400):
        sizes = sorted(rng.randint(0 if case % 4 == 0 else 1, 6) for _ in range(rng.randint(0, 9)))
        total, most = rng.randint(0, 12), rng.randint(0, 4)
        want = [picks for t, picks in reference_multisets(sizes, total, most) if t == total]
        assert list(_multisets(sizes, total, most)) == want, (sizes, total, most)


def test_grown_pools_equal_the_pools_sorted_whole():
    # Each level's pool is grown once per call, a size at a time, from the
    # sorted subtree lists, label by label; at every level it must equal
    # the pool sorted whole by (size, label, subtree), and the root bodies
    # must stream as they did from it.
    rng = random.Random("grown-pools")
    for _ in range(300):
        profile = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))] + [0]
        n_labels, n_letters = rng.randint(1, 3), rng.randint(0, 2)
        memo, pool = {}, reference_pools(profile, n_labels, n_letters)
        for n in range(1, min(_largest_tree(profile), 5) + 1):
            entries = pool(n, 0)
            want = [tuple(entries[i][1] for i in picks) for t, picks in
                    reference_multisets([size for size, _ in entries], n - 1, profile[0])
                    if t == n - 1]
            got = list(_bodies(n, 0, profile, n_labels, n_letters, memo))
            assert got == want, (profile, n)
        for level in [key for key in memo if type(key) is int]:
            entries, sizes, _ = memo[level]
            assert list(zip(sizes, entries)) == pool(max(sizes, default=0) + 1, level), profile


def test_bruteforce_first_witness_where_the_bodies_stream_out_of_tuple_order():
    # Depth 1 allows three children: its bodies of 3 nodes stream a leaf
    # pair before a one-child chain, which sorts first as tuples.  The pool
    # above must take them sorted, so the chain is the first witness.
    f = parse("<a>((<a>(p & ~q) & <a>(q & ~p)) | <a><a>T)")
    result = sat_bruteforce(f)
    assert model_to_json(result.witness.model, "w0") == \
        model_to_json(reference_bruteforce(f).witness.model, "w0")
    assert result.witness.model.frame.relations["a"] == {("w0", "w1"), ("w1", "w2"), ("w2", "w3")}


def test_bruteforce_matches_the_loop_that_checks_every_tree():
    # `sat_bruteforce` counts, without checking, the trees with a letter at a
    # depth where f does not read it; the reference checks every tree it
    # counts.  Of these 2,000 formulas, 338 go past one world with a letter
    # unread at some depth, 91 of them below the root.
    rng = random.Random("bruteforce-differential")

    def outcome(solve, f, bound, cap):
        try:
            result = solve(f, bound) if cap is None else solve(f, bound, cap)
        except CapExceeded:
            return "CapExceeded"
        return result.status, result.witness and model_to_json(result.witness.model, "w0")

    for _ in range(2000):
        letters = ("p", "q", "r", "s")[:rng.randint(1, 4)]
        f = random_formula(rng, rng.randint(1, 3), letters, ("a", "b")[:rng.randint(1, 2)])
        for bound in (1, 2, None):
            for cap in (1, 2, 7, 50, None):
                want = outcome(reference_bruteforce, f, bound, cap)
                assert outcome(sat_bruteforce, f, bound, cap) == want, (str(f), bound, cap)


def test_bruteforce_rejects_a_witness_that_fails_the_check(monkeypatch):
    monkeypatch.setattr("knfrag.solver.check", lambda model, world, f: False)
    with pytest.raises(InternalError):
        sat_bruteforce(parse("<a>p"), 2)
