"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything is seeded and deterministic.
"""

import gc
import io
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

from knfrag import (
    EQUIVALENT_UP_TO_BOUND,
    And,
    Clause,
    ClausalFormula,
    Diamond,
    KripkeFrame,
    KripkeModel,
    Or,
    Prop,
    check,
    intersect,
    is_positive_literal,
    parse,
    product,
    product_world,
    recognize_clausal,
    replay_theorem,
    search_weak_translation,
    strong_translation_check,
    THEOREM_IDS,
    to_text,
    weak_equiv_check,
)
from knfrag.hierarchy import hierarchy_dot
from knfrag.solver import UNSAT, CapExceeded, sat_bruteforce, sat_tableau, tree_model_bound
from knfrag.translate import krom_to_krom_box, krom_to_krom_diamond
from knfrag.cli import main as cli_main
from helpers import (
    enlarge_valuation,
    krom_corpus,
    formulas_up_to_size,
    random_hornbox_formula,
    random_horndia_formula,
    random_literal,
    random_model,
    reference_conservative,
)

GOLDEN = Path(__file__).parent / "data" / "hierarchy.dot"


def _report(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_intersection_closure_randomized():
    rng = random.Random(0xA11CE)
    trials, exercised, violations = 10_000, 0, 0
    for _ in range(trials):
        base = random_model(rng, max_worlds=5, letters=("p", "q", "r"),
                            mods=("a", "b"), letter_bias=0.6)
        other = random_model(rng, frame=base.frame, letters=("p", "q", "r"),
                             mods=("a", "b"), letter_bias=0.7)
        phi = random_hornbox_formula(rng).to_formula()
        w = rng.choice(base.frame.worlds)
        if check(base, w, phi) and check(other, w, phi):
            exercised += 1
            if not check(intersect(base, other), w, phi):
                violations += 1
    _report(
        "intersection closure of the box-restricted Horn fragment",
        violations == 0 and exercised >= 500,
        f"{trials} trials, {exercised} exercised, {violations} violations",
    )


def test_product_closure_randomized():
    rng = random.Random(0xB0B)
    trials, exercised, violations, product_s = 10_000, 0, 0, 0.0
    for _ in range(trials):
        m1 = random_model(rng, max_worlds=5, letters=("p", "q", "r"),
                          mods=("a", "b"), letter_bias=0.7)
        m2 = random_model(rng, max_worlds=5, letters=("p", "q", "r"),
                          mods=("a", "b"), letter_bias=0.7)
        phi = random_horndia_formula(rng).to_formula()
        w1 = rng.choice(m1.frame.worlds)
        w2 = rng.choice(m2.frame.worlds)
        if check(m1, w1, phi) and check(m2, w2, phi):
            exercised += 1
            started = time.thread_time()
            prod = product(m1, m2)
            product_s += time.thread_time() - started
            if not check(prod, product_world(w1, w2), phi):
                violations += 1
    _report(
        "product closure of the diamond-restricted Horn fragment",
        violations == 0 and exercised >= 500,
        f"{trials} trials, {exercised} exercised, {violations} violations; "
        f"{exercised:,} products in {product_s * 1000:.0f} ms of thread CPU time",
    )


def test_theorem_replays():
    started = time.perf_counter()
    reports = [replay_theorem(tid) for tid in THEOREM_IDS]
    elapsed = time.perf_counter() - started

    # the separating witness models, asserted directly as well
    fan = KripkeFrame(["w0", "w1", "w2"], {"a": [("w0", "w1"), ("w0", "w2")]})
    m1 = KripkeModel(fan, {"w1": ["p"]}, {"p"})
    m2 = KripkeModel(fan, {"w2": ["p"]}, {"p"})
    dia = parse("<a>p")
    witnesses_ok = (
        check(m1, "w0", dia)
        and check(m2, "w0", dia)
        and not check(intersect(m1, m2), "w0", dia)
    )
    chain = KripkeModel(KripkeFrame(["w0", "w1"], {"a": [("w0", "w1")]}), {}, {"p", "q"})
    single = KripkeModel(KripkeFrame(["v0"]), {"v0": ["q"]}, {"p", "q"})
    imp = parse("[a]p -> q")
    witnesses_ok = witnesses_ok and (
        check(chain, "w0", imp)
        and check(single, "v0", imp)
        and not check(product(chain, single), product_world("w0", "v0"), imp)
    )

    ok = all(r.overall for r in reports) and witnesses_ok
    failing = [r.theorem for r in reports if not r.overall]
    _report(
        "all catalogued result replays",
        ok,
        f"{len(reports)} replays, {sum(len(r.steps) for r in reports)} steps, "
        f"{elapsed:.2f}s" + (f", failing: {failing}" if failing else ""),
    )


def _decide_original(f):
    return sat_bruteforce(f, tree_model_bound(f)).status


def test_translation_correctness():
    corpus = krom_corpus()
    started = time.perf_counter()
    mismatches = 0
    for cf in corpus:
        base = _decide_original(cf.to_formula())
        for translate in (krom_to_krom_box, krom_to_krom_diamond):
            if sat_tableau(translate(cf).to_formula()).status != base:
                mismatches += 1
    equisat_elapsed = time.perf_counter() - started

    box_cases = ["<a>p", "~<a>p", "<a>p | q", "[a]<a>p", "<a><a>p", "~<a>q | p"]
    dia_cases = ["[a]p", "~[a]p", "[a]p -> q", "<a>[a]p", "[a][a]p", "~[a]q | p"]
    cases = [(text, krom_to_krom_box) for text in box_cases]
    cases += [(text, krom_to_krom_diamond) for text in dia_cases]
    scalar_failures, scalar_elapsed = [], 0.0
    strong_failures, strong_elapsed = [], 0.0
    for text, translate in cases:
        cf = recognize_clausal(parse(text))
        out = translate(cf)
        started = time.perf_counter()
        if not reference_conservative(cf, out):
            scalar_failures.append(text)
        scalar_elapsed += time.perf_counter() - started
        started = time.perf_counter()
        verdict = strong_translation_check(cf.to_formula(), out.to_formula(), 3)
        if verdict.status != EQUIVALENT_UP_TO_BOUND:
            strong_failures.append(text)
        strong_elapsed += time.perf_counter() - started

    _report(
        "translation equi-satisfiability and model conservativity",
        mismatches == 0 and not scalar_failures and not strong_failures,
        f"{len(corpus)} corpus formulas x2 directions in {equisat_elapsed:.1f}s, "
        f"0 mismatches expected, got {mismatches}; {len(cases)} conservativity "
        f"cases by the scalar oracle in {scalar_elapsed:.1f}s and by the "
        f"bitsliced strong check at 3 worlds in {strong_elapsed:.2f}s"
        + (f", scalar failing: {scalar_failures}" if scalar_failures else "")
        + (f", strong failing: {strong_failures}" if strong_failures else ""),
    )


def test_tableau_decides_the_translated_corpus():
    # Both Krom translations of the corpus, 2,772 formulas, built before the
    # clock starts.  The tableau that copied its input to NNF and hashed NNF
    # nodes in `seen` took 276-341 ms of thread CPU time here, and 152-190 ms
    # over the per-call table (5 runs each, 2 CPUs, CPython 3.11.7).
    pairs = [
        (krom_to_krom_box(cf).to_formula(), krom_to_krom_diamond(cf).to_formula())
        for cf in krom_corpus()
    ]
    started = time.thread_time()
    verdicts = [(sat_tableau(box).status, sat_tableau(dia).status) for box, dia in pairs]
    elapsed = time.thread_time() - started
    disagreements = sum(box != dia for box, dia in verdicts)
    _report(
        "the tableau decides both Krom translations alike",
        disagreements == 0,
        f"{2 * len(pairs):,} translated formulas in {elapsed * 1000:.0f} ms of thread "
        f"CPU time, {disagreements} disagreements",
    )


def _flat_krom(n):
    """The conjunction of n clauses (p_i | <a>q_i), built without parsing."""
    return ClausalFormula(tuple(
        Clause((), (), (Prop(f"p{i}"), Diamond("a", Prop(f"q{i}")))) for i in range(n)
    ))


def test_krom_translations_run_in_one_pass():
    # Thread CPU time, best of five, with the cyclic collector paused: its
    # full passes walk every object the process holds, so how many land in
    # one run says nothing about the rewriting.  Measured so, over 5 runs
    # (2 CPUs, CPython 3.11.7), the step-by-step rewriting that validated
    # every clause it built and shifted its clause list took 63-105 ms for
    # the corpus to box, 59-106 ms to diamond and 240-430 ms for the 10,000
    # flat clauses, and grew 3.2-6.5 times from 5,000 clauses to 20,000; the
    # clause stack took 35-64, 33-63 and 122-219 ms, and grew 3.3-4.3 times.
    # Best of three once grew 6.1 times in a full run on a loaded machine;
    # each figure is now the best of five.  Best of five, each size's five
    # runs after one another, still grew 6.3 times once while another
    # process shared the CPUs, so the five rounds now time every input once
    # each, in turn: a spell of load lands on all sizes alike.
    def best_of_five(jobs):
        runs = [[] for _ in jobs]
        for _ in range(5):
            for (translate, inputs), times in zip(jobs, runs):
                gc.disable()
                try:
                    started = time.thread_time()
                    for cf in inputs:
                        translate(cf)
                    times.append(time.thread_time() - started)
                finally:
                    gc.enable()
        return [min(times) for times in runs]

    corpus = krom_corpus()
    sizes = (5000, 10000, 20000)
    to_box, to_diamond, *flat = best_of_five(
        [(krom_to_krom_box, corpus), (krom_to_krom_diamond, corpus)]
        + [(krom_to_krom_box, [_flat_krom(n)]) for n in sizes])
    flat = dict(zip(sizes, flat))
    growth = flat[20000] / flat[5000]
    _report(
        "Krom translations take one pass over a clause stack",
        growth <= 6,
        f"{len(corpus):,} corpus formulas to box in {to_box * 1000:.0f} ms and to diamond "
        f"in {to_diamond * 1000:.0f} ms, 10,000 flat clauses to box in "
        f"{flat[10000] * 1000:.0f} ms of thread CPU time; 20,000 clauses take "
        f"{growth:.1f} times as long as 5,000 (at most 6)",
    )


def test_bounded_non_translatability():
    started = time.perf_counter()
    horn_hit = search_weak_translation(parse("p | q"), "horn", {"p", "q"}, 7, max_worlds=3)
    horn_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    krom_hit = search_weak_translation(
        parse("p & q -> r"), "krom", {"p", "q", "r"}, 7, max_worlds=3
    )
    krom_elapsed = time.perf_counter() - started
    _report(
        "bounded non-translatability searches come up empty",
        horn_hit is None and krom_hit is None,
        f"Horn search {horn_elapsed:.1f}s, Krom search {krom_elapsed:.1f}s "
        f"(budget 60s each)",
    )


def test_larger_searches_build_layers_when_reached():
    # Krom answers `p -> q` at layer 4 of 11; Krom refutes `p & q -> r` and
    # Horn `p | q` from the least upper bound after layer 1.  Building the
    # whole pool first took 0.24-0.28 s, 0.18-0.21 s and 0.014-0.017 s
    # here; the pool grown by size takes 2.0-2.6 ms, 0.5-0.7 ms and
    # 0.3-0.5 ms (5 runs each, 2 CPUs, CPython 3.11.7).
    started = time.perf_counter()
    krom_hit = search_weak_translation(parse("p -> q"), "krom", {"p", "q", "r"}, 11, max_worlds=3)
    krom_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    krom_miss = search_weak_translation(
        parse("p & q -> r"), "krom", {"p", "q", "r"}, 11, max_worlds=3
    )
    refute_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    horn_hit = search_weak_translation(parse("p | q"), "horn", {"p", "q"}, 9, max_worlds=3)
    horn_elapsed = time.perf_counter() - started
    _report(
        "larger searches answer at their first agreeing layer or refute early",
        str(krom_hit) == "p -> q" and krom_miss is None and horn_hit is None,
        f"Krom size 11 found {krom_hit} in {krom_elapsed * 1000:.1f} ms, "
        f"Krom size 11 refuted p & q -> r in {refute_elapsed * 1000:.1f} ms, "
        f"Horn size 9 refuted in {horn_elapsed * 1000:.1f} ms",
    )


def test_bruteforce_cap_probe_checks_trees_without_models():
    # The cli's --cap probe: 20,000 trees are counted before the cap stops
    # the walk.  Building a model for every tree took 153-234 ms of thread
    # CPU time (2 CPUs, CPython 3.11.7).  All 536,640 trees of its class up
    # to 4 worlds took 1.0-1.2 s with every tree checked; of them only the
    # 768 whose letters f reads at their depth are checked, in about 10 ms.
    f = parse("<a>p & <b>q & [a]~p & (r | s | t | u)")
    started = time.thread_time()
    try:
        sat_bruteforce(f, 4, model_cap=20000)
        capped = False
    except CapExceeded:
        capped = True
    elapsed = time.thread_time() - started
    _report(
        "brute force stops at its tree cap",
        capped,
        f"20,000 trees counted in {elapsed * 1000:.0f} ms of thread CPU time",
    )
    started = time.thread_time()
    status = sat_bruteforce(f, 4, model_cap=1_000_000).status
    elapsed = time.thread_time() - started
    _report(
        "brute force exhausts the probe's 536,640 trees within 0.5 s",
        status == UNSAT and elapsed < 0.5,
        f"{status} in {elapsed * 1000:.0f} ms of thread CPU time",
    )


def test_de_morgan_pair_is_answered_without_enumerating():
    # Both sides share one NNF row, so the check returns before any batch;
    # valuing the 2**28 + 2**18 + 2**10 + 2**4 models up to 4 worlds in
    # 65,605 batches took 1.9-2.6 s (2 CPUs, CPython 3.11.7).
    f, g = parse("[a](p -> q) & <a>r"), parse("~<a>(p & ~q) & ~[a]~r")
    started = time.thread_time()
    verdict = weak_equiv_check(f, g, max_worlds=4)
    elapsed = time.thread_time() - started
    _report(
        "a De Morgan rewrite is equivalent at 4 worlds within 50 ms",
        verdict.status == EQUIVALENT_UP_TO_BOUND and elapsed < 0.05,
        f"answered in {elapsed * 1000:.2f} ms of thread CPU time",
    )


def test_reordered_pair_is_proved_equivalent_by_the_tableau():
    # The sides are not one NNF row, but they agree on the one-world models,
    # and the tableau closes their XOR before any 2-world batch; valuing the
    # 262,144 batches up to 3 worlds took 6.95 s (2 CPUs, CPython 3.11.7).
    f, g = parse("[a](p -> q) & <b>r & s"), parse("<b>r & s & [a](~p | q)")
    started = time.thread_time()
    verdict = weak_equiv_check(f, g, max_worlds=3)
    elapsed = time.thread_time() - started
    _report(
        "a reordered pair is proved equivalent at 3 worlds within 50 ms",
        verdict.status == EQUIVALENT_UP_TO_BOUND and elapsed < 0.05,
        f"answered in {elapsed * 1000:.2f} ms of thread CPU time",
    )


def test_parse_reads_a_long_balanced_text():
    # 1,000 clauses (p_i | <a>q_i) under a balanced conjunction, 19,775
    # characters; the text round-trips through `to_text`.
    row = [Or(Prop(f"p{i}"), Diamond("a", Prop(f"q{i}"))) for i in range(1000)]
    while len(row) > 1:
        row = [And(*row[i:i + 2]) if i + 1 < len(row) else row[i] for i in range(0, len(row), 2)]
    text = to_text(row[0])
    started = time.thread_time()
    f = parse(text)
    elapsed = time.thread_time() - started
    _report(
        "parse reads a 1,000-clause text and prints it back",
        to_text(f) == text,
        f"{len(text):,} characters parsed in {elapsed * 1000:.1f} ms of thread CPU time",
    )


def test_solver_cross_validation():
    corpus = formulas_up_to_size(5, letters=("p",), mods=("a",))
    disagreements = 0
    bad_witness = 0
    for f in corpus:
        tableau = sat_tableau(f)
        brute = sat_bruteforce(f, tree_model_bound(f))
        if tableau.status != brute.status:
            disagreements += 1
        for result in (tableau, brute):
            if result.status == "SAT" and not check(
                result.witness.model, result.witness.world, f
            ):
                bad_witness += 1
    _report(
        "tableau and bounded oracle agree on the exhaustive small corpus",
        disagreements == 0 and bad_witness == 0,
        f"{len(corpus)} formulas, {disagreements} disagreements, "
        f"{bad_witness} invalid witnesses",
    )


def test_positive_literal_monotonicity():
    rng = random.Random(0x5EED)
    trials, exercised, violations = 10_000, 0, 0
    for _ in range(trials):
        model = random_model(rng, max_worlds=5, letters=("p", "q", "r"), mods=("a", "b"))
        bigger = enlarge_valuation(rng, model)
        lit = random_literal(rng, rng.randint(0, 3), ("p", "q", "r"), ("a", "b"))
        assert is_positive_literal(lit)
        w = rng.choice(model.frame.worlds)
        if check(model, w, lit):
            exercised += 1
            if not check(bigger, w, lit):
                violations += 1
    _report(
        "positive literals are monotone under valuation enlargement",
        violations == 0 and exercised >= 1000,
        f"{trials} trials, {exercised} exercised, {violations} violations",
    )


def test_hierarchy_golden_file():
    golden = GOLDEN.read_bytes()
    direct = hierarchy_dot().encode()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["hierarchy"])
    via_cli = out.getvalue().encode()
    ok = direct == golden and via_cli == golden and code == 0
    _report(
        "fragment-hierarchy DOT matches the golden file byte for byte",
        ok,
        f"{len(golden)} bytes",
    )
