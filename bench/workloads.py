"""The four benchmark workloads: seeded query sets, answers and answer checks.

A workload is a list of queries sent one after another by a single client.
A query is one user-level answer: `run()` does the work that is timed;
`answer()` turns its result into JSON and the workload's `check()` verifies
that answer, both right after the query and outside its timing, so the
benchmark holds no results while the loop runs.  Answers are checked with
the benchmark's own evaluator (`corpora.holds`) and compared with those
recorded at the seed commit in `golden.json`.

The sat, search and cli queries are fixed, and every one of them has a
recorded answer; the worker sends them in an order drawn from `--seed`.
The modelcheck trials are drawn from the seed; the laws and the evaluator
check their answers.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import knfrag
from knfrag import (
    And,
    Box,
    Diamond,
    Not,
    Or,
    intersect,
    krom_to_krom_box,
    krom_to_krom_diamond,
    model_to_json,
    override_valuation,
    parse,
    product,
    product_world,
    sat_bruteforce,
    sat_tableau,
    search_weak_translation,
    strong_translation_check,
    tree_model_bound,
    weak_equiv_check,
)
from knfrag.cli import main as cli_main

import corpora
from corpora import holds, plain_from_json, render

EQUIVALENT = "EQUIVALENT_UP_TO_BOUND"


class Query:
    __slots__ = ("key", "run", "answer", "spec", "prepare")

    def __init__(self, key, run, answer, spec=None, prepare=None):
        self.key = key  # (group, index) into golden.json
        self.run = run
        self.answer = answer
        self.spec = spec  # what the checks need to know about the input
        # Builds the arguments of `run` just before it is sent, untimed, for
        # workloads whose inputs would not fit in memory all at once.
        self.prepare = prepare


class Workload:
    """`check(query, answer, result)` returns the problems with one answer;
    `finish()` returns (query key, problem) pairs found across answers, and
    fills `notes` with the measured traffic shares."""

    def __init__(self, queries, check, finish, notes):
        self.queries = queries
        self.check = check
        self.finish = finish
        self.notes = notes


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def pointed_json(pointed) -> dict:
    return {"model": model_to_json(pointed.model), "world": pointed.world}


def sat_answer(result) -> dict:
    witness = None if result.witness is None else pointed_json(result.witness)
    return {"status": result.status, "witness": witness}


def verdict_answer(verdict) -> dict:
    ce = verdict.counterexample
    if ce is None:
        return {"status": verdict.status, "counterexample": None}
    return {
        "status": verdict.status,
        "counterexample": dict(pointed_json(ce.pointed), details=dict(ce.details)),
    }


def witness_holds(witness: dict, f) -> bool:
    return holds(plain_from_json(witness["model"]), witness["world"], f)


# --- sat: solver verdicts on the exhaustive and Krom corpora ---


def _brute(f):
    return sat_bruteforce(f, tree_model_bound(f))


def _translated_tableau(translate, cf):
    out = translate(cf)
    return out, sat_tableau(out.to_formula())


def _translated_answer(pair):
    out, result = pair
    return {"formula": str(out), "sat": sat_answer(result)}


def build_sat(tiny):
    small = corpora.formulas_up_to_size(3 if tiny else 5, letters=("p",), mods=("a",))
    krom = corpora.krom_corpus()
    krom_ids = range(0, len(krom), 97) if tiny else range(len(krom))
    queries = []
    for i, f in enumerate(small):
        queries.append(Query(("tab", i), partial(sat_tableau, f), sat_answer, f))
        queries.append(Query(("bru", i), partial(_brute, f), sat_answer, f))
    for i in krom_ids:
        cf = krom[i]
        f = cf.to_formula()
        queries.append(Query(("kbru", i), partial(_brute, f), sat_answer, f))
        for group, translate in (("kbox", krom_to_krom_box), ("kdia", krom_to_krom_diamond)):
            queries.append(Query((group, i), partial(_translated_tableau, translate, cf),
                                 _translated_answer, f))
    statuses = {}
    notes = {}

    def check(query, answer, result):
        translated = query.key[0] in ("kbox", "kdia")
        verdict = answer["sat"] if translated else answer
        statuses[query.key] = verdict["status"]
        formula = result[0].to_formula() if translated else query.spec
        if verdict["status"] == "SAT" and not witness_holds(verdict["witness"], formula):
            return ["witness does not satisfy the formula"]
        return []

    def finish():
        problems = []
        unsat_small = unsat_krom = 0
        for i in range(len(small)):
            verdicts = {statuses.get(("tab", i)), statuses.get(("bru", i))}
            if len(verdicts) > 1:
                problems.append((("bru", i), f"tableau and brute force disagree: {verdicts}"))
            unsat_small += "UNSAT" in verdicts
        for i in krom_ids:
            verdicts = {statuses.get((g, i)) for g in ("kbru", "kbox", "kdia")}
            if len(verdicts) > 1:
                problems.append((("kbru", i), f"original and translations disagree: {verdicts}"))
            unsat_krom += "UNSAT" in verdicts
        notes["unsat_share_small"] = f"{unsat_small}/{len(small)}"
        notes["unsat_share_krom"] = f"{unsat_krom}/{len(krom_ids)}"
        return problems

    return Workload(queries, check, finish, notes)


# --- search: bounded expressiveness verdicts ---

PAIRS, EQUAL_PAIRS = 200, 16


def _rewrite(rng, f):
    """An equivalent formula: De Morgan, duality, double negation, commutation."""
    kind = type(f).__name__
    if kind in ("Top", "Prop"):
        return Not(Not(f)) if rng.random() < 0.1 else f
    if kind == "Not":
        return Not(_rewrite(rng, f.operand))
    if kind in ("Diamond", "Box"):
        inner = _rewrite(rng, f.operand)
        if rng.random() < 0.25:
            dual = Box if kind == "Diamond" else Diamond
            return Not(dual(f.modality, Not(inner)))
        return type(f)(f.modality, inner)
    left, right = _rewrite(rng, f.left), _rewrite(rng, f.right)
    if rng.random() < 0.5:
        left, right = right, left
    if rng.random() < 0.25:
        dual = Or if kind == "And" else And
        return Not(dual(Not(left), Not(right)))
    return type(f)(left, right)


def search_pair(index):
    rng = random.Random(f"search-pair:{index}")
    mods = ("a",)
    if index < EQUAL_PAIRS:
        # Equal pairs exhaust every model up to the bound; a smaller f keeps
        # each of them under a second.
        f = corpora.random_formula(rng, 2, ("p", "q"), mods)
        return f, _rewrite(rng, f), True
    f = corpora.random_formula(rng, 3, ("p", "q"), mods)
    return f, corpora.random_formula(rng, 3, ("p", "q"), mods), False


STRONG_CASES = (
    [(text, "box", 2) for text in ("<a>p", "~<a>p", "<a>p | q", "[a]<a>p", "<a><a>p", "~<a>q | p")]
    + [(text, "dia", 2) for text in ("[a]p", "~[a]p", "[a]p -> q", "<a>[a]p", "[a][a]p", "~[a]q | p")]
    + [("<a>p", "box", 3), ("[a]p", "dia", 3), ("~[a]p", "dia", 3), ("<a>p", "[a]p", 3)]
)


def _strong_inputs(text, target):
    f = parse(text)
    if target == "box":
        g = krom_to_krom_box(knfrag.recognize_clausal(f)).to_formula()
    elif target == "dia":
        g = krom_to_krom_diamond(knfrag.recognize_clausal(f)).to_formula()
    else:
        g = parse(target)
    return f, g, target in ("box", "dia")


def _found_answer(found):
    return None if found is None else str(found)


def build_search(tiny):
    queries = []
    if not tiny:
        queries.append(Query(("ref", 0), partial(
            search_weak_translation, parse("p | q"), "horn", {"p", "q"}, 7, max_worlds=3),
            _found_answer))
        queries.append(Query(("ref", 1), partial(
            search_weak_translation, parse("p & q -> r"), "krom", {"p", "q", "r"}, 7,
            max_worlds=3), _found_answer))
    for i in range(0, PAIRS, 10) if tiny else range(PAIRS):
        f, g, equal = search_pair(i)
        queries.append(Query(("pair", i),
                             partial(weak_equiv_check, f, g, alphabet={"p", "q"}, max_worlds=3),
                             verdict_answer, (f, g, equal)))
    for i, (text, target, worlds) in enumerate(STRONG_CASES):
        if tiny and i % 4:
            continue
        f, g, conservative = _strong_inputs(text, target)
        queries.append(Query(("strong", i),
                             partial(strong_translation_check, f, g, max_worlds=worlds),
                             verdict_answer, (f, g, conservative)))
    counts = {"pairs": 0, "exhausted": 0}
    notes = {}

    def check(query, answer, result):
        group = query.key[0]
        if group == "ref":
            return [] if answer is None else [f"refutation found {answer!r}"]
        f, g, expect_equal = query.spec
        problems = []
        if group == "pair":
            counts["pairs"] += 1
            counts["exhausted"] += answer["status"] == EQUIVALENT
        if expect_equal and answer["status"] != EQUIVALENT:
            problems.append(f"expected equivalence, got {answer['status']}")
        ce = answer["counterexample"]
        if ce is not None:
            plain = plain_from_json(ce["model"])
            left = holds(plain, ce["world"], f)
            if ce["details"].get("left") != left:
                problems.append("counterexample misreports the left side")
            if group == "pair" and holds(plain, ce["world"], g) == left:
                problems.append("counterexample does not separate")
        return problems

    def finish():
        notes["exhaust_share"] = f"{counts['exhausted']}/{counts['pairs']}"
        return []

    return Workload(queries, check, finish, notes)


# --- modelcheck: the three random-trial laws ---

LETTERS3, MODS2 = ("p", "q", "r"), ("a", "b")
EVALUATED_EVERY = 10  # trials re-evaluated by the table evaluator, one in ten


def _intersection_inputs(seed, i):
    rng = random.Random(f"modelcheck:intersection:{seed}:{i}")
    base = corpora.random_model(rng, 5, LETTERS3, MODS2, letter_bias=0.6)
    other = corpora.random_model(rng, frame=base.frame, letters=LETTERS3, mods=MODS2,
                                 letter_bias=0.7)
    phi = corpora.random_hornbox_formula(rng).to_formula()
    return base, other, phi, rng.choice(base.frame.worlds), i % EVALUATED_EVERY == 0


def _trial_intersection(base, other, phi, w, keep):
    a, b = knfrag.check(base, w, phi), knfrag.check(other, w, phi)
    both = intersect(base, other)
    c = knfrag.check(both, w, phi)
    return (a, b, c, (phi, base, w, other, w, both, w)) if keep else (a, b, c)


def _product_inputs(seed, i):
    rng = random.Random(f"modelcheck:product:{seed}:{i}")
    m1 = corpora.random_model(rng, 5, LETTERS3, MODS2, letter_bias=0.7)
    m2 = corpora.random_model(rng, 5, LETTERS3, MODS2, letter_bias=0.7)
    phi = corpora.random_horndia_formula(rng).to_formula()
    w1, w2 = rng.choice(m1.frame.worlds), rng.choice(m2.frame.worlds)
    return m1, m2, phi, w1, w2, i % EVALUATED_EVERY == 0


def _trial_product(m1, m2, phi, w1, w2, keep):
    a, b = knfrag.check(m1, w1, phi), knfrag.check(m2, w2, phi)
    prod = product(m1, m2)
    pw = product_world(w1, w2)
    c = knfrag.check(prod, pw, phi)
    return (a, b, c, (phi, m1, w1, m2, w2, prod, pw)) if keep else (a, b, c)


def _monotone_inputs(seed, i):
    rng = random.Random(f"modelcheck:monotone:{seed}:{i}")
    model = corpora.random_model(rng, 5, LETTERS3, MODS2)
    letter = rng.choice(LETTERS3)
    grown = [w for w in model.frame.worlds if letter in model.valuation[w] or rng.random() < 0.3]
    lit = corpora.random_literal(rng, rng.randint(0, 3), LETTERS3, MODS2)
    return model, letter, grown, lit, rng.choice(model.frame.worlds), i % EVALUATED_EVERY == 0


def _trial_monotone(model, letter, worlds, lit, w, keep):
    a = knfrag.check(model, w, lit)
    bigger = override_valuation(model, letter, worlds)
    c = knfrag.check(bigger, w, lit)
    return (a, a, c, (lit, model, w, model, w, bigger, w)) if keep else (a, a, c)


def _trial_answer(result):
    return list(result[:3])


def build_modelcheck(seed, tiny):
    trials = 200 if tiny else 10_000
    queries = []
    for group, prepare, trial in (("inter", _intersection_inputs, _trial_intersection),
                                  ("prod", _product_inputs, _trial_product),
                                  ("mono", _monotone_inputs, _trial_monotone)):
        queries.extend(Query((group, i), trial, _trial_answer, prepare=partial(prepare, seed, i))
                       for i in range(trials))
    counts = {"exercised": 0}
    notes = {}

    def check(query, answer, result):
        problems = []
        if answer[0] and answer[1]:
            counts["exercised"] += 1
            if not answer[2]:
                problems.append("law violated")
        if len(result) > 3:
            phi, m1, w1, m2, w2, combined, w = result[3]
            expected = [holds(corpora.plain_from_model(m), v, phi)
                        for m, v in ((m1, w1), (m2, w2), (combined, w))]
            if answer != expected:
                problems.append(f"check gave {answer}, the evaluator {expected}")
        return problems

    def finish():
        notes["exercised_share"] = f"{counts['exercised']}/{len(queries)}"
        return []

    return Workload(queries, check, finish, notes)


# --- cli: in-process requests through knfrag.cli.main ---

# Every verb gets the same share of the requests, 250 of 2,000; the sat
# requests alternate between the two engines.  The `search` verb is left out:
# one of its requests takes seconds, and the search workload covers its path.
CLI_VERBS = ("parse", "classify", "check", "translate", "sat", "equiv", "verify-paper",
             "hierarchy")
CLI_PER_VERB = 250
CLI_FIXTURES = 16
CLI_PROBE = "cap-probe"
# The probe for the brute-force memory defect: a 6-letter, 2-modality formula
# that hits the model cap.
CAP_PROBE_FORMULA = "<a>p & <b>q & [a]~p & (r | s | t | u)"
EXIT_BY_STATUS = {"SAT": 0, "UNSAT": 1, "UNKNOWN_AT_BOUND": 2}


def _cli_kinds():
    kinds = []
    for verb in CLI_VERBS:
        if verb == "sat":
            kinds.extend(("sat-tableau", "sat-brute")[j % 2] for j in range(CLI_PER_VERB))
        else:
            kinds.extend([verb] * CLI_PER_VERB)
    kinds.append(CLI_PROBE)
    return kinds


def _long_formula(rng, target_len, make):
    parts, length = [], 0
    while not parts or length < target_len:
        parts.append(make())
        length += len(render(parts[-1])) + 3
    while len(parts) > 1:  # balanced, so nesting stays shallow for long inputs
        parts = [And(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


def _log_uniform(rng, lo, hi):
    return int(lo * (hi / lo) ** rng.random())


def cli_fixture(index):
    rng = random.Random(f"cli-fixture:{index}")
    k = rng.randint(1, 6)
    worlds = [f"w{i}" for i in range(k)]
    relations = {m: [[u, v] for u in worlds for v in worlds if rng.random() < 0.3]
                 for m in MODS2}
    valuation = {w: sorted(l for l in LETTERS3 if rng.random() < 0.5) for w in worlds}
    return {"worlds": worlds, "relations": {m: ps for m, ps in relations.items() if ps},
            "valuation": valuation, "alphabet": list(LETTERS3), "designated": "w0"}


def cli_request(kind, index):
    """(argv, spec) for one request: spec is (verb, formula characters,
    what the checks need...).  Model files appear in argv as @name."""
    rng = random.Random(f"cli:{index}")
    letters3, letters2 = LETTERS3, LETTERS3[:2]
    if kind == "parse":
        text = render(_long_formula(rng, _log_uniform(rng, 10, 1000),
                                    lambda: corpora.random_formula(rng, 4, letters3, MODS2)))
        return ["--json", "parse", text], ("parse", len(text))
    if kind == "classify":
        make = lambda: corpora.random_clause(rng, letters3, MODS2, max_negatives=2,
                                             max_positives=rng.choice((1, 2)))
        text = render(_long_formula(rng, _log_uniform(rng, 10, 1000),
                                    lambda: make().to_formula()))
        return ["--json", "classify", text], ("classify", len(text))
    if kind == "check":
        index = rng.randrange(CLI_FIXTURES)
        world = rng.choice(cli_fixture(index)["worlds"])
        f = _long_formula(rng, _log_uniform(rng, 10, 300),
                          lambda: corpora.random_formula(rng, 4, letters3, MODS2))
        text = render(f)
        return (["--json", "check", f"@fixture{index}", text, "--world", world],
                ("check", len(text), f, index, world))
    if kind == "translate":
        make = lambda: corpora.random_clause(rng, letters2, MODS2, max_negatives=1,
                                             max_positives=1)
        text = render(_long_formula(rng, _log_uniform(rng, 10, 300),
                                    lambda: make().to_formula()))
        to = rng.choice(("box", "diamond"))
        return ["--json", "translate", "--to", to, text], ("translate", len(text))
    if kind == "sat-tableau":
        f = _long_formula(rng, _log_uniform(rng, 10, 200),
                          lambda: corpora.random_formula(rng, 3, letters3, MODS2))
        text = render(f)
        return ["--json", "sat", text], ("sat", len(text), f)
    if kind == "sat-brute":
        f = corpora.random_formula(rng, 3, letters2, ("a",))
        text = render(f)
        return (["--json", "sat", "--engine", "brute", "--max-worlds", "3", text],
                ("sat", len(text), f))
    if kind == "equiv":
        f = corpora.random_formula(rng, 3, letters2, ("a",))
        g = corpora.random_formula(rng, 3, letters2, ("a",))
        return (["--json", "equiv", "--max-worlds", "2", render(f), render(g)],
                ("equiv", len(render(f)), f, g))
    if kind == "verify-paper":
        # The whole catalogue and each theorem alone, in turn.
        choices = (None, *knfrag.THEOREM_IDS)
        theorem = choices[index % len(choices)]
        if theorem is None:
            return ["--json", "verify-paper"], ("verify-paper", None)
        return ["--json", "verify-paper", "--id", theorem], ("verify-paper", None)
    if kind == "hierarchy":
        return ["--json", "hierarchy"], ("hierarchy", None)
    return (["--json", "--cap", "20000", "sat", "--engine", "brute", "--max-worlds", "4",
             CAP_PROBE_FORMULA], ("sat", None, None))


# Requests that keep known defects visible: (name, argv, the exit code once
# fixed, or None for any exit code).  They run after the timed loop; their
# outcome is reported, not counted as a failure.  At the seed commit a
# RecursionError escapes main from the first two, an AttributeError from the
# third, and the fourth model is accepted with one world per character.
ROBUSTNESS_PROBES = (
    ("deep-negation-parse", ["--json", "parse", "~" * 3000 + "p"], None),
    ("deep-diamond-sat", ["--json", "sat", "<a>" * 1500 + "p"], None),
    ("valuation-as-list", ["--json", "check", "@bad-valuation", "p"], 65),
    ("worlds-as-string", ["--json", "check", "@bad-worlds", "p"], 65),
)
BAD_MODELS = {
    "bad-valuation": {"worlds": ["w0"], "valuation": ["p"], "designated": "w0"},
    # A string of distinct characters: "w0w1" is refused for its repeated "w".
    "bad-worlds": {"worlds": "w01", "designated": "w"},
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _json_lines(text):
    lines = []
    for line in text.splitlines():
        if line.strip():
            try:
                lines.append(json.loads(line))
            except ValueError:
                lines.append(line)
    return lines


def cli_answer(result):
    code, out = result
    return {"exit": code, "out": _json_lines(out)}


def project(answer, verb, keys):
    """The answer restricted to the JSON keys the seed commit emitted."""
    allowed = keys.get(verb)
    if allowed is None:
        return answer
    out = [{k: v for k, v in line.items() if k in allowed} if isinstance(line, dict) else line
           for line in answer["out"]]
    return {"exit": answer["exit"], "out": out}


def _resolve(argv, paths):
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def write_fixtures(tmpdir):
    paths = {}
    models = {f"fixture{i}": cli_fixture(i) for i in range(CLI_FIXTURES)}
    models.update(BAD_MODELS)
    for name, data in models.items():
        paths[name] = os.path.join(tmpdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    return paths


def run_robustness_probes(tmpdir):
    """Outcome of each known-defect probe: 'defect' while the seed's failure
    shows, 'fixed' once the request ends with the documented exit code."""
    paths = write_fixtures(tmpdir)
    outcomes = {}
    for name, argv, fixed_exit in ROBUSTNESS_PROBES:
        try:
            code, _ = run_cli(_resolve(argv, paths))
        except Exception as e:  # the defect under probe: an exception escapes main
            outcomes[name] = f"defect ({type(e).__name__})"
            continue
        if fixed_exit is None or code == fixed_exit:
            outcomes[name] = f"fixed (exit {code})"
        else:
            outcomes[name] = f"defect (exit {code})"
    return outcomes


def _check_cli(query, answer, fixtures):
    kind, argv, verb = query.spec[:3]
    code, out = answer["exit"], answer["out"]
    payload = out[0] if out and isinstance(out[0], dict) else {}
    if kind == CLI_PROBE:
        return [] if code == 69 else [f"expected exit 69 (model cap), got {code}"]
    if verb == "check":
        f, index, world = query.spec[4:]
        truth = holds(fixtures[index], world, f)
        if payload.get("result") != truth or code != (0 if truth else 1):
            return [f"check answered {payload.get('result')} (exit {code}), "
                    f"the evaluator {truth}"]
        return []
    if verb == "sat":
        if code != EXIT_BY_STATUS.get(payload.get("status")):
            return [f"exit {code} for {payload.get('status')}"]
        witness = payload.get("witness")
        if code == 0 and not witness_holds({"model": witness, "world": witness["designated"]},
                                           query.spec[4]):
            return ["witness does not satisfy the formula"]
        return []
    if verb == "equiv":
        f, g = query.spec[4:]
        if payload.get("status") != "COUNTEREXAMPLE":
            return [] if code == 0 else [f"exit {code} for equivalence"]
        ce = payload["counterexample"]
        plain = plain_from_json(ce)
        problems = [] if code == 1 else [f"exit {code} for a counterexample"]
        if holds(plain, ce["designated"], f) == holds(plain, ce["designated"], g):
            problems.append("counterexample does not separate")
        return problems
    if verb == "verify-paper":
        if code != 0 or not all(line.get("overall", True) for line in out):
            return [f"a replay failed (exit {code})"]
        return []
    return [] if code == 0 else [f"exit {code}"]


def build_cli(tiny, tmpdir):
    paths = write_fixtures(tmpdir)
    queries = []
    for i, kind in enumerate(_cli_kinds()):
        if tiny and i % 50 and kind != CLI_PROBE:
            continue
        argv, spec = cli_request(kind, i)
        queries.append(Query(("req", i), partial(run_cli, _resolve(argv, paths)),
                             cli_answer, (kind, argv) + spec))
    fixtures = [plain_from_json(cli_fixture(i)) for i in range(CLI_FIXTURES)]
    notes = {}

    def finish():
        lengths = sorted(q.spec[3] for q in queries if q.spec[3] is not None)
        notes["formula_chars"] = (f"{lengths[0]}..{lengths[-1]}, "
                                  f"median {int(statistics.median(lengths))}")
        return []

    return Workload(queries, lambda q, a, r: _check_cli(q, a, fixtures), finish, notes)


def build(name, seed, tiny, tmpdir):
    if name == "sat":
        return build_sat(tiny)
    if name == "search":
        return build_search(tiny)
    if name == "modelcheck":
        return build_modelcheck(seed, tiny)
    return build_cli(tiny, tmpdir)


def recorded_answer(workload, query, answer, golden):
    """The answer as it is compared with the recording: for the CLI, only
    the JSON keys the seed commit emitted count."""
    if workload == "cli":
        return project(answer, query.spec[2], golden.get("cli_keys", {}))
    return answer


def differs_from_golden(workload, query, answer, golden) -> bool:
    group, index = query.key
    recorded = golden.get(workload, {}).get(group)
    if recorded is None or index >= len(recorded) or recorded[index] is None:
        return False
    return digest(recorded_answer(workload, query, answer, golden)) != recorded[index]
