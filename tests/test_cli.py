import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from knfrag import model_to_json, KripkeFrame, KripkeModel, THEOREM_IDS
from knfrag import classify, parse, recognize_clausal
from knfrag import cli, expressiveness
from knfrag.cli import main
from helpers import count_replays

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC_DIR / "knfrag" / "schemas"

_REGISTRY = Registry().with_resources(
    (schema_file.name, Resource.from_contents(json.loads(schema_file.read_text())))
    for schema_file in SCHEMA_DIR.glob("*.json")
)


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate(name, payload):
    Draft7Validator(load_schema(name), registry=_REGISTRY).validate(payload)


def run(argv, stdin=None, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def model_file(tmp_path):
    frame = KripkeFrame(["w0", "w1", "w2"], {"a": [("w0", "w1"), ("w0", "w2")]})
    model = KripkeModel(frame, {"w1": ["p"]}, {"p"})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model, "w0")))
    return str(path)


def test_parse_verb():
    code, out, _ = run(["parse", "p|q"])
    assert code == 0 and out.strip() == "p | q"


def test_parse_verb_json():
    code, out, _ = run(["--json", "parse", "<a>p -> q"])
    assert code == 0
    payload = json.loads(out)
    validate("parse.schema.json", payload)
    assert payload["modalities"] == ["a"]


def test_classify_verb():
    code, out, _ = run(["--json", "classify", "p & q -> r"])
    assert code == 0
    payload = json.loads(out)
    validate("classify.schema.json", payload)
    assert payload == {
        "horn": True,
        "krom": False,
        "core": False,
        "box_only": True,
        "diamond_only": True,
        "clauses": 1,
    }


def test_classify_plain_keeps_the_field_order():
    code, out, _ = run(["classify", "p & q -> r"])
    assert code == 0
    assert out.strip() == ("horn=True, krom=False, core=False, box_only=True, "
                           "diamond_only=True, clauses=1")


def test_classify_rejects_non_clausal():
    code, _, err = run(["classify", "~(p | q)"])
    assert code == 65 and "clausal" in err


def test_check_verb(model_file):
    code, out, _ = run(["check", model_file, "<a>p"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(["check", model_file, "[a]p"])
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(["--json", "check", model_file, "<a>p", "--world", "w1"])
    payload = json.loads(out)
    validate("check.schema.json", payload)
    assert payload == {"result": False, "world": "w1"} and code == 1


def test_check_missing_file():
    assert run(["check", "/nonexistent/model.json", "p"])[0] == 66


@pytest.mark.parametrize("data", [
    {"worlds": ["w0"], "valuation": ["p"], "designated": "w0"},
    {"worlds": "w01", "designated": "w0"},
    {"worlds": ["w0", 1]},
    {"worlds": ["w0"], "relations": [["w0", "w0"]]},
    {"worlds": ["w0"], "relations": {"a": [["w0"]]}},
    {"worlds": ["w0"], "relations": {"a": ["w0w0"]}},
    {"worlds": ["w0"], "valuation": {"w0": "p"}},
    {"worlds": ["w0"], "alphabet": "p"},
    {"worlds": ["w0"], "designated": 0},
    ["w0"],
])
def test_check_rejects_malformed_model_json(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(["check", str(path), "p", "--world", "w0"])
    assert code == 65 and out == ""
    assert err.startswith("error: model JSON")


def test_check_rejects_a_model_file_that_is_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"worlds": [', encoding="utf-8")
    code, out, err = run(["check", str(path), "p", "--world", "w0"])
    assert code == 65 and out == ""
    assert err.startswith(f"bad JSON in {path}: ")


def test_check_needs_a_world_when_the_model_designates_none(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": ["w0"]}), encoding="utf-8")
    code, out, err = run(["check", str(path), "p"])
    assert (code, out) == (65, "")
    assert err == "no world: the model has no designated world and --world was not given\n"


def test_sat_verb_statuses():
    assert run(["sat", "p & ~p"])[0] == 1
    code, out, _ = run(["--json", "sat", "<a>p"])
    assert code == 0
    payload = json.loads(out)
    validate("sat.schema.json", payload)
    assert payload["status"] == "SAT"
    validate("model.schema.json", payload["witness"])
    code, out, _ = run(["--json", "sat", "--engine", "brute", "--max-worlds", "1", "<a>p"])
    assert code == 2
    assert json.loads(out)["status"] == "UNKNOWN_AT_BOUND"


def test_sat_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p | ~p"))
    code, out, _ = run(["sat"])
    assert code == 0


def test_translate_verb(tmp_path):
    sidecar = tmp_path / "fresh.json"
    code, out, _ = run(["translate", "--to", "box", "<a>p", "--sidecar", str(sidecar)])
    assert code == 0
    assert out.strip() == "~[a]_f0 & [a](_f0 | p)"
    payload = json.loads(sidecar.read_text())
    validate("translate.schema.json", payload)
    assert payload["fresh_letters"] == ["_f0"]
    code, out, _ = run(["--json", "translate", "--to", "diamond", "[a]p -> q"])
    payload = json.loads(out)
    validate("translate.schema.json", payload)
    assert payload["formula"] == "(<a>_f0 | q) & [a](~_f0 | ~p)"


def test_equiv_verb():
    code, out, _ = run(["--json", "equiv", "p | q", "~(~p & ~q)"])
    assert code == 0
    payload = json.loads(out)
    validate("equiv.schema.json", payload)
    code, out, _ = run(["--json", "equiv", "p | q", "p"])
    assert code == 1
    payload = json.loads(out)
    validate("equiv.schema.json", payload)
    assert payload["status"] == "COUNTEREXAMPLE"
    code, out, _ = run([
        "--json", "equiv", "--mode", "strong", "--max-worlds", "2",
        "<a>p", "~[a]_f0 & [a](_f0 | p)",
    ])
    assert code == 0


def test_search_verb():
    code, out, _ = run([
        "--json", "search", "--fragment", "krom", "--size", "4", "p | q",
    ])
    assert code == 0
    payload = json.loads(out)
    validate("search.schema.json", payload)
    assert payload["found"] == "p | q"
    code, out, _ = run([
        "--json", "search", "--fragment", "horn", "--size", "4", "p | q",
    ])
    assert code == 1
    assert json.loads(out)["found"] is None


def test_verify_paper_verb():
    code, out, _ = run(["verify-paper", "--id", "product-closure"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    for line in lines:
        validate("verify_step.schema.json", line)
    assert lines[-1] == {"theorem": "product-closure", "overall": True}


def test_verify_paper_all():
    code, out, _ = run(["verify-paper"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    overall = [line for line in lines if "overall" in line]
    assert len(overall) == 10
    assert all(line["overall"] for line in overall)


def test_hierarchy_verb_json():
    code, out, _ = run(["--json", "hierarchy"])
    assert code == 0
    payload = json.loads(out)
    validate("hierarchy.schema.json", payload)
    assert payload["dot"].startswith("digraph")


def test_usage_error_exit_code():
    assert run(["no-such-verb"])[0] == 64
    assert run([])[0] == 64
    assert run(["translate", "p"])[0] == 64  # missing --to


def test_parse_error_exit_code():
    assert run(["parse", "p |"])[0] == 65


def test_cap_exit_code():
    code, _, err = run(["--cap", "5", "sat", "--engine", "brute", "<a>p & <a>q"])
    assert code == 69


def test_cap_does_not_clamp_the_world_bound():
    # <a><a>T needs three worlds: a cap of two trees runs out before them
    # instead of certifying UNSAT at a two-world bound.
    argv = ["sat", "--engine", "brute", "--max-worlds", "5", "<a><a>T"]
    assert run(["--cap", "2"] + argv)[0] == 69
    assert run(["--cap", "3"] + argv)[0] == 0
    assert run(["--cap", "2", "sat", "--engine", "brute", "<a><a>T"])[0] == 69


def test_sat_max_worlds_zero_is_not_the_full_bound():
    # 0 is a bound like any other, not a request for the default.
    code, out, err = run(["sat", "--engine", "brute", "--max-worlds", "0", "p"])
    assert (code, out) == (65, "")
    assert err == "error: max_worlds must be at least 1\n"


def test_default_max_worlds_is_the_full_bound():
    # tree_model_bound is 12,356,631 here, above the default model cap, but
    # the enumerated class has at most 27 nodes and no model in it.
    text = "[a][a][a][a][a]p & [a]F" + " & <a>T" * 26
    code, out, _ = run(["sat", "--engine", "brute", text])
    assert (code, out.strip()) == (1, "UNSAT")


def test_internal_error_exit_code(monkeypatch):
    monkeypatch.setattr("knfrag.solver.check", lambda model, world, f: False)
    code, out, err = run(["sat", "<a>p"])
    assert code == 70
    assert out == "" and err.startswith("internal error:")


# --- the parser built once at import ---


def cli_process_args(argv, flags=()):
    """The command and environment that run the command line in a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return [sys.executable, *flags, "-m", "knfrag.cli", *argv], env


def run_process(argv, flags=(), input=None):
    command, env = cli_process_args(argv, flags)
    return subprocess.run(command, input=input, capture_output=True, text=True, env=env,
                          timeout=60)


def run_module(*flags):
    return run_process(["--json", "parse", "p & q"], flags)


def test_cli_runs_without_docstrings():
    plain = run_module()
    optimised = run_module("-OO")
    assert optimised.returncode == 0, optimised.stderr
    assert plain.returncode == 0, plain.stderr
    assert optimised.stdout == plain.stdout
    assert json.loads(optimised.stdout)["formula"] == "p & q"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each command starts a fresh interpreter; the records are plain slot
    # classes, so importing the command line pays for no dataclass machinery,
    # and a replay run keeps its reports in a local dict, not a context variable.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    script = ("import sys, knfrag.cli; "
              "print(sorted({'contextvars', 'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_world_option_does_not_carry_over(model_file):
    assert run(["check", model_file, "<a>p", "--world", "w1"])[:2] == (1, "false\n")
    assert run(["check", model_file, "<a>p"])[:2] == (0, "true\n")
    code, out, _ = run(["--json", "check", model_file, "<a>p"])
    assert code == 0 and json.loads(out) == {"result": True, "world": "w0"}


def test_cap_option_does_not_carry_over():
    argv = ["sat", "--engine", "brute", "--max-worlds", "5", "<a><a>T"]
    assert run(["--cap", "2"] + argv)[0] == 69
    code, out, _ = run(argv)
    assert code == 0 and out.startswith("SAT\n")


def test_usage_error_does_not_carry_over():
    code, out, err = run(["sat", "--engine", "nope", "p"])
    assert code == 64 and out == "" and "invalid choice" in err
    assert run(["parse", "p|q"]) == (0, "p | q\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["sat", "--help"]])
def test_help_matches_a_fresh_parser(argv):
    expected = run(argv, entry=cli._build_parser().parse_args)
    assert expected[0] == 0 and expected[1].startswith("usage: knfrag")
    assert run(argv) == expected
    assert run(["parse", "p|q"])[:2] == (0, "p | q\n")


def test_shared_parser_across_threads(model_file):
    requests = [
        ["parse", "p|q"],
        ["--json", "classify", "p & q -> r"],
        ["check", model_file, "<a>p", "--world", "w1"],
        ["check", model_file, "[a]p"],
        ["--cap", "7", "sat", "--engine", "brute", "--max-worlds", "3", "<a>p"],
        ["sat", "p & ~p"],
        ["translate", "--to", "diamond", "[a]p -> q"],
        ["equiv", "--mode", "strong", "p", "q"],
    ]
    fresh = cli._build_parser()
    expected = [vars(fresh.parse_args(argv)) for argv in requests]
    got = [[] for _ in requests]
    barrier = threading.Barrier(len(requests), timeout=60)

    def worker(i):
        barrier.wait()
        for _ in range(200):
            got[i].append(vars(cli._PARSER.parse_args(requests[i])))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(requests))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert got[i] == [want] * 200


# --- bounds below one ---


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["equiv", "p", "q"],
    ["equiv", "--mode", "strong", "p", "~p"],
    ["search", "--fragment", "horn", "--size", "3", "p"],
])
def test_max_worlds_below_one_is_a_data_error(argv, bound):
    code, out, err = run(argv + ["--max-worlds", bound])
    assert (code, out) == (65, "")
    assert err == "error: max_worlds must be at least 1\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("engine, name", [([], "node_cap"), (["--engine", "brute"], "model_cap")])
def test_cap_below_one_is_a_data_error(engine, name, bound):
    code, out, err = run(["--cap", bound, "sat", *engine, "p"])
    assert (code, out) == (65, "")
    assert err == f"error: {name} must be at least 1\n"


# --- input nested past the recursion limit ---


@pytest.mark.parametrize("argv", [
    ["sat", "~" * 3000 + "p"],
    ["sat", " & ".join(["p"] * 1000)],
])
def test_deep_input_is_a_resource_cap_without_traceback(argv):
    done = run_process(argv)
    assert done.returncode == 69
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("resource cap exceeded:")
    assert done.stderr.count("\n") == 1


# --- deep input: the verbs that only parse, print and walk read it in loops ---

DEEP = {
    "negations": "~" * 3000 + "p",
    "negations-1e5": "~" * 100_000 + "p",
    "parentheses": "(" * 1200 + "p" + ")" * 1200,
    "parentheses-1e5": "(" * 100_000 + "p" + ")" * 100_000,
    "diamonds": "<a>" * 3000 + "p",
    "and-or": "(" * 3000 + "p" + "".join(") & q" if i % 2 else ") | q" for i in range(3000)),
}
SEARCH = ["search", "--fragment", "horn", "--size", "3", "-"]


# Short ids: a test id holding the text would reach the child's environment.
# `printed` is the expected output, "same" for the input itself, or None.
@pytest.mark.parametrize("argv, deep, code, printed", [
    (["parse", "-"], "negations", 0, "same"),
    (["parse", "-"], "negations-1e5", 0, "same"),
    (["parse", "-"], "parentheses-1e5", 0, "p"),
    (["parse", "-"], "diamonds", 0, "same"),
    (["classify", "-"], "negations", 65, None),
    (["classify", "-"], "parentheses", 0, None),
    (["classify", "-"], "diamonds", 0, None),
    (["classify", "-"], "and-or", 65, None),
    (["equiv", "-", "p"], "negations", 0, None),
    (["equiv", "-", "p"], "parentheses", 0, None),
    (["equiv", "-", "p"], "diamonds", 1, None),
    (["equiv", "-", "p"], "and-or", 1, None),
    (SEARCH, "negations", 0, "p"),
    (SEARCH, "parentheses", 0, "p"),
    (SEARCH, "and-or", 0, "q"),
    (["translate", "--to", "box", "-"], "negations", 65, None),
    (["translate", "--to", "box", "-"], "parentheses", 0, "p"),
    (["translate", "--to", "diamond", "-"], "and-or", 65, None),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_deep_input_is_answered_without_traceback(argv, deep, code, printed):
    done = run_process(argv, input=DEEP[deep])
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == (code == 65)
    if printed is not None:
        assert done.stdout == (DEEP[deep] if printed == "same" else printed) + "\n"


@pytest.mark.parametrize("deep, modalities", [("negations-1e5", []), ("diamonds", ["a"])])
def test_deep_input_parses_to_its_letters_and_modalities(deep, modalities):
    done = run_process(["--json", "parse", "-"], input=DEEP[deep])
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert payload == {"formula": DEEP[deep], "letters": ["p"], "modalities": modalities}


# --- equiv: the tableau proof after the one-world models, and its depth guard ---


def test_equiv_of_a_deep_diamond_against_it_and_t_skips_the_proof():
    # Modal depth 3,000 is past the proof's guard (the tableau recurses per
    # modal level), so the 2-world models are valued, as without the proof.
    deep = "<a>" * 3000 + "p"
    done = run_process(["equiv", "--max-worlds", "2", "-", f"({deep}) & T"], input=deep)
    assert (done.returncode, done.stdout, done.stderr) == (0, "EQUIVALENT_UP_TO_BOUND\n", "")


def test_equiv_of_a_clause_chain_against_it_and_t_is_proved():
    # 8 clauses (p_i | <a>q_i): 16 letters, 2**36 models at 2 worlds; the
    # tableau answers in tens of milliseconds, where valuing the models ran
    # past 10 s.
    chain = " & ".join(f"(p{i} | <a>q{i})" for i in range(8))
    done = run_process(["equiv", chain, f"{chain} & T"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "EQUIVALENT_UP_TO_BOUND\n", "")


# --- long flat conjunctions: parse, classify and translate walk them iteratively ---

FLAT_CLAUSES = 10_000
FLAT_INPUT = " & ".join(f"(p{i} | <a>q{i})" for i in range(FLAT_CLAUSES))


def run_flat(monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(FLAT_INPUT))
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    return out


def test_parse_flat_conjunction(monkeypatch):
    out = run_flat(monkeypatch, ["parse", "-"])
    # `==` on the And chain itself would recurse; its clauses compare flat
    assert recognize_clausal(parse(out)) == recognize_clausal(parse(FLAT_INPUT))


def test_classify_flat_conjunction(monkeypatch):
    payload = json.loads(run_flat(monkeypatch, ["--json", "classify"]))
    assert payload == {"horn": False, "krom": True, "core": False,
                       "box_only": False, "diamond_only": True, "clauses": FLAT_CLAUSES}


@pytest.mark.parametrize("to, clauses, flag", [
    ("box", 2 * FLAT_CLAUSES, "box_only"),
    ("diamond", FLAT_CLAUSES, "diamond_only"),
])
def test_translate_flat_conjunction(monkeypatch, to, clauses, flag):
    out = run_flat(monkeypatch, ["translate", "--to", to, "-"])
    cf = recognize_clausal(parse(out))
    assert len(cf.clauses) == clauses
    fragment = classify(cf)
    assert fragment.krom and getattr(fragment, flag)


# --- option and bound checks ---


@pytest.mark.parametrize("engine", [[], ["--engine", "tableau"]])
@pytest.mark.parametrize("bound", ["0", "-5", "3"])
def test_sat_max_worlds_needs_the_brute_engine(engine, bound):
    for text in ("p", "p & ~p"):
        code, out, err = run(["sat", *engine, "--max-worlds", bound, text])
        assert (code, out) == (64, "")
        assert err == "knfrag sat: error: --max-worlds needs --engine brute\n"


@pytest.mark.parametrize("argv", [
    ["--cap", "0", "parse", "p"],
    ["--cap", "1", "classify", "p"],
    ["--cap", "1", "check", "no-such-model.json", "p"],
    ["--cap", "1", "translate", "--to", "box", "<a>p"],
    ["--cap", "1", "equiv", "p", "q"],
    ["--cap", "1", "search", "--fragment", "horn", "--size", "3", "p | q"],
    ["--cap", "1", "verify-paper"],
    ["--cap", "1", "hierarchy"],
], ids=lambda argv: argv[2])
def test_cap_applies_to_sat_only(argv):
    code, out, err = run(argv)
    assert (code, out) == (64, "")
    assert err == f"knfrag {argv[2]}: error: --cap applies to sat only\n"


def test_sat_max_worlds_with_the_brute_engine_is_unchanged():
    argv = ["sat", "--engine", "brute", "--max-worlds"]
    assert run(argv + ["3", "<a>p"])[:2] == (0, run(["sat", "--engine", "brute", "<a>p"])[1])
    assert run(argv + ["3", "p & ~p"])[:2] == (1, "UNSAT\n")
    for bound in ("0", "-5"):
        assert run(argv + [bound, "p"]) == (65, "", "error: max_worlds must be at least 1\n")


def test_unwritable_sidecar_is_a_cantcreat_exit():
    path = "/nonexistent/dir/x.json"
    done = run_process(["translate", "--to", "box", "<a>p", "--sidecar", path])
    assert (done.returncode, done.stdout) == (73, "")
    assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1
    assert done.stderr == f"cannot write {path}: No such file or directory\n"


# --- output that cannot be written, and Ctrl-C: documented exits, no traceback ---


def run_to(stdout, argv, flags=()):
    command, env = cli_process_args(argv, flags)
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


@contextmanager
def closed_pipe():
    """The write end of a pipe whose reader is gone before any child starts,
    so that every write fails, however soon it comes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


@pytest.mark.parametrize("flags", [(), ("-OO",)])
def test_closed_pipe_is_an_ioerr_exit(flags):
    with closed_pipe() as stdout:
        done = run_to(stdout, ["verify-paper"], flags)
    assert (done.returncode, done.stderr) == (74, "i/o error: Broken pipe\n")


@pytest.mark.parametrize("flags", [(), ("-OO",)])
@pytest.mark.parametrize("argv", [["--help"], ["parse", "--help"]])
def test_help_into_a_closed_pipe_is_an_ioerr_exit(argv, flags):
    # argparse's own writer swallows the failed write and exits 0.
    with closed_pipe() as stdout:
        done = run_to(stdout, argv, flags)
    assert (done.returncode, done.stderr) == (74, "i/o error: Broken pipe\n")


def test_closed_pipe_leaves_stdout_on_the_null_device():
    # So that no interpreter's flush at exit meets the closed pipe again.
    script = ("import os, sys\n"
              "from knfrag.cli import main\n"
              "code = main(['verify-paper'])\n"
              "null = os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(os.devnull))\n"
              "sys.stderr.write(f'{code} {null}\\n')\n")
    _, env = cli_process_args([])
    with closed_pipe() as stdout:
        done = subprocess.run([sys.executable, "-c", script], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "i/o error: Broken pipe\n74 True\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("flags", [(), ("-OO",)])
def test_full_disk_is_an_ioerr_exit(flags):
    with open("/dev/full", "w") as full:
        done = run_to(full, ["parse", "p"], flags)
    assert (done.returncode, done.stderr) == (74, "i/o error: No space left on device\n")


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child")
@pytest.mark.parametrize("flags", [(), ("-OO",)])
def test_interrupt_is_exit_130(flags):
    # Brute force on this chain runs for minutes; the signal comes after 1 s.
    # The child gets SIGINT's default disposition, since Python installs no
    # KeyboardInterrupt handler when it starts with SIGINT ignored, as a job
    # put in the background by a non-interactive shell does.
    chain = " & ".join(f"(p{i} | <a>q{i})" for i in range(100))
    command, env = cli_process_args(["sat", "--engine", "brute", chain], flags)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env,
                             preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        time.sleep(1)
        assert child.poll() is None, "the run ended before it was interrupted"
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "interrupted\n")


@pytest.mark.skipif(resource is None, reason="no address-space limit on this system")
def test_out_of_memory_is_a_resource_cap_without_traceback():
    # Parsing ~ x 3,000,000 p takes more than 200,000 KiB of address space
    # (the command line alone about 20,000); the limit is set in the child
    # only.  The child runs for 2.5-3 s (2 CPUs, CPython 3.11.7).
    limit = 200_000 * 1024
    command, env = cli_process_args(["parse", "-"])
    done = subprocess.run(command, input="~" * 3_000_000 + "p", capture_output=True, text=True,
                          env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout, done.stderr) == (69, "", "resource cap exceeded: out of memory\n")


@pytest.mark.parametrize("size", ["0", "-3"])
def test_search_size_below_one_is_a_data_error(size):
    code, out, err = run(["search", "--fragment", "horn", "--size", size, "p | q"])
    assert (code, out) == (65, "")
    assert err == "error: formula_size_bound must be at least 1\n"


def test_search_target_outside_the_alphabet_is_a_data_error():
    code, out, err = run(["search", "--fragment", "horn", "--size", "3", "--alphabet", "p",
                          "p | q"])
    assert (code, out) == (65, "")
    assert err == "error: target mentions letters outside the alphabet\n"


# --- verify-paper: one run replays each catalogued result once ---

# sha256 of `--json verify-paper` stdout, taken before corollaries cited
# results by id; the output is the same byte for byte.
VERIFY_PAPER_SHA256 = {
    None: "a3ddeb22641f24aacbc69a1b92a4a84664a81521b9f07fb67055d1612a8236e8",
    "horn-vs-bool": "381b6c83a1a0977ec2e17f6dd61fa3dfe09c769d7b221d7e16b5f46e6b79538f",
    "krom-vs-bool": "6a36c25543b824eaedd416dbfb8594cbf18ded41d1290388d7aa6e3d695f8dc7",
    "intersection-closure": "920ffe8ad3b744827589667c26eca6f7d4fa47dfa97c37603055387459bd47a9",
    "hornbox-vs-horn": "9e629c4ed3b68b30c47fa25a262eb9025200a539f043842b447781b958d27c8a",
    "product-closure": "a8962c44c7fc53b0656b55f98ccdf18f28a0f592300564d7af0bfadaf749c00c",
    "horndia-vs-horn": "39fd1f9842842b4faa3c4b85452d3b3c116c62269fb486a1c01900af3d8f58af",
    "krombox-equiv": "2e88c475e436e61d7d6d813e9de75e29a6979475aaed46572e4edc7f02efe6b6",
    "kromdia-equiv": "886a3b859d0ece8cb91aa13d0c0d5dd39436a9d76957684d786e6ddde8235608",
    "horn-krom-incomparable": "fab753ac7659117c38781e395ca9a90d07b4b7038d06bd2976f3a1edd04cd744",
    "box-dia-incomparable": "4bda902f7fc937ef30e7155992f08f4655e85d0ee2cd2587107754558f8807ca",
}


def verify_paper(theorem_id=None):
    return run(["--json", "verify-paper"] + (["--id", theorem_id] if theorem_id else []))


@pytest.mark.parametrize("theorem_id", VERIFY_PAPER_SHA256)
def test_verify_paper_output_is_pinned(theorem_id):
    code, out, err = verify_paper(theorem_id)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256[theorem_id]


def test_verify_paper_pins_cover_the_catalogue():
    assert set(VERIFY_PAPER_SHA256) == {None, *THEOREM_IDS}


def test_verify_paper_replays_each_result_once(monkeypatch):
    replay_counts = count_replays(monkeypatch)
    assert verify_paper()[0] == 0
    assert replay_counts == dict.fromkeys(THEOREM_IDS, 1)


def test_verify_paper_id_replays_its_cited_results_once(monkeypatch):
    replay_counts = count_replays(monkeypatch)
    code, out, _ = verify_paper("box-dia-incomparable")
    assert code == 0
    assert {json.loads(line)["theorem"] for line in out.splitlines()} == {"box-dia-incomparable"}
    cited = {"box-dia-incomparable", "hornbox-vs-horn", "horndia-vs-horn",
             "krombox-equiv", "kromdia-equiv"}
    assert replay_counts == {t: int(t in cited) for t in THEOREM_IDS}


def test_verify_paper_memo_is_per_run(monkeypatch):
    replay, cites = expressiveness._CATALOGUE["krombox-equiv"]
    monkeypatch.setitem(expressiveness._CATALOGUE, "krombox-equiv",
                        (lambda texts, clausal: [("patched to fail", False)], cites))
    code, out, _ = verify_paper()
    assert code == 1
    overall = {line["theorem"]: line["overall"]
               for line in map(json.loads, out.splitlines()) if "overall" in line}
    assert [t for t, ok in overall.items() if not ok] == ["krombox-equiv", "box-dia-incomparable"]
    monkeypatch.setitem(expressiveness._CATALOGUE, "krombox-equiv", (replay, cites))
    for theorem_id in (None, "box-dia-incomparable"):
        code, out, _ = verify_paper(theorem_id)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256[theorem_id]


@pytest.mark.parametrize("theorem_id, parses, recognized", [
    (None, 26, 19),
    ("box-dia-incomparable", 18, 14),
    ("krombox-equiv", 10, 7),
], ids=["all", "box-dia-incomparable", "krombox-equiv"])
def test_verify_paper_reads_each_text_once_per_run(theorem_id, parses, recognized, monkeypatch):
    # One run parses each catalogue text it reads once, and recognizes each
    # clausal one once, however many replays read it; a second run starts over.
    counts = {"parse": 0, "recognize_clausal": 0}
    for name in counts:
        def counted(text, _name=name, _read=getattr(expressiveness, name)):
            counts[_name] += 1
            return _read(text)
        monkeypatch.setattr(expressiveness, name, counted)
    for _ in range(2):
        code, out, _ = verify_paper(theorem_id)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256[theorem_id]
    assert counts == {"parse": 2 * parses, "recognize_clausal": 2 * recognized}


@pytest.mark.parametrize("outcomes", [(True, False, True, True, False), (True,) * 5],
                         ids=["failing", "passing"])
def test_verify_paper_lines_are_sorted_keys_json(outcomes, monkeypatch):
    # Each line is written from a template; its strings must be escaped as
    # json.dumps escapes them, also where no catalogue text needs it.
    descriptions = ['a "quoted" step', "a back\\slash", "a new\nline and a\ttab",
                    "a non-ASCII letter: ä", "a line separator \u2028 and \U0001F600"]
    steps = list(zip(descriptions, outcomes))
    monkeypatch.setitem(expressiveness._CATALOGUE, "horn-vs-bool",
                        (lambda texts, clausal: steps, ()))
    code, out, err = verify_paper("horn-vs-bool")
    assert (code, err) == (0 if all(outcomes) else 1, "")
    objects = [{"theorem": "horn-vs-bool", "step": text, "pass": ok} for text, ok in steps]
    objects.append({"theorem": "horn-vs-bool", "overall": all(outcomes)})
    assert out == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)
