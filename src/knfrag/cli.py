"""Command-line front end.

Verbs: parse, classify, check, sat, translate, equiv, search, verify-paper,
hierarchy.  Formulas come from the command line or stdin; models come from
JSON files.  `--json` switches every verb to machine-readable output.

Exit codes: 64 usage, 65 bad formula or model data, 66 unreadable file,
69 resource cap (a solver cap, or input nested too deeply for the
recursion limit), 70 internal error (a guarantee the library re-checks
failed, which is a bug in knfrag), 73 unwritable `translate --sidecar`
file, 74 failed input or output (stdout closed by its reader, or a full
disk), 130 interrupted (Ctrl-C: 128 + SIGINT).  `sat` exits 0/1/2 for
satisfiable / unsatisfiable / unknown at the bound; `check` exits 0/1 for
true/false; `equiv` and `search` exit 0/1 for found/not.

The argument parser is built once, when the module is imported, and every
`main` call parses into a fresh namespace, so calls share no state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .expressiveness import (
    EQUIVALENT_UP_TO_BOUND,
    THEOREM_IDS,
    replay_theorems,
    search_weak_translation,
    strong_translation_check,
    weak_equiv_check,
)
from .hierarchy import hierarchy_dot
from .semantics import check, model_from_json, model_to_json
from .solver import (
    CapExceeded,
    DEFAULT_MODEL_CAP,
    DEFAULT_NODE_CAP,
    SAT,
    UNKNOWN_AT_BOUND,
    UNSAT,
    sat_bruteforce,
    sat_tableau,
)
from .syntax import (
    InternalError,
    NotClausalError,
    ParseError,
    _nnf_table,
    classify,
    letters,
    parse,
    recognize_clausal,
    to_text,
)
from .translate import fresh_letters_of, krom_to_krom_box, krom_to_krom_diamond

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_UNAVAILABLE = 69
EX_SOFTWARE = 70
EX_CANTCREAT = 73
EX_IOERR = 74
EX_INTERRUPTED = 130  # 128 + SIGINT


class _ArgumentParser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer swallows a failed write; `main` maps it to exit 74.
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _read_formula(text: str | None) -> str:
    if text is None or text == "-":
        return sys.stdin.read()
    return text


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as e:
        sys.stderr.write(f"cannot read {path}: {e}\n")
        raise SystemExit(EX_NOINPUT)
    except json.JSONDecodeError as e:
        sys.stderr.write(f"bad JSON in {path}: {e}\n")
        raise SystemExit(EX_DATAERR)
    return model_from_json(data)


def _emit(args, payload: dict, plain: str, detail: dict | None = None):
    """Print the JSON payload, or the plain line followed by `detail` as a
    JSON line when there is one."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)
        if detail is not None:
            print(json.dumps(detail, sort_keys=True))


def _cmd_parse(args) -> int:
    f = parse(_read_formula(args.formula))
    text = to_text(f)
    _, _, reads, _, mods = _nnf_table(f)
    payload = {"formula": text, "letters": sorted(reads), "modalities": sorted(map(str, mods))}
    _emit(args, payload, text)
    return 0


def _cmd_classify(args) -> int:
    f = parse(_read_formula(args.formula))
    cf = recognize_clausal(f)
    d = classify(cf)
    payload = dict(d.as_dict(), clauses=len(cf.clauses))
    plain = ", ".join(f"{k}={v}" for k, v in payload.items())
    _emit(args, payload, plain)
    return 0


def _cmd_check(args) -> int:
    model, designated = _load_model(args.model)
    world = args.world or designated
    if world is None:
        sys.stderr.write("no world: the model has no designated world and --world was not given\n")
        return EX_DATAERR
    f = parse(_read_formula(args.formula))
    result = check(model, world, f)
    _emit(args, {"result": result, "world": world}, "true" if result else "false")
    return 0 if result else 1


def _cmd_sat(args) -> int:
    if args.max_worlds is not None and args.engine != "brute":
        sys.stderr.write("knfrag sat: error: --max-worlds needs --engine brute\n")
        return EX_USAGE
    f = parse(_read_formula(args.formula))
    if args.engine == "brute":
        cap = args.cap if args.cap is not None else DEFAULT_MODEL_CAP
        result = sat_bruteforce(f, args.max_worlds, model_cap=cap)
    else:
        cap = args.cap if args.cap is not None else DEFAULT_NODE_CAP
        result = sat_tableau(f, node_cap=cap)
    payload = {"status": result.status}
    if result.witness is not None:
        payload["witness"] = model_to_json(result.witness.model, result.witness.world)
    _emit(args, payload, result.status, payload.get("witness"))
    return {SAT: 0, UNSAT: 1, UNKNOWN_AT_BOUND: 2}[result.status]


def _cmd_translate(args) -> int:
    f = parse(_read_formula(args.formula))
    cf = recognize_clausal(f)
    translated = krom_to_krom_box(cf) if args.to == "box" else krom_to_krom_diamond(cf)
    fresh = fresh_letters_of(cf, translated)
    sidecar = {"to": args.to, "formula": str(translated), "fresh_letters": fresh}
    if args.sidecar:
        try:
            with open(args.sidecar, "w", encoding="utf-8") as handle:
                json.dump(sidecar, handle, sort_keys=True)
                handle.write("\n")
        except OSError as e:
            sys.stderr.write(f"cannot write {args.sidecar}: {e.strerror or e}\n")
            return EX_CANTCREAT
    _emit(args, sidecar, sidecar["formula"])
    return 0


def _cmd_equiv(args) -> int:
    f = parse(_read_formula(args.left))
    g = parse(args.right)
    if args.mode == "weak":
        verdict = weak_equiv_check(f, g, max_worlds=args.max_worlds)
    else:
        verdict = strong_translation_check(f, g, max_worlds=args.max_worlds)
    payload = {"status": verdict.status}
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        payload["counterexample"] = model_to_json(ce.pointed.model, ce.pointed.world)
        payload["details"] = ce.details
    _emit(args, payload, verdict.status, payload.get("counterexample"))
    return 0 if verdict.status == EQUIVALENT_UP_TO_BOUND else 1


def _cmd_search(args) -> int:
    target = parse(_read_formula(args.target))
    found = search_weak_translation(
        target,
        args.fragment,
        letters(target) if args.alphabet is None else set(args.alphabet.split(",")),
        args.size,
        max_worlds=args.max_worlds,
    )
    if found is None:
        _emit(args, {"found": None}, "not found")
        return 1
    _emit(args, {"found": str(found)}, str(found))
    return 0


def _cmd_verify_paper(args) -> int:
    reports = replay_theorems([args.id] if args.id else THEOREM_IDS)
    # Each line is json.dumps(obj, sort_keys=True) written out: sorted keys, its
    # separators, and each string escaped as its default ensure_ascii does.
    quote, spell, lines = encode_basestring_ascii, ("false", "true"), []
    for report in reports:
        theorem = quote(report.theorem)
        for step, ok in report.steps:
            lines.append(f'{{"pass": {spell[ok]}, "step": {quote(step)}, "theorem": {theorem}}}\n')
        lines.append(f'{{"overall": {spell[report.overall]}, "theorem": {theorem}}}\n')
    sys.stdout.write("".join(lines))
    return 0 if all(report.overall for report in reports) else 1


def _cmd_hierarchy(args) -> int:
    dot = hierarchy_dot()
    if args.json:
        print(json.dumps({"dot": dot}, sort_keys=True))
    else:
        sys.stdout.write(dot)
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="knfrag",
        description="Sub-propositional fragments of multi-modal K: "
        "parse, classify, check, solve, translate, compare.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="resource ceiling for sat only (enumerated trees or tableau nodes)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("formula", nargs="?", help="formula text (stdin when omitted)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("classify", help="fragment membership of a clausal formula")
    p.add_argument("formula", nargs="?")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="truth of a formula at a world of a model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formula", nargs="?")
    p.add_argument("--world", help="world to check at (default: the designated one)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sat", help="satisfiability")
    p.add_argument("formula", nargs="?")
    p.add_argument("--engine", choices=("brute", "tableau"), default="tableau")
    p.add_argument("--max-worlds", type=int, default=None, dest="max_worlds")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("translate", help="rewrite a Krom formula into a restricted fragment")
    p.add_argument("formula", nargs="?")
    p.add_argument("--to", choices=("box", "diamond"), required=True)
    p.add_argument("--sidecar", help="write a JSON sidecar with the fresh letters here")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("equiv", help="bounded equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    p.add_argument("--max-worlds", type=int, default=3, dest="max_worlds")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("search", help="bounded search for a weak translation")
    p.add_argument("target", nargs="?")
    p.add_argument("--fragment", required=True, help="horn, krom, core, horn-box, ...")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max-worlds", type=int, default=3, dest="max_worlds")
    p.add_argument("--alphabet", help="comma-separated letters (default: the target's)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-paper", help="replay the catalogued results")
    p.add_argument("--id", choices=THEOREM_IDS, help="replay one result only")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("hierarchy", help="print the fragment hierarchy as DOT")
    p.set_defaults(func=_cmd_hierarchy)

    return parser


_PARSER = _build_parser()


def _discard_stdout():
    """Point stdout's file descriptor, if it has one, at the null device, so
    that the interpreter's flush at exit meets no closed pipe (the note on
    SIGPIPE in the `signal` module's documentation)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.cap is not None and args.verb != "sat":
            sys.stderr.write(f"knfrag {args.verb}: error: --cap applies to sat only\n")
            return EX_USAGE
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EX_DATAERR
    except NotClausalError as e:
        sys.stderr.write(f"not in clausal form: {e}\n")
        return EX_DATAERR
    except CapExceeded as e:
        sys.stderr.write(f"resource cap exceeded: {e}\n")
        return EX_UNAVAILABLE
    except InternalError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EX_SOFTWARE
    except RecursionError:
        sys.stderr.write("resource cap exceeded: input nested past the recursion limit\n")
        return EX_UNAVAILABLE
    except MemoryError:
        sys.stderr.write("resource cap exceeded: out of memory\n")
        return EX_UNAVAILABLE
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EX_DATAERR
    except OSError as e:
        if isinstance(e, BrokenPipeError):
            _discard_stdout()
        sys.stderr.write(f"i/o error: {e.strerror or e}\n")
        return EX_IOERR
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EX_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
