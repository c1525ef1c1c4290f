"""Three independent satisfiability oracles on one seeded corpus.

The tableau decides `weak_equiv_check` and `strong_translation_check`
verdicts once their one-world models agree, so its UNSAT answers are
checked here against two engines that share none of its code: brute force
over canonical tree models up to `tree_model_bound`, and the bitsliced
batches at 2 worlds, valued by `helpers.program_value` (post-order stack
code, not the NNF table the tableau reads).  The bounded checks are not
called.
"""

import random

from knfrag.semantics import valuation_batches
from knfrag.solver import (
    SAT,
    UNSAT,
    CapExceeded,
    sat_bruteforce,
    sat_tableau,
    tree_model_bound,
)
from knfrag.syntax import formula_modalities, letters
from helpers import compile_formula, program_value, random_formula, random_modal_3cnf, table_check

WORLDS = 2  # the bitsliced oracle's world bound
NODE_CAP, MODEL_CAP = 5_000, 300  # per formula; answers past a cap are counted


def _corpus():
    rng = random.Random("three-oracles")
    corpus = [random_formula(rng, 5, ("p", "q"), ("a", "b")) for _ in range(10_000)]
    for depth in (1, 2):
        for clauses in range(5, 21):
            corpus += [random_modal_3cnf(rng, clauses, 3, depth) for _ in range(3)]
    return corpus


def _bitsliced_model(f):
    """The first pointed model of f with at most WORLDS worlds, or None."""
    program = compile_formula(f)
    for batch in valuation_batches(letters(f), formula_modalities(f), WORLDS):
        value = program_value(batch, program)
        if value:
            return batch.first_difference(value, value)[0]
    return None


def _tableau(f):
    try:
        return sat_tableau(f, node_cap=NODE_CAP)
    except CapExceeded:
        return None


def _brute(f):
    try:
        return sat_bruteforce(f, tree_model_bound(f), model_cap=MODEL_CAP)
    except CapExceeded:
        return None


def test_tableau_brute_force_and_bitsliced_batches_agree():
    corpus = _corpus()
    counts = {"formulas": len(corpus), "unsat": 0, "tableau capped": 0, "brute capped": 0}
    for f in corpus:
        tableau, brute, small = _tableau(f), _brute(f), _bitsliced_model(f)
        for result in (tableau, brute):
            if result is not None and result.status == SAT:
                assert table_check(result.witness.model, result.witness.world, f), str(f)
        if small is not None:
            assert table_check(small.model, small.world, f), str(f)
        if tableau is None:
            counts["tableau capped"] += 1
        else:
            counts["unsat"] += tableau.status == UNSAT
            # A model on at most WORLDS worlds means SAT, and a tableau
            # witness that small is a model the batches cover.
            if small is not None:
                assert tableau.status == SAT, str(f)
            elif tableau.status == SAT:
                assert len(tableau.witness.model.frame.worlds) > WORLDS, str(f)
        if brute is None:
            counts["brute capped"] += 1
        elif tableau is not None:
            # Brute force runs to `tree_model_bound`, so it never answers
            # UNKNOWN_AT_BOUND.
            assert brute.status == tableau.status, str(f)
    print(", ".join(f"{value:,} {name}" for name, value in counts.items()))
    assert counts["unsat"] > 0
