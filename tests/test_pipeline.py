"""The request pipeline: the kind table, one deadline, one timeout path.

The differential test runs every kind of the table through
compute_reason + validate_reason on small random forests and checks the
sufficient and majoritary kinds against the exhaustive brute oracles.
"""

import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.cli import (
    KIND_TABLE,
    KINDS,
    _EXACT,
    ExplainSettings,
    compute_reason,
    is_partial,
    validate_reason,
)
from rfreasons import cli, explain
from rfreasons.core import RandomForest, Term, cnf_to_forest, normalize
from rfreasons.encodings import implicant_test_cnf
from rfreasons.explain import ReasonKind
from rfreasons.solver import Deadline

import brute
from conftest import X_NEG, X_POS, orchid_trees
from generators import random_forest, random_instance

# the only kinds whose reasons carry a cost, and so can stop short of
# proving it minimal
MINIMAL_KINDS = {"minimal-majoritary", "minimal-weight", "minimal-sufficient"}


def test_table_covers_every_kind_and_label():
    assert set(KINDS) == set(KIND_TABLE)
    # each kind's output label is its name with "_" for "-"
    assert {ReasonKind(kind.replace("-", "_")) for kind in KINDS} == set(ReasonKind)


def test_timeout_bounds_the_whole_request():
    # without a deadline the search takes about 0.3 s, over ten times the
    # budget, so the deadline and not the search's end must stop it; with
    # the budget the request takes about 0.03 s
    forest = random_forest(random.Random(1), 100, 81, 8, 0.1)
    x = random_instance(random.Random(2), 100)
    budget, slack = 0.02, 0.1
    start = time.perf_counter()
    reason = compute_reason(forest, x, ExplainSettings(kind="sufficient", timeout=budget))
    wall = time.perf_counter() - start
    assert wall <= budget + slack
    assert is_partial(reason) and reason.extras["fallback"] == "timeout"
    assert 0 < reason.elapsed <= wall
    validate_reason(forest, reason)


@pytest.mark.parametrize("x", [X_POS, X_NEG])
def test_zero_timeout_gives_every_kind_a_valid_reason(x):
    forest = RandomForest(orchid_trees())
    for model in (forest, RandomForest([forest.trees[0]])):
        for kind in KINDS:
            if KIND_TABLE[kind].single_tree and model.tree_count > 1:
                continue
            s = replace(_settings(kind, model, x, "majority"), timeout=0)
            reason = compute_reason(model, x, s)
            if reason is None:
                assert kind == "comprehensible"
                continue
            validate_reason(model, reason)
            cut = kind in MINIMAL_KINDS or (kind == "sufficient" and model.tree_count > 1)
            assert is_partial(reason) == cut, kind
            assert (reason.cost is not None) == (kind in MINIMAL_KINDS), kind


@pytest.mark.parametrize("seed", [1, 2])  # x of class 1, then 0
def test_majoritary_permutations_stop_at_the_deadline(seed):
    # the deadline is checked before each order: a zero budget runs none
    # and falls back to t_x; without a budget, or with one far off, every
    # order runs and the reason is the best of them, not flagged
    forest = random_forest(random.Random(7), 12, 9, 5, 0.1)
    x = random_instance(random.Random(seed), 12)
    s = ExplainSettings(kind="majoritary", permutations=50)
    cut = compute_reason(forest, x, replace(s, timeout=0))
    validate_reason(forest, cut)
    assert is_partial(cut) and cut.term == Term.of_instance(x)
    whole = compute_reason(forest, x, s)
    masks = [t.disagreement_masks(x) for t in normalize(forest, x).trees]
    assert whole.term == explain.best_of_orders(masks, x, 50, explain.DEFAULT_SEED)[0]
    assert not is_partial(whole) and "fallback" not in whole.extras
    far = compute_reason(forest, x, replace(s, timeout=3600.0))
    assert far.term == whole.term and not is_partial(far)
    # cut between orders: the best of those run, a valid reason
    some = explain.majoritary_reason_multi(forest, x, 10**7, deadline=Deadline.after(0.01))
    assert some.extras["fallback"] == "timeout"
    validate_reason(forest, some)


@pytest.mark.parametrize("x", [X_POS, X_NEG])
def test_sufficient_validation_encodes_the_forest_anew(monkeypatch, x):
    # validation shares nothing with the search, its encoding included;
    # the search encodes every assignment, lazily (its frame alone, which
    # its queries complete), the validation the reason's extensions, whole
    builds = []

    def spy(where):
        def build(f, *args, **kwargs):
            builds.append((where, f, args, kwargs))
            return implicant_test_cnf(f, *args, **kwargs)

        return build

    monkeypatch.setattr(explain, "implicant_test_cnf", spy("search"))
    monkeypatch.setattr(cli, "implicant_test_cnf", spy("validation"))
    forest = RandomForest(orchid_trees())
    reason = compute_reason(forest, x, ExplainSettings(kind="sufficient"))
    assert len(builds) == 1
    validate_reason(forest, reason)
    assert len(builds) == 2 and builds[0][1] == builds[1][1]
    assert builds[0][0] == "search" and builds[0][2:] == ((Term(),), {"paths": False})
    assert builds[1][0] == "validation" and builds[1][2:] == ((reason.term,), {})


def test_sufficient_validation_refuses_a_reason_of_another_forest():
    # only_x accepts X_POS alone, so no term shorter than t_x implies it
    forest = RandomForest(orchid_trees())
    reason = compute_reason(forest, X_POS, ExplainSettings(kind="sufficient"))
    only_x = cnf_to_forest([(l,) for l in Term.of_instance(X_POS)], len(X_POS))
    assert reason.size < len(X_POS) and only_x.tree_count > 1
    with pytest.raises(AssertionError, match="validation failed"):
        validate_reason(only_x, reason)


def _settings(kind: str, forest: RandomForest, x, notion: str) -> ExplainSettings:
    n = forest.var_count
    prediction = forest.evaluate(x)
    # a linear model that agrees with the forest on x whenever one can
    linear = [1 if bool(v) == bool(prediction) else -1 for v in x]
    extra = {
        "direct": {},
        "sufficient": {},
        "majoritary": {},
        "minimal-majoritary": {},
        "minimal-weight": {"weights": ",".join(f"x{v}:{v}" for v in range(1, n + 1))},
        "minimal-sufficient": {},
        "delta-probable": {"delta": "3/4"},
        "comprehensible": {"intelligible": ",".join(f"x{v}" for v in range(1, n + 1, 2))},
        "inclusion-preferred": {"strata": f"x{n}"},
        "lime": {"linear_weights": ",".join(map(str, linear))},
        "approx-minimal": {},
    }[kind]
    return ExplainSettings(kind=kind, notion=notion, **extra)


@st.composite
def small_forests(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    forest = random_forest(
        rng, n, draw(st.integers(1, 5)), draw(st.integers(1, 4)), leaf_chance=0.2
    )
    return forest, random_instance(rng, n)


@settings(max_examples=40, deadline=None, database=None)
@given(small_forests(), st.sampled_from(["majority", "sufficient"]))
def test_every_kind_agrees_with_its_oracle_and_brute(drawn, notion):
    forest, x = drawn
    for kind in KINDS:
        spec = KIND_TABLE[kind]
        model = RandomForest([forest.trees[0]]) if spec.single_tree else forest
        s = _settings(kind, model, x, notion)
        if kind == "lime" and model.evaluate(x) == 1 and not any(x):
            continue  # no linear model classifies the zero vector positively
        reason = compute_reason(model, x, s)
        if reason is None:
            assert kind == "comprehensible"
            continue
        assert reason.kind is ReasonKind(kind.replace("-", "_"))
        validate_reason(model, reason)
        assert not is_partial(reason)
        assert (reason.cost is not None) == (kind in MINIMAL_KINDS)
        if kind in ("sufficient", "minimal-sufficient"):
            assert reason.term in brute.enumerate_sufficient_reasons(model, x)
        if kind in ("majoritary", "minimal-majoritary"):
            assert reason.term in brute.enumerate_majoritary_reasons(model, x)


@settings(max_examples=60, deadline=None, database=None)
@given(small_forests())
def test_validation_proves_sufficient_reasons_prime(drawn):
    # each shorter term takes the refusal (SAT) branch of the restricted encoding
    forest, x = drawn
    reason = compute_reason(forest, x, ExplainSettings(kind="sufficient"))
    validate_reason(forest, reason)
    for lit in reason.term:
        shorter = replace(reason, term=Term(l for l in reason.term if l != lit))
        assert not brute.is_implicant_bruteforce(normalize(forest, x), shorter.term)
        assert not _EXACT(forest, shorter)


@settings(max_examples=150, deadline=None, database=None)
@given(small_forests())
def test_validation_decides_every_subterm_of_t_x(drawn):
    # validation checks the notion itself, one-tree forests included: the
    # sufficient check is the truth table's verdict, the majoritary one a
    # count of the trees whose truth tables the term implies
    forest, x = drawn
    model = normalize(forest, x)
    full = Term.of_instance(x)
    sufficient, majoritary = KIND_TABLE["sufficient"].oracle, KIND_TABLE["majoritary"].oracle
    for keep in range(1 << len(full)):
        term = Term(l for i, l in enumerate(full) if keep >> i & 1)
        reason = explain.Reason(term, ReasonKind.SUFFICIENT, x)
        assert sufficient(forest, reason) == brute.is_implicant_bruteforce(model, term)
        implied = sum(brute.is_implicant_bruteforce(t, term) for t in model.trees)
        assert majoritary(forest, reason) == (implied >= model.majority)
