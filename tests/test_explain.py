import itertools
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import (
    DecisionTree,
    RandomForest,
    Term,
    clause_to_tree,
    dnf_to_forest,
    normalize,
)
from rfreasons import explain
from rfreasons.explain import (
    ORDER_KEYS_KEPT,
    ORDERS_KEPT,
    DeltaProbableOracle,
    ForestSatOracle,
    LinearModel,
    MajorityOracle,
    NotAnImplicantError,
    Prioritization,
    Reason,
    ReasonKind,
    comprehensible_reason,
    default_order,
    delta_probable_reason_dt,
    direct_reason,
    greedy_reason,
    inclusion_preferred_reason,
    lime_linear_reason,
    majoritary_reason,
    majoritary_reason_multi,
    oracle_for_instance,
    seeded_orders,
    sufficient_reason_rf,
)
from rfreasons.cli import _EXACT, parity_fixture
from rfreasons.encodings import implicant_test_cnf, path_clause
from rfreasons.solver import Deadline, SatSolver, SolveStatus

import brute
from conftest import X_NEG, X_POS, sufficient_seed
from generators import random_forest, random_instance, random_tree


def term_of(*lits: int) -> Term:
    return Term(lits)


def assert_one_minimal(oracle, reason):
    assert oracle.accepts(reason.term)
    for lit in reason.term:
        assert not oracle.accepts(Term(l for l in reason.term if l != lit)), (
            f"{lit} removable from {reason.term}"
        )


class TestReasonCoverage:
    def test_variable_beyond_the_instance_is_refused(self):
        with pytest.raises(ValueError, match="does not cover"):
            Reason(Term([5]), ReasonKind.DIRECT, (1, 1))


class TestDirectReason:
    def test_positive_golden(self, orchid):
        r = direct_reason(orchid, X_POS)
        assert r.term == term_of(1, 2, 3, 4)
        assert r.kind is ReasonKind.DIRECT

    def test_negative_golden(self, orchid):
        r = direct_reason(orchid, X_NEG)
        assert r.term == term_of(2, -3, -4)

    def test_single_tree_is_path_term(self, orchid):
        t2 = orchid.trees[1]
        r = direct_reason(RandomForest([t2]), X_POS)
        assert r.term == t2.path_term(X_POS) == term_of(2)

    def test_covers_and_implies(self):
        rng = random.Random(501)
        for _ in range(25):
            n = rng.randint(2, 10)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            x = random_instance(rng, n)
            r = direct_reason(forest, x)
            assert r.term.covers(x)
            target = forest if forest.evaluate(x) == 1 else forest.negated()
            assert brute.is_implicant_bruteforce(target, r.term)


class TestGreedyReason:
    def test_majority_trace(self, orchid):
        r = greedy_reason(MajorityOracle(orchid), X_POS, (1, 2, 3, 4), ReasonKind.MAJORITARY)
        assert r.term == term_of(2, 3, 4)

    def test_forest_sat_trace(self, orchid):
        r = greedy_reason(ForestSatOracle(orchid), X_POS, (2, 3, 4, 1), ReasonKind.SUFFICIENT)
        assert r.term == term_of(1, 4)

    def test_constant_tree_empties(self):
        oracle = MajorityOracle(RandomForest([DecisionTree.leaf(1, 3)]))
        r = greedy_reason(oracle, (0, 1, 0), None, ReasonKind.SUFFICIENT)
        assert r.term == Term()

    def test_rejects_non_implicant_start(self, orchid):
        with pytest.raises(NotAnImplicantError):
            greedy_reason(MajorityOracle(orchid), X_NEG, None, ReasonKind.MAJORITARY)  # wrong polarity


class TestSufficientReasonDt:
    def test_golden_order(self, orchid):
        r = sufficient_reason_rf(RandomForest([orchid.trees[1]]), X_POS, order=(1, 3, 4, 2))
        assert r.term == term_of(2)

    def test_reduction_example(self, orchid):
        r = sufficient_reason_rf(RandomForest([orchid.trees[1]]), (1, 0, 0, 1))
        assert r.term == term_of(1, 4)

    def test_constant_tree(self):
        r = sufficient_reason_rf(RandomForest([DecisionTree.leaf(1, 2)]), (0, 0))
        assert r.term == Term()

    def test_negative_instance_normalized(self, orchid):
        t1 = orchid.trees[0]
        x = (0, 0, 0, 0)
        assert t1.evaluate(x) == 0
        r = sufficient_reason_rf(RandomForest([t1]), x)
        assert r.term.covers(x)
        assert brute.is_implicant_bruteforce(t1.negated(), r.term)

    def test_member_of_enumerated_set(self):
        rng = random.Random(502)
        for _ in range(40):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            r = sufficient_reason_rf(RandomForest([tree]), x)
            assert r.term in brute.enumerate_sufficient_reasons(RandomForest([tree]), x)


class TestMajoritaryReason:
    def test_positive_golden_set(self, orchid):
        expected = {term_of(1, 2, 4), term_of(1, 3, 4), term_of(2, 3, 4)}
        assert brute.enumerate_majoritary_reasons(orchid, X_POS) == expected
        r = majoritary_reason(orchid, X_POS)
        assert r.term in expected

    def test_negative_golden_set(self, orchid):
        expected = {term_of(-1, -4), term_of(2, -4), term_of(-1, 2, -3)}
        assert brute.enumerate_majoritary_reasons(orchid, X_NEG) == expected
        r = majoritary_reason(orchid, X_NEG)
        assert r.term in expected

    def test_multi_permutation_finds_smallest(self, orchid):
        r = majoritary_reason_multi(orchid, X_NEG, permutations=50)
        assert r.size == 2
        # exhausting every order confirms 2 is reachable and 1 is not
        sizes = {
            greedy_reason(
                MajorityOracle(orchid.negated()), X_NEG, perm, ReasonKind.MAJORITARY
            ).size
            for perm in itertools.permutations(range(1, 5))
        }
        assert min(sizes) == 2

    def test_multi_is_deterministic(self, orchid):
        a = majoritary_reason_multi(orchid, X_POS, permutations=10, seed=7)
        b = majoritary_reason_multi(orchid, X_POS, permutations=10, seed=7)
        assert a.term == b.term

    def test_majoritary_reasons_are_abductive(self):
        rng = random.Random(503)
        for _ in range(30):
            n = rng.randint(2, 10)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            x = random_instance(rng, n)
            r = majoritary_reason(forest, x)
            target = forest if forest.evaluate(x) == 1 else forest.negated()
            assert brute.is_implicant_bruteforce(target, r.term)
            assert_one_minimal(MajorityOracle(target), r)

    def test_even_tree_counts_supported(self):
        # loaded models may have an even number of trees; a strict majority
        # there is floor(m/2)+1 votes, and negative examples go through the
        # odd negated ensemble
        rng = random.Random(512)
        for _ in range(15):
            n = rng.randint(2, 8)
            forest = random_forest(rng, n, rng.choice([2, 4]), 4)
            x = random_instance(rng, n)
            r = majoritary_reason(forest, x)
            target = forest if forest.evaluate(x) == 1 else forest.negated()
            assert brute.is_implicant_bruteforce(target, r.term)
            assert_one_minimal(MajorityOracle(target), r)


def shuffled_orders(n: int, seed: int, count: int) -> list[tuple[int, ...]]:
    """The orders best_of_orders drew before they were kept: one
    generator shuffling one list in place, count times."""
    rng, base, orders = random.Random(seed), list(range(1, n + 1)), []
    for _ in range(count):
        rng.shuffle(base)
        orders.append(tuple(base))
    return orders


class TestSeededOrders:
    """seeded_orders yields the cumulative shuffles of one seeded
    generator, keeps at most ORDERS_KEPT of them per (n, seed), and draws
    none before it is asked for one."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        st.integers(1, 50),
        st.integers(-(2**40), 2**40),
        st.integers(0, 3 * ORDERS_KEPT),
        st.integers(0, 3 * ORDERS_KEPT),
        st.lists(st.booleans(), max_size=6 * ORDERS_KEPT),
    )
    def test_interleaved_iterators_yield_the_shuffles(self, n, seed, count, warm, turns):
        expected = shuffled_orders(n, seed, max(count, warm))
        explain._kept.cache_clear()
        # one iterator draws warm orders, then two over the same key are
        # advanced in the drawn turns
        assert list(itertools.islice(seeded_orders(n, seed), warm)) == expected[:warm]
        its, got = (seeded_orders(n, seed), seeded_orders(n, seed)), ([], [])
        for turn in turns:
            if len(got[turn]) < count:
                got[turn].append(next(its[turn]))
        assert got[0] == expected[: len(got[0])] and got[1] == expected[: len(got[1])]

    def test_memory_stays_bounded(self):
        explain._kept.cache_clear()
        orders = list(itertools.islice(seeded_orders(40, 42), 10 * ORDERS_KEPT))
        assert orders == shuffled_orders(40, 42, 10 * ORDERS_KEPT)
        assert explain._kept(40, 42)[0] == orders[:ORDERS_KEPT]
        # a later iterator reads the kept orders, then draws on from their state
        later = itertools.islice(seeded_orders(40, 42), 2 * ORDERS_KEPT)
        assert list(later) == orders[: 2 * ORDERS_KEPT]
        for seed in range(2 * ORDER_KEYS_KEPT):
            next(seeded_orders(3, seed))
            assert explain._kept.cache_info().currsize <= ORDER_KEYS_KEPT

    def test_threads_racing_on_a_fresh_key_get_the_shuffles(self):
        # the threads start together and switch often, so that they race
        # on the cache miss and on each draw; each reads past the kept
        # orders, from its own copy of the generator's state
        barrier, interval = threading.Barrier(4), sys.getswitchinterval()

        def read(n, seed, out):
            barrier.wait()
            out.append(list(itertools.islice(seeded_orders(n, seed), 100)))

        explain._kept.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(1000, 1040):
                got = []
                threads = [threading.Thread(target=read, args=(30, seed, got)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert got == [shuffled_orders(30, seed, 100)] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_best_of_orders_draws_only_the_orders_it_runs(self, monkeypatch):
        explain._kept.cache_clear()
        expected = shuffled_orders(12, 42, 3)
        shuffles = []
        shuffle = random.Random.shuffle

        def spying(rng, items):
            shuffles.append(len(items))
            return shuffle(rng, items)

        monkeypatch.setattr(random.Random, "shuffle", spying)
        forest = random_forest(random.Random(7), 12, 9, 5, 0.1)
        x = random_instance(random.Random(1), 12)
        masks = [t.disagreement_masks(x) for t in normalize(forest, x).trees]
        expired = Deadline.after(0)
        assert explain.best_of_orders(masks, x, 50, 42, expired) == (None, False)
        assert shuffles == [] and explain._kept.cache_info().currsize == 0
        term, complete = explain.best_of_orders(masks, x, 3, 42)
        assert complete and shuffles == [12] * 3
        assert explain._kept(12, 42)[0] == expected
        # a second request reuses the kept orders
        assert explain.best_of_orders(masks, x, 3, 42) == (term, True)
        assert shuffles == [12] * 3


class TestBruteOracles:
    def test_conditional_probability_golden(self, orchid):
        assert brute.conditional_probability_bruteforce(
            orchid.trees[0], term_of(2, 4)
        ) == Fraction(1, 4)

    def test_var_limit_guard(self, orchid):
        with pytest.raises(brute.VarLimitExceeded):
            brute.enumerate_sufficient_reasons(orchid, X_POS, var_limit=3)
        with pytest.raises(brute.VarLimitExceeded):
            brute.truth_table_tree(orchid.trees[0], var_limit=2)


class TestForestImplicantHelper:
    def test_golden_queries(self, orchid):
        assert ForestSatOracle(orchid).accepts(term_of(1, 4))
        assert not ForestSatOracle(orchid).accepts(term_of(2, 4))
        assert ForestSatOracle(orchid.negated()).accepts(Term.of_instance(X_NEG))

    def test_timeout_surfaces_with_partial(self, orchid):
        r = sufficient_reason_rf(orchid, X_POS, deadline=Deadline.after(0))
        # the returned term is the last accepted implicant: here the
        # majoritary seed, proved by traversal before any SAT call
        assert r.term == sufficient_seed(orchid, X_POS)
        assert r.extras["fallback"] == "timeout" and not r.optimal


class TestSufficientReasonRf:
    def test_positive_membership(self, orchid):
        expected = brute.enumerate_sufficient_reasons(orchid, X_POS)
        assert expected == {term_of(2, 3, 4), term_of(1, 4)}
        for perm in itertools.permutations(range(1, 5)):
            r = sufficient_reason_rf(orchid, X_POS, order=perm)
            assert r.term in expected

    def test_negative_membership(self, orchid):
        expected = brute.enumerate_sufficient_reasons(orchid, X_NEG)
        assert expected == {term_of(-4), term_of(-1, -3)}
        for perm in itertools.permutations(range(1, 5)):
            r = sufficient_reason_rf(orchid, X_NEG, order=perm)
            assert r.term in expected

    def test_seeded_with_majoritary(self, orchid):
        seed = majoritary_reason(orchid, X_POS).term
        oracle = oracle_for_instance(orchid, X_POS, "sufficient")
        r = greedy_reason(oracle, X_POS, None, ReasonKind.SUFFICIENT, seed_term=seed)
        assert set(r.term) <= set(seed)
        assert r.term in brute.enumerate_sufficient_reasons(orchid, X_POS)

    def test_member_of_enumerated_set_random(self):
        rng = random.Random(504)
        for _ in range(25):
            n = rng.randint(2, 9)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            x = random_instance(rng, n)
            r = sufficient_reason_rf(forest, x)
            assert r.term in brute.enumerate_sufficient_reasons(forest, x)


@st.composite
def seed_cases(draw):
    """(forest, x, order): 2 to 9 trees over at most 8 variables, x of
    either class (the forest is negated half the time), and order None or
    over any subset of the variables, in any order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    forest = random_forest(rng, n, draw(st.integers(2, 9)), draw(st.integers(1, 5)), 0.15)
    if draw(st.booleans()):
        forest = forest.negated()
    order = draw(st.none() | st.lists(st.integers(1, n), unique=True).map(tuple))
    return forest, random_instance(rng, n), order


def parent_default_reason(forest, x) -> Term:
    """The reference two-pass search with a single-order seed: the
    greedy majoritary reason, then deletion, both in default_order."""
    forest = normalize(forest, x)
    seed = greedy_reason(MajorityOracle(forest), x, None, ReasonKind.SUFFICIENT)
    oracle = oracle_for_instance(forest, x, "sufficient")
    return greedy_reason(oracle, x, None, ReasonKind.SUFFICIENT, seed_term=seed.term).term


class TestMajoritarySeed:
    """Deletion starts from a greedy majoritary reason: the best of
    GREEDY_ORDERS seeded orders with no order, else the one of the
    order."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed_cases())
    def test_against_the_exhaustive_oracles(self, case):
        forest, x, order = case
        n = forest.var_count
        if order is None:
            seed = sufficient_seed(forest, x)
        else:
            seed = majoritary_reason(forest, x, order).term
        term = sufficient_reason_rf(forest, x, order).term
        assert set(term) <= set(seed)
        visited = set(range(1, n + 1) if order is None else order)
        # literals the order leaves out are kept by both passes
        assert all(lit in term for lit in Term.of_instance(x) if abs(lit) not in visited)
        model = normalize(forest, x)
        assert brute.is_implicant_bruteforce(model, term)
        for lit in term:
            if abs(lit) in visited:
                assert not brute.is_implicant_bruteforce(model, Term(l for l in term if l != lit))
        if len(visited) == n:
            assert term in brute.enumerate_sufficient_reasons(forest, x)

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed_cases())
    def test_the_default_order_given_keeps_the_single_order_seed(self, case):
        forest, x, _ = case
        order = default_order(forest.var_count)
        assert sufficient_reason_rf(forest, x, order).term == parent_default_reason(forest, x)

    def test_the_default_order_given_on_deep_forests(self):
        for s in (1, 2):
            forest = random_forest(random.Random(s), 40, 25, 8, 0.1)
            rng = random.Random(2)
            for _ in range(3):
                x = random_instance(rng, 40)
                expected = parent_default_reason(forest, x)
                assert sufficient_reason_rf(forest, x, default_order(40)).term == expected


@st.composite
def rotation_cases(draw):
    """(forest, x, order): 2 to 9 trees over at most 8 variables."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    forest = random_forest(rng, n, draw(st.integers(2, 9)), draw(st.integers(1, 5)), 0.15)
    return forest, random_instance(rng, n), tuple(draw(st.permutations(range(1, n + 1))))


class TestModelRotation:
    """Rotation only spares solver calls: reasons are those of plain
    deletion, and every literal it marks is truly necessary."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(rotation_cases())
    def test_same_reason_as_plain_deletion(self, case):
        # both delete from the majoritary seed in the same order
        forest, x, order = case
        seed = majoritary_reason(forest, x, order).term
        expected = brute.deletion_reason_bruteforce(forest, x, order, start=seed)
        assert sufficient_reason_rf(forest, x, order).term == expected

    @settings(max_examples=120, deadline=None, database=None)
    @given(rotation_cases())
    def test_marked_literals_are_necessary(self, case):
        forest, x, order = case
        model = normalize(forest, x)
        oracle = ForestSatOracle(model)
        term = greedy_reason(oracle, x, order, ReasonKind.SUFFICIENT).term
        for var in oracle.necessary:
            rest = Term(l for l in term if abs(l) != var)
            assert len(rest) < len(term)
            assert not brute.is_implicant_bruteforce(model, rest)

    def test_a_new_start_term_forgets_necessary_literals(self):
        # x1 is necessary in x1 alone, not in x1 ∧ x2, for the forest x1 ∨ x2
        oracle = ForestSatOracle(dnf_to_forest([term_of(1), term_of(2)], 2))
        kind = ReasonKind.SUFFICIENT
        assert greedy_reason(oracle, (1, 1), (1, 2), kind, seed_term=term_of(1)).term == term_of(1)
        assert greedy_reason(oracle, (1, 1), (1, 2), kind).term == term_of(2)

    def test_spares_most_refused_removals_a_solver_call(self, monkeypatch):
        statuses = Counter()
        solve = SatSolver.solve

        def counting(self, *args, **kwargs):
            outcome = solve(self, *args, **kwargs)
            statuses[outcome.status] += 1
            return outcome

        monkeypatch.setattr(SatSolver, "solve", counting)
        requests = 0
        for s in range(1, 5):
            forest = random_forest(random.Random(s), 40, 25, 8, 0.1)
            rng = random.Random(2)
            for _ in range(6):
                sufficient_reason_rf(forest, random_instance(rng, 40))
                requests += 1
        # plain deletion makes one call per candidate: 24 * 40 = 960
        calls = sum(statuses.values())
        assert calls - requests <= 640  # one call per request tests the start term
        # the local search before the call finds most refusals: rotation
        # alone leaves 215 drops (~9 per request) to a SAT answer, one
        # climb per drop 91, a second from the complement of its start 29
        assert statuses[SolveStatus.SAT] <= 2 * requests
        assert statuses[SolveStatus.TIMEOUT] == 0


def reference_rotate(oracle, assign, var, model) -> tuple[set[int], list[bool]]:
    """ForestSatOracle._rotate as one full forest evaluation per
    candidate: the necessary set and the start of the next climb."""
    evaluate, necessary = oracle.forest.evaluate, set(oracle.necessary)
    necessary.add(var)
    z = list(model[: oracle.var_count])
    z[var - 1] = not z[var - 1]
    for u in range(1, len(assign)):
        if assign[u] is None or u in necessary:
            continue
        z[u - 1] = not z[u - 1]
        if evaluate(z) == 0:
            necessary.add(u)
        z[u - 1] = not z[u - 1]
    return necessary, z


def check_rotations(mp) -> list[int]:
    """Compare each ForestSatOracle._rotate with reference_rotate; the
    list returned counts the rotations."""
    rotations = []
    rotate = ForestSatOracle._rotate

    def checking(oracle, assign, var, model):
        expected = reference_rotate(oracle, assign, var, model)
        rotate(oracle, assign, var, model)
        assert (oracle.necessary, oracle._extension) == expected
        rotations.append(var)

    mp.setattr(ForestSatOracle, "_rotate", checking)
    return rotations


class TestRotationWalks:
    """_rotate re-walks only the trees whose path tests a flipped
    variable; its marks and its next start are those of one full forest
    evaluation per candidate."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rotation_cases())
    def test_matches_full_evaluation_in_a_search(self, case):
        forest, x, order = case  # 2 to 9 trees, odd and even
        with pytest.MonkeyPatch.context() as mp:
            check_rotations(mp)
            sufficient_reason_rf(forest, x, order)

    def test_matches_full_evaluation_on_deep_forests(self, monkeypatch):
        rotations = check_rotations(monkeypatch)
        for s, trees in ((1, 25), (2, 24)):
            forest = random_forest(random.Random(s), 40, trees, 8, 0.1)
            rng = random.Random(2)
            for _ in range(3):
                sufficient_reason_rf(forest, random_instance(rng, 40))
        assert len(rotations) >= 20


@st.composite
def oracle_cases(draw):
    """(normalized forest, x, start, order): 2 to 8 trees over at most 7
    variables, x of either class, so an even forest is padded with a
    constant tree when x is negative; start is a subterm of t_x, and
    order a permutation of the variables."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    forest = random_forest(rng, n, draw(st.integers(2, 8)), draw(st.integers(1, 5)), 0.15)
    x = random_instance(rng, n)
    start = Term(l for l in Term.of_instance(x) if rng.random() < 0.6)
    order = tuple(draw(st.permutations(range(1, n + 1))))
    return normalize(forest, x), x, start, order


def drop_walk(oracle, model, term: Term, order) -> None:
    """Greedy drops from term, an accepted term, in order, each checked
    against the truth table."""
    assign = term.to_array(model.var_count)
    for var in order:
        if assign[var] is None:
            continue
        value, assign[var] = assign[var], None
        expected = brute.is_implicant_bruteforce(model, Term.from_array(assign))
        assert oracle.accepts_shrunk(assign, var) == expected
        if not expected:
            assign[var] = value


class TestImpliedTreeAssumptions:
    """ForestSatOracle also assumes the selectors of the trees a query
    implies false; every answer stays the truth table's."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(oracle_cases())
    def test_accepts_and_shrunk_queries_agree_with_brute_force(self, case):
        model, x, start, order = case
        oracle = ForestSatOracle(model)
        # one session answers the fresh queries, then a greedy walk
        assert oracle.accepts(start) == brute.is_implicant_bruteforce(model, start)
        assert oracle.accepts(Term.of_instance(x))
        drop_walk(oracle, model, Term.of_instance(x), order)
        if oracle.accepts(start):
            drop_walk(oracle, model, start, order[::-1])

    def test_validation_assumes_the_term_alone(self, monkeypatch):
        # validation encodes the term's extensions alone, the term as unit
        # clauses, and solves once without assumptions
        forest = random_forest(random.Random(1), 40, 25, 8, 0.1)
        x = random_instance(random.Random(2), 40)
        model = normalize(forest, x)
        term = sufficient_reason_rf(forest, x).term
        assumed = []
        solve = SatSolver.solve

        def recording(self, assumptions=(), deadline=None):
            assumed.append(tuple(assumptions))
            return solve(self, assumptions, deadline)

        monkeypatch.setattr(SatSolver, "solve", recording)
        assert _EXACT(forest, Reason(term, ReasonKind.SUFFICIENT, x))
        assert assumed == [()]
        # the search's oracle assumes the term's literals, then the trees
        # the term implies; a selector per tree, in forest order
        search = ForestSatOracle(model)
        assert search.accepts(term)
        enc = search.encoding
        implied = [y for y, t in zip(enc.selectors, model.trees) if t.implied_by(term)]
        assert implied and assumed[1] == term.literals + tuple(-y for y in implied)

    def test_shrunk_queries_assume_the_term_in_variable_order(self, monkeypatch):
        # a drop is queried from the greedy loop's array: its literals in
        # ascending variable order, then the trees the term implies, as a
        # fresh query on the same term assumes them
        forest = random_forest(random.Random(3), 12, 7, 5, 0.1)
        x = random_instance(random.Random(4), 12)
        model = normalize(forest, x)
        oracle = ForestSatOracle(model)
        assumed = []
        solve = SatSolver.solve

        def recording(self, assumptions=(), deadline=None):
            assumed.append(tuple(assumptions))
            return solve(self, assumptions, deadline)

        monkeypatch.setattr(SatSolver, "solve", recording)
        assign = Term.of_instance(x).to_array(12)
        assert oracle.encoding is None  # built at the first query
        assert oracle.accepts(Term.of_instance(x))
        enc = oracle.encoding
        queried = 0
        for var in range(12, 0, -1):
            value, assign[var] = assign[var], None
            term, calls = Term.from_array(assign), len(assumed)
            if not oracle.accepts_shrunk(assign, var):
                assign[var] = value
            if len(assumed) > calls:
                queried += 1
                implied = zip(enc.selectors, model.trees)
                selectors = tuple(-y for y, t in implied if t.implied_by(term))
                assert assumed[-1] == term.literals + selectors
        assert queried >= 3


class TestLazyEncoding:
    """The search's ForestSatOracle loads path clauses as its queries
    reach them: at each query, those of the 1-paths its term leaves
    reachable in the trees it does not imply, which includes a tree the
    query's drop opens and the paths below the children it opens in a
    tree already open.  Each is loaded once and is a clause of the full
    encoding.  A query walks each tree at most once, by
    DecisionTree.reach, and from the root only in a fresh accepts."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(oracle_cases(), st.data())
    def test_each_query_holds_the_clauses_it_needs(self, case, data):
        model, x, start, order = case
        n = model.var_count
        values = st.lists(st.sampled_from([None, False, True]), min_size=n, max_size=n)
        oracle = ForestSatOracle(model)
        full = set(implicant_test_cnf(model).cnf.clauses)
        added: list[tuple[int, ...]] = []
        add_clauses, solve = SatSolver.add_clauses, SatSolver.solve
        reach, explore = DecisionTree.reach, DecisionTree.explore
        walks: list[tuple[int, bool | None]] = []  # (tree id, from the root; None: explore)
        fresh = [False]  # is this query a fresh accepts

        def reaching(tree, starts, assign):
            starts = list(starts)
            walks.append((id(tree), starts == [(tree.root, ())]))
            return reach(tree, starts, assign)

        def exploring(tree, starts, assign):
            walks.append((id(tree), None))
            return explore(tree, starts, assign)

        def adding(solver, clauses):
            clauses = [tuple(c) for c in clauses]
            added.extend(clauses)
            add_clauses(solver, clauses)

        def solving(solver, assumptions=(), deadline=None):
            walked, trees = Counter(i for i, _ in walks), Counter(map(id, model.trees))
            assert all(root is not None for _, root in walks)  # no explore
            if fresh[0]:
                assert walked == trees and all(root for _, root in walks)
            else:
                assert walked <= trees and not any(root for _, root in walks)
            # the query's term is its assumed feature literals
            term = Term(l for l in assumptions if abs(l) <= n)
            assign = term.to_array(n)
            frame = set(oracle.encoding.cnf.clauses)
            loaded = frame | set(added)
            assert loaded <= full
            assert len(set(added)) == len(added) and not frame & set(added)
            for y, tree in zip(oracle.encoding.selectors, model.trees):
                if tree.implied_by(term):
                    continue
                for lits, label in tree.paths():
                    if label and all(assign[abs(l)] in (None, l > 0) for l in lits):
                        assert path_clause(y, lits) in loaded
            walks.clear()  # the checks above walk trees too
            return solve(solver, assumptions, deadline)

        def accepting(term):
            fresh[0] = True
            accepted = oracle.accepts(term)
            fresh[0] = False
            return accepted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SatSolver, "add_clauses", adding)
            mp.setattr(SatSolver, "solve", solving)
            mp.setattr(DecisionTree, "reach", reaching)
            mp.setattr(DecisionTree, "explore", exploring)
            for _ in range(2):
                # a fresh query on an arbitrary term
                term = Term.from_array([None, *data.draw(values)])
                accepted = accepting(term)
                assert accepted == brute.is_implicant_bruteforce(model, term)
                if accepted:
                    drop_walk(oracle, model, term, order[::-1])
            assert accepting(Term.of_instance(x))
            drop_walk(oracle, model, Term.of_instance(x), order)
            if accepting(start):
                drop_walk(oracle, model, start, order)


def spy_on_climbs(mp) -> list[tuple[Term, tuple[bool, ...] | None]]:
    """Record each call of ForestSatOracle._climb, from either start: the
    shrunk term and the point it returns."""
    climbs = []
    climb = ForestSatOracle._climb

    def spying(oracle, assign, var, start):
        z = climb(oracle, assign, var, start)
        climbs.append((Term.from_array(assign), z))
        return z

    mp.setattr(ForestSatOracle, "_climb", spying)
    return climbs


def spy_on_statuses(mp) -> list[SolveStatus]:
    """Record the status of each SatSolver.solve call."""
    statuses = []
    solve = SatSolver.solve

    def recording(self, *args, **kwargs):
        outcome = solve(self, *args, **kwargs)
        statuses.append(outcome.status)
        return outcome

    mp.setattr(SatSolver, "solve", recording)
    return statuses


def assert_certified(model, climbs) -> None:
    """Every point a climb returns extends its term, and the truth table
    rejects it."""
    table = brute.truth_table_forest(model)
    for term, z in climbs:
        if z is not None:
            assert len(z) == model.var_count
            assert all(z[abs(l) - 1] == (l > 0) for l in term)
            assert not table[sum(b << i for i, b in enumerate(z))]


class TestLocalSearch:
    """ForestSatOracle refuses a drop before the SAT call only with a
    certificate: an extension of the shrunk term that the forest rejects,
    found by a capped hill-climb.  Answers stay those of the solver."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(oracle_cases())
    def test_every_point_found_is_a_counterexample(self, case):
        model, x, start, order = case
        with pytest.MonkeyPatch.context() as mp:
            climbs = spy_on_climbs(mp)
            oracle = ForestSatOracle(model)
            assert oracle.accepts(Term.of_instance(x))
            drop_walk(oracle, model, Term.of_instance(x), order)
            if oracle.accepts(start):
                drop_walk(oracle, model, start, order[::-1])
        assert_certified(model, climbs)

    @settings(max_examples=120, deadline=None, database=None)
    @given(rotation_cases())
    def test_every_point_found_in_a_search_is_a_counterexample(self, case):
        forest, x, order = case
        with pytest.MonkeyPatch.context() as mp:
            climbs = spy_on_climbs(mp)
            sufficient_reason_rf(forest, x, order)
        assert_certified(normalize(forest, x), climbs)

    def test_a_flip_finds_the_counterexample(self, monkeypatch):
        # trees x1, x2 and ¬x3 on x = 110: the seed x1 ∧ x2 of the order
        # 3, 2, 1 implies the first two.  Dropping x2 starts at 100, which
        # two trees accept; flipping x3, free on the path of ¬x3, leaves
        # one.  Only the fresh check of the seed reaches the solver.
        forest = RandomForest(clause_to_tree(c, 3) for c in ((1,), (2,), (-3,)))
        statuses = spy_on_statuses(monkeypatch)
        climbs = spy_on_climbs(monkeypatch)
        assert sufficient_reason_rf(forest, (1, 1, 0), (3, 2, 1)).term == term_of(1, 2)
        assert climbs == [(term_of(1), (True, False, True))]
        assert statuses == [SolveStatus.UNSAT]

    def test_the_complement_start_finds_the_counterexample(self, monkeypatch):
        # trees x1 ∨ (x2 ⊕ x3), twice, and x1 ∨ ¬x2 ∨ ¬x3, three times,
        # on x = 100: the seed of the order 3, 2, 1 is x1.  Dropping x1
        # starts at 000, three 1-votes where every flip gives five, so
        # that climb ends there; the second start, 011, flips every free
        # variable of 100 and gets no vote.  Only the fresh check of the
        # seed reaches the solver.
        x3, not_x3 = ({"var": 3, "low": {"leaf": b}, "high": {"leaf": 1 - b}} for b in (0, 1))
        xor = {"var": 2, "low": x3, "high": not_x3}
        either = DecisionTree.from_nested({"var": 1, "low": xor, "high": {"leaf": 1}}, 3)
        nand = clause_to_tree((1, -2, -3), 3)
        forest = RandomForest([either, either, nand, nand, nand])
        statuses = spy_on_statuses(monkeypatch)
        climbs = spy_on_climbs(monkeypatch)
        assert sufficient_reason_rf(forest, (1, 0, 0), (3, 2, 1)).term == term_of(1)
        assert climbs == [(Term(), None), (Term(), (False, True, True))]
        assert statuses == [SolveStatus.UNSAT]


@st.composite
def one_tree_cases(draw):
    """(one-tree forest, x, order): at most 6 variables; the tree is drawn
    negated half the time, so x falls on either polarity."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    tree = random_tree(rng, n, draw(st.integers(1, 6)))
    if draw(st.booleans()):
        tree = tree.negated()
    order = tuple(draw(st.permutations(range(1, n + 1))))
    return RandomForest([tree]), random_instance(rng, n), order


class TestSingleTreeCollapse:
    @settings(max_examples=150, deadline=None, database=None)
    @given(one_tree_cases())
    def test_traversal_matches_the_sat_test(self, case):
        # a one-tree forest answers the sufficient notion by traversal
        forest, x, order = case
        r = sufficient_reason_rf(forest, x, order)
        sat = ForestSatOracle(normalize(forest, x))
        assert r.term == greedy_reason(sat, x, order, ReasonKind.SUFFICIENT).term
        assert r.term in brute.enumerate_sufficient_reasons(forest, x)
        everything = range(1, forest.var_count + 1)
        c = comprehensible_reason(forest, x, everything, "sufficient")
        assert c.extras["notion"] == "sufficient"

    def test_all_orders_agree_across_explainers(self):
        # with one tree, majoritary / tree-greedy / SAT-greedy coincide
        rng = random.Random(505)
        for _ in range(8):
            n = rng.randint(2, 5)
            tree = random_tree(rng, n, 4)
            x = random_instance(rng, n)
            forest = RandomForest([tree])
            for perm in itertools.permutations(range(1, n + 1)):
                a = majoritary_reason(forest, x, order=perm).term
                b = greedy_reason(
                    ForestSatOracle(normalize(forest, x)), x, perm, ReasonKind.SUFFICIENT
                ).term
                c = sufficient_reason_rf(forest, x, order=perm).term
                assert a == b == c

    def test_sampled_orders_larger(self):
        rng = random.Random(506)
        for _ in range(10):
            n = rng.randint(6, 8)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            forest = RandomForest([tree])
            order = list(range(1, n + 1))
            for _ in range(8):
                rng.shuffle(order)
                a = majoritary_reason(forest, x, order=tuple(order)).term
                b = greedy_reason(
                    ForestSatOracle(normalize(forest, x)), x, tuple(order), ReasonKind.SUFFICIENT
                ).term
                c = sufficient_reason_rf(forest, x, order=tuple(order)).term
                assert a == b == c


class TestDeltaProbable:
    def test_golden_trace(self, orchid):
        r = delta_probable_reason_dt(orchid.trees[0], X_POS, 0.5, order=(1, 2, 3, 4))
        assert r.term == term_of(4)
        assert r.extras["probability"] == Fraction(5, 8)

    def test_delta_one_is_sufficient(self, orchid):
        r = delta_probable_reason_dt(orchid.trees[0], X_POS, 1)
        assert r.term in brute.enumerate_sufficient_reasons(
            RandomForest([orchid.trees[0]]), X_POS
        )

    def test_delta_zero_empties(self, orchid):
        r = delta_probable_reason_dt(orchid.trees[0], X_POS, 0)
        assert r.term == Term()

    def test_delta_out_of_range(self, orchid):
        with pytest.raises(ValueError):
            delta_probable_reason_dt(orchid.trees[0], X_POS, Fraction(3, 2))

    def test_probability_meets_delta_and_one_minimal(self):
        rng = random.Random(507)
        for _ in range(50):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            delta = Fraction(rng.randint(0, 8), 8)
            r = delta_probable_reason_dt(tree, x, delta)
            target = tree if tree.evaluate(x) == 1 else tree.negated()
            prob = brute.conditional_probability_bruteforce(target, r.term)
            assert prob >= delta
            assert prob == r.extras["probability"]
            assert_one_minimal(DeltaProbableOracle(target, delta), r)


class TestComprehensible:
    def test_majority_notion_golden(self, orchid):
        assert comprehensible_reason(orchid, X_POS, [1, 4], "majority") is None

    def test_sat_notion_golden(self, orchid):
        r = comprehensible_reason(orchid, X_POS, [1, 4], "sufficient")
        assert r.term == term_of(1, 4)
        assert r.kind is ReasonKind.COMPREHENSIBLE

    def test_unrestricted_is_plain_greedy(self, orchid):
        oracle = oracle_for_instance(orchid, X_POS, "majority")
        r = comprehensible_reason(orchid, X_POS, [1, 2, 3, 4], "majority")
        assert oracle.accepts(r.term)

    def test_none_iff_no_subset_passes(self):
        rng = random.Random(508)
        for _ in range(20):
            n = rng.randint(2, 8)
            forest = random_forest(rng, n, rng.choice([1, 3]), 4)
            x = random_instance(rng, n)
            keep = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            oracle = oracle_for_instance(forest, x, "majority")
            restricted_full = Term.of_instance(x).restrict_to(keep)
            exists = any(
                oracle.accepts(Term(subset))
                for k in range(len(restricted_full) + 1)
                for subset in itertools.combinations(restricted_full.literals, k)
            )
            r = comprehensible_reason(forest, x, keep, "majority")
            assert (r is not None) == exists
            if r is not None:
                assert r.term.variables() <= keep
                assert_one_minimal(oracle, r)


class TestInclusionPreferred:
    def test_sat_notion_golden(self, orchid):
        prio = Prioritization([[4], [2, 3], [1]])
        r = inclusion_preferred_reason(orchid, X_POS, prio, "sufficient")
        assert r.term == term_of(1, 4)

    def test_single_stratum_is_plain_greedy(self, orchid):
        r = inclusion_preferred_reason(orchid, X_POS, Prioritization([[1, 2, 3, 4]]), "majority")
        plain = greedy_reason(
            MajorityOracle(orchid), X_POS, (1, 2, 3, 4), ReasonKind.MAJORITARY
        )
        assert r.term == plain.term

    def test_majority_notion_golden(self, orchid):
        r = inclusion_preferred_reason(orchid, X_POS, Prioritization([[1], [2, 3, 4]]), "majority")
        assert r.term == term_of(2, 3, 4)

    def test_front_stratum_dropped_unless_mandatory(self):
        rng = random.Random(509)
        for _ in range(20):
            n = rng.randint(2, 8)
            forest = random_forest(rng, n, rng.choice([1, 3]), 4)
            x = random_instance(rng, n)
            f = rng.randint(1, n)
            oracle = oracle_for_instance(forest, x, "majority")
            prio = Prioritization([[f]])
            r = inclusion_preferred_reason(forest, x, prio, "majority")
            if f in r.term.variables():
                full = Term.of_instance(x)
                mandatory = all(
                    not oracle.accepts(Term(sub))
                    for k in range(len(full) + 1)
                    for sub in itertools.combinations(full.literals, k)
                    if all(abs(l) != f for l in sub)
                )
                assert mandatory

    def test_result_is_preference_minimal_small(self):
        rng = random.Random(510)
        for _ in range(10):
            n = rng.randint(2, 6)
            forest = random_forest(rng, n, rng.choice([1, 3]), 4)
            x = random_instance(rng, n)
            variables = list(range(1, n + 1))
            rng.shuffle(variables)
            cut = rng.randint(1, n)
            prio = Prioritization([sorted(variables[:cut])] +
                                  ([sorted(variables[cut:])] if cut < n else []))
            r = inclusion_preferred_reason(forest, x, prio, "majority")
            others = brute.enumerate_majoritary_reasons(forest, x)
            for other in others:
                assert not brute.prefers(prio, other, r.term, n), (other, r.term, prio)

    def test_strata_validation(self):
        with pytest.raises(ValueError):
            Prioritization([[1], [1, 2]])
        with pytest.raises(ValueError):
            Prioritization([[]])


class TestLime:
    def test_worked_example(self):
        r = lime_linear_reason(LinearModel([3, 2, -4]), (1, 1, 0))
        assert r.term == term_of(1, 2)
        assert r.optimal

    def test_all_positive_picks_largest(self):
        r = lime_linear_reason(LinearModel([5, 1]), (1, 1))
        assert r.term == term_of(1)

    def test_unreachable_bound_falls_back(self):
        r = lime_linear_reason(LinearModel([-3, 1]), (0, 1))
        assert r.extras["fallback"] == "bound_unreachable"
        assert r.term == Term.of_instance((0, 1))
        assert not r.optimal

    def test_negative_case(self):
        model = LinearModel([2, -3, -1])
        x = (1, 1, 1)
        assert model.evaluate(x) == 0
        r = lime_linear_reason(model, x)
        assert r.term == term_of(2)  # -3 alone reaches the bound

    def test_result_implies_linear_model(self):
        rng = random.Random(511)
        for _ in range(60):
            n = rng.randint(1, 6)
            model = LinearModel([Fraction(rng.randint(-6, 6)) for _ in range(n)])
            x = random_instance(rng, n)
            r = lime_linear_reason(model, x)
            if r.extras.get("fallback"):
                continue
            polarity = model.evaluate(x)
            for z in itertools.product((0, 1), repeat=n):
                if r.term.covers(z):
                    assert model.evaluate(z) == polarity

    def test_tie_break_on_index(self):
        r = lime_linear_reason(LinearModel([2, 2, -3]), (1, 1, 1))
        assert r.term == term_of(1, 2)


class TestAdversarialParity:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_majoritary_cannot_shrink(self, n, copies):
        forest = parity_fixture(n, copies)
        for x in itertools.product((0, 1), repeat=n):
            assert forest.evaluate(x) == 1
            r = majoritary_reason(forest, x)
            assert r.term == Term.of_instance(x)
            assert brute.enumerate_majoritary_reasons(forest, x) == {Term.of_instance(x)}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_sufficient_reason_is_empty(self, n, copies):
        forest = parity_fixture(n, copies)
        for x in itertools.product((0, 1), repeat=n):
            r = sufficient_reason_rf(forest, x)
            assert r.term == Term()
            assert brute.enumerate_sufficient_reasons(forest, x) == {Term()}
