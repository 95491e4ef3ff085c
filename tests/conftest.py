import pytest

from rfreasons.core import DecisionTree, RandomForest, Term, normalize
from rfreasons.explain import DEFAULT_SEED, GREEDY_ORDERS, best_of_orders

# ---------------------------------------------------------------------------
# The running-example forest: three trees over four features
# (fragrant flowers, one-or-two leaves, large flowers, sympodial growth).


def orchid_trees() -> tuple[DecisionTree, DecisionTree, DecisionTree]:
    t1 = DecisionTree.from_nested(
        {
            "var": 4,
            "low": {"leaf": 0},
            "high": {
                "var": 2,
                "low": {"leaf": 1},
                "high": {
                    "var": 3,
                    "low": {"leaf": 0},
                    "high": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}},
                },
            },
        },
        4,
    )
    t2 = DecisionTree.from_nested(
        {
            "var": 2,
            "low": {
                "var": 1,
                "low": {"leaf": 0},
                "high": {"var": 4, "low": {"leaf": 0}, "high": {"leaf": 1}},
            },
            "high": {"leaf": 1},
        },
        4,
    )
    t3 = DecisionTree.from_nested(
        {
            "var": 3,
            "low": {
                "var": 2,
                "low": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}},
                "high": {
                    "var": 4,
                    "low": {"leaf": 0},
                    "high": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}},
                },
            },
            "high": {
                "var": 2,
                "low": {"leaf": 0},
                "high": {"var": 4, "low": {"leaf": 0}, "high": {"leaf": 1}},
            },
        },
        4,
    )
    return t1, t2, t3


X_POS = (1, 1, 1, 1)
X_NEG = (0, 1, 0, 0)


def sufficient_seed(forest: RandomForest, x) -> Term:
    """The majoritary reason sufficient_reason_rf starts from with no
    order: the best of GREEDY_ORDERS seeded orders on the normalized
    trees' masks."""
    masks = [t.disagreement_masks(x) for t in normalize(forest, x).trees]
    return best_of_orders(masks, x, GREEDY_ORDERS, DEFAULT_SEED)[0]


@pytest.fixture(scope="session")
def orchid() -> RandomForest:
    return RandomForest(orchid_trees())


@pytest.fixture
def x_pos():
    return X_POS


@pytest.fixture
def x_neg():
    return X_NEG


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion at the end of the
# run, regardless of capture settings.

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_criterion"):
        _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        label = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{name}: {label}")
