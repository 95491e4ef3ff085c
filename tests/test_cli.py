import csv
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfreasons
from rfreasons.cli import (
    EXIT_NO_COMPREHENSIBLE,
    EXIT_OK,
    EXIT_PARTIAL,
    KIND_TABLE,
    compute_reason,
    main,
    parity_tree,
)
from rfreasons.core import RandomForest
from rfreasons.explain import majoritary_reason
from rfreasons.models import dump_forest, load_forest, parse_instances

import brute
from conftest import X_NEG, X_POS, orchid_trees
from generators import random_forest, random_instance


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "orchid.json"
    dump_forest(RandomForest(orchid_trees()), str(path))
    return str(path)


@pytest.fixture
def instances_file(tmp_path):
    path = tmp_path / "instances.csv"
    path.write_text("1,1,1,1\n0,1,0,0\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_golden_predictions(self, capsys, model_file, instances_file):
        code, out, _ = run(capsys, "classify", model_file, instances_file)
        assert code == EXIT_OK
        assert out.split() == ["1", "0"]

    def test_empty_instances(self, capsys, model_file, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, _ = run(capsys, "classify", model_file, str(empty))
        assert code == EXIT_OK and out == ""

    def test_malformed_bit_is_an_error(self, capsys, model_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,0,1\n")
        code, _, err = run(capsys, "classify", model_file, str(bad))
        assert code == 1
        assert "row 1" in err and "column 2" in err

    @pytest.mark.parametrize("header, code", [("a,b", 1), ("a,b,c,d,e", 1), ("a,b,c,d", EXIT_OK)])
    def test_header_names_every_feature(self, capsys, model_file, tmp_path, header, code):
        path = tmp_path / "named.csv"
        path.write_text(header + "\n1,1,1,1\n")
        got, _, err = run(capsys, "classify", model_file, str(path))
        assert got == code
        assert code == EXIT_OK or "header: expected 4 feature names" in err


class TestExplain:
    def test_direct_golden(self, capsys, model_file):
        code, out, _ = run(capsys, "explain", model_file, "1,1,1,1", "--kind", "direct")
        assert code == EXIT_OK
        assert "x1 ∧ x2 ∧ x3 ∧ x4" in out

    def test_minimal_majoritary_negative(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "0,1,0,0",
            "--kind", "minimal-majoritary", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["size"] == 2 and record["optimal"] is True
        assert record["prediction"] == 0

    def test_comprehensible_exit_code(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "comprehensible", "--intelligible", "x1,x4",
            "--notion", "majority",
        )
        assert code == EXIT_NO_COMPREHENSIBLE
        assert "no comprehensible reason" in out

    def test_comprehensible_sat_notion(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "comprehensible", "--intelligible", "x1,x4",
            "--notion", "sufficient", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["literals"] == [1, 4] and record["prediction"] == 1

    def test_inclusion_preferred(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "inclusion-preferred", "--strata", "x4;x2,x3;x1",
            "--notion", "sufficient", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["literals"] == [1, 4] and record["prediction"] == 1
        code, out, _ = run(
            capsys, "explain", model_file, "0100",
            "--kind", "inclusion-preferred", "--strata", "x4;x2,x3;x1",
        )
        assert code == EXIT_OK and "prediction: 0" in out

    def test_delta_probable(self, capsys, tmp_path):
        single = tmp_path / "single.json"
        dump_forest(RandomForest(orchid_trees()[:1]), str(single))
        code, out, _ = run(
            capsys, "explain", str(single), "1111",
            "--kind", "delta-probable", "--delta", "0.5",
            "--order", "x1,x2,x3,x4", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["literals"] == [4]
        assert record["probability"] == "5/8"

    def test_delta_flag_mismatch(self, capsys, model_file):
        code, _, err = run(
            capsys, "explain", model_file, "1111", "--kind", "direct", "--delta", "0.5"
        )
        assert code == 1 and "delta" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_permutations_below_one_rejected(self, capsys, model_file, count):
        code, out, err = run(
            capsys, "explain", model_file, "1111",
            "--kind", "majoritary", "--permutations", count,
        )
        assert code == 1 and out == ""
        assert "--permutations must be at least 1" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
    def test_timeout_out_of_range_rejected(self, capsys, model_file, value):
        code, out, err = run(
            capsys, "explain", model_file, "1111",
            "--kind", "sufficient", "--timeout", value,
        )
        assert code == 1 and out == ""
        assert "--timeout must be a non-negative number" in err

    def test_order_with_several_permutations_rejected(self, capsys, model_file):
        code, _, err = run(
            capsys, "explain", model_file, "1111", "--kind", "majoritary",
            "--permutations", "5", "--order", "x1,x2,x3,x4",
        )
        assert code == 1 and "--order" in err
        # one permutation is one order, so --order still applies
        code, out, _ = run(
            capsys, "explain", model_file, "1111", "--kind", "majoritary",
            "--permutations", "1", "--order", "x1,x2,x3,x4", "--json",
        )
        assert code == EXIT_OK and json.loads(out)["kind"] == "majoritary"

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("sufficient", ["--permutations", "0"]),
            ("sufficient", ["--seed", "7"]),
            ("direct", ["--order", "x1,x2,x3,x4"]),
            ("direct", ["--weights", "x1:5"]),
            ("direct", ["--strata", "x1"]),
            ("majoritary", ["--notion", "sufficient"]),
            ("minimal-majoritary", ["--linear-weights", "1,1,1,1"]),
        ],
    )
    def test_unread_flag_rejected(self, capsys, model_file, kind, flags):
        code, out, err = run(capsys, "explain", model_file, "1111", "--kind", kind, *flags)
        assert code == 1 and out == ""
        assert f"--kind {kind} does not read {flags[0]}" in err

    def test_timeout_accepted_by_every_kind(self, capsys, model_file):
        code, _, _ = run(capsys, "explain", model_file, "1111", "--kind", "direct", "--timeout", "5")
        assert code == EXIT_OK

    def test_too_deep_model_is_an_error(self, capsys, tmp_path):
        depth = 1500
        chain = "".join(
            f'{{"var": {v}, "low": {{"leaf": 0}}, "high": ' for v in range(1, depth + 1)
        )
        path = tmp_path / "deep.json"
        path.write_text(
            f'{{"format": "rfreasons-forest", "format_version": 1, "var_count": {depth},'
            f' "trees": [{chain}{{"leaf": 1}}{"}" * depth}]}}'
        )
        code, _, err = run(capsys, "explain", str(path), "1" * depth)
        assert code == 1 and "too deeply" in err

    def test_minimal_weight(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "minimal-weight", "--weights", "x1:5,x2:1,x3:1,x4:1", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["literals"] == [2, 3, 4] and record["cost"] == 3

    def test_lime(self, capsys, tmp_path):
        # forest agreeing with the linear model on the explained instance
        model = tmp_path / "m.json"
        dump_forest(RandomForest(orchid_trees()), str(model))
        code, out, _ = run(
            capsys, "explain", str(model), "1,1,1,1",
            "--kind", "lime", "--linear-weights", "3,2,-4,1", "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "lime"

    def test_timeout_zero_gives_partial(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "minimal-majoritary", "--timeout", "0", "--json",
        )
        assert code == EXIT_PARTIAL
        record = json.loads(out)
        assert record["size"] == 4 and record["optimal"] is False
        assert record["fallback"] == "timeout" and record["prediction"] == 1

    def test_export_wcnf(self, capsys, model_file, tmp_path):
        target = tmp_path / "problem.wcnf"
        code, _, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "minimal-majoritary", "--export-wcnf", str(target),
        )
        assert code == EXIT_OK
        assert target.read_text().startswith("p wcnf ")
        # the export reads --weights whatever the kind
        code, _, _ = run(
            capsys, "explain", model_file, "1111", "--kind", "direct",
            "--weights", "x1:5", "--export-wcnf", str(target),
        )
        assert code == EXIT_OK
        # a refused request and a failed build leave no file
        for flags in (
            ["--kind", "minimal-weight"],
            ["--kind", "comprehensible"],
            ["--kind", "minimal-sufficient"],
            ["--kind", "direct", "--weights", "x1:2147483647,x2:5"],
        ):
            refused = tmp_path / "refused.wcnf"
            code, _, err = run(
                capsys, "explain", model_file, "1111", *flags, "--export-wcnf", str(refused)
            )
            assert code == 1 and err.startswith("error: ")
            assert not refused.exists()

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5, 6])
    def test_exported_wcnf_optimum_is_the_minimal_cost(self, capsys, tmp_path, seed):
        # seed None is orchid; the others draw forests of at most 8
        # variables and 3 trees, so the export has at most 16 variables
        if seed is None:
            forest, xs = RandomForest(orchid_trees()), [(1, 1, 1, 1), (0, 1, 0, 0)]
        else:
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            forest = random_forest(rng, n, rng.randint(1, 3), 4)
            xs = [random_instance(rng, n) for _ in range(2)]
        model, target = tmp_path / "m.json", tmp_path / "p.wcnf"
        dump_forest(forest, str(model))
        weights = ",".join(f"x{v}:{v % 3 + 1}" for v in range(1, forest.var_count + 1))
        for x in xs:
            for flags in (
                ["--kind", "minimal-majoritary"],
                ["--kind", "minimal-weight", "--weights", weights],
            ):
                code, out, _ = run(
                    capsys, "explain", str(model), "".join(map(str, x)), *flags,
                    "--export-wcnf", str(target), "--json",
                )
                assert code == EXIT_OK
                problem = brute.read_wcnf(target.read_text())
                assert brute.maxsat_optimum_bruteforce(*problem) == json.loads(out)["cost"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "delta-probable", "--delta", "1/0"], "--delta has a zero denominator"),
            (
                ["--kind", "lime", "--linear-weights", "1/0,1,1"],
                "--linear-weights has a zero denominator",
            ),
            (["--kind", "delta-probable", "--delta", "abc"], "not a number in --delta"),
            (
                ["--kind", "lime", "--linear-weights", "1,x,1"],
                "not a number in --linear-weights",
            ),
        ],
    )
    def test_zero_denominator_refused(self, capsys, tmp_path, flags, message):
        path = tmp_path / "t.json"
        dump_forest(RandomForest([parity_tree(3)]), str(path))
        code, out, err = run(capsys, "explain", str(path), "111", *flags)
        assert code == 1 and out == "" and message in err

    def test_unknown_feature_in_flag(self, capsys, model_file):
        code, _, err = run(
            capsys, "explain", model_file, "1111",
            "--kind", "comprehensible", "--intelligible", "x9",
        )
        assert code == 1 and "out of range" in err

    def test_duplicate_feature_names_are_an_error(self, capsys, tmp_path):
        # a repeated name would resolve to its first feature in every flag
        path = tmp_path / "twins.json"
        path.write_text(
            '{"format": "rfreasons-forest", "format_version": 1, "var_count": 2,'
            ' "feature_names": ["a", "a"],'
            ' "trees": [{"var": 2, "low": {"leaf": 0}, "high": {"leaf": 1}}]}'
        )
        code, out, err = run(
            capsys, "explain", str(path), "11", "--kind", "comprehensible", "--intelligible", "a"
        )
        assert code == 1 and out == "" and "distinct" in err

    def test_sufficient_timeout_zero_gives_partial(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "sufficient", "--timeout", "0", "--json",
        )
        assert code == EXIT_PARTIAL
        record = json.loads(out)
        # the fallback is the majoritary seed, proved by traversal alone
        seed = majoritary_reason(load_forest(model_file), (1, 1, 1, 1)).term
        assert record["literals"] == list(seed) and record["fallback"] == "timeout"

    def test_inclusion_preferred_sufficient_notion_honours_timeout(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111", "--kind", "inclusion-preferred",
            "--strata", "x4;x2,x3;x1", "--notion", "sufficient", "--timeout", "0", "--json",
        )
        assert code == EXIT_PARTIAL
        record = json.loads(out)
        assert record["size"] == 4 and record["fallback"] == "timeout"

    def test_comprehensible_runs_past_the_timeout(self, capsys, model_file):
        # A first check cut short would read as "no comprehensible reason".
        code, out, _ = run(
            capsys, "explain", model_file, "1111", "--kind", "comprehensible",
            "--intelligible", "x1,x2,x4", "--notion", "sufficient", "--timeout", "0", "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["literals"] == [1, 4]

    def test_partial_result_reports_its_elapsed_time(self, capsys, model_file):
        code, out, _ = run(
            capsys, "explain", model_file, "1111",
            "--kind", "sufficient", "--timeout", "0", "--json",
        )
        assert code == EXIT_PARTIAL
        assert json.loads(out)["elapsed"] > 0

    @pytest.mark.parametrize(
        "kind, label",
        [("minimal-sufficient", "minimal_sufficient"), ("approx-minimal", "approx_minimal")],
    )
    def test_single_tree_kinds_carry_their_own_label(self, capsys, tmp_path, kind, label):
        path = tmp_path / "tree.json"
        dump_forest(RandomForest(orchid_trees()[2:]), str(path))
        code, out, _ = run(capsys, "explain", str(path), "1111", "--kind", kind, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == label

    def test_validation_tripwire_rejects_corrupt_reason(self, model_file):
        from rfreasons.cli import validate_reason
        from rfreasons.core import Term
        from rfreasons.explain import Reason, ReasonKind

        forest = load_forest(model_file)
        doctored = Reason(Term((2, 4)), ReasonKind.SUFFICIENT, (1, 1, 1, 1))
        with pytest.raises(AssertionError):
            validate_reason(forest, doctored)


class TestConvertAndNegate:
    def test_cnf_conversion(self, capsys, tmp_path):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        out_model = tmp_path / "cnf_model.json"
        code, out, _ = run(capsys, "convert", str(cnf), "--from", "cnf", "-o", str(out_model))
        assert code == EXIT_OK and "3 trees" in out
        forest = load_forest(str(out_model))
        assert forest.tree_count == 3
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert forest.evaluate(x) == x[1]

    def test_dnf_conversion(self, capsys, tmp_path):
        dnf = tmp_path / "in.dnf"
        dnf.write_text("p dnf 2 1\n1 -2 0\n")
        out_model = tmp_path / "dnf_model.json"
        code, _, _ = run(capsys, "convert", str(dnf), "--from", "dnf", "-o", str(out_model))
        assert code == EXIT_OK
        forest = load_forest(str(out_model))
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert forest.evaluate(x) == (1 if x[0] and not x[1] else 0)

    @pytest.mark.parametrize("fmt", ["cnf", "dnf"])
    def test_too_deep_output_is_refused(self, capsys, tmp_path, fmt):
        width = 1500
        source = tmp_path / f"wide.{fmt}"
        source.write_text(
            f"p {fmt} {width} 1\n" + " ".join(map(str, range(1, width + 1))) + " 0\n"
        )
        out_model = tmp_path / "wide.json"
        code, _, err = run(capsys, "convert", str(source), "--from", fmt, "-o", str(out_model))
        assert code == 1 and "too deeply" in err
        assert not out_model.exists()

    def test_double_negation_predictions(self, capsys, model_file, instances_file, tmp_path):
        once = tmp_path / "neg.json"
        twice = tmp_path / "negneg.json"
        assert run(capsys, "negate", model_file, "-o", str(once))[0] == EXIT_OK
        assert run(capsys, "negate", str(once), "-o", str(twice))[0] == EXIT_OK
        code, out, _ = run(capsys, "classify", str(twice), instances_file)
        assert out.split() == ["1", "0"]
        code, out, _ = run(capsys, "classify", str(once), instances_file)
        assert out.split() == ["0", "1"]

    def test_parse_error_reports_line(self, capsys, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 b 0\n")
        code, _, err = run(capsys, "convert", str(cnf), "--from", "cnf", "-o", str(tmp_path / "x.json"))
        assert code == 1 and "line 2" in err


@st.composite
def dimacs_documents(draw):
    """(format, text): a well-formed CNF or DNF document (duplicate,
    unsorted, tautological or inconsistent rows included), then possibly
    mutated by token insertions and character deletions, and read as
    either format."""
    fmt = draw(st.sampled_from(["cnf", "dnf"]))
    n = draw(st.integers(0, 5))
    literal = st.integers(-n, n).filter(bool)
    rows = draw(st.lists(st.lists(literal, max_size=6 if n else 0), max_size=5))
    text = f"p {fmt} {n} {len(rows)}\n" + "".join(
        " ".join(map(str, row)) + " 0\n" for row in rows
    )
    token = st.sampled_from(
        ["0", "-0", "1", "-1", "7", "-3", "p", "cnf", "dnf", "c", "x", "1.5", "\n", " "]
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(token) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
    if draw(st.integers(0, 4)) == 0:
        fmt = "dnf" if fmt == "cnf" else "cnf"
    return fmt, text


@settings(max_examples=300, deadline=None)
@given(dimacs_documents())
def test_convert_exits_0_or_1_on_any_document(document):
    fmt, text = document
    with tempfile.TemporaryDirectory() as work:
        source = Path(work) / f"in.{fmt}"
        source.write_text(text)
        out_model = Path(work) / "out.json"
        code = main(["convert", str(source), "--from", fmt, "-o", str(out_model)])
        assert code in (EXIT_OK, 1)
        if code == EXIT_OK:
            load_forest(str(out_model))


@st.composite
def instance_documents(draw):
    """Instance rows for the four-feature orchid model, some of another
    width, under an optional header of any width, then possibly mutated
    by token insertions and character deletions."""
    width = draw(st.sampled_from([4, 4, 4, 3, 5]))
    rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=width, max_size=width), max_size=4))
    names = draw(st.lists(st.sampled_from(["a", "b", "x1", "leaves"]), min_size=1, max_size=6))
    text = (",".join(names) + "\n" if draw(st.booleans()) else "") + "".join(
        ",".join(row) + "\n" for row in rows
    )
    token = st.sampled_from(["0", "1", "2", "-1", ",", "\n", " ", "a", '"', "1.5"])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(token) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
    return text


@settings(max_examples=200, deadline=None)
@given(instance_documents())
def test_instance_file_commands_exit_0_or_1(text):
    with tempfile.TemporaryDirectory() as work:
        model = Path(work) / "orchid.json"
        dump_forest(RandomForest(orchid_trees()), str(model))
        source = Path(work) / "instances.csv"
        source.write_text(text)
        assert main(["classify", str(model), str(source)]) in (EXIT_OK, 1)
        out_csv = str(Path(work) / "stats.csv")
        code = main(["stats", str(model), str(source), "--kinds", "direct", "--out", out_csv])
        assert code in (EXIT_OK, 1)


class TestFixtureGen:
    def test_generates_constant_one_forest(self, capsys, tmp_path):
        target = tmp_path / "parity.json"
        code, out, _ = run(capsys, "fixture-gen", "--parity", "2", "--copies", "1", "-o", str(target))
        assert code == EXIT_OK and "3 trees" in out
        forest = load_forest(str(target))
        assert forest.tree_count == 3
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert forest.evaluate(x) == 1

    def test_majoritary_cannot_shrink_on_fixture(self, capsys, tmp_path):
        target = tmp_path / "parity.json"
        run(capsys, "fixture-gen", "--parity", "2", "--copies", "1", "-o", str(target))
        code, out, _ = run(capsys, "explain", str(target), "10", "--kind", "majoritary", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["literals"] == [1, -2]

    def test_sufficient_is_empty_on_fixture(self, capsys, tmp_path):
        target = tmp_path / "parity.json"
        run(capsys, "fixture-gen", "--parity", "2", "--copies", "1", "-o", str(target))
        code, out, _ = run(capsys, "explain", str(target), "10", "--kind", "sufficient", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["literals"] == []

    @pytest.mark.parametrize("width", [1200, rfreasons.cli._MAX_PARITY + 1])
    def test_width_past_the_bound_is_refused(self, capsys, tmp_path, width):
        # the tree builder recurses once per level, and the file doubles per level
        target = tmp_path / "parity.json"
        code, _, err = run(capsys, "fixture-gen", "--parity", str(width), "--copies", "1", "-o", str(target))
        assert code == 1 and "--parity" in err
        assert not target.exists()

    def test_copies_past_the_bound_are_refused(self, capsys, tmp_path):
        # width and copies share one size budget: 2**15 copies at width 1
        target = tmp_path / "parity.json"
        code, _, err = run(capsys, "fixture-gen", "--parity", "1", "--copies", "40000", "-o", str(target))
        assert code == 1 and "--copies" in err
        assert not target.exists()


class TestStats:
    def test_golden_sizes(self, capsys, model_file, tmp_path):
        inst = tmp_path / "one.csv"
        inst.write_text("1,1,1,1\n")
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", model_file, str(inst),
            "--kinds", "direct,sufficient,majoritary", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("instance,kind,size")
        sizes = {}
        for line in lines[1:]:
            if line.startswith("#") or not line:
                continue
            cells = line.split(",")
            sizes[cells[1]] = int(cells[2])
        assert sizes["direct"] == 4
        assert sizes["sufficient"] <= 3
        assert sizes["majoritary"] == 3

    def test_flags_are_shared_across_kinds(self, capsys, tmp_path):
        single = tmp_path / "single.json"
        dump_forest(RandomForest(orchid_trees()[:1]), str(single))
        inst = tmp_path / "one.csv"
        inst.write_text("1,1,1,1\n")
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", str(single), str(inst),
            "--kinds", "direct,delta-probable", "--delta", "3/4", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        rows = [l for l in out_csv.read_text().splitlines()[1:] if l and not l.startswith("#")]
        assert [r.split(",")[1] for r in rows] == ["direct", "delta-probable"]
        assert all(r.split(",")[-1] == "" for r in rows)  # no error recorded

    def test_empty_kinds_rejected(self, capsys, model_file, instances_file):
        code, _, err = run(capsys, "stats", model_file, instances_file, "--kinds", " ")
        assert code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "0"], "--jobs must be at least 1"),
            (["--jobs", "-5"], "--jobs must be at least 1"),
            (["--timeout", "nan"], "--timeout must be a non-negative number"),
            (["--timeout", "-1"], "--timeout must be a non-negative number"),
        ],
    )
    def test_out_of_range_flag_rejected(
        self, capsys, model_file, instances_file, flags, message
    ):
        code, out, err = run(
            capsys, "stats", model_file, instances_file, "--kinds", "direct", *flags
        )
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kinds", "majoritary", "--permutations", "0"], "--permutations must be at least 1"),
            (["--kinds", "direct,comprehensible"], "--kind comprehensible needs --intelligible"),
            (["--kinds", "minimal-sufficient"], "needs a single-tree model"),
            (["--kinds", "direct", "--delta", "3/4"], "--kind direct does not read --delta"),
            (["--kinds", "direct,sufficient", "--seed", "7"], "reads --seed"),
        ],
    )
    def test_request_mistake_fails_the_run_once(
        self, capsys, model_file, instances_file, flags, message
    ):
        # explain refuses these too; stats must not turn them into rows
        code, out, err = run(capsys, "stats", model_file, instances_file, *flags)
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kinds", "minimal-weight", "--weights", "x9:1"], "feature index 9 out of range"),
            (["--kinds", "minimal-weight", "--weights", "x1:0"], "must be a positive int"),
            (["--kinds", "inclusion-preferred", "--strata", "x9"], "feature index 9 out of range"),
            (["--kinds", "comprehensible", "--intelligible", "y"], "unknown feature 'y'"),
            (["--kinds", "delta-probable", "--delta", "abc"], "not a number in --delta"),
            (["--kinds", "delta-probable", "--delta", "1/0"], "--delta has a zero denominator"),
            (["--kinds", "delta-probable", "--delta", "2"], "delta must be within [0, 1]"),
            (["--kinds", "lime", "--linear-weights", "1,1"], "--linear-weights length must match"),
            (
                ["--kinds", "lime", "--linear-weights", "1/0,1,1,1"],
                "--linear-weights has a zero denominator",
            ),
            (
                ["--kinds", "lime", "--linear-weights", "1,x,1,1"],
                "not a number in --linear-weights",
            ),
        ],
    )
    def test_malformed_value_fails_the_run_once(
        self, capsys, tmp_path, instances_file, flags, message
    ):
        # wrong for every instance alike, so no row is written
        single = tmp_path / "single.json"
        dump_forest(RandomForest(orchid_trees()[:1]), str(single))
        code, out, err = run(capsys, "stats", str(single), instances_file, *flags)
        assert code == 1 and out == "" and message in err

    def test_lime_disagreement_stays_in_its_row(self, capsys, model_file, instances_file):
        # the linear model votes 0 on both rows; the forest votes 1 on the first
        code, out, _ = run(
            capsys, "stats", model_file, instances_file,
            "--kinds", "lime", "--linear-weights=-1,-1,-1,-1",
        )
        assert code == EXIT_OK
        rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
        assert rows[0].endswith("the linear model disagrees with the forest on this instance")
        assert rows[1].startswith("2,lime,") and rows[1].endswith(",")  # no error

    def test_timeout_zero_falls_back(self, capsys, model_file, instances_file, tmp_path):
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", model_file, instances_file,
            "--kinds", "minimal-majoritary", "--timeout", "0", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        rows = [l for l in out_csv.read_text().splitlines()[1:] if l and not l.startswith("#")]
        for row in rows:
            cells = row.split(",")
            assert cells[4] == "false"  # optimal
            assert cells[2] == "4"  # fallback is the full instance term
        parsed, _ = parse_instances(instances_file, 4)
        assert len(rows) == len(parsed)

    def test_timeout_row_agrees_with_explain(self, capsys, model_file, instances_file, tmp_path):
        # explain returns a valid partial reason here; stats must record it too
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", model_file, instances_file,
            "--kinds", "sufficient", "--timeout", "0", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        rows = [l for l in out_csv.read_text().splitlines()[1:] if l and not l.startswith("#")]
        forest = load_forest(model_file)
        instances, _ = parse_instances(instances_file, 4)
        assert len(rows) == len(instances) == 2
        for row, x in zip(rows, instances):
            cells = row.split(",")
            # the majoritary seed, the last verified term
            seed = majoritary_reason(forest, x).term
            assert cells[2] == str(len(seed)) and cells[7] == seed.render()
            assert cells[-1] == ""  # no error recorded

    def test_sat_notion_is_validated_against_sat_oracle(self, capsys, model_file, tmp_path):
        # x1 ∧ x4 is exact-implicant-only: the majority oracle would reject it
        inst = tmp_path / "one.csv"
        inst.write_text("1,1,1,1\n")
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", model_file, str(inst),
            "--kinds", "comprehensible", "--notion", "sufficient",
            "--intelligible", "x1,x4", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        rows = [l for l in out_csv.read_text().splitlines()[1:] if l and not l.startswith("#")]
        assert rows[0].split(",")[2] == "2"  # size of x1 ∧ x4
        assert rows[0].split(",")[-1] == ""  # no error recorded

    def test_trajectories_side_file(self, capsys, model_file, instances_file, tmp_path):
        out_csv = tmp_path / "stats.csv"
        traj = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "stats", model_file, instances_file,
            "--kinds", "minimal-majoritary", "--out", str(out_csv),
            "--trajectories", str(traj),
        )
        assert code == EXIT_OK
        lines = traj.read_text().splitlines()
        assert lines[0] == "instance,kind,elapsed,cost"
        assert len(lines) > 1

    def test_lines_end_in_line_feeds(self, capsys, model_file, instances_file, tmp_path):
        # header, data rows, error rows, summary lines and trajectories alike
        out_csv, traj = tmp_path / "stats.csv", tmp_path / "traj.csv"
        flags = ("--kinds", "minimal-majoritary,lime", "--linear-weights=-1,-1,-1,-1")
        code, _, _ = run(
            capsys, "stats", model_file, instances_file, *flags,
            "--out", str(out_csv), "--trajectories", str(traj),
        )
        assert code == EXIT_OK
        stats, side = out_csv.read_bytes(), traj.read_bytes()
        assert b"# summary" in stats and b"disagrees" in stats and side.count(b"\n") > 1
        for data in (stats, side):
            assert b"\r" not in data and data.endswith(b"\n")
        code, out, _ = run(capsys, "stats", model_file, instances_file, *flags)
        assert code == EXIT_OK and "\r" not in out and out.count("\n") == stats.count(b"\n")

    # one flag set per kind that reads one; stats gives majoritary 50 permutations
    KIND_FLAGS = {
        "majoritary": ("--permutations", "50"),
        "minimal-weight": ("--weights", "x1:3,x2:2"),
        "comprehensible": ("--intelligible", "x1,x3,x4"),
        "inclusion-preferred": ("--strata", "x4;x2,x3;x1"),
        "lime": ("--linear-weights", "3,-1,-1,1"),
        "delta-probable": ("--delta", "3/4"),
    }

    @pytest.mark.parametrize("single_tree", [False, True])
    def test_rows_are_explain_records(self, capsys, monkeypatch, tmp_path, single_tree):
        model = tmp_path / "m.json"
        dump_forest(RandomForest(orchid_trees()[: 1 if single_tree else 3]), str(model))
        inst = tmp_path / "i.csv"
        inst.write_text("".join(",".join(map(str, x)) + "\n" for x in (X_POS, X_NEG)))
        kinds = [k for k, spec in KIND_TABLE.items() if spec.single_tree == single_tree]
        flags = [f for k in kinds if k != "majoritary" for f in self.KIND_FLAGS.get(k, ())]
        reasons = {}

        def recording(forest, x, s):
            reasons[x, s.kind] = compute_reason(forest, x, s)
            return reasons[x, s.kind]

        monkeypatch.setattr(rfreasons.cli, "compute_reason", recording)
        out_csv, traj = tmp_path / "stats.csv", tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "stats", str(model), str(inst), "--kinds", ",".join(kinds), *flags,
            "--out", str(out_csv), "--trajectories", str(traj),
        )
        monkeypatch.undo()  # explain below computes its own reasons
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if not r["instance"].startswith("#")]
        assert len(rows) == 2 * len(kinds)
        logged = []
        for row in rows:
            x = (X_POS, X_NEG)[int(row["instance"]) - 1]
            code, out, _ = run(
                capsys, "explain", str(model), "".join(map(str, x)), "--kind", row["kind"],
                *self.KIND_FLAGS.get(row["kind"], ()), "--json",
            )
            assert code == EXIT_OK and not row["error"]
            record = json.loads(out)
            assert [row[k] for k in ("size", "optimal", "cost", "probability", "reason")] == [
                str(record["size"]),
                "true" if record["optimal"] else "false",
                "" if record["cost"] is None else str(record["cost"]),
                record["probability"] or "",
                record["rendered"],
            ]
            logged.extend(
                [row["instance"], row["kind"], str(round(elapsed, 6)), str(cost)]
                for elapsed, cost in reasons[x, row["kind"]].extras.get("log", ())
            )
        with open(traj, newline="") as fh:
            assert list(csv.reader(fh))[1:] == logged
        assert single_tree or logged

    def test_workers_at_most_one_per_instance(self, capsys, monkeypatch, model_file, tmp_path):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(rfreasons.cli, "ProcessPoolExecutor", RecordingPool)
        for rows, workers in (("1,1,1,1\n0,1,0,0\n", [2]), ("1,1,1,1\n", []), ("", [])):
            started.clear()
            inst = tmp_path / "inst.csv"
            inst.write_text(rows)
            code, _, _ = run(capsys, "stats", model_file, str(inst), "--kinds", "direct", "--jobs", "5000")
            assert code == EXIT_OK and started == workers

    def test_parallel_keeps_input_order(self, capsys, model_file, tmp_path):
        inst = tmp_path / "many.csv"
        inst.write_text("1,1,1,1\n0,1,0,0\n1,0,1,1\n0,0,0,0\n")
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        run(capsys, "stats", model_file, str(inst), "--kinds", "direct,majoritary", "--out", str(seq))
        run(capsys, "stats", model_file, str(inst), "--kinds", "direct,majoritary", "--out", str(par), "--jobs", "2")
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        seq_rows = [l.rsplit(",", 6)[0:1] + l.split(",")[0:3] for l in strip(seq.read_text())]
        par_rows = [l.rsplit(",", 6)[0:1] + l.split(",")[0:3] for l in strip(par.read_text())]
        # identical rows modulo the elapsed timing column
        def stable(rows):
            return [(r[1], r[2], r[3]) for r in rows[1:]]
        assert stable(seq_rows) == stable(par_rows)


def test_runtime_imports_no_numpy():
    # numpy is a test-only dependency; the installed program must run without it
    env = {**os.environ, "PYTHONPATH": str(Path(rfreasons.__file__).parents[1])}
    code = "import sys, rfreasons.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
