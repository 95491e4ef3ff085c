import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import DecisionTree, ModelFormatError, RandomForest, Term
from rfreasons.models import (
    InstanceFormatError,
    document_to_forest,
    dump_forest,
    forest_to_document,
    load_forest,
    parse_instances,
    write_stats,
)


def model_document(**fields):
    doc = {
        "format": "rfreasons-forest",
        "format_version": 1,
        "var_count": 2,
        "feature_names": None,
        "trees": [{"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}}],
    }
    doc.update(fields)
    return doc


# Integers stay small so that a loaded forest's instances can be built.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def valid_or_any(valid):
    return valid | json_values


node_records = st.recursive(
    st.fixed_dictionaries({"leaf": valid_or_any(st.sampled_from([0, 1]))}),
    lambda inner: st.fixed_dictionaries(
        {
            "var": valid_or_any(st.integers(1, 4)),
            "low": valid_or_any(inner),
            "high": valid_or_any(inner),
        }
    ),
    max_leaves=6,
)

model_documents = st.fixed_dictionaries(
    {
        "format_version": valid_or_any(st.just(1)),
        "var_count": valid_or_any(st.integers(0, 4)),
        "trees": valid_or_any(st.lists(valid_or_any(node_records), min_size=1, max_size=3)),
    },
    optional={
        "format": valid_or_any(st.just("rfreasons-forest")),
        "feature_names": valid_or_any(st.lists(st.text(max_size=3), max_size=4)),
    },
)


class TestModelFiles:
    def test_round_trip(self, orchid, tmp_path):
        path = tmp_path / "model.json"
        dump_forest(orchid, str(path))
        again = load_forest(str(path))
        assert again == orchid
        # parse -> serialize -> parse is structurally stable
        assert forest_to_document(again) == forest_to_document(orchid)

    def test_empty_feature_names_survive(self, tmp_path):
        forest = RandomForest([DecisionTree.leaf(1, 0)], [])
        path = tmp_path / "empty.json"
        dump_forest(forest, str(path))
        assert load_forest(str(path)).feature_names == ()

    def test_feature_names_survive(self, tmp_path):
        forest = RandomForest(
            [DecisionTree.leaf(1, 2)], ["fragrant", "sympodial"]
        )
        path = tmp_path / "named.json"
        dump_forest(forest, str(path))
        assert load_forest(str(path)).feature_names == ("fragrant", "sympodial")

    def test_duplicate_feature_names_refused(self):
        with pytest.raises(ModelFormatError, match="distinct"):
            RandomForest([DecisionTree.leaf(1, 2)], ["a", "a"])

    def test_read_once_enforced_on_load(self):
        doc = {
            "format": "rfreasons-forest",
            "format_version": 1,
            "var_count": 2,
            "feature_names": None,
            "trees": [
                {"var": 1, "low": {"leaf": 0},
                 "high": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}}}
            ],
        }
        with pytest.raises(ModelFormatError):
            document_to_forest(doc)

    def test_version_and_format_checked(self):
        with pytest.raises(ModelFormatError):
            document_to_forest({"format": "something-else", "format_version": 1})
        with pytest.raises(ModelFormatError):
            document_to_forest({"format": "rfreasons-forest", "format_version": 99})

    @pytest.mark.parametrize(
        "fields",
        [
            {"var_count": None},
            {"var_count": True},
            {"var_count": "2"},
            {"feature_names": 5},
            {"feature_names": [1, 2]},
            {"feature_names": "ab"},
            {"trees": [{"var": None, "low": {"leaf": 0}, "high": {"leaf": 1}}]},
            {"trees": [{"var": 1.5, "low": {"leaf": 0}, "high": {"leaf": 1}}]},
            {"trees": [{"var": True, "low": {"leaf": 0}, "high": {"leaf": 1}}]},
            {"trees": [{"var": -1, "low": {"leaf": 0}, "high": {"leaf": 1}}]},
            {"trees": [{"leaf": True}]},
            {"trees": [{"leaf": 1.0}]},
            {"format_version": True},
            {"format_version": 1.0},
        ],
    )
    def test_malformed_field_types_refused(self, fields):
        with pytest.raises(ModelFormatError):
            document_to_forest(model_document(**fields))

    @settings(max_examples=300, deadline=None)
    @given(model_documents)
    def test_any_field_value_loads_or_is_refused(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "any.json"
        path.write_text(json.dumps(doc))
        try:
            forest = load_forest(str(path))
        except ModelFormatError:
            return
        n = forest.var_count
        for x in ((0,) * n, (1,) * n):
            assert forest.evaluate(x) in (0, 1)
            Term.of_instance(x).render(forest.feature_names)
        dump_forest(forest, str(path))
        assert load_forest(str(path)) == forest

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_forest(str(path))


def text_file(tmp_path, text: str) -> str:
    path = tmp_path / "inst.csv"
    path.write_text(text)
    return str(path)


class TestInstanceFiles:
    def test_plain_rows(self, tmp_path):
        instances, header = parse_instances(text_file(tmp_path, "1,0,1\n0,0,0\n"), 3)
        assert header is None
        assert instances == [(1, 0, 1), (0, 0, 0)]

    def test_header_detected(self, tmp_path):
        instances, header = parse_instances(text_file(tmp_path, "a,b\n1,0\n"), 2)
        assert header == ["a", "b"]
        assert instances == [(1, 0)]

    def test_empty_file(self, tmp_path):
        instances, header = parse_instances(text_file(tmp_path, ""), 2)
        assert instances == [] and header is None

    def test_malformed_bit_names_row_and_column(self, tmp_path):
        with pytest.raises(InstanceFormatError) as e:
            parse_instances(text_file(tmp_path, "1,0\n0,2\n"), 2)
        assert "row 2" in str(e.value) and "column 2" in str(e.value)

    def test_dimension_check(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            parse_instances(text_file(tmp_path, "1,0,1\n"), var_count=2)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("a,b\n1,0\n0,1\n")
        instances, header = parse_instances(str(path), 2)
        assert instances == [(1, 0), (0, 1)]
        assert header == ["a", "b"]


class TestStatsCsv:
    def test_columns_and_summary(self):
        rows = [
            {"instance": 1, "kind": "direct", "size": 4, "elapsed": 0.001, "optimal": False},
            {"instance": 1, "kind": "sufficient", "size": 2, "elapsed": 0.002, "optimal": False},
            {"instance": 2, "kind": "direct", "size": 2, "elapsed": 0.001, "optimal": False},
            {"instance": 2, "kind": "sufficient", "size": None, "error": "boom"},
        ]
        buf = io.StringIO()
        write_stats(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "instance,kind,size,elapsed,optimal,cost,probability,reason,error"
        assert lines[1].startswith("1,direct,4,")
        summaries = [l for l in lines if l.startswith("# summary")]
        assert "# summary kind=direct count=2 mean_size=3.0000 stddev_size=1.0000" in summaries
        # errored rows stay out of the aggregates
        assert not any("kind=sufficient count=2" in s for s in summaries)
