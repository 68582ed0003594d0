"""Tests for the in-memory relation."""

import numpy as np
import pytest

from repro.query.relation import Relation


@pytest.fixture
def relation():
    return Relation({
        "location": np.array(["detroit", "seattle", "detroit", "austin"]),
        "camera_id": np.array([1, 2, 1, 3]),
    })


def test_length_and_columns(relation):
    assert len(relation) == 4
    assert relation.column_names() == ["camera_id", "location"]
    assert "location" in relation


def test_requires_columns():
    with pytest.raises(ValueError):
        Relation({})


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Relation({"a": np.zeros(3), "b": np.zeros(4)})


def test_column_access(relation):
    np.testing.assert_array_equal(relation["camera_id"], [1, 2, 1, 3])
    with pytest.raises(KeyError):
        relation.column("missing")


def test_with_column(relation):
    extended = relation.with_column("flag", np.array([1, 0, 1, 0]))
    assert "flag" in extended
    assert "flag" not in relation  # original unchanged


def test_with_column_length_check(relation):
    with pytest.raises(ValueError):
        relation.with_column("bad", np.zeros(2))


def test_filter(relation):
    mask = relation["location"] == "detroit"
    filtered = relation.filter(mask)
    assert len(filtered) == 2
    assert set(filtered["camera_id"]) == {1}


def test_filter_length_check(relation):
    with pytest.raises(ValueError):
        relation.filter(np.array([True, False]))


def test_project(relation):
    projected = relation.project(["location"])
    assert projected.column_names() == ["location"]
    with pytest.raises(ValueError):
        relation.project([])


def test_to_dict_is_copy(relation):
    columns = relation.to_dict()
    columns["new"] = np.zeros(4)
    assert "new" not in relation


class TestColumnValues:
    """Python values of a column: equal to ``tolist()``, and shared with the
    relation a derived relation came from."""

    @pytest.fixture
    def table(self):
        return Relation({
            "image_id": np.arange(10**6, 10**6 + 6),
            "location": np.array(["detroit", "seattle", "austin"] * 2),
            "speed": np.linspace(0.5, 3.0, 6),
        })

    def derived(self, table):
        mask = np.array([True, False, True, True, False, True])
        return {
            "with_column": table.with_column("flag", np.arange(6) % 2 == 0),
            "filter": table.filter(mask),
            "take": table.take(np.array([5, 0, -1, 2])),
            "take_mask": table.take(mask),
            "project": table.project(["speed", "image_id"]),
            "chain": table.with_column("flag", np.zeros(6, dtype=bool))
                          .filter(mask).take(np.array([3, 1])),
        }

    def test_values_equal_tolist(self, table):
        for name, relation in {"base": table, **self.derived(table)}.items():
            for column in relation.column_names():
                values = relation.column_values(column)
                assert values == relation[column].tolist(), (name, column)
                assert [type(v) for v in values] == \
                    [type(v) for v in relation[column].tolist()]

    def test_derived_rows_share_the_parent_objects(self, table):
        ids = table.column_values("image_id")
        shared = set(map(id, ids))
        for name, relation in self.derived(table).items():
            assert set(map(id, relation.column_values("image_id"))) <= shared, \
                name

    def test_values_are_built_once(self, table):
        assert table.column_values("location") is \
            table.column_values("location")

    def test_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.column_values("nope")
