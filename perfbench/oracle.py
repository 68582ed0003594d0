"""Benchmark queries as data: SQL rendering plus an independent NumPy oracle.

A query is a small dict the workloads build from their seed::

    {"table": "cam_0" | "all_cameras",
     "select": "*" | ["image_id", ...] | "count" | "count_by_location",
     "where": tree | None, "order_desc": "timestamp" | None, "limit": n | None}

    tree := ("contains", category) | ("meta", column, op, literal)
          | ("and", [tree, ...]) | ("or", [tree, ...]) | ("not", tree)

:func:`to_sql` renders the dialect of :mod:`repro.query.sql`.  The oracle
never goes through the query's parse, plan or execution: it asks
``db.explain`` which cascade each shard selects for each predicate, runs that cascade with
``Cascade.classify`` over the shard's raw frames, and evaluates the tree
with NumPy masks over the generated metadata.
"""

from __future__ import annotations

import numpy as np

FANOUT = "all_cameras"

_OPS = {"=": np.equal, "!=": np.not_equal, "<": np.less, "<=": np.less_equal,
        ">": np.greater, ">=": np.greater_equal}


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _tree_sql(tree) -> str:
    kind = tree[0]
    if kind == "contains":
        return f"contains_object({tree[1]})"
    if kind == "meta":
        _, column, op, value = tree
        return f"{column} {op} {_literal(value)}"
    if kind == "not":
        return f"NOT ({_tree_sql(tree[1])})"
    joiner = " AND " if kind == "and" else " OR "
    return "(" + joiner.join(_tree_sql(child) for child in tree[1]) + ")"


def to_sql(query: dict) -> str:
    select = query["select"]
    if select == "count":
        head = "SELECT count(*)"
    elif select == "count_by_location":
        head = "SELECT location, count(*)"
    elif select == "*":
        head = "SELECT *"
    else:
        head = "SELECT " + ", ".join(select)
    sql = f"{head} FROM {query['table']}"
    if query.get("where") is not None:
        sql += f" WHERE {_tree_sql(query['where'])}"
    if select == "count_by_location":
        sql += " GROUP BY location"
    if query.get("order_desc"):
        sql += f" ORDER BY {query['order_desc']} DESC"
    if query.get("limit") is not None:
        sql += f" LIMIT {query['limit']}"
    return sql


def categories(tree) -> set[str]:
    if tree is None:
        return set()
    if tree[0] == "contains":
        return {tree[1]}
    if tree[0] == "meta":
        return set()
    if tree[0] == "not":
        return categories(tree[1])
    return set().union(*(categories(child) for child in tree[1]))


def answer(rows: list[dict], query: dict):
    """The comparable part of a result: ids, a count, or group counts."""
    if query["select"] == "count":
        return int(rows[0]["count(*)"]) if rows else 0
    if query["select"] == "count_by_location":
        return sorted((str(row["location"]), int(row["count(*)"]))
                      for row in rows)
    if query["table"] == FANOUT:
        return sorted((str(row["__table__"]), int(row["image_id"]))
                      for row in rows)
    ids = [int(row["image_id"]) for row in rows]
    return ids if query.get("order_desc") else sorted(ids)


def plan_cascades(plans) -> dict:
    """``{table: {category: cascade}}`` from ``db.explain`` output."""
    if not isinstance(plans, dict):
        plans = {plans.table: plans}
    return {table: {step.category: step.evaluation.cascade
                    for step in plan.content_steps}
            for table, plan in plans.items()}


class Oracle:
    """Expected answers from explained cascades over raw frames.

    ``tables`` maps a table name to its :class:`ImageCorpus` as generated
    (ids are row positions: the tables never drop rows).  Labels are cached
    per (table, cascade), so each cascade runs over each shard once.
    """

    def __init__(self, db, tables: dict) -> None:
        self.db = db
        self.tables = tables
        self._labels: dict[tuple[str, str], np.ndarray] = {}
        self._plans: dict[tuple[str, str], dict] = {}

    def _cascade_labels(self, table: str, cascade) -> np.ndarray:
        key = (table, cascade.name)
        if key not in self._labels:
            images = self.tables[table].images
            self._labels[key] = cascade.classify(images).astype(bool)
        return self._labels[key]

    def _mask(self, tree, table: str, cascades: dict) -> np.ndarray:
        kind = tree[0]
        if kind == "contains":
            return self._cascade_labels(table, cascades[tree[1]])
        if kind == "meta":
            _, column, op, value = tree
            return _OPS[op](self.tables[table].metadata[column], value)
        if kind == "not":
            return ~self._mask(tree[1], table, cascades)
        masks = [self._mask(child, table, cascades) for child in tree[1]]
        combine = np.logical_and if kind == "and" else np.logical_or
        return combine.reduce(masks)

    def cascades(self, query: dict) -> dict:
        """``{shard: {category: cascade}}`` as ``db.explain`` selects them.

        Selection is per category and shard, so each (table, category) is
        explained once, with a one-predicate query, and reused.
        """
        table = query["table"]
        shards = list(self.tables) if table == FANOUT else [table]
        per_table: dict[str, dict] = {shard: {} for shard in shards}
        for category in sorted(categories(query.get("where"))):
            key = (table, category)
            if key not in self._plans:
                self._plans[key] = plan_cascades(self.db.explain(
                    f"SELECT image_id FROM {table} "
                    f"WHERE contains_object({category})"))
            for shard, chosen in self._plans[key].items():
                per_table[shard].update(chosen)
        return per_table

    def expected(self, query: dict):
        """The answer :func:`answer` should extract from the real result."""
        selected: dict[str, np.ndarray] = {}
        for table, cascades in self.cascades(query).items():
            n = len(self.tables[table].images)
            mask = (np.ones(n, dtype=bool) if query.get("where") is None
                    else self._mask(query["where"], table, cascades))
            selected[table] = np.flatnonzero(mask)
        select = query["select"]
        if select == "count":
            return int(sum(ids.size for ids in selected.values()))
        if select == "count_by_location":
            counts: dict[str, int] = {}
            for table, ids in selected.items():
                locations = self.tables[table].metadata["location"][ids]
                for location in locations:
                    counts[str(location)] = counts.get(str(location), 0) + 1
            return sorted(counts.items())
        if query["table"] == FANOUT:
            return sorted((table, int(i)) for table, ids in selected.items()
                          for i in ids)
        (table, ids), = selected.items()
        if query.get("order_desc"):
            column = self.tables[table].metadata[query["order_desc"]]
            ids = ids[np.argsort(-column[ids], kind="stable")]
        if query.get("limit") is not None:
            ids = ids[:query["limit"]]
        return [int(i) for i in ids]
