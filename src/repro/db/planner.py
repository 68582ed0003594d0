"""Query planning: a logical query becomes a cost-ordered physical plan.

The planner performs the query-time half of the paper's predicate
optimization.  The offline half — evaluating every cascade of a predicate
under a cost profile — runs once per (optimizer, profile fingerprint) inside
:meth:`~repro.core.optimizer.TahomaOptimizer.frontier`; planning a
``contains_object`` predicate is then a frontier lookup plus a walk over the
short Pareto frontier to select the cascade honouring the user's
constraints.  The planner estimates each predicate's selectivity from the
optimizer's cached evaluation-set predictions (or from labels the shard has
already materialized), and orders the content predicates by estimated
selectivity x selected-cascade cost so that cheap, selective predicates
shrink the candidate set before expensive ones run.  Metadata predicates
always run first — they cost microseconds and touch no pixels.

The resulting :class:`QueryPlan` is a pure description: executing it is the
job of :class:`~repro.db.executor.QueryExecutor`, and ``db.explain(sql)``
returns it directly for inspection.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.evaluator import CascadeEvaluation
from repro.core.optimizer import TahomaOptimizer
from repro.costs.profiler import CostProfiler
from repro.query.ast import (Aggregate, AndExpr, BooleanExpr, NotExpr,
                             OrderItem, OrExpr, PredicateExpr, SelectItem,
                             conjunctive_predicates, select_label)
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.query.processor import Query

__all__ = ["MetadataStep", "ContentStep", "QueryPlan", "QueryPlanner",
           "PlanAnd", "PlanOr", "PlanNot",
           "estimate_selectivity", "annotate_plan_dict",
           "DEFAULT_SELECTIVITY"]

#: Selectivity assumed when an evaluation carries no positive rate (e.g. an
#: externally built evaluation installed via ``register_optimizer``).
DEFAULT_SELECTIVITY = 0.5


def estimate_selectivity(evaluation: CascadeEvaluation) -> float:
    """Fraction of images the selected cascade is expected to label positive.

    :func:`~repro.core.evaluator.evaluate_cascade` records the cascade's
    positive rate while replaying its decision logic over the cached
    evaluation-set probabilities, so the estimate is free at plan time.
    Evaluations without a recorded positive rate (NaN — possible for
    externally built evaluations) fall back to :data:`DEFAULT_SELECTIVITY`
    with a warning, so planning and ``db.explain()`` keep working.

    Caveat: the evaluation split is typically class-balanced, so this is the
    cascade's positive rate *at a ~50% base rate*, not the predicate's
    frequency in the corpus.  The planner therefore prefers corpus-calibrated
    selectivity observed from materialized labels when a ``selectivity_hook``
    provides one.
    """
    rate = evaluation.positive_rate
    if np.isnan(rate):
        warnings.warn(
            f"evaluation {evaluation.name!r} carries no positive_rate; "
            f"assuming selectivity {DEFAULT_SELECTIVITY}",
            stacklevel=2)
        return DEFAULT_SELECTIVITY
    return float(rate)


@dataclass(frozen=True)
class MetadataStep:
    """One cheap metadata filter in the physical plan."""

    predicate: MetadataPredicate

    def describe(self) -> str:
        return f"filter   {self.predicate}"


@dataclass(frozen=True)
class ContentStep:
    """One content predicate with its selected cascade and cost estimates."""

    predicate: ContainsObject
    evaluation: CascadeEvaluation
    selectivity: float
    cost_per_image_s: float

    @property
    def category(self) -> str:
        return self.predicate.category

    @property
    def rank(self) -> float:
        """Ordering key: estimated selectivity x selected-cascade cost."""
        return self.selectivity * self.cost_per_image_s

    def describe(self) -> str:
        lines = [f"cascade  {self.predicate}",
                 f"    cascade     : {self.evaluation.name}",
                 f"    selectivity : {self.selectivity:.2f} (estimated)",
                 f"    cost/image  : {self.cost_per_image_s * 1e3:.3f} ms "
                 f"({self.evaluation.throughput:,.0f} fps)",
                 f"    exp accuracy: {self.evaluation.accuracy:.3f}"]
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanNot:
    """Negation node of a physical predicate tree."""

    child: "PlanExpr"


@dataclass(frozen=True)
class PlanAnd:
    """Conjunction node; children are in execution order (cheap/selective
    first), and each child only sees rows every earlier child accepted."""

    children: tuple["PlanExpr", ...]


@dataclass(frozen=True)
class PlanOr:
    """Disjunction node; children are in execution order (cheap first), and
    each child only evaluates rows every earlier child left undecided."""

    children: tuple["PlanExpr", ...]


#: A physical predicate-tree node: steps at the leaves, boolean combinators
#: above them.
PlanExpr = "MetadataStep | ContentStep | PlanAnd | PlanOr | PlanNot"


def _node_stats(node) -> tuple[float, float]:
    """(estimated selectivity, expected cost per candidate) of one node.

    Metadata filters cost ~0 and, lacking statistics, are assumed to pass
    half their input; content steps carry the planner's estimates.  For AND
    the children run in order on a shrinking candidate set; for OR on a
    shrinking *undecided* set.
    """
    if isinstance(node, MetadataStep):
        return 0.5, 0.0
    if isinstance(node, ContentStep):
        return node.selectivity, node.cost_per_image_s
    if isinstance(node, PlanNot):
        selectivity, cost = _node_stats(node.child)
        return 1.0 - selectivity, cost
    if isinstance(node, PlanAnd):
        surviving, cost = 1.0, 0.0
        for child in node.children:
            child_selectivity, child_cost = _node_stats(child)
            cost += surviving * child_cost
            surviving *= child_selectivity
        return surviving, cost
    if isinstance(node, PlanOr):
        undecided, cost = 1.0, 0.0
        for child in node.children:
            child_selectivity, child_cost = _node_stats(child)
            cost += undecided * child_cost
            undecided *= 1.0 - child_selectivity
        return 1.0 - undecided, cost
    raise TypeError(f"not a plan node: {node!r}")


def _and_rank(node) -> float:
    """AND-child ordering key: selectivity x cost (cheap, selective first)."""
    selectivity, cost = _node_stats(node)
    return selectivity * cost


def _or_rank(node) -> float:
    """OR-child ordering key: (1 - selectivity) x cost — a likely-true cheap
    disjunct decides the most rows before any expensive child runs."""
    selectivity, cost = _node_stats(node)
    return (1.0 - selectivity) * cost


def _json_value(value):
    """A JSON-safe copy of one predicate literal (tuples become lists)."""
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _node_dict(node) -> dict:
    """Serialize one predicate-tree node for :meth:`QueryPlan.to_dict`."""
    if isinstance(node, MetadataStep):
        return {"op": "filter",
                "column": node.predicate.column,
                "operator": node.predicate.operator,
                "value": _json_value(node.predicate.value)}
    if isinstance(node, ContentStep):
        return {"op": "cascade", **_content_step_dict(node)}
    if isinstance(node, PlanNot):
        return {"op": "not", "child": _node_dict(node.child)}
    label = "and" if isinstance(node, PlanAnd) else "or"
    return {"op": label,
            "children": [_node_dict(child) for child in node.children]}


def _content_step_dict(step: ContentStep) -> dict:
    return {"category": step.category,
            "cascade": step.evaluation.name,
            "depth": step.evaluation.depth,
            "selectivity": float(step.selectivity),
            "cost_per_image_s": float(step.cost_per_image_s),
            "expected_accuracy": float(step.evaluation.accuracy),
            "throughput_fps": float(step.evaluation.throughput)}


def _annotated_node(node, node_stats: dict) -> dict:
    """Serialize one plan node with estimated *and* actual execution stats.

    ``node_stats`` maps ``id(plan node)`` to the executor's measurements for
    that node (rows in/out, actual selectivity, rows classified, elapsed
    seconds).  Nodes execution never reached — e.g. an OR disjunct decided
    away by short-circuiting — carry no ``"actual"`` key, which is itself
    informative.
    """
    if isinstance(node, PlanNot):
        rendered = {"op": "not",
                    "child": _annotated_node(node.child, node_stats)}
    elif isinstance(node, (PlanAnd, PlanOr)):
        rendered = {"op": "and" if isinstance(node, PlanAnd) else "or",
                    "children": [_annotated_node(child, node_stats)
                                 for child in node.children]}
    else:
        rendered = _node_dict(node)
    estimated, _ = _node_stats(node)
    rendered.setdefault("estimated_selectivity", float(estimated))
    actual = node_stats.get(id(node))
    if actual is not None:
        rendered["actual"] = dict(actual)
    return rendered


def annotate_plan_dict(plan: "QueryPlan", node_stats: dict) -> dict:
    """:meth:`QueryPlan.to_dict` with per-node ``"actual"`` blocks attached.

    The ``EXPLAIN ANALYZE`` serialization: every predicate node carries its
    planner estimate (``estimated_selectivity``) next to the executor's
    measurements (``actual``: rows in/out, actual selectivity, rows
    classified, elapsed seconds), keyed off ``node_stats`` as recorded by
    :class:`~repro.db.executor.QueryExecutor` during the run.
    """
    rendered = plan.to_dict()
    rendered["metadata_steps"] = [_annotated_node(step, node_stats)
                                  for step in plan.metadata_steps]
    rendered["content_steps"] = [_annotated_node(step, node_stats)
                                 for step in plan.content_steps]
    if plan.predicate_tree is not None:
        rendered["predicate_tree"] = _annotated_node(plan.predicate_tree,
                                                     node_stats)
    return rendered


def _describe_node(node, indent: str = "") -> str:
    """Render one predicate-tree node for ``QueryPlan.describe()``."""
    if isinstance(node, MetadataStep):
        return f"{indent}filter   {node.predicate}"
    if isinstance(node, ContentStep):
        return (f"{indent}cascade  {node.predicate} "
                f"[{node.evaluation.name}, sel {node.selectivity:.2f}, "
                f"{node.cost_per_image_s * 1e3:.3f} ms/image]")
    if isinstance(node, PlanNot):
        return f"{indent}NOT\n{_describe_node(node.child, indent + '  ')}"
    label = "AND" if isinstance(node, PlanAnd) else "OR"
    lines = [f"{indent}{label}"]
    lines.extend(_describe_node(child, indent + "  ")
                 for child in node.children)
    return "\n".join(lines)


@dataclass(frozen=True)
class QueryPlan:
    """The physical plan for one query, lowered from the logical pipeline
    Scan -> Filter -> Aggregate -> OrderBy -> Project -> Limit.

    For a conjunctive query (the paper's shape) the filter is the flat
    ``metadata_steps`` + ``content_steps`` (already in execution order,
    ascending selectivity x cost) and ``predicate_tree`` is ``None`` — the
    executor runs the seed's chunked path unchanged.  A query with OR/NOT
    carries the ordered boolean tree in ``predicate_tree``;
    ``content_steps`` then still lists every cascade leaf (for provenance),
    but execution follows the tree with mask-based short-circuiting.

    ``select``/``group_by``/``order_by`` carry the projection, grouping and
    sort stages; ``db.explain(sql)`` returns this object and ``str(plan)``
    renders the human-readable form.
    """

    metadata_steps: tuple[MetadataStep, ...]
    content_steps: tuple[ContentStep, ...]
    limit: int | None = None
    scenario_name: str = ""
    table: str = ""
    predicate_tree: "PlanExpr | None" = None
    select: tuple[SelectItem, ...] | None = None
    group_by: tuple[str, ...] = ()
    order_by: tuple[OrderItem, ...] = ()

    @property
    def aggregates(self) -> tuple[Aggregate, ...]:
        """The aggregate items of the SELECT list, in SELECT order."""
        return tuple(item for item in (self.select or ())
                     if isinstance(item, Aggregate))

    @property
    def is_aggregate(self) -> bool:
        """Whether the plan produces groups (aggregates / GROUP BY)."""
        return bool(self.aggregates) or bool(self.group_by)

    def referenced_columns(self) -> frozenset:
        """Columns the post-filter stages read: SELECT list (including
        aggregate arguments), GROUP BY and ORDER BY keys.

        The executor uses this to force classification of selected rows for
        any content-derived ``contains_*`` column these stages consume — a
        short-circuited OR may select rows without evaluating every cascade,
        and aggregating a placeholder label would corrupt the answer.
        """
        names = set(self.group_by)
        for item in (self.select or ()) + tuple(entry.key
                                                for entry in self.order_by):
            if isinstance(item, Aggregate):
                if item.argument is not None:
                    names.add(item.argument)
            else:
                names.add(item)
        return frozenset(names)

    @property
    def allow_early_stop(self) -> bool:
        """Whether ``LIMIT`` may stop execution early.

        Under aggregates or ORDER BY the limit applies to the *final* groups
        or sorted rows, so the executor must evaluate every candidate first;
        stopping early there would silently drop rows from the answer.
        """
        return not self.is_aggregate and not self.order_by

    @property
    def categories(self) -> tuple[str, ...]:
        """The content-predicate categories, in execution order."""
        return tuple(step.category for step in self.content_steps)

    def expected_cost_per_candidate_s(self) -> float:
        """Expected content cost per candidate image surviving metadata.

        Each content step's per-image cost is weighted by the product of the
        selectivities of the steps before it, mirroring how earlier
        predicates shrink the set later cascades must classify.
        """
        total, surviving = 0.0, 1.0
        for step in self.content_steps:
            total += surviving * step.cost_per_image_s
            surviving *= step.selectivity
        return total

    def describe(self) -> str:
        target = f", table={self.table!r}" if self.table else ""
        header = f"QueryPlan (scenario={self.scenario_name or 'unknown'}{target})"
        lines = [header]
        number = 1
        if self.predicate_tree is not None:
            body = _describe_node(self.predicate_tree).replace("\n", "\n   ")
            lines.append(f"  {number}. {body}")
            number += 1
        else:
            for step in self.metadata_steps:
                body = step.describe().replace("\n", "\n   ")
                lines.append(f"  {number}. {body}")
                number += 1
            for step in self.content_steps:
                body = step.describe().replace("\n", "\n   ")
                lines.append(f"  {number}. {body}")
                number += 1
        if self.is_aggregate:
            spec = ", ".join(aggregate.label for aggregate in self.aggregates)
            if self.group_by:
                spec += f"{' ' if spec else ''}group by " + \
                        ", ".join(self.group_by)
            lines.append(f"  {number}. aggregate {spec}")
            number += 1
        if self.order_by:
            keys = ", ".join(str(item) for item in self.order_by)
            lines.append(f"  {number}. order by {keys}")
            number += 1
        if self.select is not None and not self.is_aggregate:
            columns = ", ".join(select_label(item) for item in self.select)
            lines.append(f"  {number}. project  {columns}")
            number += 1
        if self.limit is not None:
            lines.append(f"  {number}. limit    {self.limit}")
        if self.content_steps:
            lines.append(f"  expected content cost per candidate: "
                         f"{self.expected_cost_per_candidate_s() * 1e3:.3f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable form of the plan (``EXPLAIN`` over the wire).

        Carries the same information as :meth:`describe` — predicate tree
        (or the flat conjunctive steps), selected cascades with estimated
        selectivity/cost, projection, grouping, sort and limit stages, and
        the expected content cost per candidate — as plain dicts and lists,
        so clients can inspect plans without the repro package installed.
        """
        return {
            "scenario": self.scenario_name,
            "table": self.table,
            "limit": self.limit,
            "select": (None if self.select is None
                       else [select_label(item) for item in self.select]),
            "group_by": list(self.group_by),
            "order_by": [{"key": item.label, "ascending": item.ascending}
                         for item in self.order_by],
            "is_aggregate": self.is_aggregate,
            "metadata_steps": [_node_dict(step)
                               for step in self.metadata_steps],
            "content_steps": [_content_step_dict(step)
                              for step in self.content_steps],
            "predicate_tree": (None if self.predicate_tree is None
                               else _node_dict(self.predicate_tree)),
            "expected_cost_per_candidate_s":
                self.expected_cost_per_candidate_s(),
        }

    def __str__(self) -> str:
        return self.describe()


class QueryPlanner:
    """Turns logical queries into physical plans.

    Parameters
    ----------
    optimizers:
        Mapping from category name to an initialized
        :class:`~repro.core.optimizer.TahomaOptimizer`.
    profiler:
        The cost profiler of the active deployment scenario.  Both attributes
        are plain and mutable, so a long-lived planner can follow scenario
        switches (``db.use_scenario``).
    selectivity_hook:
        Optional ``(category, cascade_name) -> float | None`` callable
        supplying corpus-calibrated selectivity — typically the positive
        rate observed over already-materialized virtual columns
        (:meth:`~repro.db.executor.QueryExecutor.observed_positive_rate`).
        ``None`` (or a ``None`` return) falls back to the evaluation-set
        estimate.
    metrics:
        The registry planning time is recorded on
        (``repro_query_plan_seconds`` by table); a private registry is
        created when omitted.
    """

    def __init__(self, optimizers: dict[str, TahomaOptimizer],
                 profiler: CostProfiler,
                 selectivity_hook: Callable[[str, str], float | None]
                 | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.optimizers = dict(optimizers)
        self.profiler = profiler
        self.selectivity_hook = selectivity_hook
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plan_seconds = self.metrics.histogram(
            "repro_query_plan_seconds")

    def _optimizer_for(self, category: str) -> TahomaOptimizer:
        try:
            return self.optimizers[category]
        except KeyError:
            raise KeyError(f"no optimizer installed for category {category!r}; "
                           f"available: {sorted(self.optimizers)}") from None

    def _content_step(self, predicate: ContainsObject,
                      constraints, cache: dict) -> ContentStep:
        """Select a cascade for one category (once per query, cached)."""
        if predicate.category in cache:
            return cache[predicate.category]
        optimizer = self._optimizer_for(predicate.category)
        evaluation = optimizer.select(self.profiler, constraints,
                                      metrics=self.metrics)
        selectivity = None
        if self.selectivity_hook is not None:
            selectivity = self.selectivity_hook(predicate.category,
                                                evaluation.cascade.name)
        if selectivity is None:
            selectivity = estimate_selectivity(evaluation)
        step = ContentStep(predicate=predicate, evaluation=evaluation,
                           selectivity=selectivity,
                           cost_per_image_s=evaluation.cost.total_s)
        cache[predicate.category] = step
        return step

    def _lower(self, expr: BooleanExpr, constraints, cache: dict):
        """Lower one AST node into an ordered physical plan node.

        Children of AND are ordered by estimated selectivity x cost (the
        paper's rule, generalized to subtrees); children of OR by
        (1 - selectivity) x cost — a likely-true cheap disjunct decides the
        most rows per unit cost, and every later child only evaluates rows
        the earlier children left undecided.  Metadata filters cost nothing
        and therefore always run before any cascade at the same level.
        """
        if isinstance(expr, PredicateExpr):
            if isinstance(expr.predicate, ContainsObject):
                return self._content_step(expr.predicate, constraints, cache)
            return MetadataStep(expr.predicate)
        if isinstance(expr, NotExpr):
            return PlanNot(self._lower(expr.child, constraints, cache))
        children = [self._lower(child, constraints, cache)
                    for child in expr.children]
        if isinstance(expr, AndExpr):
            children.sort(key=_and_rank)
            return PlanAnd(tuple(children))
        if isinstance(expr, OrExpr):
            children.sort(key=_or_rank)
            return PlanOr(tuple(children))
        raise TypeError(f"not a BooleanExpr node: {expr!r}")

    def plan(self, query: "Query", table: str | None = None) -> QueryPlan:
        """Select cascades, estimate selectivities and order the predicates.

        A conjunctive query (the original dialect) lowers to the seed's flat
        plan: metadata steps first, then content steps ordered by estimated
        selectivity x selected-cascade cost.  A query whose WHERE tree has
        OR/NOT lowers to an ordered :data:`PlanExpr` tree instead, with
        cascades selected once per category.

        ``table`` overrides the plan's table provenance — a fan-out query
        plans once per shard, and each shard's plan names the shard it was
        priced for (its ``selectivity_hook`` observes that shard's labels),
        not the virtual fan-out table.
        """
        started = time.perf_counter()
        cache: dict[str, ContentStep] = {}
        wanted = {predicate.category
                  for predicate in query.content_predicates}
        conjuncts = conjunctive_predicates(query.where)
        predicate_tree = None
        if conjuncts is not None:
            metadata_steps = tuple(MetadataStep(predicate)
                                   for predicate in query.metadata_predicates)
            content_steps = [self._content_step(predicate, query.constraints,
                                                cache)
                             for predicate in query.content_predicates]
            content_steps.sort(key=lambda step: step.rank)
        else:
            predicate_tree = self._lower(query.where, query.constraints, cache)
            metadata_steps = tuple(MetadataStep(predicate)
                                   for predicate in query.metadata_predicates)
            content_steps = sorted(
                (step for step in cache.values() if step.category in wanted),
                key=lambda step: step.rank)

        plan = QueryPlan(metadata_steps=metadata_steps,
                         content_steps=tuple(content_steps),
                         limit=query.limit,
                         scenario_name=self.profiler.scenario.name,
                         table=table if table is not None else query.table,
                         predicate_tree=predicate_tree,
                         select=query.select,
                         group_by=query.group_by,
                         order_by=query.order_by)
        self._plan_seconds.observe(time.perf_counter() - started,
                                   table=plan.table or "-")
        return plan
