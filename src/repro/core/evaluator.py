"""Fast cascade evaluation from cached per-model predictions (Section V-D/E).

The key trick that makes evaluating millions of cascades cheap is that every
cascade is a combination of the same basic models: each model is run over the
held-out evaluation set exactly once, and every cascade's accuracy and
expected cost are then *simulated* from those cached probabilities.

:class:`CascadeTable` does the simulation for a whole cascade set at once:
when it is built, the set is laid out as per-level index arrays and every
cascade's decisions are replayed over a models x evaluation-rows probability
matrix; pricing it under a cost profile is then a few array operations per
cascade level.  :func:`evaluate_cascade` replays one cascade at a time; it
is the reference the table is tested against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cascade import Cascade
from repro.core.model import TrainedModel
from repro.core.pareto import pareto_frontier_indices
from repro.costs.profiler import CostBreakdown, CostProfiler
from repro.storage.store import RepresentationStore

__all__ = ["ModelPredictionCache", "CascadeEvaluation", "EvaluatedCascadeSet",
           "CascadeTable", "evaluate_cascade", "evaluate_cascades"]


class ModelPredictionCache:
    """Cached probabilities of every model on one labeled image set."""

    def __init__(self, probabilities: dict[str, np.ndarray],
                 labels: np.ndarray) -> None:
        self.labels = np.asarray(labels, dtype=np.int64).ravel()
        self.probabilities = {}
        for name, probs in probabilities.items():
            probs = np.asarray(probs, dtype=np.float64).ravel()
            if probs.shape != self.labels.shape:
                raise ValueError(
                    f"predictions for {name!r} have length {probs.size}, "
                    f"expected {self.labels.size}")
            self.probabilities[name] = probs

    @classmethod
    def from_models(cls, models: list[TrainedModel], images: np.ndarray,
                    labels: np.ndarray,
                    store: RepresentationStore | None = None,
                    batch_size: int = 256) -> "ModelPredictionCache":
        """Run every model once over ``images`` and cache its probabilities.

        A shared :class:`~repro.storage.store.RepresentationStore` avoids
        re-transforming the images for models that share a representation.
        """
        store = store if store is not None else RepresentationStore()
        probabilities = {}
        for model in models:
            representation = store.get_or_transform(model.transform, images)
            probabilities[model.name] = model.predict_proba_transformed(
                representation, batch_size=batch_size)
        return cls(probabilities, labels)

    def get(self, model: TrainedModel) -> np.ndarray:
        try:
            return self.probabilities[model.name]
        except KeyError:
            raise KeyError(f"model {model.name!r} not in prediction cache") from None

    def __contains__(self, model: TrainedModel) -> bool:
        return model.name in self.probabilities

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def n_examples(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True, eq=False)
class CascadeEvaluation:
    """Accuracy and expected per-image cost of one cascade.

    ``positive_rate`` is the fraction of evaluation-set images the cascade
    labels positive — the query planner's selectivity estimate for the
    predicate.  NaN for evaluations built without a decision replay.
    """

    cascade: Cascade
    accuracy: float
    cost: CostBreakdown
    level_fractions: tuple[float, ...]
    positive_rate: float = float("nan")

    @property
    def throughput(self) -> float:
        """Images per second under the profiler's deployment scenario."""
        return self.cost.throughput_fps

    @property
    def name(self) -> str:
        return self.cascade.name

    @property
    def depth(self) -> int:
        return self.cascade.depth

    def point(self) -> tuple[float, float]:
        """The (accuracy, throughput) point used for Pareto analysis."""
        return (self.accuracy, self.throughput)


def evaluate_cascade(cascade: Cascade, cache: ModelPredictionCache,
                     profiler: CostProfiler) -> CascadeEvaluation:
    """Simulate one cascade over the evaluation set and price it.

    Accuracy comes from replaying the cascade's decision logic on the cached
    probabilities.  Expected cost follows the paper's accounting: a level's
    inference cost is weighted by the fraction of images that reach it, and a
    representation's load/transform cost is incurred at the first level that
    uses it (costs "occur once for a given input").
    """
    labels = cache.labels
    n = labels.size
    if n == 0:
        raise ValueError("evaluation set is empty")

    predictions = np.zeros(n, dtype=np.int64)
    reach_mask = np.ones(n, dtype=bool)
    level_fractions = []
    cost = CostBreakdown()
    seen_representations: set[str] = set()

    for level in cascade.levels:
        fraction_reaching = float(reach_mask.mean())
        level_fractions.append(fraction_reaching)
        probabilities = cache.get(level.model)

        # Expected inference cost: pay only for images that reach this level.
        cost = cost + CostBreakdown(
            infer_s=profiler.infer_time(level.model.flops)).scaled(fraction_reaching)

        # Data handling: first level to use a representation pays for it.
        representation_name = level.model.transform.name
        if representation_name not in seen_representations:
            handling = profiler.data_handling_cost(level.model.transform)
            cost = cost + handling.scaled(fraction_reaching)
            seen_representations.add(representation_name)

        if level.is_final:
            predictions[reach_mask] = (probabilities[reach_mask] >= 0.5)
            reach_mask = np.zeros(n, dtype=bool)
            break
        confident = level.thresholds.confident_mask(probabilities)
        decided_here = reach_mask & confident
        predictions[decided_here] = level.thresholds.decide(
            probabilities[decided_here])
        reach_mask = reach_mask & ~confident

    # Images never decided (possible only for malformed cascades) count as 0.
    accuracy = float((predictions == labels).mean())
    return CascadeEvaluation(cascade=cascade, accuracy=accuracy, cost=cost,
                             level_fractions=tuple(level_fractions),
                             positive_rate=float(predictions.mean()))


def evaluate_cascades(cascades: list[Cascade], cache: ModelPredictionCache,
                      profiler: CostProfiler) -> "EvaluatedCascadeSet":
    """Evaluate a whole cascade set under one deployment scenario."""
    return CascadeTable(cascades, cache).evaluate(profiler)


class CascadeTable:
    """A cascade set in array form, bound to one prediction cache.

    Building the table is the offline half of cascade evaluation.  Every
    cascade becomes one row of per-level indices: the model whose cached
    probabilities the level reads, the *stage* (a distinct ``(model, p_low,
    p_high)`` triple, or ``-1`` for an always-accept final level) and whether
    the level is the first in its cascade to use its representation.  Each
    stage's confident/decide masks are computed once and shared by every
    cascade that runs it, and every cascade's decisions are replayed over the
    evaluation rows then — accuracy, positive rate and the fraction of rows
    reaching each level do not depend on the cost profile.

    :meth:`evaluate` then only prices the cascades: one pass of array
    operations per cascade level, with the cost components accumulated in
    the same order as :func:`evaluate_cascade` (inference, then data
    handling), so its results are bitwise equal to the per-cascade oracle.
    """

    def __init__(self, cascades: list[Cascade],
                 cache: ModelPredictionCache) -> None:
        if not cascades:
            raise ValueError("cascades must be non-empty")
        n = cache.n_examples
        if n == 0:
            raise ValueError("evaluation set is empty")
        self.cascades = tuple(cascades)
        rows: dict[int, int] = {}
        models: list[TrainedModel] = []
        stages: dict[tuple[int, float, float], int] = {}
        depth = max(cascade.depth for cascade in self.cascades)
        self.level_model = np.zeros((len(self.cascades), depth), dtype=np.int64)
        level_stage = np.full((len(self.cascades), depth), -1, dtype=np.int64)
        self.first_use = np.zeros((len(self.cascades), depth), dtype=bool)
        for index, cascade in enumerate(self.cascades):
            seen: set[str] = set()
            for level_index, level in enumerate(cascade.levels):
                row = rows.setdefault(id(level.model), len(models))
                if row == len(models):
                    models.append(level.model)
                self.level_model[index, level_index] = row
                if level.thresholds is not None:
                    key = (row, level.thresholds.p_low, level.thresholds.p_high)
                    level_stage[index, level_index] = stages.setdefault(
                        key, len(stages))
                representation = level.model.transform.name
                if representation not in seen:
                    seen.add(representation)
                    self.first_use[index, level_index] = True
        self.models = tuple(models)
        self.depths = np.array([cascade.depth for cascade in self.cascades],
                               dtype=np.int64)

        probabilities = np.stack([cache.get(model) for model in models])
        stage_keys = np.array(list(stages), dtype=np.float64).reshape(-1, 3)
        confident, positive = _stage_masks(
            probabilities, stage_keys[:, 0].astype(np.int64),
            stage_keys[:, 1], stage_keys[:, 2])
        predictions, self.fractions = _replay_levels(
            self.level_model, level_stage, self.depths, confident, positive,
            probabilities >= 0.5)
        self.accuracy = (predictions == cache.labels).sum(axis=1) / n
        self.positive_rate = predictions.sum(axis=1) / n

    def evaluate(self, profiler: CostProfiler) -> "EvaluatedCascadeSet":
        """Price every cascade under one deployment cost profile."""
        infer = np.array([profiler.infer_time(model.flops)
                          for model in self.models], dtype=np.float64)
        handling = [profiler.data_handling_cost(model.transform)
                    for model in self.models]
        load = np.array([cost.load_s for cost in handling], dtype=np.float64)
        transform = np.array([cost.transform_s for cost in handling],
                             dtype=np.float64)
        load_s, transform_s, infer_s = _accumulate_costs(
            self.fractions, self.level_model, self.first_use, self.depths,
            infer, load, transform).tolist()
        accuracy = self.accuracy.tolist()
        positive_rate = self.positive_rate.tolist()
        fractions = self.fractions.tolist()
        depths = self.depths.tolist()
        evaluations = [
            CascadeEvaluation(
                cascade=cascade, accuracy=accuracy[i],
                cost=CostBreakdown(load_s[i], transform_s[i], infer_s[i]),
                level_fractions=tuple(fractions[i][:depths[i]]),
                positive_rate=positive_rate[i])
            for i, cascade in enumerate(self.cascades)]
        return EvaluatedCascadeSet(evaluations=evaluations,
                                   scenario_name=profiler.scenario.name)


def _stage_masks(probabilities: np.ndarray, stage_model: np.ndarray,
                 p_low: np.ndarray, p_high: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    # shape: (M, N), (S,), (S,), (S,) -> (S, N)
    # dtype: bool
    """Per-stage ``(confident, positive)`` masks over the evaluation rows.

    Mirrors :meth:`~repro.core.thresholds.DecisionThresholds.confident_mask`
    and ``decide`` for every distinct ``(model, p_low, p_high)`` at once.
    """
    stage_probabilities = probabilities[stage_model]
    positive = stage_probabilities >= p_high[:, None]
    confident = (stage_probabilities <= p_low[:, None]) | positive
    return confident, positive


def _replay_levels(level_model: np.ndarray, level_stage: np.ndarray,
                   depths: np.ndarray, stage_confident: np.ndarray,
                   stage_positive: np.ndarray, final_positive: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    # shape: (C, L), (C, L), (C,), (S, N), (S, N), (M, N) -> (C, N)
    # dtype: bool
    """Replay every cascade's decision logic over the evaluation rows.

    Returns the ``(C, N)`` predicted-positive matrix and the ``(C, L)``
    fraction of rows reaching each level (zero past a cascade's depth).
    Rows never decided — possible only for malformed cascades — stay
    negative, as in :func:`evaluate_cascade`.
    """
    n_cascades, n_levels = level_model.shape
    n = final_positive.shape[1]
    reach = np.ones((n_cascades, n), dtype=bool)
    predictions = np.zeros((n_cascades, n), dtype=bool)
    fractions = np.zeros((n_cascades, n_levels), dtype=np.float64)
    for level in range(n_levels):
        active = np.flatnonzero(depths > level)
        reaching = reach[active]
        fractions[active, level] = reaching.sum(axis=1) / n
        stage = level_stage[active, level]
        final = stage < 0
        rows, models = active[final], level_model[active[final], level]
        predictions[rows] = np.where(reaching[final], final_positive[models],
                                     predictions[rows])
        reach[rows] = False
        rows, stage = active[~final], stage[~final]
        decided = reaching[~final] & stage_confident[stage]
        predictions[rows] = np.where(decided, stage_positive[stage],
                                     predictions[rows])
        reach[rows] = reaching[~final] & ~stage_confident[stage]
    return predictions, fractions


def _accumulate_costs(fractions: np.ndarray, level_model: np.ndarray,
                      first_use: np.ndarray, depths: np.ndarray,
                      infer: np.ndarray, load: np.ndarray,
                      transform: np.ndarray) -> np.ndarray:
    # shape: (C, L), (C, L), (C, L), (C,), (M,), (M,), (M,) -> (3, C)
    # dtype: float64
    """Expected ``(load, transform, infer)`` seconds per image per cascade.

    Level by level, each level's inference cost — and, at the first level
    using a representation, its data-handling cost — is weighted by the
    fraction of rows reaching it, summed in level order exactly as
    :class:`~repro.costs.profiler.CostBreakdown` addition does.
    """
    n_cascades, n_levels = level_model.shape
    totals = np.zeros((3, n_cascades), dtype=np.float64)
    for level in range(n_levels):
        active = np.flatnonzero(depths > level)
        models = level_model[active, level]
        fraction = fractions[active, level]
        first = first_use[active, level]
        totals[2, active] += infer[models] * fraction
        totals[0, active] += np.where(first, load[models] * fraction, 0.0)
        totals[1, active] += np.where(first, transform[models] * fraction, 0.0)
    return totals


@dataclass(eq=False)
class EvaluatedCascadeSet:
    """All cascade evaluations for one predicate under one scenario."""

    evaluations: list[CascadeEvaluation]
    scenario_name: str = ""

    def __post_init__(self) -> None:
        if not self.evaluations:
            raise ValueError("evaluations must be non-empty")

    def __len__(self) -> int:
        return len(self.evaluations)

    def points(self) -> list[tuple[float, float]]:
        """All (accuracy, throughput) points."""
        return [evaluation.point() for evaluation in self.evaluations]

    def frontier(self) -> list[CascadeEvaluation]:
        """The Pareto-optimal evaluations, sorted by descending throughput."""
        accuracy = np.array([e.accuracy for e in self.evaluations])
        throughput = np.array([e.throughput for e in self.evaluations])
        indices = pareto_frontier_indices(accuracy, throughput)
        return [self.evaluations[i] for i in indices]

    def frontier_points(self) -> list[tuple[float, float]]:
        """The Pareto frontier as (accuracy, throughput) points."""
        return [evaluation.point() for evaluation in self.frontier()]

    def accuracy_range(self) -> tuple[float, float]:
        """The (min, max) accuracy spanned by the full cascade set."""
        accuracies = [e.accuracy for e in self.evaluations]
        return (min(accuracies), max(accuracies))

    def best_accuracy(self) -> CascadeEvaluation:
        """The most accurate cascade (ties broken by throughput)."""
        return max(self.evaluations, key=lambda e: (e.accuracy, e.throughput))

    def fastest(self) -> CascadeEvaluation:
        """The highest-throughput cascade (ties broken by accuracy)."""
        return max(self.evaluations, key=lambda e: (e.throughput, e.accuracy))
