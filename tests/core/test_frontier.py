"""The array cascade evaluator and the per-profile frontier cache.

Equivalence: :class:`~repro.core.evaluator.CascadeTable` must reproduce the
per-cascade oracle :func:`~repro.core.evaluator.evaluate_cascade` bitwise —
accuracy, positive rate, every cost component and every level fraction —
and therefore select the identical Pareto frontier.  Invalidation: a kept
frontier is never served for another cost profile or a rebuilt cascade set.
Concurrency: fan-out planning from many threads shares one frontier per
profile (this module also runs under ``pytest --sanitize``).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.cascade import CascadeBuilder
from repro.core.evaluator import (CascadeTable, EvaluatedCascadeSet,
                                  ModelPredictionCache, evaluate_cascade)
from repro.core.model import TrainedModel
from repro.core.optimizer import TahomaOptimizer
from repro.core.persistence import load_optimizer, save_optimizer
from repro.core.selector import UserConstraints
from repro.core.thresholds import DecisionThresholds
from repro.costs.device import DeviceProfile
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import ARCHIVE, CAMERA, ONGOING, PAPER_SCENARIOS
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect
from repro.telemetry.metrics import MetricsRegistry
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE

REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
FANOUT_SQL = "SELECT * FROM all_cameras WHERE contains_object(komondor)"


def assert_bitwise_equal(table_set: EvaluatedCascadeSet, cascades, cache,
                         profiler) -> None:
    """Every evaluation equals the oracle's exactly, frontier included."""
    oracle = [evaluate_cascade(cascade, cache, profiler)
              for cascade in cascades]
    assert len(table_set) == len(oracle)
    for got, want in zip(table_set.evaluations, oracle):
        assert got.cascade is want.cascade
        assert got.accuracy == want.accuracy
        assert got.positive_rate == want.positive_rate
        assert got.cost == want.cost
        assert got.level_fractions == want.level_fractions
        assert got.throughput == want.throughput
    oracle_set = EvaluatedCascadeSet(oracle)
    assert ([e.cascade for e in table_set.frontier()]
            == [e.cascade for e in oracle_set.frontier()])


def lookups(metrics: MetricsRegistry, outcome: str) -> int:
    return int(metrics.value("repro_frontier_lookups_total", outcome=outcome))


# -- equivalence ---------------------------------------------------------------
class TestSmokeScaleEquivalence:
    def test_every_cascade_every_scenario(self, smoke_workspace):
        for predicate in smoke_workspace.predicates.values():
            optimizer = predicate.optimizer
            table = CascadeTable(optimizer.cascades, optimizer.cache)
            for profiler in smoke_workspace.profilers().values():
                assert_bitwise_equal(table.evaluate(profiler),
                                     optimizer.cascades, optimizer.cache,
                                     profiler)


def synthetic_model(name: str, transform: TransformSpec, flops: int,
                    kind: str = "specialized") -> TrainedModel:
    # Pricing reads only flops and the transform; no network is needed.
    return TrainedModel(name=name, network=None, transform=transform,
                        kind=kind, flops=flops)


@pytest.fixture(scope="module")
def synthetic_pool():
    """Models, thresholds and probabilities built to hit every edge case.

    ``a`` and ``a2`` share one representation; thresholds include the
    degenerate (0.5, 0.5) pair; the probabilities sit exactly on every
    threshold and on the 0.5 final-level cut.
    """
    gray8 = TransformSpec(8, "gray")
    models = [synthetic_model("a", gray8, 2_000),
              synthetic_model("a2", gray8, 5_000),
              synthetic_model("b", TransformSpec(16, "rgb"), 9_000),
              synthetic_model("c", TransformSpec(16, "gray"), 4_000)]
    reference = synthetic_model("ref", TransformSpec(16, "rgb"), 90_000,
                                kind="reference")
    edges = np.array([0.0, 0.2, 0.3, 0.5, 0.7, 0.8, 1.0])
    rng = np.random.default_rng(5)
    n = 48
    probabilities = {}
    for model in models + [reference]:
        values = rng.random(n)
        values[:edges.size] = rng.permutation(edges)
        probabilities[model.name] = values
    labels = rng.integers(0, 2, n)
    thresholds = {
        "a": [DecisionThresholds(0.3, 0.7, 0.9),
              DecisionThresholds(0.5, 0.5, 0.95)],
        "a2": [DecisionThresholds(0.2, 0.8, 0.9),
               DecisionThresholds(0.3, 0.7, 0.95)],
        "b": [DecisionThresholds(0.3, 0.7, 0.9),
              DecisionThresholds(0.0, 1.0, 0.95)],
        "c": [DecisionThresholds(0.5, 0.5, 0.9),
              DecisionThresholds(0.2, 0.7, 0.95)],
        "ref": [DecisionThresholds(0.3, 0.7, 0.9)],
    }
    cache = ModelPredictionCache(probabilities, labels)
    return models, reference, thresholds, cache


class TestSyntheticEquivalence:
    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    @pytest.mark.parametrize("scenario", PAPER_SCENARIOS,
                             ids=lambda scenario: scenario.name)
    def test_edge_cases_bitwise(self, synthetic_pool, max_depth, scenario):
        models, reference, thresholds, cache = synthetic_pool
        cascades = CascadeBuilder(thresholds, max_depth=max_depth,
                                  reference_model=reference).build(models)
        assert any(cascade.ends_in_reference() for cascade in cascades)
        assert any(cascade.depth == 1 for cascade in cascades)
        profiler = CostProfiler(DeviceProfile("synthetic", 1e9), scenario,
                                source_resolution=16, cost_resolution=224)
        assert_bitwise_equal(CascadeTable(cascades, cache).evaluate(profiler),
                             cascades, cache, profiler)

    def test_shared_representation_is_paid_once(self, synthetic_pool):
        models, _, thresholds, cache = synthetic_pool
        cascades = CascadeBuilder(thresholds).build(models[:2], False)
        shared = [c for c in cascades if c.depth == 2]
        assert shared
        table = CascadeTable(shared, cache)
        assert not table.first_use[:, 1].any()
        profiler = CostProfiler(DeviceProfile("synthetic", 1e9), ARCHIVE,
                                source_resolution=16)
        assert_bitwise_equal(table.evaluate(profiler), shared, cache,
                             profiler)

    def test_empty_inputs_rejected(self, synthetic_pool):
        models, _, thresholds, cache = synthetic_pool
        with pytest.raises(ValueError):
            CascadeTable([], cache)
        cascades = CascadeBuilder(thresholds).build(models, False)
        empty = ModelPredictionCache(
            {name: np.zeros(0) for name in cache.probabilities}, np.zeros(0))
        with pytest.raises(ValueError):
            CascadeTable(cascades, empty)


# -- the frontier cache --------------------------------------------------------
@pytest.fixture()
def fresh_optimizer(tiny_optimizer, tiny_splits, tiny_config, tiny_reference):
    """An optimizer with no kept frontiers, sharing the tiny model pool."""
    optimizer = TahomaOptimizer(tiny_config)
    optimizer.initialize_with_models(tiny_optimizer.models, tiny_splits,
                                     reference_model=tiny_reference)
    return optimizer


class TestFrontierCache:
    def test_hit_returns_the_evaluated_frontier(self, fresh_optimizer,
                                                camera_profiler):
        metrics = MetricsRegistry()
        first = fresh_optimizer.frontier(camera_profiler, metrics)
        second = fresh_optimizer.frontier(camera_profiler, metrics)
        assert (lookups(metrics, "miss"), lookups(metrics, "hit")) == (1, 1)
        expected = fresh_optimizer.evaluate(camera_profiler).frontier()
        assert [e.cascade for e in first] == [e.cascade for e in expected]
        assert [e.cascade for e in second] == [e.cascade for e in expected]

    def test_hit_skips_evaluation(self, fresh_optimizer, camera_profiler,
                                  monkeypatch):
        fresh_optimizer.frontier(camera_profiler)

        def fail(profiler):
            raise AssertionError("evaluate() ran on a kept profile")
        monkeypatch.setattr(fresh_optimizer, "evaluate", fail)
        equal_profiler = CostProfiler(
            camera_profiler.device, camera_profiler.scenario,
            source_resolution=camera_profiler.source_resolution,
            cost_resolution=camera_profiler.cost_resolution)
        assert fresh_optimizer.frontier(equal_profiler)

    def test_callers_cannot_mutate_the_kept_frontier(self, fresh_optimizer,
                                                     camera_profiler):
        fresh_optimizer.frontier(camera_profiler).clear()
        assert fresh_optimizer.frontier(camera_profiler)

    def test_scenario_switch_gives_a_different_frontier(
            self, fresh_optimizer, infer_only_profiler, camera_profiler):
        infer_only = fresh_optimizer.frontier(infer_only_profiler)
        camera = fresh_optimizer.frontier(camera_profiler)
        assert ([e.throughput for e in infer_only]
                != [e.throughput for e in camera])
        for profiler, kept in ((infer_only_profiler, infer_only),
                               (camera_profiler, camera)):
            fresh = fresh_optimizer.evaluate(profiler).frontier()
            assert [e.point() for e in kept] == [e.point() for e in fresh]

    def test_reinitialize_drops_kept_frontiers(self, fresh_optimizer,
                                               tiny_splits, tiny_reference,
                                               camera_profiler):
        fresh_optimizer.frontier(camera_profiler)
        fresh_optimizer.initialize_with_models(
            fresh_optimizer.models[:2], tiny_splits,
            reference_model=tiny_reference)
        metrics = MetricsRegistry()
        frontier = fresh_optimizer.frontier(camera_profiler, metrics)
        assert lookups(metrics, "miss") == 1
        rebuilt = set(map(id, fresh_optimizer.cascades))
        assert all(id(e.cascade) in rebuilt for e in frontier)

    def test_load_optimizer_starts_cold(self, tiny_optimizer, tmp_path,
                                        camera_profiler):
        tiny_optimizer.frontier(camera_profiler)
        save_optimizer(tiny_optimizer, tmp_path / "komondor",
                       reference_params=REFERENCE_PARAMS)
        restored = load_optimizer(tmp_path / "komondor")
        metrics = MetricsRegistry()
        frontier = restored.frontier(camera_profiler, metrics)
        assert lookups(metrics, "miss") == 1
        restored_cascades = set(map(id, restored.cascades))
        assert all(id(e.cascade) in restored_cascades for e in frontier)
        assert ([e.point() for e in frontier]
                == [e.point() for e in tiny_optimizer.frontier(
                    camera_profiler)])

    def test_fingerprint_tracks_every_pricing_input(self, camera_profiler):
        base = camera_profiler
        same = CostProfiler(base.device, base.scenario,
                            source_resolution=base.source_resolution,
                            cost_resolution=base.cost_resolution)
        assert same.fingerprint() == base.fingerprint()
        hash(base.fingerprint())
        variants = [
            base.with_scenario(ONGOING),
            CostProfiler(base.device, base.scenario,
                         source_resolution=2 * base.source_resolution,
                         cost_resolution=base.cost_resolution),
            CostProfiler(base.device, base.scenario,
                         source_resolution=base.source_resolution,
                         cost_resolution=base.cost_resolution + 1),
            CostProfiler(base.device, base.scenario,
                         source_resolution=base.source_resolution,
                         source_channels=1,
                         cost_resolution=base.cost_resolution),
            CostProfiler(DeviceProfile("other", 1e9), base.scenario,
                         source_resolution=base.source_resolution,
                         cost_resolution=base.cost_resolution),
        ]
        fingerprints = {variant.fingerprint() for variant in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)


def make_corpus(n_images: int, seed: int, image_size: int = TINY_SIZE):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=image_size,
                           rng=np.random.default_rng(seed))


def make_db(optimizer, tiny_device, sizes=(TINY_SIZE, TINY_SIZE)):
    database = connect(
        {f"cam_{index}": make_corpus(12, seed=40 + index, image_size=size)
         for index, size in enumerate(sizes)},
        device=tiny_device, scenario=CAMERA, calibrate_target_fps=None,
        default_constraints=UserConstraints(max_accuracy_loss=0.1))
    database.register_optimizer("komondor", optimizer,
                                reference_params=REFERENCE_PARAMS)
    return database


class TestPlannerUsesTheFrontierCache:
    def test_equal_shards_share_one_frontier(self, fresh_optimizer,
                                             tiny_device):
        db = make_db(fresh_optimizer, tiny_device)
        db.explain(FANOUT_SQL)
        db.explain(FANOUT_SQL)
        assert lookups(db.metrics, "miss") == 1
        assert lookups(db.metrics, "hit") == 3

    def test_shards_at_different_resolutions_price_apart(
            self, fresh_optimizer, tiny_device):
        db = make_db(fresh_optimizer, tiny_device,
                     sizes=(TINY_SIZE, 2 * TINY_SIZE))
        plans = db.explain(FANOUT_SQL)
        assert lookups(db.metrics, "miss") == 2
        costs = {table: plan.content_steps[0].evaluation.cost
                 for table, plan in plans.items()}
        assert costs["cam_0"] != costs["cam_1"]

    def test_scenario_switch_replans_from_its_own_frontier(
            self, fresh_optimizer, tiny_device):
        db = make_db(fresh_optimizer, tiny_device)
        sql = "SELECT * FROM cam_0 WHERE contains_object(komondor)"
        camera = db.explain(sql).content_steps[0].evaluation
        db.use_scenario("archive")
        archive = db.explain(sql).content_steps[0].evaluation
        assert lookups(db.metrics, "miss") == 2
        expected = fresh_optimizer.select(
            db.profiler, UserConstraints(max_accuracy_loss=0.1))
        assert archive.cascade is expected.cascade
        assert archive.cost != camera.cost

    def test_replaced_optimizer_is_planned_from_scratch(
            self, fresh_optimizer, tiny_optimizer, tiny_splits,
            tiny_reference, tiny_device):
        old = make_db(fresh_optimizer, tiny_device)
        old.explain(FANOUT_SQL)
        replacement = TahomaOptimizer(tiny_optimizer.config)
        replacement.initialize_with_models(tiny_optimizer.models[:2],
                                           tiny_splits,
                                           reference_model=tiny_reference)
        new = make_db(replacement, tiny_device)
        plans = new.explain(FANOUT_SQL)
        assert lookups(new.metrics, "miss") == 1
        fresh = set(map(id, replacement.cascades))
        assert all(id(plan.content_steps[0].evaluation.cascade) in fresh
                   for plan in plans.values())


class TestConcurrentPlanning:
    def test_fanout_planning_from_many_threads(self, fresh_optimizer,
                                               tiny_device):
        db = make_db(fresh_optimizer, tiny_device,
                     sizes=(TINY_SIZE, TINY_SIZE, 2 * TINY_SIZE))
        n_threads, rounds = 6, 4
        barrier = threading.Barrier(n_threads)
        chosen, errors = [], []

        def plan_loop():
            try:
                barrier.wait()
                for _ in range(rounds):
                    plans = db.explain(FANOUT_SQL)
                    chosen.append({table: plan.content_steps[0].evaluation
                                   .cascade.name
                                   for table, plan in plans.items()})
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=plan_loop)
                   for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(chosen) == n_threads * rounds
        assert all(choice == chosen[0] for choice in chosen)
        total = lookups(db.metrics, "hit") + lookups(db.metrics, "miss")
        assert total == n_threads * rounds * 3
        # Two fingerprints; racing misses may evaluate twice, but only one
        # frontier per fingerprint is kept.
        assert 2 <= lookups(db.metrics, "miss") <= 2 * n_threads
        assert len(fresh_optimizer._frontiers) == 2
