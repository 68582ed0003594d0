"""The four workloads: inputs from the seed, set-up, a closed loop, checks.

Every workload follows one protocol, driven by ``run.py``:

* ``Workload(spec, pool_dir, seed, run_dir)`` generates its inputs from the
  seed (corpora, query literals, ingest batches) once per run;
* ``setup()`` builds a database (and server) from the cached model pool and
  warms it up, returning a state; ``teardown(state)`` releases it;
* ``run(state, deadline=..., cycles=..., tracer=...)`` runs each caller's
  op cycle in a closed loop until the deadline (whole cycles) or for the
  given per-caller cycle counts, and returns a :class:`Phase`;
* ``check(state, phases)`` compares every recorded answer with an
  independent oracle and returns ``(failures, digest)``.

The workload's cost must not depend on the seed (runs with different seeds
are compared with each other): the seed picks corpora and literals, never
the query shapes, predicates or table sizes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pool as pool_module
import tracer as tracing
from oracle import FANOUT, Oracle, answer, plan_cascades, to_sql

LOCATIONS = ("detroit", "seattle", "austin")
#: The dashboard's literal options: four sets, one value of each per set.
DASHBOARD_LITERALS = {"limit": [8, 12, 16, 20],
                      "camera": [2, 3, 4, 5],
                      "after": [0.0, 10_000.0, 20_000.0, 30_000.0],
                      "location": ["detroit", "seattle", "austin", "seattle"]}


@dataclass
class Phase:
    """What one closed-loop phase measured and recorded."""

    wall_s: float = 0.0
    untimed_s: float = 0.0
    op_latencies: list = field(default_factory=list)
    query_latencies: list = field(default_factory=list)
    frames: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def timed_wall_s(self) -> float:
        return self.wall_s - self.untimed_s


def _op(tracer):
    return tracer.span(tracing.ROOT) if tracer is not None else nullcontext()


def _keep_going(deadline, cycles, done: int) -> bool:
    if cycles is not None:
        return done < cycles
    return perf_counter() < deadline


def _run_callers(bodies: list, deadline, cycles) -> Phase:
    """Run one thread per caller body; merge their phases."""
    phase = Phase()
    results: list = [None] * len(bodies)
    errors: list = []

    def call(index: int) -> None:
        try:
            limit = cycles[index] if cycles is not None else None
            results[index] = bodies[index](deadline, limit)
        except BaseException as exc:  # noqa: BLE001 - reported as a failure
            errors.append(f"caller {index}: {type(exc).__name__}: {exc}")

    started = perf_counter()
    if len(bodies) == 1:
        call(0)
    else:
        threads = [threading.Thread(target=call, args=(index,),
                                    name=f"perfbench-caller-{index}")
                   for index in range(len(bodies))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.wall_s = perf_counter() - started
    phase.failures.extend(errors)
    for caller in results:
        if caller is None:
            phase.cycles.append(0)
            continue
        part = caller
        phase.untimed_s += part.untimed_s
        phase.op_latencies += part.op_latencies
        phase.query_latencies += part.query_latencies
        phase.frames += part.frames
        phase.attempted += part.attempted
        phase.failures += part.failures
        phase.answers += part.answers
        phase.cycles += part.cycles
    return phase


def _cascade_names(per_table: dict) -> dict:
    return {table: sorted(cascade.name for cascade in chosen.values())
            for table, chosen in per_table.items()}


def _digest(items) -> str:
    text = json.dumps(items, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Shared plumbing: the pool, corpora and database construction."""

    name = ""

    def __init__(self, spec: dict, pool_dir: Path, seed: int,
                 run_dir: Path) -> None:
        from repro.data.categories import get_category

        self.spec = spec["workloads"][self.name]
        self.pool_spec = spec["pool"]
        self.pool_dir = pool_dir
        self.seed = seed
        self.run_dir = run_dir
        self.predicates = tuple(self.pool_spec["predicates"])
        self.image_size = spec["common"]["image_size"]
        self._categories = tuple(get_category(name)
                                 for name in self.predicates)
        self.callers = self.spec["callers"]

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def corpus(self, n: int, stream: int, positive_rate: float):
        from repro.data.corpus import generate_corpus

        return generate_corpus(self._categories, n_images=n,
                               image_size=self.image_size,
                               rng=self.rng(stream),
                               positive_rate=positive_rate)

    def tables(self):
        rates = self.spec["positive_rate"]
        return {name: self.corpus(n, index, rates[index % len(rates)])
                for index, (name, n) in enumerate(self.spec["tables"].items())}

    @staticmethod
    def fresh(corpus):
        """A new ImageCorpus over the same arrays (ingest mutates corpora)."""
        from repro.data.corpus import ImageCorpus

        return ImageCorpus(images=corpus.images,
                           metadata=dict(corpus.metadata),
                           content=dict(corpus.content))

    def database(self, tables: dict, **kwargs):
        from repro.db import VisualDatabase
        from repro.experiments.presets import simulation_scenarios

        pool = pool_module.load_pool(self.pool_spec, self.pool_dir)
        db = VisualDatabase(
            {name: self.fresh(corpus) for name, corpus in tables.items()},
            device=pool.device,
            scenario=simulation_scenarios()[self.spec["scenario"]],
            cost_resolution=pool.scale.cost_resolution,
            source_resolution=pool.scale.image_size,
            calibrate_target_fps=None,
            plan_cache=self.spec["plan_cache"], **kwargs)
        for name, optimizer in pool.optimizers.items():
            db.register_optimizer(name, optimizer,
                                  reference_params=pool.reference_params)
        return db

    def materialize(self, db) -> None:
        """Classify every row of every table for every predicate."""
        for predicate in self.predicates:
            db.execute(f"SELECT count(*) FROM {FANOUT} "
                       f"WHERE contains_object({predicate})").fetchall()

    def teardown(self, state) -> None:
        state["db"].close()


class _QueryWorkload(Workload):
    """In-process query workloads (adhoc, scan): one caller, one db."""

    def setup(self) -> dict:
        db = self.database(self.inputs)
        self.warm_up(db)
        return {"db": db}

    def frames_of(self, query: dict) -> int:
        if query["table"] == FANOUT:
            return sum(self.spec["tables"].values())
        return self.spec["tables"][query["table"]]

    def before_op(self, db, query) -> None:
        """Untimed maintenance before each op (none by default)."""

    def run(self, state, *, deadline=None, cycles=None, tracer=None) -> Phase:
        db = state["db"]

        def body(deadline, limit):
            phase = Phase()
            done = 0
            while _keep_going(deadline, limit, done):
                for query in self.cycle(done):
                    sql = to_sql(query)
                    untimed = perf_counter()
                    self.before_op(db, query)
                    phase.untimed_s += perf_counter() - untimed
                    phase.attempted += 1
                    try:
                        with _op(tracer):
                            started = perf_counter()
                            rows = db.execute(sql).fetchall()
                            latency = perf_counter() - started
                    except Exception as exc:  # noqa: BLE001 - counted
                        phase.failures.append(f"{sql}: {exc!r}")
                        continue
                    phase.op_latencies.append(latency)
                    phase.query_latencies.append(latency)
                    phase.frames += self.frames_of(query)
                    phase.answers.append((query, answer(rows, query)))
                done += 1
            phase.cycles.append(done)
            return phase

        return _run_callers([body], deadline, cycles)

    def check(self, state, phases) -> tuple[list, str]:
        db = state["db"]
        oracle = Oracle(db, self.inputs)
        failures = []
        for phase in phases:
            for query, got in phase.answers:
                expected = oracle.expected(query)
                if got != expected:
                    failures.append(f"wrong answer: {to_sql(query)}")
        first_cycle = phases[0].answers[:len(self.cycle(0))]
        items = [[to_sql(query), got, _cascade_names(oracle.cascades(query))]
                 for query, got in first_cycle]
        return failures, _digest(items)


class Adhoc(_QueryWorkload):
    """Uncached planning over two materialised shards."""

    name = "adhoc"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.inputs = self.tables()

    def warm_up(self, db) -> None:
        self.materialize(db)

    def cycle(self, k: int) -> list[dict]:
        # Shapes, predicates and tables are fixed (the cost must not depend
        # on the seed); the seed only picks literals.  Four one-predicate
        # plans, three two-plan queries and one metadata filter keep the
        # median and p90 inside a group of equal-cost queries.
        rng = self.rng(100, k)
        a, b = self.predicates
        location = str(rng.choice(LOCATIONS))
        other = str(rng.choice([x for x in LOCATIONS if x != location]))
        before = round(float(rng.uniform(20_000, 60_000)), 1)
        camera = int(rng.integers(2, 6))
        t0, t1 = ("cam_0", "cam_1") if k % 2 == 0 else ("cam_1", "cam_0")
        return [
            {"table": t0, "select": "*", "where": ("contains", a)},
            {"table": t1, "select": "count",
             "where": ("and", [("contains", b),
                               ("meta", "camera_id", ">=", camera)])},
            {"table": t0, "select": ["image_id", "location"],
             "where": ("and", [("not", ("contains", a)),
                               ("meta", "location", "=", location)])},
            {"table": t1, "select": ["image_id"],
             "where": ("or", [("contains", b),
                              ("meta", "location", "=", other)])},
            {"table": t0, "select": ["image_id"],
             "where": ("and", [("contains", a), ("contains", b)])},
            {"table": t1, "select": ["image_id", "timestamp"],
             "where": ("or", [("contains", a), ("not", ("contains", b))])},
            {"table": FANOUT, "select": ["image_id"],
             "where": ("and", [("contains", b),
                               ("meta", "location", "!=", location)])},
            {"table": t0, "select": ["image_id", "location"],
             "where": ("and", [("meta", "location", "=", other),
                               ("meta", "timestamp", "<", before)])},
        ]


class Scan(_QueryWorkload):
    """Cold full scans: transform and classify every frame, every query."""

    name = "scan"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.inputs = self.tables()
        (self.table,) = self.spec["tables"]

    def warm_up(self, db) -> None:
        for query in self.cycle(0):
            db.execute(to_sql(query)).fetchall()

    def before_op(self, db, query) -> None:
        db.executor_for(self.table).clear_cache()

    def cycle(self, k: int) -> list[dict]:
        # [a, b, a]: the median and p90 then fall inside one predicate's
        # group whichever cascade is slower.
        a, b = self.predicates
        return [{"table": self.table, "select": ["image_id"],
                 "where": ("contains", predicate)} for predicate in (a, b, a)]


class Dashboard(Workload):
    """A client over TCP against a served, plan-cached database."""

    name = "dashboard"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.inputs = self.tables()
        self.literals = [self._literal_sets(client)
                         for client in range(self.callers)]

    def _literal_sets(self, client: int) -> list[dict]:
        # Fixed values, seed-permuted: every seed runs the same multiset of
        # result sizes, so the seed moves no cost.
        rng = self.rng(200, client)
        return [dict(zip(DASHBOARD_LITERALS, values))
                for values in zip(*(rng.permutation(options).tolist()
                                    for options in
                                    DASHBOARD_LITERALS.values()))]

    def cycle(self, client: int, k: int) -> list[dict]:
        a, b = self.predicates
        lit = self.literals[client][k % 4]
        table = f"cam_{(client + k) % 2}"
        return [
            {"table": table, "select": ["image_id", "location"],
             "where": ("contains", a), "limit": lit["limit"]},
            {"table": FANOUT, "select": "count_by_location",
             "where": ("and", [("contains", b),
                               ("meta", "camera_id", ">=", lit["camera"])])},
            {"table": table, "select": ["image_id", "timestamp"],
             "where": ("and", [("or", [("contains", a), ("contains", b)]),
                               ("meta", "timestamp", ">=", lit["after"])]),
             "order_desc": "timestamp", "limit": 100},
            {"table": table, "select": ["image_id"],
             "where": ("and", [("meta", "location", "=", lit["location"]),
                               ("meta", "camera_id", "<", 4)])},
        ]

    def setup(self) -> dict:
        from repro.server import connect, serve

        db = self.database(self.inputs)
        self.materialize(db)
        server = serve(db, port=0, **self.spec["server"])
        connections = [connect(*server.address, timeout=60)
                       for _ in range(self.callers)]
        for client, conn in enumerate(connections):
            for k in range(4):
                for query in self.cycle(client, k):
                    cursor = conn.execute(to_sql(query))
                    cursor.fetchall()
                    cursor.close()
        return {"db": db, "server": server, "connections": connections}

    def teardown(self, state) -> None:
        for conn in state["connections"]:
            conn.close()
        state["server"].close()
        state["db"].close()

    def run(self, state, *, deadline=None, cycles=None, tracer=None) -> Phase:
        def body_for(client: int):
            conn = state["connections"][client]

            def body(deadline, limit):
                phase = Phase()
                # Keep one answer per distinct SQL, so memory (and so
                # peak_rss_mb) does not grow with throughput.
                first: dict[str, list] = {}
                done = 0
                while _keep_going(deadline, limit, done):
                    for query in self.cycle(client, done):
                        sql = to_sql(query)
                        phase.attempted += 1
                        try:
                            with _op(tracer):
                                started = perf_counter()
                                cursor = conn.execute(sql)
                                rows = cursor.fetchall()
                                latency = perf_counter() - started
                                cursor.close()
                        except Exception as exc:  # noqa: BLE001 - counted
                            phase.failures.append(f"{sql}: {exc!r}")
                            continue
                        phase.op_latencies.append(latency)
                        phase.query_latencies.append(latency)
                        phase.frames += (sum(self.spec["tables"].values())
                                         if query["table"] == FANOUT else
                                         self.spec["tables"][query["table"]])
                        if first.setdefault(sql, rows) != rows:
                            phase.failures.append(f"rows changed: {sql}")
                    done += 1
                phase.cycles.append(done)
                phase.answers = list(first.items())
                return phase
            return body

        return _run_callers([body_for(c) for c in range(self.callers)],
                            deadline, cycles)

    def check(self, state, phases) -> tuple[list, str]:
        from repro.server.protocol import decode, encode

        db = state["db"]
        failures = []
        wire: dict[str, list] = {}
        for phase in phases:
            for sql, rows in phase.answers:
                if wire.setdefault(sql, rows) != rows:
                    failures.append(f"rows changed between runs: {sql}")
        for sql, rows in wire.items():
            local = decode(encode({"rows": db.execute(sql).fetchall()}))
            if local["rows"] != rows:
                failures.append(f"wire rows differ from in-process: {sql}")
        items = []
        for query in self.cycle(0, 0):
            sql = to_sql(query)
            items.append([sql, answer(db.execute(sql).fetchall(), query),
                          _cascade_names(plan_cascades(db.explain(sql)))])
        return failures, _digest(items)


class Ingest(Workload):
    """Two durable writers, a standing query, retention, then recovery."""

    name = "ingest"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        (self.table, initial), = self.spec["tables"].items()
        (rate,) = self.spec["positive_rate"]
        self.initial = self.corpus(initial, 0, rate)
        rows = self.spec["batch_rows"]
        frames = self.corpus(rows * self.spec["distinct_batches"], 1, rate)
        self.batches = [
            (frames.images[i:i + rows],
             {key: values[i:i + rows]
              for key, values in frames.metadata.items()},
             {key: values[i:i + rows]
              for key, values in frames.content.items()})
            for i in range(0, len(frames), rows)]
        self.standing = (f"SELECT count(*) FROM {self.table} "
                         f"WHERE contains_object({self.predicates[0]})")
        self._setups = 0

    def setup(self) -> dict:
        from repro.db import RetentionPolicy

        self._setups += 1
        root = self.run_dir / f"wal-{self._setups}"
        db = self.database({self.table: self.initial},
                           retention=RetentionPolicy(
                               **self.spec["retention"]))
        db.enable_wal(root)
        (initial,) = db.execute(self.standing).fetchall()
        # Batch provenance of every live id, for the oracle.
        origin = {int(i): (None, int(i)) for i in range(len(self.initial))}
        return {"db": db, "root": root, "origin": origin,
                "initial_count": initial["count(*)"],
                "lock": threading.Lock(), "next_batch": [0] * self.callers}

    def teardown(self, state) -> None:
        if not state["db"].closed:
            state["db"].close()
        shutil.rmtree(state["root"], ignore_errors=True)

    def _ingest(self, state, writer: int):
        """The writer's next batch: (pool index, images, metadata, content)."""
        count = state["next_batch"][writer]
        state["next_batch"][writer] += 1
        index = (2 * count + writer) % len(self.batches)
        return (index, *self.batches[index])

    def run(self, state, *, deadline=None, cycles=None, tracer=None) -> Phase:
        db = state["db"]
        rows = self.spec["batch_rows"]

        def body_for(writer: int):
            def body(deadline, limit):
                phase = Phase()
                done = 0
                while _keep_going(deadline, limit, done):
                    for _ in range(4):
                        index, images, metadata, content = self._ingest(
                            state, writer)
                        phase.attempted += 1
                        try:
                            with _op(tracer):
                                started = perf_counter()
                                ids = db.ingest(images, metadata=metadata,
                                                content=content,
                                                table=self.table)
                                latency = perf_counter() - started
                        except Exception as exc:  # noqa: BLE001 - counted
                            phase.failures.append(f"ingest: {exc!r}")
                            continue
                        phase.op_latencies.append(latency)
                        phase.frames += rows
                        with state["lock"]:
                            for row, image_id in enumerate(ids):
                                state["origin"][int(image_id)] = (index, row)
                    if writer == 0:
                        phase.attempted += 1
                        try:
                            with _op(tracer):
                                started = perf_counter()
                                db.execute(self.standing).fetchall()
                                latency = perf_counter() - started
                        except Exception as exc:  # noqa: BLE001 - counted
                            phase.failures.append(f"standing: {exc!r}")
                        else:
                            phase.query_latencies.append(latency)
                    done += 1
                phase.cycles.append(done)
                return phase
            return body

        wal_dir = state["root"] / "wal"
        before = _tree_bytes(wal_dir)
        phase = _run_callers([body_for(w) for w in range(self.callers)],
                             deadline, cycles)
        phase.extra["wal_bytes"] = _tree_bytes(wal_dir) - before
        frame_bytes = self.batches[0][0][0].nbytes
        phase.extra["frame_bytes"] = phase.frames * frame_bytes
        return phase

    def _expected_labels(self, db) -> dict:
        (cascade,) = plan_cascades(db.explain(self.standing))[
            self.table].values()
        labels = {None: cascade.classify(self.initial.images)}
        for index, (images, _, _) in enumerate(self.batches):
            labels[index] = cascade.classify(images)
        return labels, cascade.name

    def recover(self, state, loads: int, tracer_factory=None) -> dict:
        """Checkpoint, log a fixed tail, close, then time ``loads`` loads.

        Each reopened database must match the live state; with a
        ``tracer_factory`` one more load runs traced.
        """
        from repro.db import VisualDatabase

        db = state["db"]
        db.checkpoint()
        for _ in range(16):
            _, images, metadata, content = self._ingest(state, 0)
            db.ingest(images, metadata=metadata, content=content,
                      table=self.table)
        live_ids = sorted(int(row["image_id"]) for row in db.execute(
            f"SELECT image_id FROM {self.table}").fetchall())
        live_count = db.execute(self.standing).fetchall()
        db.close()
        times = []
        failures = []
        for _ in range(loads):
            started = perf_counter()
            reopened = VisualDatabase.load(state["root"])
            times.append(perf_counter() - started)
            try:
                ids = sorted(int(row["image_id"]) for row in reopened.execute(
                    f"SELECT image_id FROM {self.table}").fetchall())
                if ids != live_ids:
                    failures.append("reopened ids differ from the live state")
                if reopened.execute(self.standing).fetchall() != live_count:
                    failures.append("reopened standing query differs")
            finally:
                reopened.close()
        traced = None
        if tracer_factory is not None:
            tracer = tracer_factory()
            try:
                with tracer.span(tracing.RECOVER):
                    VisualDatabase.load(state["root"]).close()
            finally:
                tracer.uninstall()
            traced = tracer
        return {"loads": times, "failures": failures, "tracer": traced}

    def check(self, state, phases) -> tuple[list, str]:
        db = state["db"]
        failures = []
        labels, cascade_name = self._expected_labels(db)
        live = sorted(int(row["image_id"]) for row in db.execute(
            f"SELECT image_id FROM {self.table}").fetchall())
        window = sorted(state["origin"])[-self.spec["retention"]["max_rows"]:]
        if live != window:
            failures.append("live ids are not the newest acknowledged rows")
        expected = sum(int(labels[index][row])
                       for index, row in (state["origin"][i] for i in live))
        got = db.execute(self.standing).fetchall()[0]["count(*)"]
        if got != expected:
            failures.append(f"standing count {got} != oracle {expected}")
        return failures, _digest([self.standing, cascade_name,
                                  state["initial_count"]])


def _tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


WORKLOADS = {cls.name: cls for cls in (Adhoc, Scan, Dashboard, Ingest)}
