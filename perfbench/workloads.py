"""The benchmark's workloads: closed loops with a single client.

Each operation starts only when the previous one has returned. Workloads call
kgpath through module attributes (``pipeline.evaluate_query``, not a name
imported here), so that the traced run sees the same calls the tracer wraps.

* ``train-toy``: staged training (prune phase, then joint phase) on the
  ROADMAP toy suite, then per-question evaluation by the trained model. The
  only workload with backward passes and the optimizer.
* ``infer-dense``: one question at a time through the route ``kgpath infer``
  takes (schema graph, sample build, evaluate) with a seeded, untrained
  model. Every schema graph fills the 1000-node budget, so pruning makes the
  full 1000 -> 100 cut.
* ``scale-retrieve``: key-node linking plus open-set schema construction over
  a large graph with no vectors. No neural code runs, so a ``neural`` or
  ``paths`` change must read "no change" here.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from collections import deque
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from kgpath import kg, linking, neural, paths, pipeline, pruning, schema
from kgpath.config import load_config
from kgpath.linking import ground_truth_ids

from spans import Tracer, instrument_model

#: Questions re-run after the timed loop to check that answers repeat exactly.
RECHECK = 3
#: Untimed operations before a timed loop: the first ~30 questions of a
#: process run about 30% slower while the interpreter and allocator warm up.
WARMUP = 30


class SpeedProbe:
    """Host speed, from a fixed pure-Python loop timed between operations.

    On a shared 2-core x86-64 VM (Python 3.11, numpy 2.4) the same code ran
    up to 1.6x slower for stretches of tens of seconds, while the ratio of an
    infer-dense question's time to this loop's time stayed within about
    +-12%. Scaled times are raw times multiplied by ``NOMINAL_S`` over the
    median of the latest loop timings: the time on a host where the loop
    takes 0.8 ms, about what it took on that VM while busy.
    """

    LOOPS = 20_000
    NOMINAL_S = 0.8e-3
    EVERY_S = 0.1
    WINDOW = 5

    def __init__(self):
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=self.WINDOW)
        self._last = -math.inf

    def sample(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i
        now = time.perf_counter()
        self.samples.append(now - t0)
        self._recent.append(now - t0)
        self._last = now
        return now - t0

    def tick(self) -> None:
        """Sample when the last sample is older than EVERY_S."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self) -> float:
        if not self._recent:
            self.sample()
        return self.NOMINAL_S / statistics.median(self._recent)

    def burst(self) -> float:
        """Scale from fresh samples, for bracketing a long operation."""
        self._recent.clear()
        for _ in range(self.WINDOW):
            self.sample()
        return self.scale()


@dataclass
class Timings:
    """Per-operation times as measured and scaled to the reference host."""

    raw_ms: list[float] = field(default_factory=list)
    scaled_ms: list[float] = field(default_factory=list)

    def add(self, seconds: float, scale: float) -> None:
        self.raw_ms.append(1e3 * seconds)
        self.scaled_ms.append(1e3 * seconds * scale)

    def extend(self, other: "Timings") -> None:
        self.raw_ms += other.raw_ms
        self.scaled_ms += other.scaled_ms

    def rate(self) -> tuple[float, float]:
        """(raw, scaled) operations per second of busy time."""
        return tuple(1e3 * len(ms) / sum(ms) if ms else float("nan")
                     for ms in (self.raw_ms, self.scaled_ms))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 5:
            self.problems.append(reason)


@dataclass
class Measured:
    """What one timed phase produced."""

    latency: Timings  # per question
    qps: tuple[float, float]  # (raw, scaled) operations per second
    total_s: tuple[float, float]  # (raw, scaled) busy time of every timed operation
    ops: dict[str, int]  # operations per root-span phase
    quality: dict[str, tuple[float, str]] = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, suite_dir: Path, seed: int, tracer: Optional[Tracer] = None):
        self.suite_dir = Path(suite_dir)
        self.seed = seed
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.st: Optional[SimpleNamespace] = None

    @contextmanager
    def root(self, name: str, qid: str = ""):
        """A root span (one operation or phase) when tracing, else nothing."""
        if self.tracer is None or self.tracer.paused:
            yield
            return
        self.tracer.qid = qid
        idx = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(idx)

    @contextmanager
    def untraced(self):
        """Checks call kgpath too; keep their calls out of the trace."""
        if self.tracer is None:
            yield
            return
        paused, self.tracer.paused = self.tracer.paused, True
        try:
            yield
        finally:
            self.tracer.paused = paused

    def new_model(self, cfg) -> neural.ScoringModel:
        model = neural.ScoringModel(cfg.d, cfg.D, cfg.k, dropout_rate=cfg.dropout, seed=cfg.seed)
        if self.tracer is not None:
            instrument_model(self.tracer, model)
        return model

    def loop(
        self,
        items: list,
        qid_of: Callable,
        operation: Callable,
        check: Callable,
        tally: Tally,
        seconds: Optional[float] = None,
        n_ops: Optional[int] = None,
        phase: str = "op",
    ) -> Timings:
        """Closed loop over ``items`` in order, in repeated passes, for
        ``seconds`` or exactly ``n_ops`` operations. ``check(item, output)``
        runs untimed and returns a failure reason or None."""
        timings = Timings()
        start = time.perf_counter()
        i = 0
        while (i < n_ops) if n_ops is not None else (time.perf_counter() - start < seconds):
            item = items[i % len(items)]
            i += 1
            tally.attempted += 1
            self.probe.tick()
            try:
                with self.root(phase, qid_of(item)):
                    t0 = time.perf_counter()
                    output = operation(item)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # a failed operation counts, the loop goes on
                tally.fail(f"{qid_of(item)}: {exc!r}")
                continue
            timings.add(elapsed, self.probe.scale())
            with self.untraced():
                problem = check(item, output)
            if problem:
                tally.fail(f"{qid_of(item)}: {problem}")
        return timings


class _EpochClock(io.TextIOBase):
    """Stands in for stdout while ``staged_training`` prints one progress
    line per epoch, ``[prune] epoch ...`` or ``[joint] epoch ...``. Each line
    ends an epoch: the probe is sampled there and scales that epoch's time.
    Probe time is kept out of every epoch."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.epochs: dict[str, list[tuple[float, float]]] = {}  # phase -> (raw, scaled)
        self.schedules = 0

    def start(self) -> None:
        self.probe.burst()
        self.schedules += 1
        self._mark = time.perf_counter()

    def write(self, text: str) -> int:
        for line in text.splitlines():
            if not line.startswith("["):
                continue
            elapsed = time.perf_counter() - self._mark
            phase = line[1 : line.index("]")]
            self.epochs.setdefault(phase, []).append((elapsed, elapsed * self.probe.burst()))
            self._mark = time.perf_counter()
        return len(text)

    def schedule_s(self) -> tuple[float, float]:
        """(raw, scaled) time of one schedule: per phase, its epochs per
        schedule times its median epoch over every schedule run, so a burst
        of host noise in a few epochs moves it little."""
        return tuple(
            sum(len(times) / self.schedules * statistics.median(t[i] for t in times)
                for times in self.epochs.values())
            for i in (0, 1)
        )


def _repeats(seen: dict, qid: str, outcome) -> Optional[str]:
    if seen.setdefault(qid, outcome) != outcome:
        return "a repeated run changed the answers"
    return None


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------


class TrainToy(Workload):
    name = "train-toy"
    #: prune-phase and joint-phase epochs; the full 40+30 schedule takes over
    #: a minute per run on a 2-core box, too long to repeat across seeds
    EPOCHS = (5, 5)
    OVERRIDES = {"batch_size": "1", "lr": "2e-3"}
    #: share of ``seconds`` for training; evaluation passes get the rest
    TRAIN_SHARE = 2 / 3

    def setup(self) -> None:
        overrides = dict(self.OVERRIDES)
        overrides["epochs_prune"], overrides["epochs_joint"] = map(str, self.EPOCHS)
        cfg = load_config(self.suite_dir / "suite.config", overrides)
        rt = pipeline.load_runtime(cfg)
        model = self.new_model(cfg)
        train, skipped_train = pipeline.prepare_samples(rt, model, rt.train_records())
        test, skipped_test = pipeline.prepare_samples(rt, model, rt.test_records())
        train_answers = frozenset().union(
            *[ground_truth_ids(rt.g, r) for r in rt.train_records()]
        )
        self.st = SimpleNamespace(
            cfg=cfg, rt=rt, train=train, test=test,
            skipped=skipped_train + skipped_test, train_answers=train_answers,
        )

    def steps_per_schedule(self) -> int:
        st = self.st
        bs = st.cfg.batch_size
        trainable = [s for s in st.train if s.gt_pos.size and s.neg_pos.size]
        return (st.cfg.epochs_prune * math.ceil(len(trainable) / bs)
                + st.cfg.epochs_joint * math.ceil(len(st.train) / bs))

    def train_once(self, tally: Tally, clock: _EpochClock) -> tuple[Optional[neural.ScoringModel], list, float]:
        """One full staged schedule from a fresh model, timed per epoch by
        ``clock``. Returns the model, the epoch history and the wall time."""
        cfg = self.st.cfg
        steps = self.steps_per_schedule()
        model = self.new_model(cfg)
        tally.attempted += steps
        clock.start()
        with self.root("train"), redirect_stdout(clock):
            t0 = time.perf_counter()
            try:
                history = paths.staged_training(
                    model, self.st.train,
                    epochs_prune=cfg.epochs_prune, epochs_joint=cfg.epochs_joint,
                    lr=cfg.lr, batch_size=cfg.batch_size, theta_p=cfg.theta_p,
                    target=cfg.prune_target, n_paths=cfg.n_paths, k=cfg.k,
                    margin=cfg.margin, semi_hard=cfg.semi_hard, seed=cfg.seed,
                    optimizer=cfg.optimizer, progress=True,
                )
            except Exception as exc:  # count the schedule as failed and go on
                tally.fail(f"staged_training raised {exc!r}", steps)
                return None, [], time.perf_counter() - t0
            wall = time.perf_counter() - t0
        bad = [e for e in history for k, v in e.items() if k.startswith(("loss", "node_r1"))
               and not math.isfinite(v)]
        expected = cfg.epochs_prune + cfg.epochs_joint
        if bad or len(history) != expected:
            tally.fail(f"training history has {len(bad)} non-finite entries, "
                       f"{len(history)}/{expected} epochs", steps)
        return model, history, wall

    def run(self, tally: Tally, seconds: Optional[float] = None,
            schedules: Optional[int] = None) -> Measured:
        """Full schedules while another fits in TRAIN_SHARE of ``seconds``
        (at least one), or exactly ``schedules`` of them. Then one evaluation
        pass over every prepared question, whose test-split results make the
        report, and with ``seconds``, further passes that must repeat it
        until the time is up."""
        st = self.st
        if st.skipped:
            tally.attempted += st.skipped
            tally.fail(f"{st.skipped} records skipped before training", st.skipped)
        steps = self.steps_per_schedule()
        clock = _EpochClock(self.probe)
        walls: list[float] = []
        first_history, model = None, None
        start = time.perf_counter()
        while True:
            trained, history, wall = self.train_once(tally, clock)
            walls.append(wall)
            if trained is not None:
                model = trained
                if first_history is None:
                    first_history = history
                elif history != first_history:
                    tally.fail("a repeated schedule gave a different training history", steps)
            if trained is None or len(walls) == schedules:
                break
            if schedules is None and (
                time.perf_counter() - start + wall > self.TRAIN_SHARE * seconds
            ):
                break
        if model is None:
            model = self.new_model(st.cfg)

        samples = st.train + st.test
        results: dict[str, pipeline.QueryResult] = {}

        def evaluate(sample):
            return pipeline.evaluate_query(model, sample, st.cfg)

        def keep(sample, result):
            results[sample.qid] = result
            return None

        latency = self.loop(samples, lambda s: s.qid, evaluate, keep, tally,
                            n_ops=len(samples), phase="eval")
        seen = {qid: (r.answer_ranking, r.top_paths) for qid, r in results.items()}

        def again(sample, result):
            return _repeats(seen, sample.qid, (result.answer_ranking, result.top_paths))

        remaining = seconds - (time.perf_counter() - start) if schedules is None else 0.0
        if remaining > 0:
            latency.extend(self.loop(samples, lambda s: s.qid, evaluate, again, tally,
                                     seconds=remaining, phase="eval"))
        with self.untraced():
            self.loop(st.test, lambda s: s.qid, evaluate, again, tally,
                      n_ops=min(RECHECK, len(st.test)))

        quality = {}
        test_results = [results[s.qid] for s in st.test if s.qid in results]
        if test_results:
            report = pipeline.build_report(test_results, st.train_answers)
            complete = (
                report.n_queries == len(st.test)
                and sorted(report.node_recall) == sorted(pipeline.RECALL_KS)
                and sorted(report.rank_by_path_recall) == sorted(pipeline.PATH_RECALL_KS)
                and 0.0 <= report.vqa <= 1.0
            )
            if not complete:
                tally.fail("test report is incomplete")
            quality = {
                "test_node_r1": (report.node_recall.get(1, float("nan")), "ratio"),
                "test_path_r10": (report.rank_by_path_recall.get(10, float("nan")), "ratio"),
                "test_vqa": (report.vqa, "ratio"),
            }
        else:
            tally.fail("no test results")
        qps = tuple(steps / t if t > 0 else float("nan") for t in clock.schedule_s())
        quality["train_qps"] = (qps[1], "query-steps/s")
        return Measured(
            latency=latency,
            qps=qps,
            total_s=(sum(walls) + sum(latency.raw_ms) / 1e3,
                     len(walls) * clock.schedule_s()[1] + sum(latency.scaled_ms) / 1e3),
            ops={"setup": 1, "train": steps * len(walls), "eval": len(latency.raw_ms)},
            quality=quality,
        )


# ---------------------------------------------------------------------------
# infer-dense
# ---------------------------------------------------------------------------


class InferDense(Workload):
    name = "infer-dense"

    def setup(self) -> None:
        cfg = load_config(self.suite_dir / "suite.config")
        rt = pipeline.load_runtime(cfg)
        self.st = SimpleNamespace(cfg=cfg, rt=rt, model=self.new_model(cfg))

    def answer(self, rec) -> tuple[pruning.QuerySample, pipeline.QueryResult]:
        """One operation: the route a ``kgpath infer`` user waits on."""
        st = self.st
        sg = pipeline.schema_for_record(st.rt, rec)
        if sg is None:
            raise LookupError("no key node links")
        sample = pruning.QuerySample.build(
            st.model, sg, st.rt.contexts[rec.qid], ground_truth_ids(st.rt.g, rec),
            st.rt.emb, st.rt.textfeat, split=rec.split,
        )
        return sample, pipeline.evaluate_query(st.model, sample, st.cfg)

    def run(self, tally: Tally, seconds: Optional[float] = None,
            n_ops: Optional[int] = None) -> Measured:
        """Questions in file order, in repeated passes."""
        records = self.st.rt.queries
        seen: dict[str, tuple] = {}
        hits: dict[str, bool] = {}

        def check(rec, out):
            sample, result = out
            hits[rec.qid] = bool(sample.gt_pos.size)
            return self.check(sample, result) or _repeats(
                seen, rec.qid, (result.answer_ranking, result.top_paths))

        with self.untraced():
            self.loop(records, lambda r: r.qid, self.answer, check, tally, n_ops=WARMUP)
        latency = self.loop(records, lambda r: r.qid, self.answer, check, tally,
                            seconds=seconds, n_ops=n_ops)
        with self.untraced():
            self.loop(records, lambda r: r.qid, self.answer, check, tally,
                      n_ops=min(RECHECK, len(latency.raw_ms)))
        return Measured(
            latency=latency,
            qps=latency.rate(),
            total_s=(sum(latency.raw_ms) / 1e3, sum(latency.scaled_ms) / 1e3),
            ops={"setup": 1, "op": len(latency.raw_ms)},
            quality={"schema_hit_rate": (_share(hits), "ratio")},
        )

    def check(self, sample, result) -> Optional[str]:
        """An answer exists unless no edge of the pruned graph leaves a key
        node (then no walk exists), and every returned path is a simple walk
        along edges of the question's pruned graph, rooted at a key node."""
        cfg = self.st.cfg
        h, _ = self.st.model.f_n.forward(sample.x, train=False)
        s_cos = neural.cosine_rows(sample.ctx.z, h)
        pg = pruning.prune_from_scores(sample.sg, s_cos, sample.s_bfs, cfg.theta_p,
                                       cfg.prune_target).base
        nodes = pg.node_set()
        keys = pg.key_ids()
        edges = set(zip(pg.edges_head.tolist(), pg.edges_rel.tolist(), pg.edges_tail.tolist()))
        if not sample.sg.key_ids() <= nodes or len(nodes) > cfg.prune_target:
            return "pruned graph lost a key node or exceeds its target"
        if not result.answer_ranking and any(u in keys and v != u for u, _, v in edges):
            return "no answer although an edge leaves a key node"
        for p_nodes, p_rels, score in result.top_paths:
            if not 1 <= len(p_rels) <= cfg.k or len(p_nodes) != len(p_rels) + 1:
                return f"path {p_nodes} has a bad length"
            if len(set(p_nodes)) != len(p_nodes):
                return f"path {p_nodes} is not simple"
            if p_nodes[0] not in keys:
                return f"path {p_nodes} is not rooted at a key node"
            if any(step not in edges for step in zip(p_nodes, p_rels, p_nodes[1:])):
                return f"path {p_nodes} leaves the pruned graph's edges"
            if not math.isfinite(score):
                return f"path {p_nodes} has a non-finite score"
        if not set(result.path_terminals) <= nodes:
            return "a path ends outside the pruned graph"
        if not {e for e, _ in result.answer_ranking} <= set(result.path_terminals):
            return "an answer is not the end of any path"
        return None


# ---------------------------------------------------------------------------
# scale-retrieve
# ---------------------------------------------------------------------------


class ScaleRetrieve(Workload):
    name = "scale-retrieve"
    BUDGET = 1000
    ONE_HOP_CAP = 500

    def setup(self) -> None:
        g = kg.load_graph(self.suite_dir / "kg_edges.tsv", self.suite_dir / "relations.txt")
        records = linking.load_queries(self.suite_dir / "queries.jsonl")
        self.st = SimpleNamespace(g=g, records=records)

    def retrieve(self, rec):
        """One operation: link the key nodes, then build the schema graph."""
        g = self.st.g
        keys, scene_edges = linking.extract_key_nodes(g, rec)
        if not keys:
            raise LookupError("no key node links")
        sg = schema.build_schema(
            g, keys, scene_edges, budget=self.BUDGET, one_hop_cap=self.ONE_HOP_CAP,
            seed=paths.mix_seed(self.seed, "schema", rec.qid), qid=rec.qid,
        )
        return keys, sg

    def run(self, tally: Tally, seconds: Optional[float] = None,
            n_ops: Optional[int] = None) -> Measured:
        hits: dict[str, bool] = {}

        def check(rec, out):
            keys, sg = out
            hits[rec.qid] = bool(ground_truth_ids(self.st.g, rec) & sg.node_set())
            return self.check(keys, sg)

        with self.untraced():
            self.loop(self.st.records, lambda r: r.qid, self.retrieve, check, tally,
                      n_ops=WARMUP)
        latency = self.loop(self.st.records, lambda r: r.qid, self.retrieve, check, tally,
                            seconds=seconds, n_ops=n_ops)
        return Measured(
            latency=latency,
            qps=latency.rate(),
            total_s=(sum(latency.raw_ms) / 1e3, sum(latency.scaled_ms) / 1e3),
            ops={"setup": 1, "op": len(latency.raw_ms)},
            quality={"schema_hit_rate": (_share(hits), "ratio")},
        )

    def check(self, keys, sg) -> Optional[str]:
        """At most BUDGET unique nodes, every key node, edges only among them."""
        nodes = sg.nodes
        if sg.n_nodes > self.BUDGET:
            return f"{sg.n_nodes} nodes exceed the budget"
        if np.unique(nodes).size != nodes.size:
            return "duplicate nodes"
        if not keys.all_nodes() <= sg.node_set():
            return "a key node is missing"
        if not (np.isin(sg.edges_head, nodes).all() and np.isin(sg.edges_tail, nodes).all()):
            return "an edge leaves the graph"
        return None


def _share(flags: dict[str, bool]) -> float:
    return sum(flags.values()) / len(flags) if flags else float("nan")


WORKLOADS = {w.name: w for w in (TrainToy, InferDense, ScaleRetrieve)}
