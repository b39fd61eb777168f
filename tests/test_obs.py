"""Tests for ``repro.obs``: tracing, the metrics registry, and the
instrumentation wired through the oracle / certify / CONGEST / harness
layers.

Global state discipline: the tracer and the default metrics registry are
process-wide, so every test runs under an autouse fixture that disables
tracing and zeroes the registry on both sides.  Tests that assert on
metric values therefore see a freshly-zeroed registry (names may linger
from earlier tests — values never do).
"""

import json
import pickle

import pytest

from repro.congest import SyncNetwork, build_bfs_tree
from repro.graphs import erdos_renyi_graph, grid_graph, path_graph
from repro.harness.profiles import get_profile
from repro.harness.runner import run_profile
from repro.mst import kruskal_mst
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    DEFAULT_COUNT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.summary import (
    aggregate_spans,
    hot_spans,
    render_tree,
    summarize_trace,
)
from repro.obs.trace import SpanRecord, read_jsonl
from repro.oracle import DistanceOracle


@pytest.fixture(autouse=True)
def _clean_obs():
    obs_trace.disable()
    obs_metrics.reset()
    yield
    obs_trace.disable()
    obs_metrics.reset()


# ---------------------------------------------------------------------------
# trace: no-op fast path, span tree, export
# ---------------------------------------------------------------------------
class TestTraceDisabled:
    def test_disabled_by_default(self):
        assert not obs_trace.enabled()
        assert obs_trace.current() is None
        assert obs_trace.span_count() == 0

    def test_null_span_is_a_shared_singleton(self):
        a = obs_trace.span("x.y")
        b = obs_trace.span("other.name", attr=1)
        assert a is b  # zero allocation on the fast path
        with a:
            pass
        assert a.wall_s == 0.0 and a.cpu_s == 0.0

    def test_timed_span_still_measures_wall_time(self):
        with obs_trace.timed_span("x.y") as t:
            sum(range(1000))
        assert t.wall_s > 0.0


class TestTraceEnabled:
    def test_enable_disable_cycle(self):
        tracer = obs_trace.enable()
        assert obs_trace.enabled()
        assert obs_trace.current() is tracer
        assert obs_trace.disable() is tracer
        assert not obs_trace.enabled()
        assert obs_trace.disable() is None

    def test_double_enable_raises(self):
        obs_trace.enable()
        with pytest.raises(RuntimeError, match="already enabled"):
            obs_trace.enable()

    def test_ids_are_sequential_and_parents_nest(self):
        tracer = obs_trace.enable()
        with obs_trace.span("a.root"):
            with obs_trace.span("b.childone"):
                pass
            with obs_trace.span("b.childtwo", k=3):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert [s.span_id for s in tracer.spans] == [2, 3, 1]  # completion order
        assert by_name["a.root"].parent_id is None
        assert by_name["b.childone"].parent_id == by_name["a.root"].span_id
        assert by_name["b.childtwo"].parent_id == by_name["a.root"].span_id
        assert by_name["b.childtwo"].attrs == {"k": 3}
        assert obs_trace.span_count() == 3

    def test_timed_span_becomes_a_real_span(self):
        tracer = obs_trace.enable()
        with obs_trace.timed_span("x.y") as t:
            pass
        assert tracer.spans[0].name == "x.y"
        assert t.wall_s == tracer.spans[0].wall_s

    def test_memory_off_records_none(self):
        tracer = obs_trace.enable(memory=False)
        with obs_trace.span("x.y"):
            pass
        assert tracer.spans[0].mem_bytes is None

    def test_memory_on_records_tracemalloc_delta(self):
        tracer = obs_trace.enable(memory=True)
        with obs_trace.span("x.y"):
            blob = [bytearray(64 * 1024)]
            with obs_trace.span("x.inner"):
                pass
            del blob
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["x.y"].mem_bytes is not None
        assert by_name["x.inner"].mem_bytes is not None
        obs_trace.disable()
        import tracemalloc

        assert not tracemalloc.is_tracing()  # we started it, we stop it


class TestTraceJsonl:
    def _trace_file(self, tmp_path):
        tracer = obs_trace.enable()
        with obs_trace.span("a.root", mode="test"):
            with obs_trace.span("b.child"):
                pass
        obs_trace.disable()
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            assert tracer.write_jsonl(fh) == 2
        return path, tracer

    def test_round_trip(self, tmp_path):
        path, tracer = self._trace_file(tmp_path)
        loaded = read_jsonl(str(path))
        assert [s.to_dict() for s in loaded] == [
            s.to_dict() for s in tracer.spans
        ]

    def test_lines_are_sorted_key_objects(self, tmp_path):
        path, _ = self._trace_file(tmp_path)
        for line in path.read_text().splitlines():
            data = json.loads(line)
            assert list(data) == sorted(data)
            assert set(data) == {
                "id", "parent", "name", "start_s", "wall_s", "cpu_s",
                "mem_bytes", "attrs",
            }

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_jsonl(str(path))

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_jsonl(str(path))

    def test_read_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1}\n')
        with pytest.raises(ValueError, match="bad span"):
            read_jsonl(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path, _ = self._trace_file(tmp_path)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n" + path.read_text() + "\n\n")
        assert len(read_jsonl(str(padded))) == 2


# ---------------------------------------------------------------------------
# metrics: counters, gauges, histograms, registry contract
# ---------------------------------------------------------------------------
class TestMetricPrimitives:
    def test_counter(self):
        c = Counter("a.b")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_dict() == {"type": "counter", "value": 5}

    def test_gauge_tracks_max(self):
        g = Gauge("a.b")
        g.set(7)
        g.set(3)
        assert g.value == 3 and g.max_value == 7
        assert g.to_dict() == {"type": "gauge", "value": 3, "max": 7}

    def test_histogram_percentiles_are_upper_edges(self):
        h = Histogram("a.b", bounds=[1, 2, 4, 8])
        for v in [0.5, 1.5, 1.6, 3.0, 7.0]:
            h.observe(v)
        assert h.count == 5 and h.min == 0.5 and h.max == 7.0
        assert h.percentile(0.5) == 2  # rank 2.5 lands in the (1, 2] bucket
        assert h.percentile(1.0) == 8

    def test_histogram_overflow_answers_exact_max(self):
        h = Histogram("a.b", bounds=[1, 2])
        h.observe(100.0)
        assert h.percentile(0.99) == 100.0

    def test_histogram_empty_and_bad_q(self):
        h = Histogram("a.b", bounds=[1])
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError, match="q must be"):
            h.percentile(50)
        assert h.to_dict()["min"] is None and h.to_dict()["max"] is None

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("a.b", bounds=[2, 1])
        with pytest.raises(ValueError, match="sorted"):
            Histogram("a.b", bounds=[])


class TestRegistry:
    def test_name_convention_enforced(self):
        reg = MetricsRegistry()
        for bad in ("flat", "Has.Upper", "a..b", ".a.b", "a.b."):
            with pytest.raises(ValueError, match="layer.component.metric"):
                reg.counter(bad)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("a.g") is reg.gauge("a.g")
        assert reg.histogram("a.h") is reg.histogram("a.h")

    def test_type_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError, match="counter, not a gauge"):
            reg.gauge("a.b")
        with pytest.raises(ValueError, match="not a histogram"):
            reg.histogram("a.b")
        reg.histogram("a.h")
        with pytest.raises(ValueError, match="histogram, not a counter"):
            reg.counter("a.h")

    def test_histogram_bound_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("a.h", bounds=[1, 2])
        reg.histogram("a.h", bounds=[1, 2])  # same bounds: fine
        reg.histogram("a.h")  # no bounds: fine
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("a.h", bounds=[1, 2, 3])

    def test_snapshot_is_sorted_and_picklable(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.gauge("a.first").set(2)
        reg.histogram("m.mid", bounds=[1]).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.first", "m.mid", "z.last"]
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_scalars_excludes_histograms(self):
        reg = MetricsRegistry()
        reg.counter("a.c").inc(3)
        reg.gauge("a.g").set(5)
        reg.histogram("a.h").observe(1.0)
        assert reg.scalars() == {"a.c": 3, "a.g": 5}

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("a.c")
        c.inc(3)
        g = reg.gauge("a.g")
        g.set(5)
        h = reg.histogram("a.h", bounds=[1, 2])
        h.observe(1.5)
        reg.reset()
        assert reg.names() == ["a.c", "a.g", "a.h"]
        assert c.value == 0
        assert g.value == 0 and g.max_value == 0 and not g.observed
        assert h.count == 0 and h.counts == [0, 0, 0] and h.total == 0.0
        assert reg.counter("a.c") is c  # identity survives reset


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x.c").inc(2)
        b.counter("x.c").inc(5)
        a.merge(b.snapshot())
        assert a.counter("x.c").value == 7

    def test_gauges_keep_the_busiest_level(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("x.g").set(4)
        b.gauge("x.g").set(9)
        b.gauge("x.g").set(1)
        a.merge(b.snapshot())
        assert a.gauge("x.g").value == 4  # max of last-values 4 and 1
        assert a.gauge("x.g").max_value == 9

    def test_merged_histogram_equals_single_registry(self):
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(3)]
        values = [0.4, 1.1, 2.5, 0.9, 8.0, 3.3, 0.1]
        for i, v in enumerate(values):
            whole.histogram("x.h", bounds=[1, 2, 4]).observe(v)
            parts[i % 3].histogram("x.h", bounds=[1, 2, 4]).observe(v)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part.snapshot())
        assert merged.snapshot() == whole.snapshot()

    def test_merge_into_empty_creates_metrics(self):
        src = MetricsRegistry()
        src.counter("x.c").inc(2)
        src.histogram("x.h", bounds=[1]).observe(0.5)
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_mismatched_buckets_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("x.h", bounds=[1, 2])
        b.histogram("x.h", bounds=[1, 2, 4]).observe(1.0)
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(b.snapshot())

    def test_unknown_metric_type_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric type"):
            reg.merge({"x.y": {"type": "summary", "value": 1}})


# ---------------------------------------------------------------------------
# certify: per-source target counts go to the process registry
# ---------------------------------------------------------------------------
class TestCertifyMetrics:
    def test_targets_histogram_uses_count_bounds(self):
        from repro.analysis import certify_edge_stretch

        g = erdos_renyi_graph(40, 0.3, seed=5)
        mst = kruskal_mst(g)
        obs_metrics.reset()
        cert = certify_edge_stretch(g, mst, bound=50.0)
        assert cert.max_stretch >= 1.0
        hist = obs_metrics.registry().histogram("certify.source.targets")
        assert hist.bounds == tuple(float(b) for b in DEFAULT_COUNT_BOUNDS)
        assert hist.count == cert.sources_explored > 0


# ---------------------------------------------------------------------------
# oracle: per-instance registry, latency only under tracing
# ---------------------------------------------------------------------------
class TestOracleInstrumentation:
    def _oracle(self, seed=1):
        g = erdos_renyi_graph(20, 0.3, seed=seed)
        return DistanceOracle.build(g, landmarks=3, seed=seed), g

    def test_two_oracles_do_not_share_counters(self):
        a, g = self._oracle(1)
        b, _ = self._oracle(2)
        u, v = sorted(g.vertices())[:2]
        a.query(u, v)
        a.query(u, v)
        assert a.hits + a.misses == 2
        assert b.hits == 0 and b.misses == 0

    def test_reset_cache_is_per_oracle(self):
        a, g = self._oracle(1)
        b, _ = self._oracle(1)
        u, v = sorted(g.vertices())[:2]
        a.query(u, v)
        b.query(u, v)
        a.reset_cache()
        assert a.hits == 0 and a.misses == 0
        assert b.hits + b.misses == 1

    def test_latency_histogram_only_populated_under_tracing(self):
        oracle, g = self._oracle(1)
        verts = sorted(g.vertices())
        oracle.query(verts[0], verts[1])
        assert oracle.metrics.histogram("oracle.query.latency_ms").count == 0
        obs_trace.enable()
        oracle.query(verts[0], verts[2])
        assert oracle.metrics.histogram("oracle.query.latency_ms").count == 1

    def test_cache_info_matches_registry(self):
        oracle, g = self._oracle(1)
        verts = sorted(g.vertices())
        oracle.query(verts[0], verts[1])
        oracle.query(verts[0], verts[1])
        info = oracle.cache_info()
        assert info["hits"] == oracle.hits == 1
        assert info["misses"] == oracle.misses == 1


# ---------------------------------------------------------------------------
# CONGEST: lifetime counters, reset semantics, global fold
# ---------------------------------------------------------------------------
class TestNetworkCounters:
    def test_reset_clears_the_round_but_not_lifetime(self):
        g = grid_graph(4, 4)
        net = SyncNetwork(g)
        build_bfs_tree(g, min(g.vertices()), network=net)
        totals = (
            net.total_rounds, net.total_messages_sent,
            net.total_words_sent, net.total_active_node_rounds,
        )
        assert net.total_messages_sent > 0 and net.total_words_sent > 0
        assert net.total_active_node_rounds > 0
        assert net.rounds_executed == net.total_rounds > 0
        net.reset()
        assert net.rounds_executed == 0
        assert (net.total_rounds, net.total_messages_sent,
                net.total_words_sent, net.total_active_node_rounds) == totals

    def test_run_folds_deltas_into_global_registry(self):
        g = path_graph(6)
        net = SyncNetwork(g)
        build_bfs_tree(g, min(g.vertices()), network=net)
        scal = obs_metrics.scalars()
        assert scal["congest.rounds.executed"] == net.total_rounds
        assert scal["congest.messages.sent"] == net.total_messages_sent
        assert scal["congest.words.sent"] == net.total_words_sent
        assert (
            scal["congest.active_node.rounds"]
            == net.total_active_node_rounds
        )
        gauge = obs_metrics.registry().gauge("congest.network.active_nodes")
        assert gauge.observed
        assert 1 <= gauge.max_value <= g.n

    def test_second_run_accumulates_across_reset(self):
        g = path_graph(5)
        net = SyncNetwork(g)
        build_bfs_tree(g, min(g.vertices()), network=net)
        first = obs_metrics.scalars()["congest.messages.sent"]
        build_bfs_tree(g, min(g.vertices()), network=net)  # reset()s inside
        second = obs_metrics.scalars()["congest.messages.sent"]
        assert second == 2 * first


# ---------------------------------------------------------------------------
# harness: observability block, nullable memory, net rounds
# ---------------------------------------------------------------------------
class TestObservabilityBlock:
    def test_disabled_block_shape(self):
        record = run_profile(
            get_profile("congest-bfs-grid"), "smoke", measure_memory=False
        )
        block = record.observability
        assert block is not None
        assert block["enabled"] is False
        assert block["span_count"] == 0
        metrics = block["metrics"]
        assert metrics["congest.rounds.executed"] > 0
        assert metrics["congest.messages.sent"] > 0
        assert record.net_rounds == record.rounds
        assert record.peak_memory_bytes is None  # --no-mem

    def test_traced_block_counts_spans(self):
        obs_trace.enable()
        record = run_profile(
            get_profile("mst-ring-of-cliques"), "smoke", measure_memory=False
        )
        tracer = obs_trace.disable()
        block = record.observability
        assert block["enabled"] is True
        assert block["span_count"] == len(tracer.spans)
        names = {s.name for s in tracer.spans}
        assert {"harness.profile", "harness.generate",
                "harness.build", "harness.certify"} <= names

    def test_block_metrics_are_per_record_deltas(self):
        p = get_profile("congest-bfs-grid")
        a = run_profile(p, "smoke", measure_memory=False)
        b = run_profile(p, "smoke", measure_memory=False)
        assert (
            a.observability["metrics"]["congest.messages.sent"]
            == b.observability["metrics"]["congest.messages.sent"]
        )

    def test_memory_pass_still_measures_when_asked(self):
        record = run_profile(
            get_profile("mst-ring-of-cliques"), "smoke", measure_memory=True
        )
        assert record.peak_memory_bytes is not None
        assert record.peak_memory_bytes > 0


# ---------------------------------------------------------------------------
# summary: aggregation, hot spans, rendering
# ---------------------------------------------------------------------------
def _span(sid, parent, name, wall, cpu=0.0, mem=None):
    return SpanRecord(
        span_id=sid, parent_id=parent, name=name,
        start_s=0.0, wall_s=wall, cpu_s=cpu, mem_bytes=mem,
    )


class TestSummary:
    def test_aggregate_folds_instances_by_path(self):
        spans = [
            _span(1, None, "suite", 10.0),
            _span(2, 1, "profile", 4.0),
            _span(3, 1, "profile", 5.0),
            _span(4, 3, "build", 2.0),
        ]
        roots = aggregate_spans(spans)
        assert len(roots) == 1
        suite = roots[0]
        assert suite.count == 1 and suite.total_wall_s == 10.0
        profile = suite.children[0]
        assert profile.count == 2 and profile.total_wall_s == 9.0
        assert profile.self_wall_s == pytest.approx(7.0)
        assert suite.self_wall_s == pytest.approx(1.0)

    def test_orphaned_parent_becomes_root(self):
        spans = [_span(5, 99, "lost", 1.0)]  # parent 99 not in trace
        roots = aggregate_spans(spans)
        assert [r.name for r in roots] == ["lost"]

    def test_hot_spans_rank_by_self_time(self):
        spans = [
            _span(1, None, "root", 10.0),
            _span(2, 1, "busy", 7.0),
            _span(3, 1, "idle", 1.0),
        ]
        roots = aggregate_spans(spans)
        ranked = hot_spans(roots, top=2)
        assert [n.name for n in ranked] == ["busy", "root"]
        assert hot_spans(roots, top=0) == []

    def test_render_tree_indents_children(self):
        spans = [_span(1, None, "root", 2.0), _span(2, 1, "child", 1.0)]
        text = render_tree(aggregate_spans(spans))
        lines = text.splitlines()
        assert any(line.endswith("root") for line in lines)
        assert any(line.endswith("  child") for line in lines)

    def test_render_includes_memory_column_when_traced(self):
        spans = [_span(1, None, "root", 2.0, mem=3 * 1024 * 1024)]
        assert "mem +3.00MiB" in render_tree(aggregate_spans(spans))

    def test_summarize_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "empty trace" in summarize_trace(str(path))

    def test_summarize_real_trace(self, tmp_path):
        tracer = obs_trace.enable()
        with obs_trace.span("a.root"):
            with obs_trace.span("b.child"):
                pass
        obs_trace.disable()
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            tracer.write_jsonl(fh)
        text = summarize_trace(str(path), top=5)
        assert "2 spans" in text
        assert "a.root" in text and "b.child" in text
        assert "top" in text and "a.root > b.child" in text


# ---------------------------------------------------------------------------
# CLI: bench --trace / --no-mem, trace summarize
# ---------------------------------------------------------------------------
class TestCliTrace:
    def test_bench_trace_and_no_mem(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--profile", "congest-bfs-grid", "--no-mem",
            "--trace", str(trace), "--out", str(out),
        ])
        assert rc == 0
        assert "span(s)" in capsys.readouterr().out
        assert not obs_trace.enabled()  # bench disables its tracer on exit

        spans = read_jsonl(str(trace))
        names = {s.name for s in spans}
        assert {"harness.suite", "harness.profile", "harness.generate",
                "harness.build", "harness.certify", "congest.run"} <= names

        report = json.loads(out.read_text())
        assert report["schema_version"] == 6
        record = report["records"][0]
        assert record["peak_memory_bytes"] is None  # --no-mem
        assert record["observability"]["enabled"] is True
        assert record["observability"]["span_count"] > 0
        assert record["network"]["rounds"] == record["rounds"]

        rc = main(["trace", "summarize", str(trace), "--top", "3"])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "harness.profile" in summary and "top 3" in summary

    def test_trace_summarize_missing_file_is_rc2(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err
