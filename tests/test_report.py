"""Tests for the uniform quality reports."""

import random
from unittest import mock

import pytest

from repro.analysis.report import (
    MetricRow,
    QualityReport,
    net_report,
    slt_report,
    spanner_report,
)
from repro.analysis.validation import ValidationError
from repro.core import build_net, light_spanner, shallow_light_tree
from repro.graphs import WeightedGraph, cycle_graph
from repro.kernels import pykern
from repro.mst.kruskal import kruskal_mst


class TestMetricRow:
    def test_ok_without_bound(self):
        assert MetricRow("x", 5.0).ok

    def test_ok_with_bound(self):
        assert MetricRow("x", 5.0, 5.0).ok
        assert not MetricRow("x", 5.1, 5.0).ok

    def test_render_flags_violation(self):
        assert "VIOLATED" in MetricRow("x", 9.0, 1.0).render()
        assert "VIOLATED" not in MetricRow("x", 0.5, 1.0).render()


class TestQualityReport:
    def test_ok_aggregates(self):
        r = QualityReport("t", [MetricRow("a", 1.0, 2.0), MetricRow("b", 3.0, 2.0)])
        assert not r.ok
        assert r.metric("a").ok

    def test_metric_lookup_missing(self):
        with pytest.raises(KeyError):
            QualityReport("t").metric("nope")

    def test_render_contains_all_rows(self):
        r = QualityReport("title", [MetricRow("alpha", 1.0)])
        text = r.render()
        assert "title" in text and "alpha" in text


class TestSpannerReport:
    def test_real_spanner(self, small_er):
        res = light_spanner(small_er, 2, 0.25, random.Random(0))
        rep = spanner_report(
            small_er, res.spanner,
            stretch_bound=res.stretch_bound, rounds=res.rounds,
        )
        assert rep.ok
        assert rep.metric("stretch").measured <= res.stretch_bound

    def test_foreign_edge_rejected(self, small_er):
        fake = WeightedGraph(small_er.vertices())
        fake.add_edge(0, 1, 12345.0)
        with pytest.raises(ValidationError):
            spanner_report(small_er, fake)

    def test_only_the_python_certify_kernel(self, small_er):
        # certification has one engine; the keyword accepts only its name
        for kernel in ("numpy", "auto"):
            with pytest.raises(ValueError, match="certify_kernel"):
                spanner_report(small_er, small_er, certify_kernel=kernel)

    def test_violation_reported_not_raised(self, small_er):
        mst = kruskal_mst(small_er)
        rep = spanner_report(small_er, mst, stretch_bound=1.0)
        # the MST is a valid subgraph but not a 1-spanner: report flags it
        if rep.metric("stretch").measured > 1.0:
            assert not rep.ok


class TestSLTReport:
    def test_real_slt(self, small_er):
        res = shallow_light_tree(small_er, 0, 6.0)
        rep = slt_report(
            small_er, res.tree, 0,
            stretch_bound=res.stretch_bound, lightness_bound=6.0,
        )
        assert rep.ok

    def test_non_tree_rejected(self, small_er):
        with pytest.raises(ValidationError):
            slt_report(small_er, small_er, 0)


class TestNetReport:
    def test_real_net(self, small_er):
        res = build_net(small_er, 20.0, 0.5, random.Random(1))
        rep = net_report(small_er, res.points, res.alpha, res.beta, rounds=res.rounds)
        assert rep.ok
        assert rep.metric("size").measured == len(res.points)

    def test_bad_net_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(ValidationError):
            net_report(g, {0}, alpha=1.0, beta=0.5)

    def test_disconnected_net_has_no_separation_row(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("c", "d", 1.0)
        rep = net_report(g, {"a", "c"}, alpha=2.0, beta=0.5)
        assert rep.metric("covering").measured == 1.0
        with pytest.raises(KeyError):
            rep.metric("beta/closest")

    def test_one_dijkstra_per_point_plus_the_covering_one(self, small_er):
        res = build_net(small_er, 20.0, 0.5, random.Random(1))
        with mock.patch.object(pykern, "sssp", wraps=pykern.sssp) as sssp:
            net_report(small_er, res.points, res.alpha, res.beta)
        assert sssp.call_count == 1 + len(res.points)

    def test_singleton_net_has_no_separation_row(self, small_er):
        res = build_net(small_er, 1e9, 0.5, random.Random(2))
        rep = net_report(small_er, res.points, res.alpha, res.beta)
        with pytest.raises(KeyError):
            rep.metric("beta/closest")
