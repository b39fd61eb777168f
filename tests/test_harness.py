"""Tests for the repro.harness subsystem (profiles, runner, results, CLI)."""

import json

import pytest

import repro.mst.kruskal as kruskal_module
from repro.cli import main
from repro.harness import (
    FAMILIES,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    TIERS,
    all_profiles,
    compare_reports,
    congest_profiles,
    get_profile,
    load_report,
    make_report,
    profile_names,
    report_records,
    run_profile,
    write_report,
)
from repro.harness.profiles import Profile, register
from repro.harness.runner import ALGORITHMS, ProfileRecord


class TestRegistry:
    def test_at_least_12_profiles(self):
        assert len(profile_names()) >= 12

    def test_spans_at_least_4_families(self):
        assert len({p.family for p in all_profiles()}) >= 4

    def test_covers_every_construction(self):
        used = {p.algorithm for p in all_profiles()}
        assert used == set(ALGORITHMS), "every algorithm needs a profile"

    def test_every_profile_has_all_tiers(self):
        for p in all_profiles():
            for tier in TIERS:
                assert tier in p.tiers, f"{p.name} lacks tier {tier}"

    def test_families_resolve(self):
        for p in all_profiles():
            assert p.family in FAMILIES

    def test_smoke_graphs_build_deterministically(self):
        for p in all_profiles():
            a = p.build_graph("smoke")
            b = p.build_graph("smoke")
            assert a == b, f"{p.name} smoke graph is not seed-deterministic"

    def test_build_graph_overrides(self):
        p = get_profile("slt-er")
        assert p.build_graph("smoke", n=17).n == 17

    def test_unknown_profile_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known profiles"):
            get_profile("frobnicate")

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            get_profile("slt-er").build_graph("mega")

    def test_register_rejects_duplicates_and_bad_refs(self):
        existing = all_profiles()[0]
        with pytest.raises(ValueError, match="duplicate"):
            register(existing)
        bad = Profile(
            name="test-bad-family", description="", section="", family="nope",
            algorithm="slt", params={}, tiers={t: {} for t in TIERS},
        )
        with pytest.raises(ValueError, match="unknown family"):
            register(bad)
        incomplete = Profile(
            name="test-missing-tier", description="", section="", family="er",
            algorithm="slt", params={}, tiers={"smoke": {}},
        )
        with pytest.raises(ValueError, match="missing tiers"):
            register(incomplete)


class TestRunner:
    @pytest.mark.parametrize("name", profile_names())
    def test_profile_runs_at_smoke(self, name):
        """Registry completeness: every profile executes and certifies."""
        record = run_profile(get_profile(name), "smoke")
        assert record.ok, f"{name}: quality violated: {record.metrics}"
        assert record.n > 0 and record.m > 0
        assert record.construction_seconds >= 0.0
        assert record.peak_memory_bytes > 0
        assert record.metrics, "certification produced no metrics"

    @pytest.mark.parametrize("name", [
        p.name for p in all_profiles() if p.algorithm == "light-spanner"])
    def test_light_spanner_record_certifies_lightness(self, name):
        """w(H) <= w(T) + Σ_b spanner_edges_b · weight_cap_b bounds every
        light-spanner record's lightness row."""
        row = run_profile(get_profile(name), "smoke").metrics["lightness"]
        assert row["bound"] is not None, f"{name}: lightness row has no bound"
        assert 1.0 <= row["measured"] <= row["bound"]
        assert row["ok"]

    def test_rounds_deterministic_across_runs(self):
        p = get_profile("spanner-er")
        a = run_profile(p, "smoke")
        b = run_profile(p, "smoke")
        assert a.rounds == b.rounds

    @pytest.mark.parametrize("measure_memory, runs", [(True, 2), (False, 1)])
    def test_memory_pass_builds_on_a_fresh_copy(self, monkeypatch, measure_memory, runs):
        """The traced pass must pay for the MST again, not find the one
        the timed pass cached on the graph's frozen view."""
        calls = []
        kruskal_edges = kruskal_module._kruskal_edges

        def counted(csr):
            calls.append(csr)
            return kruskal_edges(csr)

        monkeypatch.setattr(kruskal_module, "_kruskal_edges", counted)
        record = run_profile(get_profile("spanner-er"), "smoke",
                             measure_memory=measure_memory)
        assert record.ok
        assert len(calls) == runs

    def test_certify_false_skips_certification(self):
        record = run_profile(get_profile("congest-bfs-grid"), "smoke", certify=False)
        assert record.metrics == {}
        assert record.certification_seconds == 0.0
        assert record.ok

    def test_record_dict_roundtrip(self):
        record = run_profile(get_profile("mst-ring-of-cliques"), "smoke")
        back = ProfileRecord.from_dict(record.to_dict())
        assert back == record

    def test_congest_record_carries_network_traffic(self):
        record = run_profile(get_profile("congest-broadcast"), "smoke")
        assert record.messages and record.words and record.active_node_rounds
        back = ProfileRecord.from_dict(record.to_dict())
        assert back == record

    def test_non_congest_record_has_no_network_traffic(self):
        record = run_profile(get_profile("slt-er"), "smoke")
        assert record.messages is None
        assert record.words is None
        assert record.active_node_rounds is None

    def test_congest_builder_must_return_net_stats(self, monkeypatch):
        """A congest build returning the 2-tuple shape silently loses the
        traffic gate — it must be a hard error instead."""
        from repro.harness import runner

        def bad_build(graph, params, rng, network=None):
            return None, 0

        monkeypatch.setitem(
            runner.ALGORITHMS, "congest-bfs",
            (bad_build, runner.ALGORITHMS["congest-bfs"][1]),
        )
        with pytest.raises(TypeError, match="NetStats"):
            run_profile(get_profile("congest-bfs-grid"), "smoke",
                        measure_memory=False)

    def test_congest_profiles_selection(self):
        names = {p.name for p in congest_profiles()}
        assert {"congest-bfs-grid", "congest-broadcast", "congest-convergecast",
                "congest-interval-scan", "congest-cluster-round"} <= names
        assert all(p.algorithm.startswith("congest-") for p in congest_profiles())


class TestResults:
    @pytest.fixture
    def records(self):
        return [run_profile(get_profile("congest-bfs-grid"), "smoke")]

    def test_report_roundtrip(self, tmp_path, records):
        report = make_report(records, suite="smoke", tag="t")
        path = tmp_path / "BENCH_t.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["suite"] == "smoke"
        assert loaded["tag"] == "t"
        assert "python" in loaded["environment"]
        assert report_records(loaded) == records

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a"):
            load_report(path)

    def test_load_rejects_future_schema(self, tmp_path, records):
        report = make_report(records, suite="smoke")
        report["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        write_report(report, path)
        with pytest.raises(ValueError, match="unsupported schema version"):
            load_report(path)

    def _report_with(self, record, **patches):
        data = record.to_dict()
        for key, value in patches.items():
            if key in data["timings"]:
                data["timings"][key] = value
            else:
                data[key] = value
        return {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "tag": None,
            "suite": "smoke",
            "created_unix": 0.0,
            "environment": {},
            "records": [data],
        }

    def test_identical_runs_pass_the_gate(self, records):
        report = make_report(records, suite="smoke")
        comparison = compare_reports(report, report)
        assert comparison.ok
        assert not comparison.regressions

    def test_time_regression_detected(self, records):
        base = self._report_with(records[0], construction_seconds=1.0)
        curr = self._report_with(records[0], construction_seconds=2.0)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert [d.quantity for d in comparison.regressions] == ["construction_seconds"]
        assert not comparison.ok

    def test_time_improvement_detected(self, records):
        base = self._report_with(records[0], construction_seconds=1.0)
        curr = self._report_with(records[0], construction_seconds=0.4)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert [d.quantity for d in comparison.improvements] == ["construction_seconds"]
        assert comparison.ok

    def test_lower_peak_memory_is_an_improvement(self, records):
        """The memory pass reuses what the timed pass cached on the graph
        (the MST, τ), so a change that caches more lowers the peak."""
        base = self._report_with(records[0], peak_memory_bytes=40_000_000)
        curr = self._report_with(records[0], peak_memory_bytes=10_000_000)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert [d.quantity for d in comparison.improvements] == ["peak_memory_bytes"]
        assert comparison.ok

    def test_within_tolerance_is_ok(self, records):
        base = self._report_with(records[0], construction_seconds=1.0)
        curr = self._report_with(records[0], construction_seconds=1.3)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert comparison.ok and not comparison.improvements

    def test_sub_floor_jitter_ignored(self, records):
        base = self._report_with(records[0], construction_seconds=0.001)
        curr = self._report_with(records[0], construction_seconds=0.01)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert comparison.ok

    def test_jitter_straddling_the_floor_ignored(self, records):
        """A 30 ms wobble across the floor must not fail the gate."""
        base = self._report_with(records[0], construction_seconds=0.04)
        curr = self._report_with(records[0], construction_seconds=0.07)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert comparison.ok

    def test_cross_suite_compare_rejected(self, records):
        smoke = make_report(records, suite="smoke")
        table1 = make_report(records, suite="table1")
        with pytest.raises(ValueError, match="different suites"):
            compare_reports(smoke, table1)

    def test_zero_matched_profiles_fails_the_gate(self, records):
        report = make_report(records, suite="smoke")
        other = dict(report)
        other["records"] = [{**report["records"][0], "profile": "something-else"}]
        comparison = compare_reports(report, other)
        assert not comparison.ok
        assert "no profiles matched" in comparison.render()

    def test_rounds_change_is_a_regression(self, records):
        base = self._report_with(records[0], rounds=100)
        curr = self._report_with(records[0], rounds=120)
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert any(d.quantity == "rounds" for d in comparison.regressions)

    def test_network_traffic_gates_like_rounds(self):
        record = run_profile(get_profile("congest-broadcast"), "smoke",
                             measure_memory=False)
        base = self._report_with(record)
        data = record.to_dict()
        data["network"] = dict(data["network"], messages=record.messages * 2)
        curr = {**base, "records": [data]}
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert any(d.quantity == "messages" for d in comparison.regressions)

    def test_fewer_active_node_rounds_is_an_improvement(self):
        record = run_profile(get_profile("congest-broadcast"), "smoke",
                             measure_memory=False)
        base = self._report_with(record)
        data = record.to_dict()
        data["network"] = dict(data["network"],
                               active_node_rounds=record.active_node_rounds // 2)
        curr = {**base, "records": [data]}
        comparison = compare_reports(base, curr, tolerance=0.5)
        assert comparison.ok  # rounds/messages/words identical
        assert any(d.quantity == "active_node_rounds"
                   for d in comparison.improvements)

    def test_schema_v1_report_without_network_block_loads(self, tmp_path, records):
        report = make_report(records, suite="smoke")
        report["schema_version"] = 1
        for rec in report["records"]:
            rec.pop("network", None)
        path = tmp_path / "v1.json"
        write_report(report, path)
        loaded = report_records(load_report(path))
        assert loaded[0].messages is None
        assert loaded[0].active_node_rounds is None

    def test_quality_flip_always_gates(self, records):
        base = self._report_with(records[0], ok=True)
        curr = self._report_with(records[0], ok=False)
        comparison = compare_reports(base, curr, tolerance=100.0)
        assert any(d.quantity == "quality" for d in comparison.regressions)

    def test_unmatched_profiles_reported(self, records):
        report = make_report(records, suite="smoke")
        empty = {**report, "records": []}
        comparison = compare_reports(report, empty)
        assert comparison.missing_profiles == [records[0].profile]
        comparison = compare_reports(empty, report)
        assert comparison.new_profiles == [records[0].profile]

    def test_new_profiles_alongside_matches_do_not_gate(self, records):
        """Adding a profile must not fail the gate while matches pass."""
        report = make_report(records, suite="smoke")
        extra = {**report["records"][0], "profile": "brand-new"}
        grown = {**report, "records": report["records"] + [extra]}
        comparison = compare_reports(report, grown)
        assert comparison.new_profiles == ["brand-new"]
        assert comparison.ok

    def test_render_mentions_verdict(self, records):
        report = make_report(records, suite="smoke")
        assert "PASS" in compare_reports(report, report).render()


class TestBenchCLI:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in profile_names():
            assert name in out

    def test_run_single_profile_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_one.json"
        rc = main(["bench", "--profile", "congest-bfs-grid",
                   "--suite", "smoke", "--out", str(out), "--tag", "one"])
        assert rc == 0
        report = load_report(out)
        assert [r["profile"] for r in report["records"]] == ["congest-bfs-grid"]
        assert "wrote" in capsys.readouterr().out

    def test_compare_against_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_base.json"
        assert main(["bench", "--profile", "congest-bfs-grid",
                     "--suite", "smoke", "--out", str(out)]) == 0
        rc = main(["bench", "--profile", "congest-bfs-grid",
                   "--suite", "smoke", "--compare", str(out)])
        assert rc == 0
        output = capsys.readouterr().out
        assert "deltas vs" in output and "PASS" in output

    def test_congest_suite_runs_congest_profiles_at_smoke(self, tmp_path):
        out = tmp_path / "BENCH_congest.json"
        assert main(["bench", "--suite", "congest", "--no-memory",
                     "--out", str(out)]) == 0
        report = load_report(out)
        assert report["suite"] == "congest"
        recorded = {r["profile"] for r in report["records"]}
        assert recorded == {p.name for p in congest_profiles()}
        assert all(r["tier"] == "smoke" for r in report["records"])

    def test_unknown_profile_exits(self):
        with pytest.raises(SystemExit, match="unknown profile"):
            main(["bench", "--profile", "frobnicate"])

    def test_bad_baseline_exits(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="cannot load baseline"):
            main(["bench", "--profile", "congest-bfs-grid", "--compare", str(path)])

    def test_raw_json_is_sorted_and_versioned(self, tmp_path):
        out = tmp_path / "BENCH_raw.json"
        main(["bench", "--profile", "mst-ring-of-cliques", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA_NAME
        assert isinstance(data["schema_version"], int)
