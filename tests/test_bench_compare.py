"""Tests for benchmark trajectories and the bench-compare regression gate."""

import copy
import json

from repro.bench.harness import (
    BenchTrajectory,
    compare_trajectories,
    time_call,
)
from repro.core.cli import main
from repro.datalake.generate import make_union_corpus


def make_traj(scale: float = 1.0) -> dict:
    t = BenchTrajectory("queries", meta={"tables": 4})
    t.add("query.keyword", 2.0 * scale)
    t.add("query.join.exact", 5.0 * scale)
    t.add("pipeline.build", 100.0 * scale)
    return t.to_dict()


class TestTrajectory:
    def test_time_call_stats(self):
        stats = time_call(lambda: sum(range(100)), repeat=2)
        assert stats["runs"] == 2
        assert stats["best_ms"] <= stats["latency_ms"]

    def test_write_to_directory_uses_convention(self, tmp_path):
        t = BenchTrajectory("queries")
        t.add("a", 1.0)
        path = t.write(str(tmp_path))
        assert path.endswith("BENCH_queries.json")
        loaded = BenchTrajectory.load(path)
        assert loaded["experiment"] == "queries"
        assert loaded["records"][0]["latency_ms"] == 1.0

    def test_write_creates_missing_directory(self, tmp_path):
        t = BenchTrajectory("queries")
        t.add("a", 1.0)
        path = t.write(str(tmp_path / "out" / "bench"))
        assert path == str(tmp_path / "out" / "bench" / "BENCH_queries.json")
        assert BenchTrajectory.load(path)["records"][0]["latency_ms"] == 1.0

    def test_write_to_json_file_path(self, tmp_path):
        t = BenchTrajectory("queries")
        path = t.write(str(tmp_path / "mine.json"))
        assert path == str(tmp_path / "mine.json")
        assert BenchTrajectory.load(path)["experiment"] == "queries"

    def test_add_timed_records_and_returns(self):
        t = BenchTrajectory("x")
        stats = t.add_timed("case", lambda: None, repeat=1, tag="v")
        assert stats["runs"] == 1
        assert t.records[0]["tag"] == "v"


class TestCompare:
    def test_identical_is_ok(self):
        cmp = compare_trajectories(make_traj(), make_traj())
        assert cmp.ok
        assert all(r["status"] == "ok" for r in cmp.rows)
        assert "OK: no latency regressions" in cmp.render()

    def test_2x_regression_fails(self):
        cmp = compare_trajectories(make_traj(), make_traj(2.0))
        assert not cmp.ok
        assert len(cmp.regressions) == 3
        assert "FAIL: 3 record(s) regressed" in cmp.render()

    def test_within_threshold_is_ok(self):
        cmp = compare_trajectories(make_traj(), make_traj(1.15), threshold=0.2)
        assert cmp.ok

    def test_improvement_reported_not_failed(self):
        cmp = compare_trajectories(make_traj(), make_traj(0.5))
        assert cmp.ok
        assert {r["status"] for r in cmp.rows} == {"improved"}

    def test_added_and_removed_never_fail(self):
        old, new = make_traj(), make_traj()
        old["records"].append({"name": "gone", "latency_ms": 9.0})
        new["records"].append({"name": "fresh", "latency_ms": 9.0})
        cmp = compare_trajectories(old, new)
        assert cmp.ok
        by_name = {r["name"]: r["status"] for r in cmp.rows}
        assert by_name["gone"] == "removed"
        assert by_name["fresh"] == "added"

    def test_zero_baseline_counts_as_regression(self):
        old, new = make_traj(), make_traj()
        old["records"][0]["latency_ms"] = 0.0
        cmp = compare_trajectories(old, new)
        assert not cmp.ok


class TestCli:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_baseline_vs_itself_exits_zero(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", make_traj())
        assert main(["bench-compare", old, old]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", make_traj())
        slow = copy.deepcopy(make_traj())
        for r in slow["records"]:
            r["latency_ms"] *= 2
        new = self.write(tmp_path, "new.json", slow)
        assert main(["bench-compare", old, new, "--threshold", "0.2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_only_exits_zero_on_regression(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", make_traj())
        new = self.write(tmp_path, "new.json", make_traj(3.0))
        assert main(["bench-compare", old, new, "--report-only"]) == 0
        assert "FAIL" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_writes_trajectory(self, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        corpus = make_union_corpus(
            n_groups=2, tables_per_group=2, rows_per_table=20, seed=3
        )
        corpus.lake.save_to_directory(lake_dir)
        rc = main(
            [
                "bench",
                str(lake_dir),
                "-o",
                str(tmp_path),
                "--experiment",
                "smoke",
                "--repeat",
                "1",
            ]
        )
        assert rc == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        data = json.loads(path.read_text())
        names = {r["name"] for r in data["records"]}
        assert "pipeline.build" in names
        assert "query.keyword" in names
