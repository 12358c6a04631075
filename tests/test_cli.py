"""Tests for the command-line interface."""

import json
import time

import pytest

from repro.core.cli import build_parser, main, query_engines
from repro.core.engine import FEDERATED_LABEL, REGISTRY
from repro.datalake.generate import make_union_corpus
from repro.datalake.lake import DataLake
from repro.datalake.table import Table


def all_subcommands() -> list[str]:
    parser = build_parser()
    for action in parser._actions:
        if getattr(action, "choices", None):
            return sorted(action.choices)
    raise AssertionError("parser has no subcommands")


@pytest.fixture(scope="module")
def lake_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lake")
    corpus = make_union_corpus(
        n_groups=2, tables_per_group=3, rows_per_table=25, seed=19
    )
    corpus.lake.save_to_directory(directory)
    return directory, corpus


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_stats(self, lake_dir, capsys):
        directory, corpus = lake_dir
        assert main(["stats", str(directory)]) == 0
        out = capsys.readouterr().out
        assert f"tables: {len(corpus.lake)}" in out

    def test_keyword_over_headers(self, lake_dir, capsys):
        directory, corpus = lake_dir
        # CSV round-trips drop metadata, so keyword search works on headers.
        header = corpus.lake.table(corpus.groups[0][0]).columns[0].name
        token = header.split("_")[0]  # "concept"
        assert main(["keyword", str(directory), "--query", token]) == 0
        assert capsys.readouterr().out.strip()

    def test_join(self, lake_dir, capsys):
        directory, corpus = lake_dir
        qname = corpus.groups[0][0]
        assert main(
            ["join", str(directory), "--table", qname, "--column", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert out.strip(), "join search should print hits"
        assert qname not in out.split()[0]

    def test_union_tus(self, lake_dir, capsys):
        directory, corpus = lake_dir
        qname = corpus.groups[0][0]
        assert main(
            ["union", str(directory), "--table", qname, "--method", "tus"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        top = lines[0].split("\t")[0]
        assert top in corpus.truth[qname]

    def test_union_starmie(self, lake_dir, capsys):
        directory, corpus = lake_dir
        qname = corpus.groups[1][0]
        assert main(["union", str(directory), "--table", qname]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        top = lines[0].split("\t")[0]
        assert top in corpus.truth[qname]

    def test_navigate(self, lake_dir, capsys):
        directory, _ = lake_dir
        assert main(
            ["navigate", str(directory), "--intent", "concept_000"]
        ) == 0
        assert capsys.readouterr().out.strip()

    def test_domains(self, lake_dir, capsys):
        directory, _ = lake_dir
        assert main(["domains", str(directory), "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "domain 0:" in out


class TestHelpSmoke:
    """Satellite: every subcommand must at least render its --help."""

    def test_subcommand_inventory(self):
        commands = all_subcommands()
        assert {"slo", "inspect", "top", "bench-compare"} <= set(commands)

    @pytest.mark.parametrize("command", all_subcommands())
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert command in out


def write_log(path, latency_ms, status="ok", n=20):
    now = time.time()
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "ts": now - i,
                    "engine": "join",
                    "query": f"q{i}",
                    "latency_ms": latency_ms,
                    "status": status,
                    "error": None if status == "ok" else "TimeoutError",
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSloCommand:
    def test_healthy_log_exits_zero(self, tmp_path, capsys):
        log = write_log(tmp_path / "ok.jsonl", latency_ms=5.0)
        assert main(["slo", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "SLO report (OK" in out

    def test_breached_log_exits_one(self, tmp_path, capsys):
        log = write_log(
            tmp_path / "bad.jsonl", latency_ms=900.0, status="error"
        )
        assert main(["slo", "--log", str(log)]) == 1
        out = capsys.readouterr().out
        assert "BREACH" in out

    def test_custom_objective_and_json(self, tmp_path, capsys):
        log = write_log(tmp_path / "ok.jsonl", latency_ms=50.0)
        rc = main(
            [
                "slo",
                "--log",
                str(log),
                "--objective",
                "join:10:0.5",
                "--json",
            ]
        )
        assert rc == 1  # 50ms against a 10ms target
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["statuses"][0]["engine"] == "join"

    def test_log_and_url_are_mutually_exclusive(self, tmp_path):
        log = write_log(tmp_path / "ok.jsonl", latency_ms=5.0)
        with pytest.raises(SystemExit):
            main(["slo", "--log", str(log), "--url", "http://localhost:1"])

    def test_bad_objective_spec_rejected(self, tmp_path):
        log = write_log(tmp_path / "ok.jsonl", latency_ms=5.0)
        with pytest.raises(ValueError):
            main(["slo", "--log", str(log), "--objective", "join"])

    def test_url_source(self, capsys):
        from repro import obs
        from repro.obs.server import ObservabilityServer

        obs.reset()
        obs.QUERY_LOG.append(
            obs.QueryRecord(engine="join", query="q", latency_ms=2.0)
        )
        with ObservabilityServer(port=0) as srv:
            assert main(["slo", "--url", srv.url]) == 0
        assert "SLO report (OK" in capsys.readouterr().out
        obs.reset()


class TestInspectCommand:
    def test_inspect_reports_every_index(self, lake_dir, capsys):
        directory, _ = lake_dir
        assert main(["inspect", str(directory), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in reports}
        # Acceptance: non-empty stats for every default-pipeline index.
        assert {
            "keyword",
            "josie",
            "lshensemble",
            "jaccard_lsh",
            "tus",
            "starmie",
            "pexeso",
            "mate",
            "qcr",
            "organization",
        } <= names
        for r in reports:
            assert r["memory_bytes"] > 0, r["name"]
            assert r["detail"], r["name"]

    def test_inspect_human_output(self, lake_dir, capsys):
        directory, _ = lake_dir
        assert main(["inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "KiB total" in out
        assert "josie" in out


class TestEnginesCommand:
    EXPECTED = {
        "keyword",
        "josie",
        "lshensemble",
        "jaccard_lsh",
        "tus",
        "starmie",
        "pexeso",
        "santos",
        "qcr",
        "mate",
        "organization",
    }

    def test_lists_registry_without_a_lake(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "registered engines" in out
        for name in self.EXPECTED:
            assert name in out

    def test_json_with_lake_reports_built_status(self, lake_dir, capsys):
        directory, _ = lake_dir
        assert main(["engines", str(directory), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert set(by_name) == self.EXPECTED
        # No ontology in a CSV-only lake: SANTOS stays down, rest come up.
        assert not by_name["santos"]["built"]
        for name in self.EXPECTED - {"santos"}:
            assert by_name[name]["built"], name
            assert by_name[name]["items"] >= 0


@pytest.fixture(scope="module")
def wide_lake_dir(tmp_path_factory):
    """30 tables sharing one value set: every column joins every other."""
    directory = tmp_path_factory.mktemp("wide_lake")
    values = [f"city{i}" for i in range(12)]
    lake = DataLake(
        [Table.from_dict(f"t{i:02d}", {"city": values}) for i in range(30)]
    )
    lake.save_to_directory(directory)
    return directory


class TestQueryCommand:
    def test_engine_choices_cover_the_registry(self):
        search = {c.name for c in REGISTRY.all() if c.category == "search"}
        assert set(query_engines()) >= search | {FEDERATED_LABEL}
        # the legacy spellings the docs and CI use keep working
        assert set(query_engines()) >= {
            "join", "containment", "fuzzy", "mate", "correlated", "union"
        }

    def test_k_above_twenty_prints_every_hit(self, wide_lake_dir, capsys):
        args = ["query", str(wide_lake_dir), "--engine", "join"]
        assert main(args + ["--table", "t00", "-k", "25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25

    def test_registry_name_matches_legacy_name(self, lake_dir, capsys):
        directory, corpus = lake_dir
        qname = corpus.groups[0][0]
        outputs = []
        for engine in ("join", "josie"):
            assert main(
                ["query", str(directory), "--engine", engine, "--table", qname]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()

    def test_federated_by_table(self, lake_dir, capsys):
        directory, corpus = lake_dir
        qname = corpus.groups[0][0]
        assert main(
            ["query", str(directory), "--engine", "federated", "--table", qname]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(line.split("\t")[0] != qname for line in lines)

    def test_missing_input_names_the_flag(self, lake_dir):
        directory, _ = lake_dir
        with pytest.raises(SystemExit, match="--query is required"):
            main(["query", str(directory), "--engine", "keyword"])
        with pytest.raises(SystemExit, match="--table is required"):
            main(["query", str(directory), "--engine", "josie"])

    def test_unknown_method_rejected(self, lake_dir):
        directory, corpus = lake_dir
        with pytest.raises(SystemExit, match="unknown union method 'bogus'"):
            main(
                [
                    "query", str(directory), "--engine", "union",
                    "--method", "bogus", "--table", corpus.groups[0][0],
                ]
            )


class TestCommandErrors:
    """Library errors end a command with a one-line message and a
    non-zero status, not a traceback."""

    def test_unknown_table(self, lake_dir):
        directory, _ = lake_dir
        with pytest.raises(SystemExit) as exc:
            main(["join", str(directory), "--table", "nope"])
        assert exc.value.code == "repro join: no table named 'nope'"

    def test_unavailable_engine(self, lake_dir):
        directory, corpus = lake_dir
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "query", str(directory), "--engine", "union",
                    "--method", "santos", "--table", corpus.groups[0][0],
                ]
            )
        assert exc.value.code == (
            "repro query: no ontology: santos unavailable"
        )


class TestSaveRoundTrip:
    def test_save_and_reload(self, tmp_path):
        lake = DataLake([Table.from_dict("t1", {"a": ["x", "y"]})])
        lake.save_to_directory(tmp_path / "out")
        back = DataLake.from_directory(tmp_path / "out")
        assert back.table("t1").rows() == [["x"], ["y"]]


class TestBuildAndSnapshotCommands:
    def test_build_parallel_and_save(self, lake_dir, tmp_path, capsys):
        directory, _ = lake_dir
        snap = tmp_path / "snap"
        rc = main(
            ["build", str(directory), "--jobs", "4", "--save", str(snap)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 job(s)" in out
        assert "saved snapshot" in out
        assert (snap / "manifest.json").exists()
        assert (snap / "payload.pkl").exists()

    def test_query_load_matches_fresh_build(self, lake_dir, tmp_path, capsys):
        directory, corpus = lake_dir
        snap = tmp_path / "snap"
        assert main(["build", str(directory), "--save", str(snap)]) == 0
        capsys.readouterr()
        qname = corpus.groups[0][0]
        args = [
            "query", str(directory), "--engine", "union", "--table", qname
        ]
        assert main(args) == 0
        fresh = capsys.readouterr().out
        assert main(args + ["--load", str(snap)]) == 0
        loaded = capsys.readouterr().out
        assert loaded == fresh
        assert loaded.strip()

    def test_query_load_refuses_stale_snapshot(
        self, lake_dir, tmp_path, capsys
    ):
        directory, corpus = lake_dir
        snap = tmp_path / "snap"
        assert main(["build", str(directory), "--save", str(snap)]) == 0
        capsys.readouterr()
        stale_dir = tmp_path / "changed_lake"
        corpus.lake.save_to_directory(stale_dir)
        (stale_dir / "extra.csv").write_text("a,b\n1,2\n")
        with pytest.raises(SystemExit, match="stale"):
            main(
                [
                    "query",
                    str(stale_dir),
                    "--engine",
                    "keyword",
                    "--query",
                    "x",
                    "--load",
                    str(snap),
                ]
            )

    def test_build_skip_stage(self, lake_dir, capsys):
        directory, _ = lake_dir
        rc = main(
            ["build", str(directory), "--skip", "mate_index", "--no-embeddings"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mate_index" not in out
