"""Experiment harness: run experiments, print paper-style ASCII tables,
assert qualitative shapes, and persist performance trajectories.

Each bench module builds an ``ExperimentTable`` with the same rows/series
the original paper reports, prints it (captured into bench output), and
asserts the expected *shape* (who wins, rough factors, crossovers).

:class:`BenchTrajectory` persists a run's latency records to
``BENCH_<experiment>.json`` so performance is comparable across commits;
:func:`compare_trajectories` is the regression gate behind
``repro bench-compare`` (non-zero exit when a record slows down by more
than the threshold factor).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class ExperimentTable:
    """A printable result table for one experiment."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.columns)}"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def attach_metrics(self, snapshot: dict, match: str | None = None) -> None:
        """Attach a ``MetricsRegistry.snapshot()`` as note lines.

        ``match`` filters metric names by substring (e.g. ``"josie"``), so a
        bench can surface just the counters its experiment exercises.
        """

        def keep(name: str) -> bool:
            return match is None or match in name

        for name, value in snapshot.get("counters", {}).items():
            if keep(name):
                self.note(f"metric {name} = {value:g}")
        for name, value in snapshot.get("gauges", {}).items():
            if keep(name):
                self.note(f"metric {name} = {value:g}")
        for name, hist in snapshot.get("histograms", {}).items():
            if keep(name) and hist["count"]:
                mean = hist["sum"] / hist["count"]
                self.note(
                    f"metric {name}: count={hist['count']} "
                    f"mean={mean:.3f} max={hist['max']:g}"
                )

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        cells = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")

    def column_values(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


# -- performance trajectories -------------------------------------------------------


def time_call(fn: Callable[[], Any], repeat: int = 3) -> dict[str, float]:
    """Run ``fn`` ``repeat`` times; return best/mean wall-clock in ms."""
    runs = []
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        fn()
        runs.append((time.perf_counter() - t0) * 1000)
    return {
        "latency_ms": round(sum(runs) / len(runs), 4),
        "best_ms": round(min(runs), 4),
        "runs": len(runs),
    }


@dataclass
class BenchTrajectory:
    """One benchmark run's named latency records, persisted as JSON.

    The on-disk convention is ``BENCH_<experiment>.json``; ``write`` applies
    it automatically when handed a directory.
    """

    experiment: str
    meta: dict[str, Any] = field(default_factory=dict)
    records: list[dict[str, Any]] = field(default_factory=list)

    def add(self, name: str, latency_ms: float, **extra: Any) -> None:
        self.records.append(
            {"name": name, "latency_ms": round(float(latency_ms), 4), **extra}
        )

    def add_timed(
        self, name: str, fn: Callable[[], Any], repeat: int = 3, **extra: Any
    ) -> dict[str, float]:
        """Time ``fn`` and append the record; returns the timing stats."""
        stats = time_call(fn, repeat)
        self.records.append({"name": name, **stats, **extra})
        return stats

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "meta": dict(self.meta),
            "records": list(self.records),
        }

    def write(self, path: str) -> str:
        """Write the trajectory JSON.  A path not ending in ``.json`` is a
        directory (created if missing) that gets the
        ``BENCH_<experiment>.json`` filename appended.  Returns the path."""
        if os.path.isdir(path) or not path.endswith(".json"):
            os.makedirs(path, exist_ok=True)
            path = os.path.join(path, f"BENCH_{self.experiment}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    @staticmethod
    def load(path: str) -> dict[str, Any]:
        with open(path, encoding="utf-8") as f:
            return json.load(f)


@dataclass
class BenchComparison:
    """Old-vs-new trajectory comparison: per-record ratios + verdict."""

    threshold: float
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def regressions(self) -> list[dict[str, Any]]:
        return [r for r in self.rows if r["status"] == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"bench-compare: threshold=+{self.threshold * 100:.0f}% latency"
        ]
        for r in self.rows:
            old = f"{r['old_ms']:.3f}" if r["old_ms"] is not None else "-"
            new = f"{r['new_ms']:.3f}" if r["new_ms"] is not None else "-"
            ratio = f"{r['ratio']:.2f}x" if r["ratio"] is not None else "-"
            lines.append(
                f"  {r['status']:<10} {r['name']:<28} "
                f"old={old} ms  new={new} ms  ({ratio})"
            )
        verdict = (
            "OK: no latency regressions"
            if self.ok
            else f"FAIL: {len(self.regressions)} record(s) regressed"
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare_trajectories(
    old: dict[str, Any], new: dict[str, Any], threshold: float = 0.2
) -> BenchComparison:
    """Match records by name; flag any whose latency grew by more than
    ``threshold`` (0.2 = 20%).  Records present on only one side are
    reported but never fail the gate."""
    cmp = BenchComparison(threshold=threshold)
    old_by_name = {r["name"]: r for r in old.get("records", [])}
    new_by_name = {r["name"]: r for r in new.get("records", [])}
    for name in sorted(set(old_by_name) | set(new_by_name)):
        o, n = old_by_name.get(name), new_by_name.get(name)
        if o is None or n is None:
            cmp.rows.append(
                {
                    "name": name,
                    "old_ms": o["latency_ms"] if o else None,
                    "new_ms": n["latency_ms"] if n else None,
                    "ratio": None,
                    "status": "removed" if n is None else "added",
                }
            )
            continue
        old_ms, new_ms = float(o["latency_ms"]), float(n["latency_ms"])
        ratio = new_ms / old_ms if old_ms > 0 else float("inf")
        if ratio > 1 + threshold:
            status = "regression"
        elif ratio < 1 - threshold:
            status = "improved"
        else:
            status = "ok"
        cmp.rows.append(
            {
                "name": name,
                "old_ms": old_ms,
                "new_ms": new_ms,
                "ratio": round(ratio, 4),
                "status": status,
            }
        )
    return cmp
