"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload union_lake --seed 3 --seconds 15 --trace 0

One process serves one workload through ``DiscoverySystem`` with a single
closed-loop client (each query is sent when the previous answer is back).
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` the per-layer ones. Every answer is checked (see
``references.py``); the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
non-zero when any check failed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Set-up is repeated and its median reported.
SETUP_REPEATS = 3
#: The per-engine build times must add up to each stage's time within this.
SPLIT_TOLERANCE = 0.05
#: Alternating untraced/traced slices in the traced run.
OVERHEAD_SLICES = 4
#: Families every workload serves; each gets an end-to-end median.
E2E_FAMILIES = (
    "keyword", "join_exact", "join_containment", "multi_attribute", "union_tus",
    "federated",
)


def end_to_end_specs() -> list[tuple[str, str]]:
    specs = [
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("throughput_qps", "1/s"),
        ("query_p99_ms", "ms"),
        ("recall_at_10", "ratio"),
    ]
    return specs + [(f"{f}_p50_ms", "ms") for f in E2E_FAMILIES]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


class Phase:
    """One closed-loop query phase: per-family latencies and every answer."""

    def __init__(self):
        self.latency_ms: dict[str, list[float]] = defaultdict(list)
        self.outputs: list[tuple] = []
        self.elapsed = 0.0

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.latency_ms.values())

    @property
    def qps(self) -> float:
        return self.count / self.elapsed


def warm_up(system, workload, outputs: list) -> None:
    """One untimed query per family, so lazy imports and first-call set-up
    are not timed. Their answers are checked like the rest."""
    from workloads import FAMILIES

    for family in workload.weights:
        q = workload.pools[family][0]
        outputs.append((q, _call(FAMILIES[q.family], system, q.arg)))


def _call(fn, system, arg):
    try:
        return fn(system, arg)
    except Exception as exc:  # a failed operation, counted by the checks
        return exc


def serve(system, workload, seconds: float, instrument=None, stream=None, phase=None) -> Phase:
    """Send the workload's query stream for ``seconds`` (continuing
    ``stream`` and adding to ``phase`` when given). ``instrument`` (traced
    run only) wraps each facade call."""
    from workloads import FAMILIES

    phase = Phase() if phase is None else phase
    stream = workload.stream() if stream is None else stream
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    while end < deadline:
        q = next(stream)
        fn = FAMILIES[q.family]
        t0 = time.perf_counter()
        if instrument is None:
            result = _call(fn, system, q.arg)
        else:
            result = instrument(q, lambda: _call(fn, system, q.arg))
        end = time.perf_counter()
        phase.latency_ms[q.family].append((end - t0) * 1000)
        phase.outputs.append((q, result))
    phase.elapsed += end - start
    return phase


class Checker:
    """Checks answers against references (and, on a restart, against the
    freshly built system's answers); gathers recall."""

    def __init__(self, refs, fresh: dict | None = None):
        self.refs = refs
        self.fresh = fresh
        self.attempted = 0
        self.failed = 0
        self.recalls: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        #: checks that fail the run without being an operation
        self.violations: list[str] = []

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(why)

    def check(self, outputs) -> None:
        from prep import fresh_key
        from references import RECALL_NAME, References, normalize

        for q, result in outputs:
            self.attempted += 1
            if isinstance(result, Exception):
                self._fail(f"{q.family} {q.key}: {type(result).__name__}: {result}")
                continue
            if self.fresh is not None and normalize(result) != self.fresh[fresh_key(q)]:
                self._fail(f"{q.family} {q.key}: differs from the freshly built system")
                continue
            ref = self.refs.reference(q)
            if ref is None:
                continue
            if q.family == "join_exact" and not References.exact_scores_match(result, ref):
                self._fail(f"{q.family} {q.key}: top-{len(ref[:10])} scores differ "
                           "from brute force")
                continue
            r = References.recall(result, ref)
            if r is not None:
                self.recalls[RECALL_NAME[q.family]].append(r)

    def recall_at_10(self) -> float:
        pooled = [r for rs in self.recalls.values() for r in rs]
        return statistics.fmean(pooled) if pooled else 0.0


def _setups(workload, work_dir: Path) -> tuple[list[float], object, dict | None]:
    """Set up ``SETUP_REPEATS`` times; returns (seconds each, the last
    system, fresh answers on a restart)."""
    from repro.core import DiscoverySystem

    times, system, fresh = [], None, None
    if workload.from_snapshot:
        subprocess.run(
            [sys.executable, str(HERE / "prep.py"), "--seed", str(workload.seed),
             "--out", str(work_dir)],
            check=True,
            timeout=170,
        )
        fresh = json.loads((work_dir / "fresh.json").read_text())
    for _ in range(SETUP_REPEATS):
        system = None
        gc.collect()
        t0 = time.perf_counter()
        if fresh is not None:
            system = DiscoverySystem.load(
                work_dir / "snapshot", lake=workload.lake, config=workload.config,
                ontology=workload.ontology,
            )
        else:
            system = workload.new_system().build()
        times.append(time.perf_counter() - t0)
    return times, system, fresh


def run_untraced(workload, seconds: float, work_dir: Path):
    from references import References

    setup_times, system, fresh = _setups(workload, work_dir)
    log(f"setup {[round(t, 3) for t in setup_times]}")
    outputs: list = []
    warm_up(system, workload, outputs)
    phase = serve(system, workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker = Checker(References(workload, system.space), fresh)
    checker.check(outputs + phase.outputs)

    all_ms = [x for xs in phase.latency_ms.values() for x in xs]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "throughput_qps": phase.qps,
        "query_p99_ms": percentile(all_ms, 99),
        "recall_at_10": checker.recall_at_10(),
    }
    for f in E2E_FAMILIES:
        metrics[f"{f}_p50_ms"] = statistics.median(phase.latency_ms[f])
    samples = {f: len(v) for f, v in phase.latency_ms.items()}
    samples["all"] = len(all_ms)
    details = {
        "setup_runs_s": setup_times,
        "samples": samples,
        "recall_by_engine": {k: statistics.fmean(v) for k, v in checker.recalls.items()},
    }
    return checker, metrics, details


def run_traced(workload, seconds: float, work_dir: Path, out_dir: Path):
    import layers
    import repro.obs as obs
    from prep import fresh_answers
    from references import References

    spans = layers.SpanLog()
    built, metrics, setup_s = layers.instrumented_build(workload, spans)
    fresh = fresh_answers(workload, built) if workload.from_snapshot else None
    system, snap = layers.snapshot_metrics(built, work_dir / "snapshot", workload, spans)
    metrics.update(snap)
    if not workload.from_snapshot:
        system = built  # serve what was built; the reload only measured the snapshot layer
    del built
    gc.collect()
    metrics.update(layers.index_metrics(system))

    outputs: list = []
    warm_up(system, workload, outputs)
    # Untraced and traced service alternate in slices, so drift in the
    # machine's speed does not land on one side of the overhead ratio.
    untraced, traced = Phase(), Phase()
    streams = (workload.stream(), workload.stream())
    for _ in range(OVERHEAD_SLICES):
        serve(system, workload, seconds / OVERHEAD_SLICES, stream=streams[0], phase=untraced)
        obs.enable_tracing()
        serve(system, workload, seconds / OVERHEAD_SLICES, stream=streams[1], phase=traced)
        obs.disable_tracing()
        obs.TRACER.reset()

    # repro.obs tracing stays off here, so facade self time is what an
    # untraced query pays for the facade and its observability wrapper.
    taps = layers.QueryTaps(system, spans)
    with taps.installed():
        tapped = serve(system, workload, seconds, taps.facade)
    spans.write(out_dir / f"spans-{workload.name}-seed{workload.seed}.json")

    checker = Checker(References(workload, system.space), fresh)
    checker.check(outputs + untraced.outputs + traced.outputs + tapped.outputs)
    if metrics["build.split_max_gap"] > SPLIT_TOLERANCE:
        checker.violations.append(
            f"per-engine build times miss a stage time by "
            f"{metrics['build.split_max_gap']:.1%} (> {SPLIT_TOLERANCE:.0%})"
        )

    metrics.update(layers.query_layer_metrics(taps))
    for f in layers.SPECIFIC_FAMILIES:
        xs = untraced.latency_ms.get(f)
        metrics[f"family.{f}.p50_ms"] = statistics.median(xs) if xs else 0.0
    for r in layers.RECALLS:
        xs = checker.recalls.get(r)
        metrics[f"recall.{r}"] = statistics.fmean(xs) if xs else 0.0
    metrics["obs.untraced_qps"] = untraced.qps
    metrics["obs.traced_qps"] = traced.qps
    metrics["obs.trace_overhead"] = untraced.qps / traced.qps - 1
    details = {
        "instrumented_setup_s": setup_s,
        "engine_calls": dict(taps.calls),
        "samples": {
            "untraced": untraced.count, "traced": traced.count, "instrumented": tapped.count,
        },
    }
    return checker, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        log(f"no repro sources under {ROOT}: run from the root of a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    specs = layers.per_layer_specs() if args.trace else end_to_end_specs()
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    if declared != specs:
        log("BENCHMARK.json does not list the metrics this benchmark reports")
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    lake_stats = workload.lake.stats()
    log(f"{args.workload} seed={args.seed} lake={lake_stats}")
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    work_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            checker, metrics, details = run_traced(workload, args.seconds, work_dir, out_dir)
        else:
            checker, metrics, details = run_untraced(workload, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in checker.problems + checker.violations:
        log(f"FAILED {problem}")
    correct = checker.failed == 0 and not checker.violations
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "lake": lake_stats, **details,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
