"""Snapshot preparation for the ``snapshot_restart`` workload.

Builds the workload's system with the code under test, saves its snapshot
and records the freshly built system's answer to every pooled query, which
the restarted system must reproduce exactly. ``run.py`` starts this as its
own process so the restart it times is a cold one::

    python3 perfbench/prep.py --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fresh_key(q) -> str:
    return f"{q.family}\t{q.key}"


def fresh_answers(workload, system) -> dict:
    """A freshly built ``system``'s answer to every pooled query, keyed by
    :func:`fresh_key`."""
    from references import normalize
    from workloads import FAMILIES

    return {
        fresh_key(q): normalize(FAMILIES[q.family](system, q.arg))
        for pool in workload.pools.values()
        for q in pool
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import snapshot_restart

    workload = snapshot_restart(args.seed)
    system = workload.new_system().build()
    system.save(args.out / "snapshot")
    (args.out / "fresh.json").write_text(json.dumps(fresh_answers(workload, system)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
