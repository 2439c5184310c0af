"""Run perfbench in alternating pairs on two checkouts and judge each end-to-end metric.

Each checkout runs its own ``perfbench/run.py --trace 0``, with the checkout
as the working directory, for the ``run_seconds`` that ``BENCHMARK.json``
fixes::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload song-specmax \\
        --pairs 10 --seed 4701 --out runs.jsonl

Pair ``i`` (from 0) runs both sides on seed ``--seed + i``; the parent goes
first on even pairs, the change on odd ones. Every run appends one JSON line
(side, workload, pair, seed, pinned, and perfbench's own result line, or
``null`` with the end of its stderr when it printed none) to ``--out``.
``--pin-mmap`` sets ``MALLOC_MMAP_THRESHOLD_=131072`` in the runs'
environment only, which fixes glibc's mmap threshold and so the heap layout
that otherwise moves ``peak_rss_mb`` between checkouts.

Then, for each end-to-end metric of ``BENCHMARK.json``, it prints both
medians and the parent's interquartile range over the pairs in which both
sides printed a result, the pairs the change wins (a tie counts for neither
side) out of all pairs run, the failed and attempted operations per side,
and a verdict:

- ``gain`` when the change wins at least 9 in 10 of all pairs run, its
  median is better than the parent's by more than the parent's
  interquartile range, every run printed a result and no more operations
  failed than at the parent;
- ``regression`` when the change's median is worse than the metric's bound
  allows;
- ``unresolved`` when the parent's interquartile range is wider than the
  bound allows, unless every change run reads better than every parent run;
- ``held`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PIN_MMAP = {"MALLOC_MMAP_THRESHOLD_": "131072"}
SIDES = ("parent", "change")


def run_pair(dirs: dict[str, Path], workload: str, pair: int, seed: int,
             seconds: float, pinned: bool) -> list[dict]:
    """Both sides' runs of one pair, in this pair's order."""
    env = {**os.environ, **(PIN_MMAP if pinned else {})}
    lines = []
    for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=dirs[side], env=env, capture_output=True, text=True)
        line = {"side": side, "workload": workload, "pair": pair, "seed": seed,
                "pinned": pinned, "result": None}
        try:
            line["result"] = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            line["stderr"] = proc.stderr[-2000:]
        lines.append(line)
    return lines


def judge(lines: list[dict], metrics: list[dict]) -> list[dict]:
    """One verdict per metric (``BENCHMARK.json`` end-to-end entries); none
    under two pairs in which both sides printed a result."""
    by_pair: dict[int, dict[str, dict | None]] = {}
    for line in lines:
        by_pair.setdefault(line["pair"], {})[line["side"]] = line["result"]
    pairs = [p for p in by_pair.values() if all(p.get(side) is not None for side in SIDES)]
    verdicts = []
    if len(pairs) < 2:  # too few for a median and an interquartile range
        return verdicts
    ops = operations(lines)
    may_gain = not ops["parent"][2] and not ops["change"][2] and ops["change"][0] <= ops["parent"][0]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = (statistics.median(values[side]) for side in SIDES)
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        apart = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
        if may_gain and 10 * wins >= 9 * len(by_pair) and sign * (change - parent) > q3 - q1:
            verdict = "gain"
        elif sign * (change - parent) < -metric["bound"] * parent:
            verdict = "regression"
        elif q3 - q1 > metric["bound"] * parent and not apart:
            verdict = "unresolved"
        else:
            verdict = "held"
        verdicts.append({"name": name, "parent": parent, "change": change,
                         "parent_iqr": q3 - q1, "wins": wins, "pairs": len(by_pair),
                         "verdict": verdict})
    return verdicts


def operations(lines: list[dict]) -> dict[str, tuple[int, int, int]]:
    """Per side: (failed operations, attempted operations, runs without a result)."""
    counts = {}
    for side in SIDES:
        results = [line["result"] for line in lines if line["side"] == side]
        done = [r for r in results if r is not None]
        counts[side] = (sum(r["failed"] for r in done), sum(r["attempted"] for r in done),
                        len(results) - len(done))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--pin-mmap", action="store_true",
                        help="run both sides with MALLOC_MMAP_THRESHOLD_=131072")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON lines file the runs are appended to")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    lines = []
    for pair in range(args.pairs):
        pair_lines = run_pair(dirs, args.workload, pair, args.seed + pair,
                              bench["run_seconds"], args.pin_mmap)
        with args.out.open("a", encoding="utf-8") as out:
            out.writelines(json.dumps(line) + "\n" for line in pair_lines)
        lines += pair_lines

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}"
          + (", mmap threshold pinned" if args.pin_mmap else ""))
    for v in judge(lines, bench["end_to_end"]):
        print(f"  {v['name']}: parent {v['parent']:.4g}, change {v['change']:.4g} "
              f"(parent IQR {v['parent_iqr']:.3g}); change wins {v['wins']}/{v['pairs']}: "
              f"{v['verdict']}")
    for side, (failed, attempted, missing) in operations(lines).items():
        print(f"  {side}: {failed}/{attempted} operations failed, "
              f"{missing} runs without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
