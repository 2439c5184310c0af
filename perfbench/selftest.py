"""Self-test of the benchmark; runs in well under a minute.

    python3 perfbench/selftest.py

It runs every workload on one short clip for a single round, traced and
untraced, and requires every operation to pass and every metric to be
reported. It then corrupts real outputs, an f0 table shifted by an octave
either way, a truncated table and an SVG with a marker removed, and
requires the checks to count each as failed, so they are not vacuous.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run
from checks import check_operation

TINY_SECONDS = {"song": 2.0, "lowband": 1.5}  # the shortest clip each layout fills


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return replace(w, files=1, clip_seconds=TINY_SECONDS[w.kind])


def check_runs(work: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {trace: {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
             for trace in (False, True)}
    for name in run.WORKLOADS:
        for trace in (False, True):
            if name != "song-specmax" and not trace:
                continue  # one untraced run covers the end-to-end path
            result = run.run(tiny(name), 7, 0.0, trace, work / f"{name}-{int(trace)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)}: {result['attempted']} operations, none failed")
            expected = names[trace]
            expect(set(result["metrics"]) == expected,
                   f"{name} trace={int(trace)}: reports exactly its {len(expected)} metrics")


def scale_f0(text: str, factor: float) -> str:
    def row(match):
        return f"{match.group(1)}\t{float(match.group(2)) * factor:.3f}"
    return re.sub(r"^([0-9.]+)\t([0-9.]+)$", row, text, flags=re.M)


def check_corruptions(work: Path) -> None:
    cli, _ = run.import_f0kit()
    for name, method in (("song-specmax", "specmax"), ("lowband-baselines", "yin")):
        w = tiny(name)
        bench = run.Bench(w, 11, cli, work / f"corrupt-{method}")
        input_name, clip = next(iter(bench.clips.items()))
        table, svg = bench.single_paths(input_name, method)
        bench.single(input_name, method)
        expect(bench.failed == 0, f"{method}: the untouched output passes")
        pristine = {path: path.read_text(encoding="utf-8") for path in (table, svg) if path}
        rows = pristine[table].count("\n") - 1
        summary = f"{input_name}: frames={rows} voiced=0.0% elapsed=0.0 ms\n"
        expect(not check_operation(clip, method, w.accuracy[method], input_name,
                                   table, svg, summary),
               f"{method}: the untouched output passes with a matching summary line")

        def failed_after(path: Path, edit, label: str, stdout: str = summary) -> None:
            for original, text in pristine.items():
                original.write_text(text, encoding="utf-8")
            path.write_text(edit(pristine[path]), encoding="utf-8")
            problems = check_operation(clip, method, w.accuracy[method], input_name,
                                       table, svg, stdout)
            expect(bool(problems), f"{method}: {label} counts as failed ({problems[:1]})")

        failed_after(table, lambda t: t, "a summary line with the wrong frame count",
                     summary.replace(f"frames={rows}", f"frames={rows + 1}"))
        failed_after(table, lambda t: scale_f0(t, 2.0), "a table an octave up")
        failed_after(table, lambda t: scale_f0(t, 0.5), "a table an octave down")
        failed_after(table, lambda t: "".join(t.splitlines(True)[:-5]), "a truncated table")
        if svg is not None:
            failed_after(svg, lambda t: re.sub(r'<circle class="f0"[^>]*/>\n', "", t, count=1),
                         "an SVG missing a marker")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    try:
        check_runs(work)
        check_corruptions(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
