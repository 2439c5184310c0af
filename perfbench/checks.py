"""Output checks computed apart from the program under test.

Every expected value here comes from the generator's analytic ground truth
and from the documented framing conventions, never from f0kit code: the
frame count is ``floor((n - W) / hop) + 1``, frame ``j`` is centred at
``(j*hop + W/2) / fs``, and a frame "lies wholly inside" a span when its
samples ``[j*hop, j*hop + W)`` do.

Each check returns a list of problems; an empty list means the output
passed. One operation (one input file through one method) counts as failed
when any of its checks reports a problem.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from songgen import SAMPLE_RATE, Clip

# (window or frame size W, hop) of each method at its CLI defaults
FRAMING = {
    "specmax": (1024, 512),
    "acf": (2048, 512),
    "yin": (2048, 512),
    "cepstrum": (2048, 512),
}

SPECMAX_BIN_HZ = SAMPLE_RATE / FRAMING["specmax"][0]

_SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"


@dataclass(frozen=True)
class Accuracy:
    """The stated accuracy one method must reach on one kind of input.

    Over the frames lying wholly inside a tonal segment whose true f0 (at
    the frame centre) is at least ``min_truth_hz``, at least ``min_share``
    must be voiced with f0 within ``tol_hz`` (absolute) or ``tol_rel``
    (relative) of the truth, and at most ``max_high_share`` may read higher
    than that. With ``period_multiple`` a frame also counts when its period
    is within tolerance of a whole multiple of the true period, the
    sub-harmonic pick of a lag-domain detector. The detectors' known misses
    (unvoiced frames, sub-harmonics) read low, so an output shifted up an
    octave breaks the second limit and one shifted down breaks the first.
    """

    min_share: float
    tol_hz: float = 0.0
    tol_rel: float = 0.0
    max_high_share: float = 0.02
    min_truth_hz: float = 0.0
    period_multiple: bool = False


@dataclass(frozen=True)
class Table:
    times: np.ndarray
    f0: np.ndarray  # NaN where unvoiced

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.f0)))


def read_table(path: Path) -> tuple[Table | None, list[str]]:
    """Parse an f0 table; a format error is reported as a problem."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return None, [f"{path.name}: unreadable table ({exc})"]
    if not lines or lines[0] != "# time_s\tf0_hz":
        return None, [f"{path.name}: missing table header"]
    times, f0 = [], []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        try:
            if len(fields) != 2:
                raise ValueError(line)
            times.append(float(fields[0]))
            f0.append(float("nan") if fields[1] == "nan" else float(fields[1]))
        except ValueError:
            return None, [f"{path.name}:{number}: malformed row {line!r}"]
    return Table(np.array(times), np.array(f0)), []


def frame_spans(n_samples: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Start and end sample of every frame of ``method`` on a clip."""
    window, hop = FRAMING[method]
    starts = np.arange((n_samples - window) // hop + 1) * hop
    return starts, starts + window


def truth_scores(clip: Clip, method: str, f0: np.ndarray,
                 acc: Accuracy) -> tuple[int, int, int]:
    """(frames checked, frames within tolerance, frames reading high)."""
    window, _ = FRAMING[method]
    starts, ends = frame_spans(clip.n_samples, method)
    checked = hits = high = 0
    for seg in clip.segments:
        idx = np.flatnonzero((starts >= seg.start) & (ends <= seg.end))
        truth = seg.f0_at(starts[idx] + window / 2)
        keep = truth >= acc.min_truth_hz
        idx, truth = idx[keep], truth[keep]
        est = f0[idx]
        tol = np.maximum(acc.tol_hz, acc.tol_rel * truth)
        with np.errstate(invalid="ignore"):
            high += int(np.count_nonzero(est - truth > tol))
            if acc.period_multiple:
                est = est * np.maximum(1.0, np.rint(truth / est))
            hits += int(np.count_nonzero(np.abs(est - truth) <= tol))
        checked += len(idx)
    return checked, hits, high


def check_table(clip: Clip, method: str, table: Table, acc: Accuracy) -> list[str]:
    window, hop = FRAMING[method]
    name = f"{clip.name}/{method}"
    expected_rows = (clip.n_samples - window) // hop + 1
    if len(table.times) != expected_rows:
        return [f"{name}: {len(table.times)} rows, expected {expected_rows}"]
    problems = []
    centres = (np.arange(expected_rows) * hop + window / 2) / SAMPLE_RATE
    worst = float(np.max(np.abs(table.times - centres)))
    if worst > 5.01e-7:  # times are printed to the microsecond
        problems.append(f"{name}: frame times off by up to {worst:.3g} s")
    checked, hits, high = truth_scores(clip, method, table.f0, acc)
    if checked and hits < acc.min_share * checked:
        problems.append(f"{name}: {hits}/{checked} frames within tolerance, "
                        f"need {acc.min_share:.0%}")
    if checked and high > acc.max_high_share * checked:
        problems.append(f"{name}: {high}/{checked} frames read above the truth")
    if method == "specmax":
        starts, ends = frame_spans(clip.n_samples, method)
        for a, b in clip.silences:
            inside = (starts >= a) & (ends <= b)
            voiced = int(np.count_nonzero(~np.isnan(table.f0[inside])))
            if voiced:
                problems.append(f"{name}: {voiced} voiced frames inside the "
                                f"silent span [{a}, {b})")
    return problems


def check_svg(path: Path, n_voiced: int) -> list[str]:
    """Well-formed XML with one ``class="f0"`` circle per voiced table row.

    Parsed incrementally and cleared as it goes, so the checker's memory
    does not show in the benchmark's peak RSS.
    """
    markers = 0
    try:
        for _, el in ET.iterparse(path):
            markers += el.tag == _SVG_CIRCLE and el.get("class") == "f0"
            el.clear()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a well-formed SVG ({exc})"]
    if markers != n_voiced:
        return [f"{path.name}: {markers} f0 markers for {n_voiced} voiced rows"]
    return []


def check_summary(stdout: str, input_name: str, n_rows: int) -> list[str]:
    match = re.search(rf"^{re.escape(input_name)}: frames=(\d+) ", stdout, re.M)
    if match is None:
        return [f"{input_name}: no summary line"]
    if int(match.group(1)) != n_rows:
        return [f"{input_name}: summary says frames={match.group(1)}, table has {n_rows}"]
    return []


def check_operation(clip: Clip, method: str, acc: Accuracy, input_name: str,
                    table_path: Path, svg_path: Path | None, stdout: str) -> list[str]:
    """Every check of one operation: its table, its summary line and its plot."""
    table, problems = read_table(table_path)
    if table is None:
        return problems
    problems = check_table(clip, method, table, acc)
    problems += check_summary(stdout, input_name, len(table.times))
    if svg_path is not None:
        problems += check_svg(svg_path, table.n_voiced)
    return problems
