"""Accuracy ledger: how well each method tracks the benchmark's own song.

Clips come from ``perfbench/songgen.py`` (imported read-only), which knows
the true f0 of every sample: two 6 s clips of seed 0 for each of song, run
at the default band, and lowband, run at ``f_min=100``. Specmax runs with
peak refinement. Each method is judged on its own frame grid (1024/512 for
specmax, 2048/512 for the baselines). A frame whose whole window lies inside
one tonal segment is truly voiced, with the segment's f0 at the window
centre; a frame whose whole window lies inside one silence is truly
unvoiced; every other frame is not judged.

Metrics, over the judged frames of both clips of a kind:

* GPE, gross pitch error: the share of jointly voiced frames more than 20 %
  off the truth (Rabiner et al. 1976);
* VDE, voicing decision error: the share of frames voiced on one side only;
* false-voiced: the share of truly silent frames the method voices;
* FFE, F0 frame error: gross or voicing errors over all frames (Chu & Alwan
  2009);
* FPE, fine pitch error: the median and p95 of |error| in cents over the
  jointly voiced frames that are not gross errors.

Each bound stands beside the value measured when it was set, at most 10 %
above it, and a measured 0 is pinned at 0. The bounds state known defects
(acf's wrong octaves, the cepstrum's voiced silences); they do not excuse
them. Ratchet: a later change may tighten a bound to its new measured
value, but never loosen one. ``PYTHONPATH=src python
tests/test_accuracy_ledger.py`` prints the values measured now.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    TrackerConfig,
    envelope,
    spectrogram,
    track,
)
from f0kit.baselines import BASELINES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from songgen import SAMPLE_RATE, generate  # noqa: E402

SEED, CLIPS, SECONDS = 0, 2, 6.0
F_MIN = {"song": 800.0, "lowband": 100.0}
GRID = {"specmax": (1024, 512), "acf": (2048, 512), "yin": (2048, 512),
        "cepstrum": (2048, 512)}
METRICS = ("gpe", "vde", "false_voiced", "ffe", "fpe_median_c", "fpe_p95_c")

# (kind, method): (bound, measured) per metric, in the order of METRICS
LEDGER = {
    ("song", "specmax"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                          (0.70, 0.6547), (1.55, 1.4481)],
    ("song", "acf"): [(0.24, 0.2283), (0.0, 0.0), (0.0, 0.0), (0.11, 0.1051),
                      (0.92, 0.8643), (6.5, 6.1730)],
    ("song", "yin"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                      (7.0, 6.5921), (17.5, 16.6352)],
    ("song", "cepstrum"): [(0.0, 0.0), (0.19, 0.1830), (0.21, 0.2013), (0.19, 0.1830),
                           (14.8, 13.9232), (62.0, 59.1340)],
    ("lowband", "specmax"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                             (9.5, 8.9463), (24.5, 23.0771)],
    ("lowband", "acf"): [(0.44, 0.4192), (0.0, 0.0), (0.0, 0.0), (0.34, 0.3235),
                         (0.73, 0.6899), (2.9, 2.7174)],
    ("lowband", "yin"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                         (2.15, 2.0093), (4.0, 3.7617)],
    ("lowband", "cepstrum"): [(0.73, 0.6932), (0.17, 0.1628), (0.75, 0.7130), (0.73, 0.6977),
                              (3.3, 3.1287), (12.8, 12.1029)],
}


def _track(method, clip, f_min):
    if method == "specmax":
        return track(spectrogram(clip), envelope(clip),
                     TrackerConfig(f_min=f_min, refine_peak=True))
    return BASELINES[method](clip, BaselineConfig(f_min=f_min))


def _judged(songclip, n_frames, size, hop):
    """Per frame: truth voiced, truth unvoiced, and the true f0 (NaN if none)."""
    start = np.arange(n_frames) * hop
    end = start + size
    voiced = np.zeros(n_frames, dtype=bool)
    silent = np.zeros(n_frames, dtype=bool)
    f0 = np.full(n_frames, np.nan)
    for seg in songclip.segments:
        inside = (start >= seg.start) & (end <= seg.end)
        voiced |= inside
        f0[inside] = seg.f0_at(start[inside] + size / 2)
    for lo, hi in songclip.silences:
        silent |= (start >= lo) & (end <= hi)
    return voiced, silent, f0


def ledger_row(kind, method):
    truth_voiced, truth_silent, truth_f0, est = [], [], [], []
    for songclip in generate(kind, SEED, CLIPS, SECONDS):
        clip = AudioClip(samples=songclip.samples / 32768.0, sample_rate=SAMPLE_RATE)
        result = _track(method, clip, F_MIN[kind])
        voiced, silent, f0 = _judged(songclip, result.n_frames, *GRID[method])
        truth_voiced.append(voiced)
        truth_silent.append(silent)
        truth_f0.append(f0)
        est.append(result.f0)
    truth_voiced, truth_silent, truth_f0, est = map(
        np.concatenate, (truth_voiced, truth_silent, truth_f0, est))
    est_voiced = ~np.isnan(est)
    judged = truth_voiced | truth_silent
    joint = truth_voiced & est_voiced
    ratio = est[joint] / truth_f0[joint]
    gross = np.abs(ratio - 1.0) > 0.2
    cents = np.abs(1200.0 * np.log2(ratio[~gross]))
    voicing_errors = np.count_nonzero(judged & (truth_voiced != est_voiced))
    return {
        "gpe": gross.mean() if gross.size else 0.0,
        "vde": voicing_errors / judged.sum(),
        "false_voiced": np.count_nonzero(truth_silent & est_voiced) / truth_silent.sum(),
        "ffe": (voicing_errors + gross.sum()) / judged.sum(),
        "fpe_median_c": np.median(cents) if cents.size else 0.0,
        "fpe_p95_c": np.percentile(cents, 95) if cents.size else 0.0,
    }


def test_bounds_sit_at_most_ten_percent_above_their_measured_values():
    for key, entries in LEDGER.items():
        assert len(entries) == len(METRICS), key
        for name, (bound, measured) in zip(METRICS, entries):
            assert measured <= bound <= 1.1 * measured, (key, name)


@pytest.mark.parametrize("kind,method", list(LEDGER))
def test_accuracy_within_ledger_bounds(kind, method):
    row = ledger_row(kind, method)
    over = {name: (round(row[name], 4), bound)
            for name, (bound, _) in zip(METRICS, LEDGER[kind, method]) if row[name] > bound}
    assert not over, f"{kind}/{method} above its bounds (now, bound): {over}"


if __name__ == "__main__":
    for kind in F_MIN:
        for method in GRID:
            row = ledger_row(kind, method)
            print(kind, method, " ".join(f"{name}={row[name]:.4f}" for name in METRICS))
