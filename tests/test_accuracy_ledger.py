"""Accuracy ledger: how well each method tracks the benchmark's own song.

Clips come from ``perfbench/songgen.py`` (imported read-only), which knows
the true f0 of every sample: two 6 s clips of seed 0 for each of song, run
at the default band, and lowband, run at ``f_min=100``. Specmax runs with
peak refinement. Each method is judged on its own frame grid (1024/512 for
specmax, 2048/512 for the baselines). A frame whose whole window lies inside
one tonal segment is truly voiced, with the segment's f0 at the window
centre; a frame whose whole window lies inside one silence is truly
unvoiced; every other frame is not judged.

Condition rows run the same clips under a recording condition, then clip
the result to [-1, 1], as ``AudioClip`` accepts nothing outside:

* seeded white noise at 30, 20 and 10 dB SNR (conditions ``30``, ``20`` and
  ``10``). The SNR is measured against the mean power of the clip's samples
  inside its tonal segments, and clip ``i`` of a kind takes its noise from
  seed ``1000 + i`` at every SNR;
* a DC offset of +0.02 or +0.1 (``dc+0.02``, ``dc+0.1``);
* a gain of 4 or 20, which the clipping then flattens (``x4``, ``x20``).

Synth rows run one ``synthesize`` clip each through all four methods at the
default band, judged the same way. Each sound lasts 0.5 s and is followed by
0.2 s of silence:

* ``tones16k`` and ``tones22k``: tones of amplitude 0.5 at 1, 2.5, 4, 5, 6
  and 7 kHz, at 16 kHz and at 22.05 kHz;
* ``stacks``: harmonic stacks of peak 0.5 at 1.5 and 2.5 kHz whose second
  harmonic dominates (amplitudes 0.5, 1, 0.3), at 44.1 kHz.

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
them; nor does specmax's false-voiced 1.000 on noisy silences, acf's on
silences under a DC offset, or specmax reading the stacks' second harmonic
as f0. Ratchet: a later change may tighten a bound to its new measured
value, but never loosen one. ``PYTHONPATH=src python
tests/test_accuracy_ledger.py`` prints the values measured now.
"""

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    SynthSpec,
    TrackerConfig,
    envelope,
    spectrogram,
    synthesize,
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
CONDITIONS = (30, 20, 10, "dc+0.02", "dc+0.1", "x4", "x20")
TONES = [SynthSpec.tone(f0, duration=0.5, amplitude=0.5)
         for f0 in (1000.0, 2500.0, 4000.0, 5000.0, 6000.0, 7000.0)]
STACKS = [SynthSpec.harmonic_stack(f0, (0.5, 1.0, 0.3), duration=0.5, amplitude=0.5)
          for f0 in (1500.0, 2500.0)]
# synth clip: (sample rate, its sounds)
SYNTH = {"tones16k": (16000, TONES), "tones22k": (22050, TONES), "stacks": (44100, STACKS)}

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

# (kind, method, condition): (bound, measured) per metric, in the order of METRICS
CONDITION_LEDGER = {
    ("song", "specmax", 30): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                              (0.65, 0.6496), (1.5, 1.4385)],
    ("song", "specmax", 20): [(0.0, 0.0), (0.5, 0.4961), (1.0, 1.0), (0.5, 0.4961),
                              (0.65, 0.6428), (1.5, 1.4134)],
    ("song", "specmax", 10): [(0.0, 0.0), (0.5, 0.4961), (1.0, 1.0), (0.5, 0.4961),
                              (0.67, 0.6652), (1.6, 1.5901)],
    ("song", "specmax", "dc+0.02"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                     (0.66, 0.6547), (1.5, 1.4481)],
    ("song", "specmax", "dc+0.1"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                    (0.66, 0.6547), (1.5, 1.4481)],
    ("song", "specmax", "x4"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                (0.66, 0.6544), (1.5, 1.4459)],
    ("song", "specmax", "x20"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                 (0.65, 0.6465), (1.5, 1.4496)],
    ("song", "acf", 30): [(0.24, 0.2323), (0.0, 0.0), (0.0, 0.0), (0.11, 0.1069),
                          (0.85, 0.8491), (6.2, 6.17)],
    ("song", "acf", 20): [(0.23, 0.2283), (0.0, 0.0), (0.0, 0.0), (0.11, 0.1051),
                          (0.9, 0.8916), (6.2, 6.133)],
    ("song", "acf", 10): [(0.27, 0.2677), (0.0, 0.0), (0.0, 0.0), (0.13, 0.1232),
                          (1.9, 1.817), (6.3, 6.2576)],
    ("song", "acf", "dc+0.02"): [(0.23, 0.2244), (0.54, 0.5399), (1.0, 1.0), (0.65, 0.6431),
                                 (0.86, 0.859), (6.2, 6.1761)],
    ("song", "acf", "dc+0.1"): [(0.21, 0.2047), (0.54, 0.5399), (1.0, 1.0), (0.64, 0.6341),
                                (0.87, 0.867), (6.3, 6.2005)],
    ("song", "acf", "x4"): [(0.4, 0.3976), (0.0, 0.0), (0.0, 0.0), (0.19, 0.183),
                            (3.4, 3.388), (8.4, 8.3135)],
    ("song", "acf", "x20"): [(0.41, 0.4016), (0.0, 0.0), (0.0, 0.0), (0.19, 0.1848),
                             (6.7, 6.6262), (13.0, 12.5422)],
    ("song", "yin", 30): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                          (6.7, 6.6421), (17.0, 16.6361)],
    ("song", "yin", 20): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                          (6.9, 6.8963), (17.0, 16.8117)],
    ("song", "yin", 10): [(0.2, 0.1932), (0.15, 0.1413), (0.0, 0.0), (0.21, 0.2029),
                          (8.8, 8.7281), (19.0, 18.7575)],
    ("song", "yin", "dc+0.02"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                 (6.6, 6.5921), (17.0, 16.6352)],
    ("song", "yin", "dc+0.1"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                (6.6, 6.5921), (17.0, 16.6352)],
    ("song", "yin", "x4"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                            (4.7, 4.6818), (15.0, 14.974)],
    ("song", "yin", "x20"): [(0.18, 0.1732), (0.0, 0.0), (0.0, 0.0), (0.08, 0.0797),
                             (6.9, 6.8656), (18.0, 17.8365)],
    ("song", "cepstrum", 30): [(0.28, 0.2727), (0.36, 0.3551), (0.18, 0.1745), (0.41, 0.4094),
                               (16.0, 15.0706), (67.0, 66.9455)],
    ("song", "cepstrum", 20): [(0.51, 0.5068), (0.43, 0.4257), (0.19, 0.1812), (0.5, 0.4928),
                               (20.0, 19.1304), (91.0, 90.2684)],
    ("song", "cepstrum", 10): [(0.73, 0.7246), (0.44, 0.4366), (0.19, 0.1879), (0.53, 0.5272),
                               (24.0, 23.3177), (110.0, 104.9455)],
    ("song", "cepstrum", "dc+0.02"): [(0.0, 0.0), (0.093, 0.0924), (0.15, 0.1443), (0.093, 0.0924),
                                      (16.0, 15.9799), (65.0, 64.389)],
    ("song", "cepstrum", "dc+0.1"): [(0.0, 0.0), (0.011, 0.0109), (0.0068, 0.006711),
                                     (0.011, 0.0109), (16.0, 15.9782), (66.0, 65.4588)],
    ("song", "cepstrum", "x4"): [(0.47, 0.4606), (0.11, 0.1087), (0.21, 0.2013), (0.33, 0.3207),
                                 (18.0, 17.105), (30.0, 29.3672)],
    ("song", "cepstrum", "x20"): [(0.52, 0.5118), (0.11, 0.1087), (0.21, 0.2013), (0.35, 0.3442),
                                  (19.0, 18.4869), (31.0, 30.8232)],
    ("lowband", "specmax", 30): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                 (9.1, 9.0403), (23.0, 22.9354)],
    ("lowband", "specmax", 20): [(0.0, 0.0), (0.25, 0.2424), (1.0, 1.0), (0.25, 0.2424),
                                 (9.1, 9.0404), (24.0, 23.137)],
    ("lowband", "specmax", 10): [(0.0, 0.0), (0.25, 0.2424), (1.0, 1.0), (0.25, 0.2424),
                                 (8.9, 8.8711), (26.0, 25.7203)],
    ("lowband", "specmax", "dc+0.02"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                        (9.0, 8.9461), (24.0, 23.077)],
    ("lowband", "specmax", "dc+0.1"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                       (9.0, 8.9501), (24.0, 23.0764)],
    ("lowband", "specmax", "x4"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                   (9.0, 8.9699), (24.0, 23.105)],
    ("lowband", "specmax", "x20"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                    (9.0, 8.9575), (24.0, 23.0754)],
    ("lowband", "acf", 30): [(0.43, 0.4205), (0.0, 0.0), (0.0, 0.0), (0.33, 0.3245),
                             (0.65, 0.649), (2.8, 2.7144)],
    ("lowband", "acf", 20): [(0.43, 0.4205), (0.0, 0.0), (0.0, 0.0), (0.33, 0.3245),
                             (0.74, 0.74), (3.0, 2.9086)],
    ("lowband", "acf", 10): [(0.42, 0.4178), (0.0, 0.0), (0.0, 0.0), (0.33, 0.3224),
                             (2.2, 2.1428), (12.0, 11.3489)],
    ("lowband", "acf", "dc+0.02"): [(0.43, 0.4219), (0.23, 0.2283), (1.0, 1.0), (0.56, 0.5539),
                                    (0.68, 0.6765), (2.8, 2.7367)],
    ("lowband", "acf", "dc+0.1"): [(0.44, 0.437), (0.23, 0.2283), (1.0, 1.0), (0.57, 0.5655),
                                   (0.84, 0.8312), (2.8, 2.758)],
    ("lowband", "acf", "x4"): [(0.4, 0.4), (0.0, 0.0), (0.0, 0.0), (0.31, 0.3087),
                               (0.71, 0.7099), (2.2, 2.1619)],
    ("lowband", "acf", "x20"): [(0.37, 0.3616), (0.0, 0.0), (0.0, 0.0), (0.28, 0.2791),
                                (0.48, 0.4728), (0.92, 0.9149)],
    ("lowband", "yin", 30): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                             (2.1, 2.0426), (3.8, 3.7529)],
    ("lowband", "yin", 20): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                             (2.3, 2.2495), (4.5, 4.4318)],
    ("lowband", "yin", 10): [(0.0, 0.0), (0.16, 0.1543), (0.0, 0.0), (0.16, 0.1543),
                             (5.3, 5.2454), (32.0, 31.4159)],
    ("lowband", "yin", "dc+0.02"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                    (2.1, 2.0093), (3.8, 3.7617)],
    ("lowband", "yin", "dc+0.1"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                   (2.1, 2.0093), (3.8, 3.7617)],
    ("lowband", "yin", "x4"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                               (2.1, 2.0051), (3.8, 3.7606)],
    ("lowband", "yin", "x20"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                (1.9, 1.8039), (3.9, 3.8224)],
    ("lowband", "cepstrum", 30): [(0.6, 0.5932), (0.19, 0.1871), (0.82, 0.8194), (0.65, 0.6448),
                                  (14.0, 13.4271), (48.0, 47.2199)],
    ("lowband", "cepstrum", 20): [(0.47, 0.4698), (0.19, 0.1882), (0.82, 0.8148), (0.55, 0.5497),
                                  (18.0, 17.799), (64.0, 63.1278)],
    ("lowband", "cepstrum", 10): [(0.42, 0.4165), (0.21, 0.2008), (0.81, 0.8009), (0.52, 0.5148),
                                  (23.0, 22.6625), (78.0, 77.9287)],
    ("lowband", "cepstrum", "dc+0.02"): [(0.7, 0.6932), (0.2, 0.1913), (0.84, 0.838),
                                         (0.73, 0.7262), (3.2, 3.128), (13.0, 12.11)],
    ("lowband", "cepstrum", "dc+0.1"): [(0.7, 0.6945), (0.19, 0.185), (0.82, 0.8102),
                                        (0.73, 0.7209), (3.2, 3.1292), (13.0, 12.1207)],
    ("lowband", "cepstrum", "x4"): [(0.26, 0.2575), (0.17, 0.1628), (0.72, 0.713), (0.37, 0.3615),
                                    (1.1, 1.0828), (5.5, 5.41)],
    ("lowband", "cepstrum", "x20"): [(0.18, 0.1781), (0.17, 0.1628), (0.72, 0.713), (0.31, 0.3002),
                                     (1.3, 1.2512), (6.5, 6.4259)],
}

# (synth clip, method): (bound, measured) per metric, in the order of METRICS
SYNTH_LEDGER = {
    ("tones16k", "specmax"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                (3.9e-10, 3.855e-10), (2.4e-08, 2.342e-08)],
    ("tones16k", "acf"): [(0.67, 0.6667), (0.0, 0.0), (0.0, 0.0), (0.57, 0.5647),
            (0.0, 0.0), (3.9e-13, 3.844e-13)],
    ("tones16k", "yin"): [(0.34, 0.3333), (0.0, 0.0), (0.0, 0.0), (0.29, 0.2824),
            (24.0, 23.854), (91.0, 90.1128)],
    ("tones16k", "cepstrum"): [(0.25, 0.25), (0.29, 0.2824), (0.0, 0.0), (0.43, 0.4235),
                 (6.5, 6.493), (240.0, 231.1741)],
    ("tones22k", "specmax"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                              (0.33, 0.3251), (1.2, 1.1463)],
    ("tones22k", "acf"): [(0.67, 0.6667), (0.0, 0.0), (0.0, 0.0), (0.53, 0.5263),
                          (0.84, 0.8341), (1.3, 1.2125)],
    ("tones22k", "yin"): [(0.5, 0.4952), (0.0, 0.0), (0.0, 0.0), (0.4, 0.391),
                          (6.8, 6.7457), (82.0, 81.603)],
    ("tones22k", "cepstrum"): [(0.11, 0.1061), (0.3, 0.2932), (0.0, 0.0), (0.35, 0.3459),
                               (40.0, 39.1302), (85.0, 84.4672)],
    ("stacks", "specmax"): [(1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.74, 0.7345),
                            (0.0, 0.0), (0.0, 0.0)],
    ("stacks", "acf"): [(0.5, 0.4937), (0.0, 0.0), (0.0, 0.0), (0.38, 0.3714),
                        (0.3, 0.2994), (0.54, 0.5366)],
    ("stacks", "yin"): [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                        (0.67, 0.6655), (0.72, 0.7111)],
    ("stacks", "cepstrum"): [(0.0, 0.0), (0.19, 0.181), (0.0, 0.0), (0.19, 0.181),
                             (11.0, 10.9249), (31.0, 30.0133)],
}


def _track(method, clip, f_min):
    if method == "specmax":
        return track(spectrogram(clip), envelope(clip),
                     TrackerConfig(f_min=f_min, refine_peak=True))
    return BASELINES[method](clip, BaselineConfig(f_min=f_min))


@functools.cache
def _songs(kind):
    """Each clip of a kind as (samples, tonal spans, silent spans), spans in samples."""
    return [(clip.samples / 32768.0, [(seg.start, seg.end, seg.f0_at) for seg in clip.segments],
             clip.silences) for clip in generate(kind, SEED, CLIPS, SECONDS)]


def _conditioned(samples, tonal, condition, seed):
    """``samples`` under ``condition``, in [-1, 1]: seeded white noise ``condition``
    dB below their tonal power (an int), a DC offset (``dc+X``) or a gain (``xG``)."""
    if isinstance(condition, int):
        power = np.mean(np.square(np.concatenate([samples[lo:hi] for lo, hi, _ in tonal])))
        noise = np.random.default_rng(seed).standard_normal(len(samples))
        samples = samples + noise * np.sqrt(power / 10.0 ** (condition / 10.0))
    elif condition.startswith("dc+"):
        samples = samples + float(condition[3:])
    else:
        samples = samples * float(condition[1:])
    return np.clip(samples, -1.0, 1.0)


def _synth(rate, sounds):
    """``sounds`` at ``rate``, each followed by 0.2 s of silence, as (AudioClip,
    tonal spans, silent spans), spans in samples."""
    parts = [part for sound in sounds for part in (sound, SynthSpec.silence(0.2))]
    clip, truth = synthesize(SynthSpec.concat(*parts), rate)
    spans = [(round(seg.start * rate), round(seg.end * rate), seg.f0_start)
             for seg in truth.segments]
    return (clip, [(lo, hi, lambda n, f0=f0: f0) for lo, hi, f0 in spans if f0 is not None],
            [(lo, hi) for lo, hi, f0 in spans if f0 is None])


def _judged(tonal, silences, n_frames, size, hop):
    """Per frame: truth voiced, truth unvoiced, and the true f0 (NaN if none)."""
    start = np.arange(n_frames) * hop
    end = start + size
    voiced = np.zeros(n_frames, dtype=bool)
    silent = np.zeros(n_frames, dtype=bool)
    f0 = np.full(n_frames, np.nan)
    for lo, hi, f0_at in tonal:
        inside = (start >= lo) & (end <= hi)
        voiced |= inside
        f0[inside] = f0_at(start[inside] + size / 2)
    for lo, hi in silences:
        silent |= (start >= lo) & (end <= hi)
    return voiced, silent, f0


def _row(method, cases, f_min):
    """The metrics of ``method`` over ``cases`` of (AudioClip, tonal spans, silent spans)."""
    truth_voiced, truth_silent, truth_f0, est = [], [], [], []
    for clip, tonal, silences in cases:
        result = _track(method, clip, f_min)
        voiced, silent, f0 = _judged(tonal, silences, result.n_frames, *GRID[method])
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


def ledger_row(kind, method, condition=None):
    """The metrics of ``method`` on a kind's clips, under ``condition`` if given."""
    cases = []
    for i, (samples, tonal, silences) in enumerate(_songs(kind)):
        if condition is not None:
            samples = _conditioned(samples, tonal, condition, 1000 + i)
        cases.append((AudioClip(samples=samples, sample_rate=SAMPLE_RATE), tonal, silences))
    return _row(method, cases, F_MIN[kind])


def synth_row(name, method):
    """The metrics of ``method`` on the synth clip ``name``, at the default band."""
    return _row(method, [_synth(*SYNTH[name])], F_MIN["song"])


def _over(row, entries):
    """The metrics of ``row`` above their bounds, as name: (now, bound)."""
    return {name: (round(row[name], 4), bound)
            for name, (bound, _) in zip(METRICS, entries) if row[name] > bound}


def test_bounds_sit_at_most_ten_percent_above_their_measured_values():
    for key, entries in [*LEDGER.items(), *CONDITION_LEDGER.items(), *SYNTH_LEDGER.items()]:
        assert len(entries) == len(METRICS), key
        for name, (bound, measured) in zip(METRICS, entries):
            assert measured <= bound <= 1.1 * measured, (key, name)


@pytest.mark.parametrize("kind,method", list(LEDGER))
def test_accuracy_within_ledger_bounds(kind, method):
    over = _over(ledger_row(kind, method), LEDGER[kind, method])
    assert not over, f"{kind}/{method} above its bounds (now, bound): {over}"


@pytest.mark.parametrize("kind,method,condition", list(CONDITION_LEDGER))
def test_noisy_accuracy_within_ledger_bounds(kind, method, condition):
    over = _over(ledger_row(kind, method, condition), CONDITION_LEDGER[kind, method, condition])
    assert not over, f"{kind}/{method} under {condition} above its bounds (now, bound): {over}"


@pytest.mark.parametrize("name,method", list(SYNTH_LEDGER))
def test_synth_clips_within_ledger_bounds(name, method):
    over = _over(synth_row(name, method), SYNTH_LEDGER[name, method])
    assert not over, f"{method} on {name} above its bounds (now, bound): {over}"


if __name__ == "__main__":
    def show(label, row):
        print(label, " ".join(f"{name}={row[name]:.4f}" for name in METRICS))

    for kind in F_MIN:
        for method in GRID:
            show(f"{kind} {method}", ledger_row(kind, method))
            for condition in CONDITIONS:
                show(f"{kind} {method} {condition}", ledger_row(kind, method, condition))
    for name in SYNTH:
        for method in GRID:
            show(f"{name} {method}", synth_row(name, method))
