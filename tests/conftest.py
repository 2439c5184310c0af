import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from f0kit import AudioClip, SynthSpec, synthesize
from f0kit.dsp import _BLOCK

GOLDEN_DIR = Path(__file__).parent / "golden"

# frame counts on either side of one, two and four analysis blocks
BLOCK_EDGE_FRAMES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                     2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 4 * _BLOCK + 1]


@pytest.fixture
def tone_1khz():
    clip, truth = synthesize(SynthSpec.tone(1000.0, duration=1.0), 44100)
    return clip, truth


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def assert_frozen_view(given: np.ndarray, stored: np.ndarray) -> None:
    """A container froze a view of ``given``: no copy, and the caller's array
    is still the caller's to write."""
    assert np.shares_memory(given, stored)
    assert not stored.flags.writeable
    assert given.flags.writeable
    given[0] = 0.5


def random_clip(rng, n_samples: int, sample_rate: int = 44100,
                amplitude: float = 0.9) -> AudioClip:
    samples = rng.uniform(-amplitude, amplitude, n_samples)
    return AudioClip(samples=samples, sample_rate=sample_rate)
