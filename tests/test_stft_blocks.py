"""The block-bounded STFT against the one-shot STFT it replaced.

The oracle below is the earlier `stft_power`: it windowed and
transformed every frame of the clip in one call. The current one fills
the power array a block of frames at a time and must give the same bits
at every split, while its working memory stays a small multiple of the
power array itself.
"""

import tracemalloc

import numpy as np
import pytest

from coughrank import audio
from coughrank.audio import DEFAULT_SAMPLE_RATE, AudioClip, StftConfig, extract_features, stft_power

BLOCK = audio._STFT_BLOCK_FRAMES


def oracle_stft_power(clip, cfg=None):
    cfg = cfg or StftConfig()
    frames = audio._frame_signal(clip, cfg) * cfg.window
    spec = np.fft.rfft(frames, axis=1)
    return np.abs(spec) ** 2


def noise_clip(seconds, seed=0):
    n = int(seconds * DEFAULT_SAMPLE_RATE)
    return AudioClip(np.random.default_rng(seed).uniform(-1, 1, n), DEFAULT_SAMPLE_RATE)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_frame_counts_around_the_block(monkeypatch, n_frames):
    """Frame counts a clip cannot reach (one frame) are fed to both STFTs
    through a stand-in framer."""
    cfg = StftConfig()
    frames = np.random.default_rng(n_frames).uniform(-1, 1, (n_frames, cfg.n_fft))
    monkeypatch.setattr(audio, "_frame_signal", lambda clip, cfg: frames)
    clip = noise_clip(0.1)
    assert_same_bits(stft_power(clip, cfg), oracle_stft_power(clip, cfg))


@pytest.mark.parametrize("n_frames", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_clips_framed_around_the_block(n_frames):
    cfg = StftConfig(n_fft=512, hop=128)
    # a clip of (n_frames - 1) * hop samples has n_frames frames
    clip = AudioClip(noise_clip(1.0).samples[: (n_frames - 1) * cfg.hop], DEFAULT_SAMPLE_RATE)
    power = stft_power(clip, cfg)
    assert power.shape == (n_frames, cfg.n_fft // 2 + 1)
    assert_same_bits(power, oracle_stft_power(clip, cfg))


def test_eight_second_clip():
    clip = noise_clip(8.0)
    assert_same_bits(stft_power(clip), oracle_stft_power(clip))


def test_extract_features_peak_memory():
    """The whole extractor's traced peak stays within three power arrays."""
    clip = noise_clip(8.0)
    power_bytes = stft_power(clip).nbytes
    extract_features(clip)  # build the cached filterbank and bin map first
    tracemalloc.start()
    try:
        extract_features(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * power_bytes, (peak, power_bytes)
