"""The one-STFT extractor against the five-STFT extractor it replaced.

The oracle below is the earlier `extract_features`: every feature family
ran its own STFT (five per clip), framing gathered the frames by fancy
indexing and the mel filterbank and chroma bin map were rebuilt on every
call. The current extractor must give the same bits.
"""

import math

import numpy as np
import pytest
import scipy.fft

from coughrank import audio
from coughrank.audio import (
    LOG_FLOOR,
    N_CHROMA,
    N_CONTRAST_BANDS,
    N_MELS,
    N_MFCC,
    AudioClip,
    FeatureVector,
    StftConfig,
    _contrast_band_edges,
    band_contrast,
    chroma_to_tonnetz,
    extract_features,
    mel_filterbank,
)


def _oracle_frame_signal(clip, cfg):
    x = clip.samples
    if x.size < cfg.n_fft:
        x = np.pad(x, (0, cfg.n_fft - x.size))
    n = x.size
    n_frames = 1 + math.ceil(n / cfg.hop)
    pad_left = cfg.n_fft // 2
    pad_right = max(0, (n_frames - 1) * cfg.hop + cfg.n_fft - pad_left - n)
    x = np.pad(x, (pad_left, pad_right), mode="reflect")
    idx = np.arange(cfg.n_fft)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    return x[idx]


def _oracle_stft_power(clip, cfg=None):
    cfg = cfg or StftConfig()
    frames = _oracle_frame_signal(clip, cfg) * cfg.window
    spec = np.fft.rfft(frames, axis=1)
    return np.abs(spec) ** 2


def _oracle_mel_energies(clip, cfg=None, n_mels=N_MELS):
    cfg = cfg or StftConfig()
    power = _oracle_stft_power(clip, cfg)
    fb = mel_filterbank(n_mels, cfg.n_fft, clip.sample_rate)
    return power @ fb.T


def _oracle_mfcc(clip, cfg=None, n_mfcc=N_MFCC, n_mels=N_MELS):
    logmel = np.log(np.maximum(_oracle_mel_energies(clip, cfg, n_mels), LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :n_mfcc]
    return coeffs.mean(axis=0)


def _oracle_mel_spectrogram_features(clip, cfg=None, n_mels=N_MELS):
    return _oracle_mel_energies(clip, cfg, n_mels).mean(axis=0)


def _oracle_chroma_frames(clip, cfg):
    cfg = cfg or StftConfig()
    power = _oracle_stft_power(clip, cfg)
    bin_freqs = np.arange(1, cfg.n_fft // 2 + 1) * clip.sample_rate / cfg.n_fft
    midi = 69.0 + 12.0 * np.log2(bin_freqs / 440.0)
    classes = np.round(midi).astype(int) % 12
    chroma = np.zeros((power.shape[0], N_CHROMA))
    for c in range(N_CHROMA):
        sel = classes == c
        if np.any(sel):
            chroma[:, c] = power[:, 1:][:, sel].sum(axis=1)
    peak = chroma.max(axis=1, keepdims=True)
    np.divide(chroma, peak, out=chroma, where=peak > 0)
    return chroma


def _oracle_chromagram(clip, cfg=None):
    return _oracle_chroma_frames(clip, cfg).mean(axis=0)


def _oracle_spectral_contrast(clip, cfg=None, n_bands=N_CONTRAST_BANDS, alpha=0.02):
    if not (0.02 <= alpha <= 0.2):
        raise ValueError("alpha must lie in [0.02, 0.2]")
    cfg = cfg or StftConfig()
    mag = np.sqrt(_oracle_stft_power(clip, cfg))
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * clip.sample_rate / cfg.n_fft
    edges = _contrast_band_edges(clip.sample_rate, n_bands)
    out = np.zeros((mag.shape[0], n_bands + 1))
    for k in range(n_bands + 1):
        if k < n_bands:
            sel = (bin_freqs >= edges[k]) & (bin_freqs < edges[k + 1])
        else:
            sel = bin_freqs >= edges[k]
        if not np.any(sel):
            raise ValueError(f"contrast band {k} contains no FFT bins")
        out[:, k] = band_contrast(mag[:, sel], alpha)
    return out.mean(axis=0)


def _oracle_tonal_centroid(clip, cfg=None):
    return chroma_to_tonnetz(_oracle_chroma_frames(clip, cfg)).mean(axis=0)


def oracle_extract_features(clip, cfg=None):
    cfg = cfg or StftConfig()
    return FeatureVector(
        mfcc=_oracle_mfcc(clip, cfg),
        mel=_oracle_mel_spectrogram_features(clip, cfg),
        chroma=_oracle_chromagram(clip, cfg),
        contrast=_oracle_spectral_contrast(clip, cfg),
        tonnetz=_oracle_tonal_centroid(clip, cfg),
    )


def _noise(n, rate, seed):
    rng = np.random.default_rng(seed)
    return AudioClip(0.4 * rng.uniform(-1, 1, n), rate)


def assert_same_bits(clip, cfg=None):
    got = extract_features(clip, cfg)
    want = oracle_extract_features(clip, cfg)
    for block in ("mfcc", "mel", "chroma", "contrast", "tonnetz"):
        assert np.array_equal(getattr(got, block), getattr(want, block)), block
    assert np.array_equal(got.concat(), want.concat())


@pytest.mark.parametrize("rate", [8000, 22050, 44100])
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_noise_matches_oracle(rate, seed):
    assert_same_bits(_noise(int(0.37 * rate), rate, seed))


@pytest.mark.parametrize("length", [1, 2047, 2048, 2049, 512], ids=lambda n: f"n{n}")
def test_edge_lengths_match_oracle(length):
    # 1 sample, n_fft - 1, n_fft, n_fft + 1 and one hop
    assert_same_bits(_noise(length, 22050, length))


def test_silent_clip_matches_oracle():
    assert_same_bits(AudioClip(np.zeros(5000), 22050))


@pytest.mark.parametrize("length", [300, 4097])
def test_custom_stft_config_matches_oracle(length):
    rng = np.random.default_rng(7)
    cfg = StftConfig(n_fft=512, hop=128, window=rng.uniform(0.1, 1.0, 512))
    assert_same_bits(_noise(length, 16000, length), cfg)


def test_one_stft_per_clip(monkeypatch):
    calls = []
    original = audio.stft_power

    def counting(clip, cfg=None):
        calls.append(clip)
        return original(clip, cfg)

    monkeypatch.setattr(audio, "stft_power", counting)
    clips = [_noise(3000, 22050, 0), _noise(900, 8000, 1)]
    for clip in clips:
        extract_features(clip)
    assert len(calls) == len(clips)
    assert all(seen is clip for seen, clip in zip(calls, clips))


def test_cached_filterbank_is_read_only():
    fb = audio._cached_mel_filterbank(N_MELS, 2048, 22050)
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    classes = audio._chroma_classes(2048, 22050)
    with pytest.raises(ValueError):
        classes[0] = 0


def test_public_filterbank_is_fresh_and_writable():
    a = mel_filterbank(N_MELS, 2048, 22050)
    b = mel_filterbank(N_MELS, 2048, 22050)
    assert a is not b
    a[0, 0] = 5.0
    assert b[0, 0] != 5.0
    assert np.array_equal(b, audio._cached_mel_filterbank(N_MELS, 2048, 22050))


def test_each_sample_rate_gets_its_own_bank():
    low = audio._cached_mel_filterbank(N_MELS, 2048, 8000)
    high = audio._cached_mel_filterbank(N_MELS, 2048, 44100)
    assert np.array_equal(low, mel_filterbank(N_MELS, 2048, 8000))
    assert np.array_equal(high, mel_filterbank(N_MELS, 2048, 44100))
    assert not np.array_equal(low, high)
    # interleaved clips at two rates each still match the oracle
    for rate in (8000, 44100, 8000):
        assert_same_bits(_noise(2500, rate, rate))
