"""Acoustic feature extraction for cough recordings.

Five spectral feature families (MFCC, mel spectrogram, chromagram,
spectral contrast, tonal centroid) are computed per STFT frame and
mean-aggregated over the clip into a fixed 193-dimensional vector.
`extract_features` is the one place that computes them, all from one
power spectrogram per clip; each public single-family function returns
its block of that one vector.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import InputError

DEFAULT_SAMPLE_RATE = 22050

N_MFCC = 40
N_MELS = 128
N_CHROMA = 12
N_CONTRAST_BANDS = 6
N_TONNETZ = 6
N_FEATURES = N_MFCC + N_MELS + N_CHROMA + (N_CONTRAST_BANDS + 1) + N_TONNETZ

LOG_FLOOR = 1e-10
CONTRAST_ALPHA = 0.02  # share of a band's bins in its peak and in its valley
_STFT_BLOCK_FRAMES = 16  # frames per STFT block: 256 KiB windowed at n_fft 2048

FEATURE_COLUMNS = (
    [f"mfcc_{i:02d}" for i in range(N_MFCC)]
    + [f"mel_{i:03d}" for i in range(N_MELS)]
    + [f"chroma_{i:02d}" for i in range(N_CHROMA)]
    + [f"contrast_{i}" for i in range(N_CONTRAST_BANDS + 1)]
    + [f"tonnetz_{i}" for i in range(N_TONNETZ)]
)


@dataclass
class AudioClip:
    """Mono sample buffer with its sample rate.

    Amplitudes are expected in [-1, 1] and must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip requires a mono 1-D sample buffer")
        if self.samples.size == 0:
            raise ValueError("AudioClip requires at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioClip samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass
class StftConfig:
    """Frame length, hop and window for all STFT-based extractors."""

    n_fft: int = 2048
    hop: int = 512
    window: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (0 < self.hop <= self.n_fft):
            raise ValueError("require 0 < hop <= n_fft")
        if self.window is None:
            # periodic Hann, the spectral-analysis convention
            self.window = np.hanning(self.n_fft + 1)[:-1]
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.window.size != self.n_fft:
            raise ValueError("window length must equal n_fft")


@dataclass
class FeatureVector:
    """Ordered 193-dim acoustic descriptor: MFCC|Mel|Chroma|Contrast|Tonnetz."""

    mfcc: np.ndarray
    mel: np.ndarray
    chroma: np.ndarray
    contrast: np.ndarray
    tonnetz: np.ndarray

    def concat(self):
        out = np.concatenate(
            [self.mfcc, self.mel, self.chroma, self.contrast, self.tonnetz]
        )
        assert out.size == N_FEATURES
        return out


def load_and_resample(path):
    """Decode a PCM WAV file, mix to mono and resample to DEFAULT_SAMPLE_RATE.

    Supports 8/16/24-bit integer and 32-bit float encodings, 1-2
    channels, scaled to [-1, 1] by the file's encoding. Stereo is
    averaged to mono; resampling is polyphase windowed-sinc
    interpolation; the result is clipped to [-1, 1] at every rate. A
    file that cannot be opened raises its OSError; one that breaks these
    rules raises InputError, whose message leaves the path to the caller.
    """
    import scipy.io.wavfile

    try:
        rate, data = scipy.io.wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:
        raise InputError(f"unreadable WAV file: {exc}") from exc
    if data.size == 0:
        raise InputError("zero-length audio")
    if rate <= 0:
        raise InputError(f"sample rate must be positive, got {rate} Hz")
    encoding = data.dtype
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise InputError("only mono/stereo supported")
        # Mixing before scaling gives the bits of scaling first: the
        # channel sum and the offset are exact, every scale a power of two.
        # (+0.0 + l) + r, halved in place: a mean's bits, signed zeros too, and no float stereo copy
        mono = np.add(data[:, 0], 0.0, dtype=np.float64)
        mono += data[:, 1]
        data = np.divide(mono, 2, out=mono)

    if encoding == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif encoding == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif encoding == np.int32:
        # 24-bit PCM is delivered left-justified in int32
        samples = data.astype(np.float64) / 2147483648.0
    elif encoding in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InputError(f"unsupported WAV encoding {encoding}")
    if not np.all(np.isfinite(samples)):
        raise InputError("samples must be finite")

    if rate != DEFAULT_SAMPLE_RATE:
        import scipy.signal

        ratio = Fraction(DEFAULT_SAMPLE_RATE, int(rate))
        samples = scipy.signal.resample_poly(
            samples, ratio.numerator, ratio.denominator
        )
    samples = np.clip(samples, -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate=DEFAULT_SAMPLE_RATE)


def _frame_signal(clip, cfg):
    """Center-framed view of the clip, reflection padded.

    Clips shorter than one frame are zero-padded to n_fft first. Frame
    count is 1 + ceil(len / hop).
    """
    x = clip.samples
    if x.size < cfg.n_fft:
        x = np.pad(x, (0, cfg.n_fft - x.size))
    n = x.size
    n_frames = 1 + math.ceil(n / cfg.hop)
    pad_left = cfg.n_fft // 2
    pad_right = max(0, (n_frames - 1) * cfg.hop + cfg.n_fft - pad_left - n)
    x = np.pad(x, (pad_left, pad_right), mode="reflect")
    # the padded length is exactly (n_frames - 1) * hop + n_fft
    return np.lib.stride_tricks.sliding_window_view(x, cfg.n_fft)[:: cfg.hop]


def stft_power(clip, cfg=None):
    """Power spectrogram, shape (frames, n_fft//2 + 1), filled _STFT_BLOCK_FRAMES
    rows at a time: no whole-clip windowed or complex copy is ever held."""
    cfg = cfg or StftConfig()
    frames = _frame_signal(clip, cfg)
    power = np.empty((frames.shape[0], cfg.n_fft // 2 + 1))
    for i in range(0, frames.shape[0], _STFT_BLOCK_FRAMES):
        spec = np.fft.rfft(frames[i : i + _STFT_BLOCK_FRAMES] * cfg.window, axis=1)
        power[i : i + _STFT_BLOCK_FRAMES] = np.abs(spec) ** 2
    return power


def mel_scale(f):
    """Map physical frequency in Hz to the mel scale (HTK form)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be nonnegative")
    return 2595.0 * np.log10(1.0 + f / 700.0)


def mel_to_hz(m):
    """Inverse of mel_scale."""
    m = np.asarray(m, dtype=np.float64)
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_filterbank(n_mels, n_fft, sample_rate):
    """Triangular filters with centers equally spaced on the mel axis
    from 0 Hz to sample_rate / 2.

    Returns an (n_mels, n_fft//2 + 1) weight matrix; each filter peaks
    at 1 at its center and is zero outside its support.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    mel_pts = np.linspace(0.0, mel_scale(sample_rate / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        down = (hi - bin_freqs) / (hi - ctr)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@functools.lru_cache
def _cached_mel_filterbank(n_mels, n_fft, sample_rate):
    """mel_filterbank, built once per key, read-only."""
    fb = mel_filterbank(n_mels, n_fft, sample_rate)
    fb.flags.writeable = False
    return fb


def _mfcc(mel):
    """Frame-mean MFCCs of per-frame mel energies: log, then orthonormal DCT-II."""
    import scipy.fft

    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :N_MFCC]
    return coeffs.mean(axis=0)


@functools.lru_cache
def _chroma_classes(n_fft, sample_rate):
    """Pitch class of each STFT bin above DC, built once per key, read-only."""
    bin_freqs = np.arange(1, n_fft // 2 + 1) * sample_rate / n_fft
    midi = 69.0 + 12.0 * np.log2(bin_freqs / 440.0)
    classes = np.round(midi).astype(int) % 12
    classes.flags.writeable = False
    return classes


def _chroma_frames(power, n_fft, sample_rate):
    """Per-frame max-normalized 12-bin chroma, shape (frames, 12).

    STFT power bins fold onto the nearest A440 equal-temperament
    semitone, modulo 12 (class 0 = C, class 9 = A). All-zero frames
    stay zero.
    """
    classes = _chroma_classes(n_fft, sample_rate)
    chroma = np.zeros((power.shape[0], N_CHROMA))
    for c in range(N_CHROMA):
        sel = classes == c
        if np.any(sel):
            chroma[:, c] = power[:, 1:][:, sel].sum(axis=1)
    peak = chroma.max(axis=1, keepdims=True)
    np.divide(chroma, peak, out=chroma, where=peak > 0)
    return chroma


def _contrast_band_edges(sample_rate, n_bands):
    """Sub-200 Hz band plus octave bands doubling from 200 Hz."""
    edges = [0.0, 200.0]
    for _ in range(n_bands - 1):
        edges.append(edges[-1] * 2.0)
    edges.append(sample_rate / 2.0)
    return np.minimum.accumulate(np.asarray(edges)[::-1])[::-1]


def band_contrast(band_magnitudes, alpha):
    """Peak-valley log contrast of one band, per frame.

    `band_magnitudes` has shape (frames, bins-in-band). The peak is the
    log-mean of the top ceil(alpha*N) magnitudes, the valley of the
    bottom ceil(alpha*N); both are floored before the log.
    """
    band_magnitudes = np.atleast_2d(np.asarray(band_magnitudes, dtype=np.float64))
    n = band_magnitudes.shape[1]
    top = max(1, math.ceil(alpha * n))
    ordered = np.sort(band_magnitudes, axis=1)[:, ::-1]
    peak = np.log(np.maximum(ordered[:, :top].mean(axis=1), LOG_FLOOR))
    valley = np.log(np.maximum(ordered[:, -top:].mean(axis=1), LOG_FLOOR))
    return peak - valley


def _spectral_contrast(power, n_fft, sample_rate):
    """Frame-mean peak-valley log contrast of a power spectrogram in
    N_CONTRAST_BANDS + 1 bands: below 200 Hz, then octaves up to Nyquist."""
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    edges = _contrast_band_edges(sample_rate, N_CONTRAST_BANDS)
    out = np.zeros((power.shape[0], N_CONTRAST_BANDS + 1))
    for k in range(N_CONTRAST_BANDS + 1):
        if k < N_CONTRAST_BANDS:
            sel = (bin_freqs >= edges[k]) & (bin_freqs < edges[k + 1])
        else:
            sel = bin_freqs >= edges[k]
        if not np.any(sel):
            raise ValueError(f"contrast band {k} contains no FFT bins")
        band = power[:, sel]  # a copy, made magnitude in place
        out[:, k] = band_contrast(np.sqrt(band, out=band), CONTRAST_ALPHA)
    return out.mean(axis=0)


def tonnetz_transform():
    """6x12 chroma-to-tonal-centroid projection.

    Rows pair up as (sin, cos) coordinates on the circle of fifths
    (radius 1), of minor thirds (radius 1) and of major thirds (radius 0.5).
    """
    l = np.arange(N_CHROMA)
    fifths = l * 7.0 * np.pi / 6.0
    minor = l * 3.0 * np.pi / 2.0
    major = l * 2.0 * np.pi / 3.0
    return np.vstack(
        [np.sin(fifths), np.cos(fifths), np.sin(minor), np.cos(minor)]
        + [0.5 * np.sin(major), 0.5 * np.cos(major)]
    )


def chroma_to_tonnetz(chroma_frames):
    """Project (frames, 12) chroma onto the 6-D tonal centroid space.

    Each frame is L1-normalized first; all-zero frames map to the zero
    vector.
    """
    chroma_frames = np.atleast_2d(np.asarray(chroma_frames, dtype=np.float64))
    phi = tonnetz_transform()
    norms = np.abs(chroma_frames).sum(axis=1, keepdims=True)
    scaled = np.divide(
        chroma_frames, norms, out=np.zeros_like(chroma_frames), where=norms > 0
    )
    return scaled @ phi.T


def extract_features(clip, cfg=None):
    """Full 193-dim feature vector in fixed block order, from one STFT."""
    cfg = cfg or StftConfig()
    power = stft_power(clip, cfg)
    mel = power @ _cached_mel_filterbank(N_MELS, cfg.n_fft, clip.sample_rate).T
    chroma = _chroma_frames(power, cfg.n_fft, clip.sample_rate)
    return FeatureVector(
        mfcc=_mfcc(mel),
        mel=mel.mean(axis=0),
        chroma=chroma.mean(axis=0),
        contrast=_spectral_contrast(power, cfg.n_fft, clip.sample_rate),
        tonnetz=chroma_to_tonnetz(chroma).mean(axis=0),
    )


def mfcc(clip, cfg=None):
    """Frame-mean MFCCs (N_MFCC values): the mfcc block of extract_features."""
    return extract_features(clip, cfg).mfcc


def mel_spectrogram_features(clip, cfg=None):
    """Frame-mean mel energies (N_MELS values): the mel block of extract_features."""
    return extract_features(clip, cfg).mel


def chromagram(clip, cfg=None):
    """Frame-mean chroma in [0, 1] (N_CHROMA values): the chroma block."""
    return extract_features(clip, cfg).chroma


def spectral_contrast(clip, cfg=None):
    """Frame-mean contrast (N_CONTRAST_BANDS + 1 values): the contrast block."""
    return extract_features(clip, cfg).contrast


def tonal_centroid(clip, cfg=None):
    """Frame-mean 6-D tonal centroid of the chroma frames: the tonnetz block."""
    return extract_features(clip, cfg).tonnetz
