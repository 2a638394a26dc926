"""Acoustic feature extraction for cough recordings.

Five spectral feature families (MFCC, mel spectrogram, chromagram,
spectral contrast, tonal centroid) are computed per STFT frame and
mean-aggregated over the clip into a fixed 193-dimensional vector.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

DEFAULT_SAMPLE_RATE = 22050

N_MFCC = 40
N_MELS = 128
N_CHROMA = 12
N_CONTRAST_BANDS = 6
N_TONNETZ = 6
N_FEATURES = N_MFCC + N_MELS + N_CHROMA + (N_CONTRAST_BANDS + 1) + N_TONNETZ

LOG_FLOOR = 1e-10

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


def load_and_resample(path, target_rate=DEFAULT_SAMPLE_RATE):
    """Decode a PCM WAV file, mix to mono and resample.

    Supports 8/16/24-bit integer and 32-bit float encodings, 1-2
    channels, scaled to [-1, 1] by the file's encoding. Stereo is
    averaged to mono; resampling is polyphase windowed-sinc
    interpolation.
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"unreadable WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"zero-length audio in {path!r}")
    encoding = data.dtype
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise ValueError(f"{path!r}: only mono/stereo supported")
        # Mixing before scaling gives the bits of scaling first: the
        # channel sum and the offset are exact, every scale a power of two.
        data = data.astype(np.float64).mean(axis=1)

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
        raise ValueError(f"{path!r}: unsupported WAV encoding {encoding}")

    if target_rate != rate:
        ratio = Fraction(int(target_rate), int(rate))
        samples = scipy.signal.resample_poly(
            samples, ratio.numerator, ratio.denominator
        )
        samples = np.clip(samples, -1.0, 1.0)
    if samples.size == 0:
        raise ValueError(f"{path!r}: resampling produced no samples")
    return AudioClip(samples=samples, sample_rate=int(target_rate))


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
    idx = np.arange(cfg.n_fft)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    return x[idx]


def stft_power(clip, cfg=None):
    """Power spectrogram, shape (frames, n_fft//2 + 1)."""
    cfg = cfg or StftConfig()
    frames = _frame_signal(clip, cfg) * cfg.window
    spec = np.fft.rfft(frames, axis=1)
    return np.abs(spec) ** 2


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


def mel_filterbank(n_mels, n_fft, sample_rate, f_min=0.0, f_max=None):
    """Triangular filters with centers equally spaced on the mel axis.

    Returns an (n_mels, n_fft//2 + 1) weight matrix; each filter peaks
    at 1 at its center and is zero outside its support.
    """
    if f_max is None:
        f_max = sample_rate / 2.0
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    if not (0 <= f_min < f_max <= sample_rate / 2.0):
        raise ValueError("require 0 <= f_min < f_max <= sample_rate/2")
    mel_pts = np.linspace(mel_scale(f_min), mel_scale(f_max), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        down = (hi - bin_freqs) / (hi - ctr)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def mel_energies(clip, cfg=None, n_mels=N_MELS):
    """Per-frame mel-filterbank energies, shape (frames, n_mels)."""
    cfg = cfg or StftConfig()
    power = stft_power(clip, cfg)
    fb = mel_filterbank(n_mels, cfg.n_fft, clip.sample_rate)
    return power @ fb.T


def mfcc(clip, cfg=None, n_mfcc=N_MFCC, n_mels=N_MELS):
    """Frame-mean MFCCs: log mel energies through an orthonormal DCT-II."""
    logmel = np.log(np.maximum(mel_energies(clip, cfg, n_mels), LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :n_mfcc]
    return coeffs.mean(axis=0)


def mel_spectrogram_features(clip, cfg=None, n_mels=N_MELS):
    """Frame-mean mel-filterbank energies (nonnegative, length n_mels)."""
    return mel_energies(clip, cfg, n_mels).mean(axis=0)


def _chroma_frames(clip, cfg):
    """Per-frame max-normalized 12-bin chroma, shape (frames, 12).

    STFT power bins fold onto the nearest A440 equal-temperament
    semitone, modulo 12 (class 0 = C, class 9 = A). All-zero frames
    stay zero.
    """
    cfg = cfg or StftConfig()
    power = stft_power(clip, cfg)
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


def chromagram(clip, cfg=None):
    """Frame-mean 12-bin chroma vector, values in [0, 1]."""
    return _chroma_frames(clip, cfg).mean(axis=0)


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


def spectral_contrast(clip, cfg=None, n_bands=N_CONTRAST_BANDS, alpha=0.02):
    """Frame-mean peak-valley log contrast in octave sub-bands.

    Output has n_bands + 1 entries (sub-200 Hz band included).
    """
    if not (0.02 <= alpha <= 0.2):
        raise ValueError("alpha must lie in [0.02, 0.2]")
    cfg = cfg or StftConfig()
    mag = np.sqrt(stft_power(clip, cfg))
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


def tonnetz_transform(r_fifths=1.0, r_minor=1.0, r_major=0.5):
    """6x12 chroma-to-tonal-centroid projection.

    Rows pair up as (sin, cos) coordinates on the circle of fifths,
    of minor thirds and of major thirds, with the given radii.
    """
    l = np.arange(N_CHROMA)
    return np.vstack(
        [
            r_fifths * np.sin(l * 7.0 * np.pi / 6.0),
            r_fifths * np.cos(l * 7.0 * np.pi / 6.0),
            r_minor * np.sin(l * 3.0 * np.pi / 2.0),
            r_minor * np.cos(l * 3.0 * np.pi / 2.0),
            r_major * np.sin(l * 2.0 * np.pi / 3.0),
            r_major * np.cos(l * 2.0 * np.pi / 3.0),
        ]
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


def tonal_centroid(clip, cfg=None):
    """Frame-mean 6-D tonal centroid of the chroma frames."""
    return chroma_to_tonnetz(_chroma_frames(clip, cfg)).mean(axis=0)


def extract_features(clip, cfg=None):
    """Full 193-dim feature vector in fixed block order."""
    cfg = cfg or StftConfig()
    return FeatureVector(
        mfcc=mfcc(clip, cfg),
        mel=mel_spectrogram_features(clip, cfg),
        chroma=chromagram(clip, cfg),
        contrast=spectral_contrast(clip, cfg),
        tonnetz=tonal_centroid(clip, cfg),
    )
