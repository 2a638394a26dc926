"""Reference computations the benchmark checks coughrank's outputs against.

Each oracle is written from the method's definition, with explicit
loops where the program vectorises, and imports nothing from
`coughrank`. Resampling is the one step taken from a library:
`scipy.signal.resample_poly` is the polyphase windowed-sinc resampler
the method names. `test_oracles.py` checks every oracle on small cases
worked by hand.
"""

import csv
import math
import struct
from fractions import Fraction

import numpy as np
import scipy.signal

# --- audio ----------------------------------------------------------------

SAMPLE_RATE = 22050
N_FFT = 2048
HOP = 512
N_MELS = 128
N_MFCC = 40
LOG_FLOOR = 1e-10


def read_wav(path):
    """Decode a PCM or IEEE-float WAV file into (rate, mono float64 samples).

    Integer samples are scaled by the full range of their container
    (8-bit unsigned around 128, 16- and 32-bit signed); channels are
    averaged before scaling.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(blob):
        tag, size = blob[pos : pos + 4], struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        body = blob[pos + 8 : pos + 8 + size]
        if tag == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data":
            data = body
        pos += 8 + size + (size & 1)
    code, channels, rate, _, _, bits = fmt
    kinds = {(1, 8): "<u1", (1, 16): "<i2", (1, 32): "<i4", (3, 32): "<f4"}
    raw = np.frombuffer(data, dtype=kinds[(code, bits)]).reshape(-1, channels)
    mixed = raw.astype(np.float64).mean(axis=1) if channels > 1 else raw[:, 0].astype(np.float64)
    if code == 3:
        return rate, mixed
    if bits == 8:
        return rate, (mixed - 128.0) / 128.0
    return rate, mixed / float(2 ** (bits - 1))


def to_analysis_rate(rate, samples):
    """Resample to SAMPLE_RATE by polyphase windowed-sinc interpolation and
    clip to [-1, 1]; a clip already at SAMPLE_RATE passes unchanged."""
    if rate == SAMPLE_RATE:
        return samples
    ratio = Fraction(SAMPLE_RATE, rate)
    return np.clip(scipy.signal.resample_poly(samples, ratio.numerator, ratio.denominator), -1.0, 1.0)


def frames(x, n_fft=N_FFT, hop=HOP):
    """Centre-aligned frames: zero-pad to one frame, then reflect-pad so
    frame t is centred on sample t * hop; 1 + ceil(len / hop) frames."""
    x = np.concatenate([np.asarray(x, dtype=np.float64), np.zeros(max(0, n_fft - len(x)))])
    n = len(x)
    n_frames = 1 + -(-n // hop)
    half = n_fft // 2
    right = (n_frames - 1) * hop + n_fft - half - n
    # x[half], ..., x[1] | x | x[n-2], x[n-3], ...
    padded = np.concatenate([[x[i] for i in range(half, 0, -1)], x, [x[n - 2 - i] for i in range(max(0, right))]])
    return [padded[t * hop : t * hop + n_fft] for t in range(n_frames)]


def hann(n):
    """Periodic Hann window of length n."""
    return np.array([0.5 - 0.5 * math.cos(2 * math.pi * k / n) for k in range(n)])


def power_spectrum(frame, window):
    """|rfft|^2 of one windowed frame."""
    spec = np.fft.rfft(np.asarray(frame) * window)
    return spec.real**2 + spec.imag**2


def hz_to_mel(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_filterbank(n_mels=N_MELS, n_fft=N_FFT, rate=SAMPLE_RATE):
    """Triangles between n_mels + 2 points equally spaced in HTK mel from
    0 Hz to Nyquist, each peaking at 1 on its centre, one row per band."""
    top = hz_to_mel(rate / 2.0)
    edges = [mel_to_hz(top * i / (n_mels + 1)) for i in range(n_mels + 2)]
    bank = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k in range(n_fft // 2 + 1):
            f = k * rate / n_fft
            bank[m, k] = max(0.0, min((f - lo) / (mid - lo), (hi - f) / (hi - mid)))
    return bank


def dct2_ortho(n_out, n):
    """Matrix of the first n_out rows of the orthonormal DCT-II of length n."""
    out = np.zeros((n_out, n))
    for k in range(n_out):
        scale = math.sqrt((1.0 if k == 0 else 2.0) / n)
        for i in range(n):
            out[k, i] = scale * math.cos(math.pi * k * (2 * i + 1) / (2 * n))
    return out


def mel_and_mfcc(samples, bank, dct):
    """Frame means of the mel-band energies and of the MFCCs of a clip at
    SAMPLE_RATE, one frame at a time.

    Mel energies are the filterbank applied to the power spectrum; MFCCs
    are the DCT of the floored natural log of those energies.
    """
    frame_list = frames(samples)
    window = hann(N_FFT)
    mel_sum = np.zeros(bank.shape[0])
    mfcc_sum = np.zeros(dct.shape[0])
    for frame in frame_list:
        energies = bank @ power_spectrum(frame, window)
        mel_sum += energies
        mfcc_sum += dct @ np.log(np.maximum(energies, LOG_FLOOR))
    return mel_sum / len(frame_list), mfcc_sum / len(frame_list)


def pitch_class(midi):
    """Chroma index of an equal-tempered MIDI note: 0 = C, 9 = A."""
    return midi % 12


# --- evaluation -----------------------------------------------------------


def confusion(labels, scores, threshold):
    """(tp, fp, tn, fn) with 'positive' meaning score >= threshold."""
    tp = fp = tn = fn = 0
    for y, s in zip(labels, scores):
        if s >= threshold:
            tp, fp = tp + (y == 1), fp + (y == 0)
        else:
            tn, fn = tn + (y == 0), fn + (y == 1)
    return tp, fp, tn, fn


def pairwise_auc(labels, scores, block=512):
    """Share of (positive, negative) pairs ranked right, ties counting 1/2."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = 0.0
    for i in range(0, pos.size, block):
        p = pos[i : i + block, None]
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (pos.size * neg.size)


def eight_criteria(labels, scores, threshold=0.5):
    """acc, auc, precision, recall, specificity, f1, fpr, fnr as a dict."""
    tp, fp, tn, fn = confusion(labels, scores, threshold)
    return {
        "acc": (tp + tn) / (tp + fp + tn + fn),
        "auc": pairwise_auc(labels, scores),
        "precision": tp / (tp + fp),
        "recall": tp / (tp + fn),
        "specificity": tn / (tn + fp),
        "f1": 2 * tp / (2 * tp + fp + fn),
        "fpr": fp / (fp + tn),
        "fnr": fn / (fn + tp),
    }


CRITERIA = ("acc", "auc", "precision", "recall", "specificity", "f1", "fpr", "fnr")
COST = ("fpr", "fnr")


# --- ranking --------------------------------------------------------------


def entropy_weights(rows):
    """Weights from the entropy of each min-max scaled column; a constant
    column has entropy 1 and weight 0."""
    m, n = len(rows), len(rows[0])
    deficits = []
    for j in range(n):
        col = [r[j] for r in rows]
        lo, hi = min(col), max(col)
        if hi == lo:
            deficits.append(0.0)
            continue
        scaled = [(v - lo) / (hi - lo) for v in col]
        total = sum(scaled)
        h = 0.0
        for v in scaled:
            p = v / total
            if p > 0:
                h -= p * math.log(p)
        deficits.append(1.0 - h / math.log(m))
    total = sum(deficits)
    return [d / total for d in deficits]


def topsis_closeness(rows, weights, cost):
    """Relative closeness S- / (S+ + S-) of each row to the ideal solution,
    on vector-normalised, weighted columns; `cost[j]` marks columns where
    smaller is better."""
    m, n = len(rows), len(rows[0])
    v = [[0.0] * n for _ in range(m)]
    for j in range(n):
        norm = math.sqrt(sum(rows[i][j] ** 2 for i in range(m)))
        for i in range(m):
            v[i][j] = weights[j] * rows[i][j] / norm if norm > 0 else 0.0
    best, worst = [], []
    for j in range(n):
        col = [v[i][j] for i in range(m)]
        best.append(min(col) if cost[j] else max(col))
        worst.append(max(col) if cost[j] else min(col))
    out = []
    for i in range(m):
        s_plus = math.sqrt(sum((v[i][j] - best[j]) ** 2 for j in range(n)))
        s_minus = math.sqrt(sum((v[i][j] - worst[j]) ** 2 for j in range(n)))
        out.append(s_minus / (s_plus + s_minus) if s_plus + s_minus > 0 else 0.5)
    return out


def ensemble(models, closeness_columns):
    """Soft scores, hard totals and the (soft, hard) winners over
    per-strategy closeness columns.

    Soft: mean closeness; the highest wins, a tie going to the higher
    hard total, then the smaller name. Hard: per strategy each model gets
    m minus the number of models whose closeness, rounded to 2 decimals,
    is strictly higher; the highest total wins, a tie going to the higher
    mean closeness, then the smaller name.
    """
    m = len(models)
    soft = [sum(col[i] for col in closeness_columns) / len(closeness_columns) for i in range(m)]
    hard = [0] * m
    for col in closeness_columns:
        rounded = [float(np.round(c, 2)) for c in col]
        for i in range(m):
            hard[i] += m - sum(1 for r in rounded if r > rounded[i])
    soft_best = min(range(m), key=lambda i: (-soft[i], -hard[i], models[i]))
    hard_best = min(range(m), key=lambda i: (-hard[i], -soft[i], models[i]))
    return soft, hard, (models[soft_best], models[hard_best])


# --- files ----------------------------------------------------------------


def read_csv(path):
    """Header and rows of a CSV file, as lists of strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def read_predictions(path):
    """{(model, strategy): (sample_ids, labels, scores)} from predictions.csv."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for model, strategy, sid, label, score in reader:
            ids, labels, scores = groups.setdefault((model, strategy), ([], [], []))
            ids.append(sid)
            labels.append(int(label))
            scores.append(float(score))
    return groups


def close(a, b, rtol=1e-8, atol=0.0):
    """True when a and b agree to rtol of b, or within atol."""
    return abs(a - b) <= max(rtol * abs(b), atol)
