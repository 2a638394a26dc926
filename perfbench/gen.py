"""Seeded input generator for the coughrank benchmark.

Writes the files one workload feeds to the `coughrank` command line into
a directory, plus `inputs.json`, which describes what was generated so
the correctness checks know what to expect. It uses numpy and
`scipy.io.wavfile` only, never the `coughrank` package.

The structure of every input set (clip rates, encodings, lengths, row
and model counts) is fixed; the seed chooses the signal content, the
labels and the scores. So each seed gives other inputs but the same
amount of work.

    python3 perfbench/gen.py --workload extract_wavs --seed 1 --out DIR
"""

import argparse
import json
from pathlib import Path

import numpy as np
import scipy.io.wavfile

# --- extract_wavs ---------------------------------------------------------

RATES = (8000, 16000, 22050, 44100, 48000)
ENCODINGS = ("uint8", "int16", "int24", "float32")
CHANNELS = (1, 2)
# 40 clips of each length: 13.1 s per (rate, encoding, channels) cell,
# 524 audio-seconds in all
LENGTHS_S = (0.3, 0.6, 1.0, 1.5, 1.7, 8.0)
N_TONES = 12
FIXED_SEED = 20211001
TONE_AMPLITUDE = 0.5
EVENT_S = 2.0


def _quantize(x, encoding):
    """Encode samples in [-1, 1] the way a WAV writer of that kind would."""
    if encoding == "uint8":
        return (np.round(x * 127.0) + 128.0).astype(np.uint8)
    if encoding == "int16":
        return np.round(x * 32767.0).astype(np.int16)
    if encoding == "int24":
        # 24-bit PCM stored left-justified in 32-bit words
        return (np.round(x * 8388607.0).astype(np.int32) << 8).astype(np.int32)
    return x.astype(np.float32)


def _shaped_noise(rng, n, rate, centres, widths):
    """White noise shaped by a sum of Gaussian resonances in the spectrum."""
    size = 1 << (n - 1).bit_length()  # a power of two keeps the FFT fast
    spec = np.fft.rfft(rng.standard_normal(size))
    freqs = np.fft.rfftfreq(size, 1.0 / rate)
    gain = np.zeros_like(freqs)
    for c, w in zip(centres, widths):
        gain += np.exp(-0.5 * ((freqs - c) / w) ** 2)
    return np.fft.irfft(spec * gain, size)[:n]


def cough_signal(rng, n, rate, label):
    """A cough-like clip: one to three bursts of resonant noise, each with a
    voiced tail, over a faint noise floor. Positive clips sit a little
    lower in the spectrum, so the features carry the label."""
    x = 0.002 * rng.standard_normal(n)
    nyq = rate / 2.0
    shift = 0.8 if label else 1.0
    n_events = 1 + min(2, int(n / rate / 0.6))
    starts = np.sort(rng.uniform(0.0, max(n / rate - 0.25, 0.01), n_events))
    for start in starts:
        # an event has died away (below e^-4) EVENT_S after its onset
        lo = int(start * rate)
        hi = min(n, lo + int(EVENT_S * rate))
        rel = np.arange(hi - lo) / rate
        centres = [min(c * shift, 0.9 * nyq) for c in rng.uniform((400, 1200, 2500), (900, 2200, 3800))]
        widths = rng.uniform((150, 250, 400), (300, 500, 900))
        burst = _shaped_noise(rng, hi - lo, rate, centres, widths)
        burst /= np.max(np.abs(burst)) + 1e-12
        attack = rng.uniform(0.005, 0.02)
        decay = rng.uniform(0.06, 0.25)
        env = np.where(rel < attack, rel / attack, np.exp(-(rel - attack) / decay))
        f0 = rng.uniform(180, 420) * shift
        voiced = sum(
            np.sin(2 * np.pi * h * f0 * rel + rng.uniform(0, 2 * np.pi)) / h
            for h in range(1, 6)
            if h * f0 < nyq
        )
        tail = np.exp(-np.maximum(rel - 0.05, 0) / (2 * decay))
        x[lo:hi] += rng.uniform(0.5, 1.0) * env * burst + 0.15 * tail * env * voiced
    peak = np.max(np.abs(x))
    return x / peak * rng.uniform(0.5, 0.9)


def tone_signal(n, rate, midi):
    """A steady sine at the equal-tempered pitch `midi` (A4 = 69 = 440 Hz)."""
    freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
    return TONE_AMPLITUDE * np.sin(2 * np.pi * freq * np.arange(n) / rate)


def stereo_integer(cell):
    """Clips that `extract` decodes without scaling to [-1, 1] (stereo
    integer PCM), so their features are wrong on every run. Their content
    is drawn from FIXED_SEED, not from the workload seed."""
    _, enc, ch, _ = cell
    return ch == 2 and enc != "float32"


def gen_extract_wavs(rng, out):
    wav_dir = out / "wavs"
    wav_dir.mkdir()
    cells = [
        (rate, enc, ch, length)
        for rate in RATES
        for enc in ENCODINGS
        for ch in CHANNELS
        for length in LENGTHS_S
    ]
    fixed = [i for i, c in enumerate(cells) if stereo_integer(c)]
    seeded = [i for i, c in enumerate(cells) if not stereo_integer(c)]
    rng_of = dict.fromkeys(seeded, rng)
    rng_of.update(dict.fromkeys(fixed, np.random.default_rng(FIXED_SEED)))
    # a third of each group is positive
    labels = np.zeros(len(cells), dtype=int)
    for group in (fixed, seeded):
        labels[group] = rng_of[group[0]].permutation(np.arange(len(group)) % 3 == 0)
    # the tones go to seeded clips of 1.0 s and longer, one per pitch
    # class, spread over rates and encodings by index
    long_cells = [i for i in seeded if cells[i][3] >= 1.0]
    tone_cells = long_cells[:: len(long_cells) // N_TONES][:N_TONES]
    tone_of = {
        cell: int(60 + 12 * rng.integers(0, 2) + pc)  # C4..B5
        for cell, pc in zip(tone_cells, rng.permutation(N_TONES))
    }
    clips = []
    for i, (rate, enc, ch, length) in enumerate(cells):
        sid = f"clip{i:03d}"
        n = int(round(length * rate))
        if i in tone_of:
            mono = tone_signal(n, rate, tone_of[i])
        else:
            mono = cough_signal(rng_of[i], n, rate, labels[i])
        if ch == 2:
            right = 0.8 * mono + 0.01 * rng_of[i].standard_normal(n)
            data = np.stack([mono, np.clip(right, -1, 1)], axis=1)
        else:
            data = mono
        scipy.io.wavfile.write(wav_dir / f"{sid}.wav", rate, _quantize(data, enc))
        clips.append(
            {
                "sample_id": sid,
                "rate": rate,
                "encoding": enc,
                "channels": ch,
                "seconds": length,
                "label": int(labels[i]),
                "tone_midi": tone_of.get(i),
            }
        )
    with open(out / "labels.csv", "w") as fh:
        fh.write("sample_id,label\n")
        fh.writelines(f"{c['sample_id']},{c['label']}\n" for c in clips)
    return {"clips": clips, "items": len(clips)}


# --- train_rank -----------------------------------------------------------

N_TRAIN_POS, N_TRAIN_NEG = 100, 200
N_FEATURES = 193
# (family, columns, digits in the column name), as in features.csv
BLOCKS = (("mfcc", 40, 2), ("mel", 128, 3), ("chroma", 12, 2), ("contrast", 7, 1), ("tonnetz", 6, 1))
# Positive rows are shifted by CLASS_SHIFT standard deviations along a
# random unit-variance direction spread over every column: strong enough
# that k-NN after SMOTE still ranks well above chance in 193 dimensions.
CLASS_SHIFT = 0.4
LABEL_NOISE = 0.08
N_FACTORS = 8
EXTERNAL_MODELS = ("svm", "rf", "extra_trees", "adaboost", "mlp", "xgboost", "gboost", "hgboost")
STRATEGIES = ("1", "2", "3")


def feature_matrix(rng, labels):
    """Correlated features on the scales of the five feature families.

    The rows are drawn for a latent class that agrees with `labels`
    except on LABEL_NOISE of each class, so no model can score perfectly.
    """
    n = labels.size
    latent = labels.astype(float)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        swap = rng.choice(members, int(round(LABEL_NOISE * members.size)), replace=False)
        latent[swap] = 1 - cls
    loadings = rng.normal(0.0, 0.5, (N_FACTORS, N_FEATURES))
    z = rng.standard_normal((n, N_FACTORS)) @ loadings + rng.standard_normal((n, N_FEATURES))
    z /= z.std(axis=0)
    direction = rng.choice((-1.0, 1.0), N_FEATURES) * rng.uniform(0.5, 1.5, N_FEATURES)
    z += CLASS_SHIFT * latent[:, None] * direction
    cols = []
    start = 0
    for name, width, _ in BLOCKS:
        block = z[:, start : start + width]
        if name == "mfcc":
            centre = rng.uniform(-250, 60, width)
            cols.append(centre + block * rng.uniform(3, 30, width))
        elif name == "mel":
            cols.append(np.exp(rng.uniform(-8, 1, width) + 0.8 * block))
        elif name == "chroma":
            cols.append(1.0 / (1.0 + np.exp(-(block - 0.5))))
        elif name == "contrast":
            cols.append(rng.uniform(12, 28, width) + 3.0 * block)
        else:
            cols.append(0.05 * block)
        start += width
    return np.hstack(cols)


def external_scores(rng, labels, quality, bias, decimals=None):
    """Scores in (0, 1) whose separation grows with `quality`."""
    logit = quality * (labels - 1.0 / 3.0) + bias + rng.standard_normal(labels.size)
    scores = 1.0 / (1.0 + np.exp(-logit))
    if decimals is not None:
        scores = np.round(scores, decimals)
    return np.clip(scores, 1e-6, 1 - 1e-6)


def write_predictions(path, models, strategies, ids, labels, rng):
    """predictions.csv rows for every (model, strategy), each over all ids
    in shuffled order; returns the row count.

    Some models round their scores to 2 or 3 decimals, so ties occur.
    Every model has a true positive at the 0.5 cutoff, so no metric is
    degenerate.
    """
    n = len(ids)
    rows = 0
    with open(path, "w") as fh:
        fh.write("model,strategy,sample_id,true_label,score\n")
        for k, model in enumerate(models):
            quality = rng.uniform(0.8, 3.5)
            decimals = (None, None, 3, 2)[k % 4]
            for strategy in strategies:
                while True:
                    scores = external_scores(rng, labels, quality + rng.normal(0, 0.3), rng.normal(0, 0.4), decimals)
                    if np.any((scores >= 0.5) & (labels == 1)):
                        break
                fh.writelines(
                    f"{model},{strategy},{ids[i]},{labels[i]},{format(scores[i], '.9g')}\n"
                    for i in rng.permutation(n)
                )
                rows += n
    return rows


def gen_train_rank(rng, out):
    labels = np.array([1] * N_TRAIN_POS + [0] * N_TRAIN_NEG)
    labels = labels[rng.permutation(labels.size)]
    ids = [f"s{i:04d}" for i in range(labels.size)]
    X = feature_matrix(rng, labels)
    header = ["sample_id", "label"] + [
        f"{name}_{i:0{digits}d}" for name, width, digits in BLOCKS for i in range(width)
    ]
    with open(out / "features.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for sid, y, row in zip(ids, labels, X):
            fh.write(f"{sid},{y}," + ",".join(format(v, ".9g") for v in row) + "\n")
    write_predictions(out / "external.csv", EXTERNAL_MODELS, STRATEGIES, ids, labels, rng)
    return {"items": int(labels.size), "external_models": list(EXTERNAL_MODELS)}


# --- score_rank -----------------------------------------------------------

N_SCORE_MODELS = 150
N_SCORE_POS, N_SCORE_NEG = 800, 1600


def gen_score_rank(rng, out):
    labels = np.array([1] * N_SCORE_POS + [0] * N_SCORE_NEG)
    labels = labels[rng.permutation(labels.size)]
    ids = [f"r{i:05d}" for i in range(labels.size)]
    models = [f"model{k:03d}" for k in range(N_SCORE_MODELS)]
    rows = write_predictions(out / "predictions.csv", models, STRATEGIES, ids, labels, rng)
    return {"items": rows, "models": models}


WORKLOADS = {
    "extract_wavs": gen_extract_wavs,
    "train_rank": gen_train_rank,
    "score_rank": gen_score_rank,
}


def generate(workload, seed, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    info = WORKLOADS[workload](rng, out)
    info.update(workload=workload, seed=seed)
    (out / "inputs.json").write_text(json.dumps(info, indent=1) + "\n")
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
