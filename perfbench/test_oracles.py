"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import struct

import numpy as np
import pytest

import oracles


def write_wav(path, rate, code, bits, channels, samples):
    """A minimal RIFF/WAVE file with interleaved `samples`."""
    fmt = {(1, 8): "B", (1, 16): "h", (1, 32): "i", (3, 32): "f"}[(code, bits)]
    data = struct.pack(f"<{len(samples)}{fmt}", *samples)
    block = channels * bits // 8
    header = struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + header + b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_read_wav_scales_each_encoding_after_mixing(tmp_path):
    cases = [
        # (code, bits, channels, stored samples, decoded mono)
        (1, 8, 1, [128, 192, 0], [0.0, 0.5, -1.0]),
        (1, 16, 2, [16384, 0, -32768, -32768], [0.25, -1.0]),
        (1, 32, 2, [2**30, 2**30, 0, -(2**30)], [0.5, -0.25]),
        (3, 32, 2, [0.5, 0.25, -1.0, 1.0], [0.375, 0.0]),
    ]
    for code, bits, channels, stored, want in cases:
        path = tmp_path / f"{code}_{bits}_{channels}.wav"
        write_wav(path, 8000, code, bits, channels, stored)
        rate, got = oracles.read_wav(path)
        assert rate == 8000
        assert got.tolist() == want


def test_to_analysis_rate_keeps_native_clips_and_clips_resampled_ones():
    x = np.array([0.5, -0.25, 1.0])
    assert oracles.to_analysis_rate(22050, x) is x
    y = oracles.to_analysis_rate(11025, np.full(400, 1.0))
    assert y.size == 800 and y.max() <= 1.0 and y.min() >= -1.0


def test_frames_centre_and_reflect():
    got = [f.tolist() for f in oracles.frames([1, 2, 3, 4, 5], n_fft=4, hop=2)]
    assert got == [[3, 2, 1, 2], [1, 2, 3, 4], [3, 4, 5, 4], [5, 4, 3, 2]]
    # shorter than a frame: zero-padded to n_fft first
    assert [f.tolist() for f in oracles.frames([1, 2], n_fft=4, hop=4)] == [[0, 2, 1, 2], [0, 0, 0, 2]]


def test_power_spectrum_of_constant_frame():
    window = oracles.hann(4)
    assert window.tolist() == pytest.approx([0.0, 0.5, 1.0, 0.5])
    # DC: (0 + .5 + 1 + .5)^2 = 4; bin 1: |0 - .5i - 1 + .5i|^2 = 1; bin 2: 0
    assert oracles.power_spectrum([1.0, 1.0, 1.0, 1.0], window).tolist() == pytest.approx([4.0, 1.0, 0.0])


def test_mel_scale_round_trip():
    assert oracles.hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0))
    assert oracles.mel_to_hz(oracles.hz_to_mel(1234.5)) == pytest.approx(1234.5)


def test_mel_filterbank_single_band():
    # rate 8 Hz, n_fft 8: bins at 0..4 Hz. Below 4 Hz the mel axis is
    # close to linear, so the one band is a triangle 0 Hz - ~2 Hz - 4 Hz.
    bank = oracles.mel_filterbank(1, 8, 8)
    assert bank.shape == (1, 5)
    assert bank[0].tolist() == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0], abs=2e-3)


def test_dct2_ortho_small():
    d = oracles.dct2_ortho(2, 2)
    assert (d @ [1.0, 1.0]).tolist() == pytest.approx([math.sqrt(2.0), 0.0])
    assert (d @ [1.0, -1.0]).tolist() == pytest.approx([0.0, math.sqrt(2.0)])
    full = oracles.dct2_ortho(5, 5)
    assert full @ full.T == pytest.approx(np.eye(5))


def test_mel_and_mfcc_of_silence():
    # every energy is 0, floored to 1e-10 before the log: only c0 is
    # non-zero, sqrt(1/128) * 128 * ln(1e-10)
    bank = oracles.mel_filterbank()
    dct = oracles.dct2_ortho(oracles.N_MFCC, oracles.N_MELS)
    mel, mfcc = oracles.mel_and_mfcc(np.zeros(3000), bank, dct)
    assert mel.tolist() == [0.0] * 128
    assert mfcc[0] == pytest.approx(math.sqrt(128.0) * math.log(1e-10))
    assert np.abs(mfcc[1:]).max() < 1e-9


def test_pitch_class():
    assert oracles.pitch_class(69) == 9  # A4
    assert oracles.pitch_class(60) == 0  # C4
    assert oracles.pitch_class(83) == 11  # B5


def test_confusion_counts_at_threshold():
    labels = [1, 0, 1, 0, 1]
    scores = [0.9, 0.6, 0.4, 0.1, 0.5]
    # 0.5 itself counts as positive
    assert oracles.confusion(labels, scores, 0.5) == (2, 1, 1, 1)


def test_pairwise_auc_counts_ties_half():
    # pairs: (.8,.5) (.8,.2) (.5,.2) right, (.5,.5) tied: 3.5 / 4
    assert oracles.pairwise_auc([1, 1, 0, 0], [0.8, 0.5, 0.5, 0.2]) == 0.875
    assert oracles.pairwise_auc([1, 1, 0, 0], [0.8, 0.5, 0.5, 0.2], block=1) == 0.875


def test_eight_criteria():
    got = oracles.eight_criteria([1, 0, 1, 0], [0.9, 0.6, 0.4, 0.1])
    # tp = fp = tn = fn = 1; positives .9 and .4 beat .1, .9 beats .6
    assert got == {
        "acc": 0.5,
        "auc": 0.75,
        "precision": 0.5,
        "recall": 0.5,
        "specificity": 0.5,
        "f1": 0.5,
        "fpr": 0.5,
        "fnr": 0.5,
    }


def test_entropy_weights():
    # column a = [0, 1, 1]: p = [0, .5, .5], E = ln 2 / ln 3
    # column b = [0, 0, 1]: p = [0, 0, 1], E = 0
    # column c is constant: weight 0
    d_a = 1.0 - math.log(2.0) / math.log(3.0)
    got = oracles.entropy_weights([[0, 0, 7], [1, 0, 7], [1, 1, 7]])
    assert got == pytest.approx([d_a / (d_a + 1.0), 1.0 / (d_a + 1.0), 0.0])


def test_topsis_closeness():
    # equal weights on two identical benefit columns: the middle row is
    # as far from the best as from the worst
    assert oracles.topsis_closeness([[1, 1], [2, 2], [3, 3]], [0.5, 0.5], [False, False]) == pytest.approx([0.0, 0.5, 1.0])
    # a cost column reverses the order
    assert oracles.topsis_closeness([[3], [4]], [1.0], [True]) == pytest.approx([1.0, 0.0])
    assert oracles.topsis_closeness([[1, 0], [0, 1]], [0.5, 0.5], [False, True]) == [1.0, 0.0]


def test_ensemble_soft_and_hard_winners_can_differ():
    models = ["a", "b", "c"]
    columns = [[0.52, 0.50, 0.40], [0.52, 0.50, 0.40], [0.10, 0.90, 0.95]]
    soft, hard, winners = oracles.ensemble(models, columns)
    # soft: a .38, b .633, c .583 -> b
    # hard: a 3+3+1 = 7, b 2+2+2 = 6, c 1+1+3 = 5 -> a
    assert soft == pytest.approx([0.38, 1.9 / 3, 1.75 / 3])
    assert hard == [7, 6, 5]
    assert winners == ("b", "a")


def test_ensemble_rounded_ties_share_points():
    # .496 and .504 both round to .50 and share 2 points in strategies 1
    # and 2, so a wins the hard vote 6 to 5; unrounded, b would win it 5 to 4
    models = ["a", "b"]
    columns = [[0.496, 0.504], [0.496, 0.504], [0.9, 0.1]]
    assert oracles.ensemble(models, columns)[1:] == ([6, 5], ("a", "a"))
    # identical columns: every tie falls to the smaller name
    assert oracles.ensemble(["y", "x"], [[0.5, 0.5]])[2] == ("x", "x")


def test_close():
    assert oracles.close(1.0 + 5e-9, 1.0)
    assert not oracles.close(1.0 + 5e-8, 1.0)
    assert oracles.close(1e-13, 0.0, atol=1e-12)
