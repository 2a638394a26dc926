import math
import struct

import numpy as np
import pytest
import scipy.io.wavfile

from coughrank.audio import (
    AudioClip,
    DEFAULT_SAMPLE_RATE,
    FEATURE_COLUMNS,
    N_FEATURES,
    StftConfig,
    band_contrast,
    chroma_to_tonnetz,
    chromagram,
    extract_features,
    load_and_resample,
    mel_filterbank,
    mel_scale,
    mel_spectrogram_features,
    mel_to_hz,
    mfcc,
    spectral_contrast,
    stft_power,
    tonal_centroid,
    tonnetz_transform,
)

from conftest import noise_clip, sine_clip


def zero_clip(n=22050, rate=DEFAULT_SAMPLE_RATE):
    return AudioClip(np.zeros(n), rate)


class TestLoadAndResample:
    def write_wav(self, path, rate, data):
        scipy.io.wavfile.write(path, rate, data)
        return path

    def test_identity_resample_16bit(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = (rng.uniform(-0.5, 0.5, 4000) * 32767).astype(np.int16)
        path = self.write_wav(tmp_path / "a.wav", 22050, raw)
        clip = load_and_resample(path, target_rate=22050)
        assert clip.sample_rate == 22050
        np.testing.assert_allclose(clip.samples, raw / 32768.0, atol=1e-9)

    def test_opposite_stereo_channels_cancel(self, tmp_path):
        rng = np.random.default_rng(1)
        x = (rng.uniform(-0.5, 0.5, 2000) * 32767).astype(np.int16)
        stereo = np.stack([x, -x], axis=1)
        path = self.write_wav(tmp_path / "s.wav", 22050, stereo)
        clip = load_and_resample(path, target_rate=22050)
        assert np.max(np.abs(clip.samples)) <= 1.0 / 32768.0

    def test_downsample_against_direct_synthesis(self, tmp_path):
        # 1 s of 440 Hz at 44100, resampled to 22050, compared with a
        # clip synthesized at 22050 directly
        t = np.arange(44100) / 44100.0
        x = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
        path = self.write_wav(tmp_path / "d.wav", 44100, x)
        clip = load_and_resample(path, target_rate=22050)
        assert clip.samples.size == 22050
        direct = 0.5 * np.sin(2 * np.pi * 440 * np.arange(22050) / 22050.0)
        core = slice(200, -200)
        assert np.max(np.abs(clip.samples[core] - direct[core])) < 1e-3
        spectrum = np.abs(np.fft.rfft(clip.samples))
        peak_hz = np.argmax(spectrum) * 22050 / clip.samples.size
        assert abs(peak_hz - 440.0) <= 2.0

    def test_float32_wav(self, tmp_path):
        x = np.linspace(-0.9, 0.9, 1000).astype(np.float32)
        path = self.write_wav(tmp_path / "f.wav", 22050, x)
        clip = load_and_resample(path, target_rate=22050)
        np.testing.assert_allclose(clip.samples, x, atol=1e-7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_and_resample(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(ValueError):
            load_and_resample(path)


def write_pcm24(path, rate, data):
    """24-bit PCM WAV of int samples in [-2**23, 2**23), shape (n,) or (n, 2)."""
    data = np.asarray(data, dtype=np.int32)
    channels = 1 if data.ndim == 1 else data.shape[1]
    frames = data.reshape(-1).astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3]
    payload = frames.tobytes()
    block = 3 * channels
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _encoded(encoding, x):
    """x in [-1, 1) as stored samples of the encoding."""
    if encoding == "uint8":
        return np.round(x * 127 + 128).astype(np.uint8)
    if encoding == "int16":
        return np.round(x * 32767).astype(np.int16)
    if encoding == "int24":
        return np.round(x * (2**23 - 1)).astype(np.int32)
    return x.astype(np.float32)


class TestStereoDecoding:
    """Stereo clips are scaled by their encoding, like mono ones."""

    @pytest.mark.parametrize("rate", [22050, 16000])
    @pytest.mark.parametrize("encoding", ["uint8", "int16", "int24", "float32"])
    def test_identical_channels_decode_to_mono_clip(self, tmp_path, encoding, rate):
        x = np.random.default_rng(20).uniform(-0.9, 0.9, 3000)
        mono = _encoded(encoding, x)
        stereo = np.stack([mono, mono], axis=1)
        write = write_pcm24 if encoding == "int24" else scipy.io.wavfile.write
        write(tmp_path / "mono.wav", rate, mono)
        write(tmp_path / "stereo.wav", rate, stereo)
        want = load_and_resample(tmp_path / "mono.wav", target_rate=22050)
        got = load_and_resample(tmp_path / "stereo.wav", target_rate=22050)
        np.testing.assert_array_equal(got.samples, want.samples)
        assert np.max(np.abs(got.samples)) <= 1.0
        if rate == 22050:
            np.testing.assert_allclose(got.samples, x, atol=2e-2)


class TestStftPower:
    def test_zero_clip_zero_spectrogram(self):
        spec = stft_power(zero_clip())
        assert np.all(spec == 0)

    def test_frame_count(self):
        cfg = StftConfig()
        n = 22050
        spec = stft_power(zero_clip(n), cfg)
        assert spec.shape == (1 + math.ceil(n / cfg.hop), cfg.n_fft // 2 + 1)

    def test_impulse_frame_matches_direct_dft(self):
        cfg = StftConfig()
        # impulse placed exactly at the center of frame 4
        n = 8 * cfg.hop
        x = np.zeros(n)
        center = 4 * cfg.hop
        x[center] = 1.0
        spec = stft_power(AudioClip(x, DEFAULT_SAMPLE_RATE), cfg)
        # oracle: direct DFT of the windowed frame
        frame = np.zeros(cfg.n_fft)
        frame[cfg.n_fft // 2] = 1.0
        frame *= cfg.window
        k = np.arange(cfg.n_fft // 2 + 1)
        nn = np.arange(cfg.n_fft)
        dft = np.exp(-2j * np.pi * np.outer(k, nn) / cfg.n_fft) @ frame
        np.testing.assert_allclose(spec[4], np.abs(dft) ** 2, atol=1e-10)

    def test_bin_exact_sine_peaks_at_its_bin(self):
        cfg = StftConfig()
        k0 = 100
        freq = k0 * DEFAULT_SAMPLE_RATE / cfg.n_fft
        spec = stft_power(sine_clip(freq, duration=0.5), cfg)
        interior = spec[2:-2]
        assert np.all(np.argmax(interior, axis=1) == k0)

    def test_short_clip_still_yields_frames(self):
        spec = stft_power(AudioClip(np.array([0.3]), DEFAULT_SAMPLE_RATE))
        assert spec.shape[0] >= 1


class TestMelScale:
    def test_zero(self):
        assert mel_scale(0.0) == 0.0

    def test_700_hz(self):
        assert mel_scale(700.0) == pytest.approx(2595 * math.log10(2), abs=1e-9)

    def test_1000_hz_near_1000_mel(self):
        assert mel_scale(1000.0) == pytest.approx(1000.0, abs=0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mel_scale(-1.0)

    def test_inverse_roundtrip(self):
        f = np.linspace(0, 11025, 50)
        np.testing.assert_allclose(mel_to_hz(mel_scale(f)), f, atol=1e-6)


class TestMelFilterbank:
    def test_single_filter_spans_band(self):
        fb = mel_filterbank(1, 2048, 22050, f_min=100.0, f_max=8000.0)
        assert fb.shape == (1, 1025)
        bin_freqs = np.arange(1025) * 22050 / 2048
        support = bin_freqs[fb[0] > 0]
        assert support.min() > 100.0 and support.max() < 8000.0
        center_hz = mel_to_hz((mel_scale(100.0) + mel_scale(8000.0)) / 2)
        peak_hz = bin_freqs[np.argmax(fb[0])]
        assert abs(peak_hz - center_hz) < 22050 / 2048

    def test_no_spectral_gaps(self):
        fb = mel_filterbank(128, 2048, 22050, f_min=0.0, f_max=11025.0)
        bin_freqs = np.arange(1025) * 22050 / 2048
        mel_pts = mel_to_hz(np.linspace(0, mel_scale(11025.0), 130))
        first_center, last_center = mel_pts[1], mel_pts[-2]
        interior = (bin_freqs > first_center) & (bin_freqs < last_center)
        assert np.all(fb.sum(axis=0)[interior] > 0)

    def test_centers_equally_spaced_in_mel(self):
        fb = mel_filterbank(40, 2048, 22050, f_min=50.0, f_max=10000.0)
        bin_freqs = np.arange(1025) * 22050 / 2048
        # recover each filter's peak frequency, map back to mel
        centers = mel_scale(bin_freqs[np.argmax(fb, axis=1)])
        expected = np.linspace(mel_scale(50.0), mel_scale(10000.0), 42)[1:-1]
        # peaks land on the nearest FFT bin, so compare against the
        # analytic center grid at bin resolution
        bin_mel_step = np.max(np.diff(mel_scale(bin_freqs[1:])))
        assert np.max(np.abs(centers - expected)) <= bin_mel_step
        exact = np.linspace(mel_scale(50.0), mel_scale(10000.0), 42)
        np.testing.assert_allclose(np.diff(exact), np.diff(exact)[0], atol=1e-9)

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            mel_filterbank(10, 2048, 22050, f_min=5000.0, f_max=1000.0)


class TestMfcc:
    def test_zero_clip_only_dc_coefficient(self):
        coeffs = mfcc(zero_clip())
        assert coeffs.shape == (40,)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-9)

    def test_output_length(self):
        assert mfcc(noise_clip(0)).shape == (40,)

    def test_gain_moves_only_coefficient_zero(self):
        clip = noise_clip(3)
        base = AudioClip(clip.samples * 0.05, clip.sample_rate)
        loud = AudioClip(clip.samples * 0.5, clip.sample_rate)
        a, b = mfcc(base), mfcc(loud)
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-6)
        assert abs(a[0] - b[0]) > 1e-3

    def test_dct_orthonormality(self):
        import scipy.fft

        M = scipy.fft.dct(np.eye(128), type=2, norm="ortho", axis=1)[:, :40].T
        np.testing.assert_allclose(M @ M.T, np.eye(40), atol=1e-10)


class TestMelSpectrogramFeatures:
    def test_zero_clip(self):
        np.testing.assert_array_equal(mel_spectrogram_features(zero_clip()), 0.0)

    def test_power_scaling(self):
        clip = noise_clip(5, amplitude=0.05)
        scaled = AudioClip(clip.samples * 3.0, clip.sample_rate)
        np.testing.assert_allclose(
            mel_spectrogram_features(scaled),
            9.0 * mel_spectrogram_features(clip),
            rtol=1e-9,
        )

    def test_sine_at_filter_center_hits_that_filter(self):
        cfg = StftConfig()
        mel_pts = mel_to_hz(np.linspace(0, mel_scale(11025.0), 130))
        for m in (20, 64, 100):
            clip = sine_clip(mel_pts[m + 1], duration=0.3)
            feats = mel_spectrogram_features(clip, cfg)
            assert abs(int(np.argmax(feats)) - m) <= 1

    def test_nonnegative(self):
        assert np.all(mel_spectrogram_features(noise_clip(7)) >= 0)


class TestChromagram:
    def test_zero_clip(self):
        np.testing.assert_array_equal(chromagram(zero_clip()), 0.0)

    def test_a440_peaks_at_pitch_class_a(self):
        chroma = chromagram(sine_clip(440.0))
        assert int(np.argmax(chroma)) == 9
        assert np.all((chroma >= 0) & (chroma <= 1))

    def test_semitone_transposition_shifts_chroma(self):
        # 4096-point frames: at 2048 the Hann mainlobe of a tone that is
        # not bin-centered leaks across the semitone boundary and the
        # two spectra are not comparable bin-for-bin
        cfg = StftConfig(n_fft=4096, hop=1024)
        base = chromagram(sine_clip(440.0), cfg)
        up = chromagram(sine_clip(440.0 * 2 ** (1 / 12)), cfg)
        np.testing.assert_allclose(up, np.roll(base, 1), atol=0.05)


class TestSpectralContrast:
    def test_constant_band_zero_contrast(self):
        np.testing.assert_allclose(band_contrast(np.full((1, 16), 3.7), 0.1), 0.0)

    def test_hand_case(self):
        # ceil(0.1 * 4) = 1 element on each side
        sc = band_contrast(np.array([[8.0, 4.0, 2.0, 1.0]]), 0.1)
        assert sc[0] == pytest.approx(math.log(8.0) - math.log(1.0), abs=1e-12)

    def test_nonnegative_on_random_clips(self):
        for seed in range(10):
            assert np.all(spectral_contrast(noise_clip(seed, duration=0.2)) >= 0)

    def test_output_length(self):
        assert spectral_contrast(noise_clip(1)).shape == (7,)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            spectral_contrast(noise_clip(1), alpha=0.5)

    def test_zero_clip_zero_contrast(self):
        np.testing.assert_allclose(spectral_contrast(zero_clip()), 0.0)


class TestTonalCentroid:
    def test_zero_chroma_maps_to_zero(self):
        np.testing.assert_array_equal(chroma_to_tonnetz(np.zeros((1, 12))), 0.0)
        np.testing.assert_array_equal(tonal_centroid(zero_clip()), 0.0)

    def test_one_hot_chroma_gives_transform_column(self):
        phi = tonnetz_transform()
        for l in range(12):
            chroma = np.zeros((1, 12))
            chroma[0, l] = 1.0
            np.testing.assert_allclose(chroma_to_tonnetz(chroma)[0], phi[:, l])

    def test_circle_pair_norms_bounded(self):
        rng = np.random.default_rng(11)
        chroma = rng.uniform(0, 1, (200, 12))
        z = chroma_to_tonnetz(chroma)
        eps = 1e-12
        assert np.all(np.hypot(z[:, 0], z[:, 1]) <= 1 + eps)
        assert np.all(np.hypot(z[:, 2], z[:, 3]) <= 1 + eps)
        assert np.all(np.hypot(z[:, 4], z[:, 5]) <= 0.5 + eps)


class TestExtractFeatures:
    def test_total_dimension(self):
        vec = extract_features(noise_clip(2, duration=0.2)).concat()
        assert vec.shape == (193,)
        assert N_FEATURES == 193
        assert len(FEATURE_COLUMNS) == 193

    def test_deterministic(self):
        clip = noise_clip(4, duration=0.2)
        a = extract_features(clip).concat()
        b = extract_features(AudioClip(clip.samples.copy(), clip.sample_rate)).concat()
        np.testing.assert_array_equal(a, b)

    def test_zero_clip_blocks(self):
        fv = extract_features(zero_clip())
        np.testing.assert_array_equal(fv.mel, 0.0)
        np.testing.assert_array_equal(fv.chroma, 0.0)
        np.testing.assert_allclose(fv.contrast, 0.0)

    def test_gain_invariance_of_shape_features(self):
        clip = noise_clip(6, duration=0.2, amplitude=0.05)
        loud = AudioClip(clip.samples * 10.0, clip.sample_rate)
        a, b = extract_features(clip), extract_features(loud)
        np.testing.assert_allclose(a.mfcc[1:], b.mfcc[1:], atol=1e-6)
        np.testing.assert_allclose(a.chroma, b.chroma, atol=1e-6)
        np.testing.assert_allclose(a.contrast, b.contrast, atol=1e-6)
        np.testing.assert_allclose(a.tonnetz, b.tonnetz, atol=1e-6)
        np.testing.assert_allclose(b.mel, 100.0 * a.mel, rtol=1e-9)


class TestClipValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([]), 22050)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 22050)

    def test_bad_stft_config(self):
        with pytest.raises(ValueError):
            StftConfig(n_fft=1024, hop=2048)
