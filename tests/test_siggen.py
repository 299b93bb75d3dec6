import numpy as np
import pytest

from mvdenoise import siggen
from mvdenoise.siggen import (
    NoiseSpec,
    add_noise,
    average_snr_db,
    blocks,
    make_signal,
    snr_db,
)


def test_heavydoppler_third_channel_is_exact_sum():
    s = make_signal("heavydoppler3", 2048)
    assert s.n_channels == 3
    assert np.array_equal(s.channels[:, 2], s.channels[:, 0] + s.channels[:, 1])


def test_heavydoppler_first_two_channels_unit_power():
    s = make_signal("heavydoppler3", 2048)
    for ch in (0, 1):
        assert abs(np.mean(s.channels[:, ch] ** 2) - 1.0) < 1e-12


def test_bumpsblocks_linear_identity():
    s = make_signal("bumpsblocks4", 2048)
    assert s.n_channels == 4
    resid = s.channels[:, 2] + s.channels[:, 3] - 2.0 * s.channels[:, 0]
    assert np.abs(resid).max() < 1e-12


@pytest.mark.parametrize("n", [2048, 1000, 4096])
def test_blocks_has_eleven_breakpoints(n):
    y = blocks(n)
    assert np.count_nonzero(np.diff(y) != 0) == 11


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown signal"):
        make_signal("nosuch", 1024)


def test_minimum_length_enforced():
    with pytest.raises(ValueError, match=">= 256"):
        make_signal("heavydoppler3", 128)


def test_balanced_noise_hits_target_exactly():
    s = make_signal("heavydoppler3", 2048)
    noisy, psi = add_noise(s, NoiseSpec(3, correlation=0.5, target_snr_db=0.0), rng=np.random.default_rng(1))
    realized = 10.0 * np.log10(np.mean(s.channels**2, axis=0) / np.mean(psi**2, axis=0))
    assert np.abs(realized).max() < 0.01
    assert np.array_equal(noisy, s.channels + psi)


def test_unbalanced_noise_per_channel_targets():
    s = make_signal("heavydoppler3", 2048)
    targets = [-3.0, -5.0, -7.0]
    _, psi = add_noise(s, NoiseSpec(3, correlation=0.0, target_snr_db=targets), rng=np.random.default_rng(2))
    realized = 10.0 * np.log10(np.mean(s.channels**2, axis=0) / np.mean(psi**2, axis=0))
    assert np.abs(realized - targets).max() < 0.01
    assert abs(realized.mean() + 5.0) < 0.01


def test_uncorrelated_noise_has_small_sample_correlation():
    n = 4096
    s = siggen.TestSignal("ones", np.ones((n, 3)))
    _, psi = add_noise(s, NoiseSpec(3, correlation=0.0, target_snr_db=0.0), rng=np.random.default_rng(3))
    corr = np.corrcoef(psi.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 3.0 / np.sqrt(n)


def test_noise_covariance_converges_to_spec():
    n = 100_000
    s = siggen.TestSignal("ones", np.ones((n, 2)))
    rho = 0.5
    _, psi = add_noise(s, NoiseSpec(2, correlation=rho, target_snr_db=0.0), rng=np.random.default_rng(4))
    target = np.array([[1.0, rho], [rho, 1.0]])  # unit-power channels at 0 dB
    est = psi.T @ psi / n
    assert np.linalg.norm(est - target) < 0.05 * np.linalg.norm(target)


def test_noise_generation_deterministic():
    s = make_signal("bumpsblocks4", 512)
    spec = NoiseSpec(4, correlation=0.25, target_snr_db=5.0)
    a, _ = add_noise(s, spec, rng=9)
    b, _ = add_noise(s, spec, rng=9)
    assert np.array_equal(a, b)


def test_equicorrelation_bounds():
    with pytest.raises(ValueError, match="positive definite"):
        NoiseSpec(3, correlation=1.0).correlation_matrix()
    with pytest.raises(ValueError, match="positive definite"):
        NoiseSpec(3, correlation=-0.6).correlation_matrix()  # below -1/(M-1)


def test_full_correlation_matrix_validated():
    bad = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        NoiseSpec(2, correlation=bad).correlation_matrix()


def test_snr_db_trivial_values():
    x = np.ones(1000)
    assert snr_db(x, x) == 200.0  # exact recovery capped
    noise = np.concatenate([np.ones(500), -np.ones(500)])
    assert abs(snr_db(x, x + noise)) < 1e-12  # error energy equals signal energy
    assert abs(snr_db(x, 0.9 * x) - 20.0) < 1e-12


def test_snr_db_is_finite_at_extreme_scales():
    # squaring 1e200 overflows; the per-channel power-of-two scaling does not
    rng = np.random.default_rng(8)
    clean = rng.standard_normal((256, 3))
    est = clean + 0.1 * rng.standard_normal((256, 3))
    small = snr_db(clean, est)
    clean[:, 1] *= 1e200
    est[:, 1] *= 1e200
    big = snr_db(clean, est)
    assert np.isfinite(big).all()
    assert big[0] == small[0] and big[2] == small[2]
    assert abs(big[1] - small[1]) < 1e-9
    # a ratio of 1e-400 is below the float range, but its SNR is not
    assert abs(snr_db(np.full(8, 1e-100), np.full(8, 1e100)) + 4000.0) < 1e-9


def test_snr_db_zero_energy_rejected():
    with pytest.raises(ValueError, match="zero energy"):
        snr_db(np.zeros(10), np.ones(10))


def test_average_snr_is_channel_mean():
    rng = np.random.default_rng(5)
    clean = rng.standard_normal((256, 3))
    est = clean + 0.1 * rng.standard_normal((256, 3))
    per = snr_db(clean, est)
    assert abs(average_snr_db(clean, est) - per.mean()) < 1e-12
    # lists of one channel, as snr_db takes them
    assert average_snr_db([1.0, 2.0], [1.0, 2.5]) == snr_db([1.0, 2.0], [1.0, 2.5])
