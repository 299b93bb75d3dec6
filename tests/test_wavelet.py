import numpy as np
import pytest

from mvdenoise.wavelet import (
    _analysis_periodic,
    _synthesis_periodic,
    dwt_forward,
    dwt_inverse,
    expected_block_lengths,
    get_filter,
)


@pytest.mark.parametrize("name", ["db8", "haar"])
def test_filter_orthonormality(name):
    f = get_filter(name)
    lo = f.lowpass
    assert abs(lo.sum() - np.sqrt(2.0)) < 1e-10
    assert abs(np.dot(lo, lo) - 1.0) < 1e-10
    for m in range(1, lo.size // 2):
        assert abs(np.dot(lo[: -2 * m], lo[2 * m :])) < 1e-10
    # quadrature mirror: highpass orthogonal to lowpass at even shifts
    hi = f.highpass
    assert abs(np.dot(lo, hi)) < 1e-10
    assert abs(np.dot(hi, hi) - 1.0) < 1e-10


@pytest.mark.parametrize("name", ["db8", "haar"])
def test_filters_are_shared_and_read_only(name):
    f = get_filter(name)
    assert get_filter(name) is f
    for taps in (f.lowpass, f.highpass):
        with pytest.raises(ValueError):
            taps[0] = 0.0


def test_unknown_filter_rejected():
    with pytest.raises(ValueError, match="unknown wavelet"):
        get_filter("db99")


def test_constant_signal_kills_details():
    x = np.full((64, 2), 3.25)
    for name in ("haar", "db8"):
        dec = dwt_forward(x, get_filter(name), 3)
        assert max(np.abs(d).max() for d in dec.details) < 1e-10


def test_dyadic_block_bookkeeping():
    dec = dwt_forward(np.arange(16.0), get_filter("haar"), 2)
    assert [d.shape[0] for d in dec.details] == [8, 4]
    assert dec.approx.shape[0] == 4
    assert expected_block_lengths(16, 2) == [8, 4]


@pytest.mark.parametrize("name", ["db8", "haar"])
@pytest.mark.parametrize("n,m,levels", [(2048, 3, 5), (4096, 8, 5), (100, 2, 3), (37, 1, 3), (513, 4, 4)])
def test_perfect_reconstruction(name, n, m, levels):
    rng = np.random.default_rng([n, m, levels, len(get_filter(name))])
    x = rng.standard_normal((n, m))
    dec = dwt_forward(x, get_filter(name), levels)
    xr = dwt_inverse(dec)
    assert xr.shape == x.shape
    assert np.abs(xr - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("name", ["db8", "haar"])
@pytest.mark.parametrize("n", range(2, 66, 2))
def test_analysis_matches_modular_index_loop(name, n):
    # reference: a[j] = sum_t lo[t] x[(2j + t) mod n], d likewise with hi,
    # for blocks shorter than the filter (which wrap more than once) and longer
    f = get_filter(name)
    x = np.random.default_rng(n).standard_normal((n, 3))
    a_exp, d_exp = np.zeros((n // 2, 3)), np.zeros((n // 2, 3))
    for j in range(n // 2):
        for t in range(len(f)):
            a_exp[j] += f.lowpass[t] * x[(2 * j + t) % n]
            d_exp[j] += f.highpass[t] * x[(2 * j + t) % n]
    a, d = _analysis_periodic(x, f.lowpass, f.highpass)
    tol = 16 * np.finfo(float).eps * np.abs(x).max()
    assert np.allclose(a, a_exp, rtol=0, atol=tol)
    assert np.allclose(d, d_exp, rtol=0, atol=tol)


@pytest.mark.parametrize("name", ["db8", "haar"])
@pytest.mark.parametrize("rows", [1, 3, 7, 8, 9, 64])
@pytest.mark.parametrize("m", [1, 3])
def test_synthesis_matches_scatter_loop(name, rows, m):
    # reference: every tap t adds lo[t] a[i] + hi[t] d[i] at row (2i + t) mod 2h;
    # the strided product sums the same taps in another order
    f = get_filter(name)
    rng = np.random.default_rng(rows)
    a, d = rng.standard_normal((rows, m)), rng.standard_normal((rows, m))
    expected = np.zeros((2 * rows, m))
    for t in range(len(f)):
        expected[(2 * np.arange(rows) + t) % (2 * rows)] += f.lowpass[t] * a + f.highpass[t] * d
    got = _synthesis_periodic(a, d, f.lowpass, f.highpass)
    scale = np.abs(a).max() + np.abs(d).max()
    assert np.allclose(got, expected, rtol=0, atol=len(f) * np.finfo(float).eps * scale)


def sliding_analysis(x, lo, hi):
    # the analysis by sliding_window_view, as it was written before as_strided
    n = x.shape[0]
    extra = lo.size - 2
    xw = np.concatenate([x] * (1 + extra // n) + [x[: extra % n]], axis=0)
    v = np.lib.stride_tricks.sliding_window_view(xw, lo.size, axis=0)[::2]
    return v @ lo, v @ hi


def sliding_synthesis(a, d, lo, hi):
    # the synthesis by np.take(mode="wrap") and sliding_window_view, as it was
    # written before as_strided and the concatenated wrap rows
    h, m = a.shape
    half = lo.size // 2
    ad = np.take(np.concatenate([a, d], axis=1), np.arange(1 - half, h), axis=0, mode="wrap")
    v = np.lib.stride_tricks.sliding_window_view(ad, half, axis=0)
    out = v[:, :m] @ lo.reshape(half, 2)[::-1] + v[:, m:] @ hi.reshape(half, 2)[::-1]
    return out.transpose(0, 2, 1).reshape(2 * h, m)


@pytest.mark.parametrize("name", ["db8", "haar"])
@pytest.mark.parametrize("rows", [1, 3, 6, 7, 8, 1024])
@pytest.mark.parametrize("m", [1, 3])
def test_strided_windows_keep_the_sliding_window_bits(name, rows, m):
    # the same windows, so the same products: blocks shorter than the filter
    # (which wrap more than once), at db8's half - 1 = 7 rows, and longer
    f = get_filter(name)
    rng = np.random.default_rng([rows, m])
    x = rng.standard_normal((2 * rows, m))
    for got, want in zip(_analysis_periodic(x, f.lowpass, f.highpass), sliding_analysis(x, f.lowpass, f.highpass)):
        assert np.array_equal(got, want)
    # a strided view and a Fortran-ordered block are copied like any other
    for a, d in (rng.standard_normal((2, rows, m)), (x[::2], np.asfortranarray(x[1::2]))):
        assert np.array_equal(_synthesis_periodic(a, d, f.lowpass, f.highpass), sliding_synthesis(a, d, f.lowpass, f.highpass))


@pytest.mark.parametrize("name", ["db8", "haar"])
def test_parseval_periodic(name):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1024, 4))
    dec = dwt_forward(x, get_filter(name), 5)
    coeff_energy = sum(float((d**2).sum()) for d in dec.details) + float((dec.approx**2).sum())
    assert abs(coeff_energy - (x**2).sum()) <= 1e-8 * (x**2).sum()


def test_zero_decomposition_inverts_to_zero():
    dec = dwt_forward(np.zeros((128, 2)), get_filter("db8"), 3)
    assert np.all(dwt_inverse(dec) == 0.0)


def test_single_coefficient_atom_has_unit_energy():
    dec = dwt_forward(np.zeros((256, 1)), get_filter("db8"), 4)
    dec.details[2][5, 0] = 1.0
    atom = dwt_inverse(dec)
    assert abs((atom**2).sum() - 1.0) < 1e-10


def test_white_noise_coefficients_keep_covariance():
    # large-sample check: orthogonal per-channel transform preserves the
    # cross-channel covariance of iid Gaussian noise at every scale
    rng = np.random.default_rng(11)
    sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
    n = 1 << 17  # > 1e5 samples
    x = rng.standard_normal((n, 2)) @ np.linalg.cholesky(sigma).T
    dec = dwt_forward(x, get_filter("db8"), 3)
    limit = 0.05 * np.linalg.norm(sigma)
    for d in dec.details:
        est = d.T @ d / d.shape[0]
        assert np.linalg.norm(est - sigma) < limit


def test_short_signal_rejected():
    with pytest.raises(ValueError, match="too short"):
        dwt_forward(np.ones((16, 1)), get_filter("haar"), 5)


def test_nonfinite_rejected():
    x = np.ones((64, 1))
    x[10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dwt_forward(x, get_filter("haar"), 2)


def test_bad_levels_rejected():
    with pytest.raises(ValueError, match="levels"):
        dwt_forward(np.ones((64, 1)), get_filter("haar"), 0)


def test_inverse_detects_tampered_shapes():
    dec = dwt_forward(np.random.default_rng(0).standard_normal((64, 2)), get_filter("haar"), 2)
    bad = dec.copy_with_details([dec.details[0][:-1], dec.details[1]])
    with pytest.raises(ValueError, match="does not match metadata"):
        dwt_inverse(bad)


def test_padding_recorded_and_trimmed():
    x = np.random.default_rng(1).standard_normal((1000, 2))
    dec = dwt_forward(x, get_filter("db8"), 4)
    assert dec.pad == 8  # next multiple of 2**4 above 1000 is 1008
    assert dec.details[0].shape[0] == 504
    assert dwt_inverse(dec).shape == (1000, 2)
