import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mvdenoise import cli, denoiser
from mvdenoise.cli import MANIFEST_NAME, ParseFailure, build_parser, main, read_csv, write_csv
from mvdenoise.denoiser import _scale_taus
from mvdenoise.robustcov import mcd_estimate
from mvdenoise.siggen import snr_db

pytestmark = pytest.mark.filterwarnings("ignore:calibration_reps")

FAST = ["--calib-reps", "150"]


def run_cli(argv):
    return main(argv)


# ---------------------------------------------------------------- generate


def test_generate_shapes_and_manifest(tmp_path):
    out = tmp_path / "gen"
    rc = run_cli(["generate", "heavydoppler3", "--n", "2048", "--snr", "0", "--rho", "0.75", "--seed", "1", "--out", str(out)])
    assert rc == 0
    for name in ("clean.csv", "noisy.csv", "noise.csv"):
        data = read_csv(out / name)
        assert data.shape == (2048, 3)
        assert (out / name).read_text().splitlines()[0] == "# manifest: manifest.json"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 1


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["generate", "bumpsblocks4", "--n", "512", "--snr", "5", "--seed", "7", "--out", str(out)]) == 0
    for name in ("clean.csv", "noisy.csv", "noise.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_rejects_nonpd_correlation(tmp_path):
    rc = run_cli(["generate", "heavydoppler3", "--rho", "1.0", "--out", str(tmp_path)])
    assert rc == 64


def test_generate_unbalanced_snr(tmp_path):
    out = tmp_path / "g"
    rc = run_cli(["generate", "heavydoppler3", "--n", "1024", "--snr=-3,-5,-7", "--seed", "2", "--out", str(out)])
    assert rc == 0
    clean = read_csv(out / "clean.csv")
    noise = read_csv(out / "noise.csv")
    realized = 10 * np.log10((clean**2).mean(0) / (noise**2).mean(0))
    assert np.abs(realized - [-3, -5, -7]).max() < 0.01


def test_generate_infinite_snr_adds_no_noise(tmp_path):
    out = tmp_path / "g"
    assert run_cli(["generate", "heavydoppler3", "--n", "256", "--snr", "inf", "--out", str(out)]) == 0
    assert np.array_equal(read_csv(out / "noise.csv"), np.zeros((256, 3)))
    assert np.array_equal(read_csv(out / "noisy.csv"), read_csv(out / "clean.csv"))


# ----------------------------------------------------------------- denoise


def test_denoise_roundtrip_with_clean_reference(tmp_path):
    gen = tmp_path / "gen"
    den = tmp_path / "den"
    assert run_cli(["generate", "heavydoppler3", "--n", "2048", "--snr", "0", "--seed", "3", "--out", str(gen)]) == 0
    rc = run_cli(["denoise", str(gen / "noisy.csv"), "--clean", str(gen / "clean.csv"), "--out", str(den), *FAST])
    assert rc == 0
    est = read_csv(den / "denoised.csv")
    assert est.shape == (2048, 3)
    report = json.loads((den / "report.json").read_text())
    assert len(report["thresholds"]) == 5
    assert len(report["keep_masks"]) == 5
    sd = np.asarray(report["null_retention_sd"], dtype=float)
    assert sd.shape == (5,)
    assert np.isfinite(sd).all() and (sd >= 0).all()
    # report SNR equals the offline recomputation
    clean = read_csv(gen / "clean.csv")
    offline = snr_db(clean, est)
    assert np.abs(np.asarray(report["snr_per_channel_db"]) - offline).max() < 1e-9
    assert abs(report["snr_average_db"] - offline.mean()) < 1e-9


def test_denoise_parse_failure_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    rc = run_cli(["denoise", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


def test_denoise_too_short_signal(tmp_path):
    small = tmp_path / "small.csv"
    small.write_text("\n".join(f"{v},{v}" for v in np.arange(20.0)) + "\n")
    rc = run_cli(["denoise", str(small), "--out", str(tmp_path), *FAST])
    assert rc == 3


def spoiled_reference(rows, column, value):
    clean = np.ones((256, 3))
    clean[rows, column] = value
    return clean


@pytest.mark.parametrize(
    "reference, message",
    [
        (np.ones((512, 3)), "clean and estimate must have equal shapes"),
        (np.ones((256, 4)), "clean and estimate must have equal shapes"),
        (spoiled_reference(17, 1, np.nan), "clean reference holds non-finite values"),
        (spoiled_reference(slice(None), 2, 0.0), "clean signal has zero energy"),
    ],
    ids=["rows", "channels", "nan", "zero-energy"],
)
def test_denoise_clean_shape_mismatch_fails_before_calibration(tmp_path, monkeypatch, capsys, reference, message):
    # a reference the SNR cannot be scored against fails before any output or calibration
    forbid_calibration(monkeypatch)
    x, clean = tmp_path / "x.csv", tmp_path / "clean.csv"
    np.savetxt(x, np.random.default_rng(20).standard_normal((256, 3)), delimiter=",")
    np.savetxt(clean, reference, delimiter=",")
    out = tmp_path / "den"
    # a replication count no other test uses, so the memo holds no entry for it
    rc = run_cli(["denoise", str(x), "--clean", str(clean), "--out", str(out), "--calib-reps", "103"])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_denoise_report_is_strict_json_for_a_huge_reference(tmp_path):
    # squaring a 1e200 channel overflowed into a NaN SNR, written as a bare NaN token
    x, clean = tmp_path / "x.csv", tmp_path / "clean.csv"
    np.savetxt(x, np.random.default_rng(20).standard_normal((256, 3)), delimiter=",")
    np.savetxt(clean, np.ones((256, 3)) * [1.0, 1e200, 1.0], delimiter=",")
    assert run_cli(["denoise", str(x), "--clean", str(clean), "--out", str(tmp_path / "den"), *FAST]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((tmp_path / "den" / "report.json").read_text(), parse_constant=reject)
    assert np.isfinite(report["snr_per_channel_db"]).all()


def test_denoise_scores_a_tiny_nonzero_reference_channel(tmp_path):
    # 1e-170 squares to zero, but the channel is not all zero: the SNR scores it
    x, clean = tmp_path / "x.csv", tmp_path / "clean.csv"
    np.savetxt(x, np.random.default_rng(20).standard_normal((256, 3)), delimiter=",")
    np.savetxt(clean, np.ones((256, 3)) * [1.0, 1e-170, 1.0], delimiter=",")
    assert run_cli(["denoise", str(x), "--clean", str(clean), "--out", str(tmp_path / "den"), *FAST]) == 0
    snr = json.loads((tmp_path / "den" / "report.json").read_text())["snr_per_channel_db"]
    assert np.isfinite(snr).all() and snr[1] < -3000


def test_rank_deficient_block_takes_the_ridged_scatter(tmp_path, capsys):
    # x2 = 2 x1: the input and every block of its transform have rank one.
    # denoise and gof take the same fallback; rows on a line fail the M=2 null
    p = tmp_path / "dependent.csv"
    np.savetxt(p, np.random.default_rng(30).standard_normal((256, 1)) * [1.0, 2.0], delimiter=",")
    assert run_cli(["denoise", str(p), "--out", str(tmp_path / "den"), *FAST]) == 0
    report = json.loads((tmp_path / "den" / "report.json").read_text())
    assert "coefficient block is rank deficient; using ridged scatter" in report["warnings"]
    capsys.readouterr()
    assert run_cli(["gof", str(p), "--json", *FAST]) == 0
    out, err = capsys.readouterr()
    res = json.loads(out.strip().splitlines()[-1])
    assert res["decision"] == "H1_signal"
    assert "coefficient block is rank deficient; using ridged scatter" in res["warnings"]
    assert err == ""


def test_gof_text_output_prints_its_warnings(tmp_path, capsys):
    # the fit's fallback and calibration's resolution warning, one line each,
    # on stdout with the decision and never through Python's warning printer
    p = tmp_path / "dependent.csv"
    np.savetxt(p, np.random.default_rng(30).standard_normal((256, 1)) * [1.0, 2.0], delimiter=",")
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # what a plain CLI process does
        assert run_cli(["gof", str(p), *FAST]) == 0
    out, err = capsys.readouterr()
    assert "warning: coefficient block is rank deficient; using ridged scatter" in out.splitlines()
    assert "warning: calibration_reps=150 is below 10/p_fa=2000; threshold quantile resolution is coarse" in out.splitlines()
    assert err == ""


@pytest.mark.parametrize("command", ["denoise", "gof"])
def test_overflowing_covariance_is_geometry_error(tmp_path, capsys, command):
    # at 1e200 the squares leave the float64 range: the covariance itself is
    # not representable, so the fit refuses it instead of failing inside LAPACK
    p = tmp_path / "huge.csv"
    np.savetxt(p, np.random.default_rng(31).standard_normal((256, 3)) * 1e200, delimiter=",")
    extra = ["--out", str(tmp_path / "den")] if command == "denoise" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not escape
        assert run_cli([command, str(p), *extra, *FAST]) == 3
    assert "coefficient covariance overflows float64" in capsys.readouterr().err


OVERFLOW_MESSAGE = (
    "invalid signal geometry: whitened coefficients overflow float64: "
    "the covariance estimate is too close to singular for this input"
)


@pytest.mark.parametrize("command", ["denoise", "gof"])
def test_statistic_that_overflows_to_nan_is_geometry_error(tmp_path, capsys, command):
    # finite rows, most of them tiny and on one line (x2 = 2 x1), the rest
    # huge: the minimal-determinant subset is the tiny rows, its whitening
    # factor is about 1e158, and a huge row whitens to +inf and -inf, whose
    # sum is NaN.  The scorer names the overflow, so neither command reports
    # a NaN tau, nor calls it noise
    rng = np.random.default_rng(8)
    tiny = 1e-153 * rng.standard_normal(1280)[:, None] * [1.0, 2.0]
    if command == "gof":
        x = np.vstack([tiny[:320], 5e152 * rng.standard_normal((192, 2))])
        extra = []
    else:
        # a Haar finest-scale detail sees one pair of samples: pairs with
        # equal means of +-1e160 keep the finest scale near 1e150, and put
        # coarse details near 1e160
        means = np.repeat(np.where(np.arange(384) % 2 == 0, 1e160, -1e160), 2)[:, None]
        halves = np.repeat(1e150 * rng.standard_normal((384, 2)), 2, axis=0) * np.tile([[1.0], [-1.0]], (384, 1))
        x = np.vstack([tiny, means + halves])
        extra = ["--filter", "haar", "--out", str(tmp_path / "den")]
    p = tmp_path / "x.csv"
    np.savetxt(p, x, delimiter=",", fmt="%.17g")
    assert np.isfinite(read_csv(p)).all()
    # numpy's overflow warnings stay inside the whitening: a warning that
    # reached this record would reach a CLI process's stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([command, str(p), *extra, *FAST]) == 3
    assert capsys.readouterr().err.splitlines() == [OVERFLOW_MESSAGE]
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "den" / "denoised.csv").exists()


def test_statistic_that_overflows_to_inf_is_geometry_error(tmp_path, capsys):
    # tiny rows in general position under huge ones: the squared distances
    # of the huge rows overflow to +inf and meet no -inf, so no NaN flags
    # them.  A distance that is not finite is an overflow, or gof would
    # report a tau of 2393 and call the input signal
    rng = np.random.default_rng(9)
    x = np.vstack([1e-153 * rng.standard_normal((320, 2)), 1e100 * rng.standard_normal((192, 2))])
    p = tmp_path / "x.csv"
    np.savetxt(p, x, delimiter=",", fmt="%.17g")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["gof", str(p), "--json", *FAST]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [OVERFLOW_MESSAGE]
    assert [str(w.message) for w in caught] == []


def test_denoise_noise_free_steps_take_the_ridge(tmp_path):
    # an exact MCD fit (all-zero minimal subset) falls back to the ridged estimate
    x = np.zeros((2048, 3))
    for j, p in enumerate([511, 1023, 1535]):
        x[p:, j] = 1.0
    src = tmp_path / "steps.csv"
    np.savetxt(src, x, delimiter=",")
    assert run_cli(["denoise", str(src), "--filter", "haar", "--out", str(tmp_path / "den"), *FAST]) == 0
    report = json.loads((tmp_path / "den" / "report.json").read_text())
    assert "minimal-determinant subset is rank deficient; adding ridge" in report["warnings"]


@pytest.mark.parametrize(
    "header, newline", [("", "\n"), ("ch1,ch2", "\n"), ("ch1,ch2", "\r\n")], ids=["no-header", "header", "header-crlf"]
)
def test_csv_byte_order_mark_keeps_every_row(tmp_path, header, newline):
    p = tmp_path / "bom.csv"
    lines = [header] * bool(header) + ["1.0,2.0", "3.0,4.0", "5.0,6.0"]
    p.write_bytes(("\ufeff" + newline.join(lines) + newline).encode("utf-8"))
    assert np.array_equal(read_csv(p), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_csv_header_autodetect(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("ch1,ch2\n1.0,2.0\n3.0,4.0\n")
    data = read_csv(p)
    assert data.shape == (2, 2)
    assert data[0, 0] == 1.0


@pytest.mark.parametrize("first", ["1.5,2.5,", "1.5;2.5"], ids=["trailing-comma", "semicolon"])
def test_csv_malformed_first_row_is_parse_failure(tmp_path, capsys, first):
    # a first line that does not parse is a header only if it is as wide as the data
    p = tmp_path / "m.csv"
    p.write_text(f"{first}\n3,4\n5,6\n")
    assert run_cli(["gof", str(p), *FAST]) == 2
    assert "row 1 is not numeric" in capsys.readouterr().err


def test_csv_ragged_rows_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(Exception, match="columns"):
        read_csv(p)


# file text -> the fault read_csv names, after the path: the first in line order
CSV_FAULTS = {
    "ragged-before-non-numeric": ("1,2\n3\n4,x\n", "row 2 has 1 columns, expected 2"),
    "non-numeric-before-ragged": ("1,2\n3,x\n4\n", "non-numeric cell at row 2, column 2"),
    "header-wider-than-data": ("a,b,c\n1,2\n3,4\n", "row 1 is not numeric, and as a header it would have 2 cells, not 3"),
    "header-narrower-than-data": ("a\n1,2\n3,4\n", "row 1 is not numeric, and as a header it would have 2 cells, not 1"),
    "non-numeric-before-header-width": ("a,b,c\nx,2\n", "non-numeric cell at row 2, column 1"),
    "ragged-after-header": ("a,b\n1,2\n3\n", "row 3 has 1 columns, expected 2"),
    "second-non-numeric-line": ("a,b\nc,d\n1,2\n", "non-numeric cell at row 2, column 1"),
    "bom-crlf": ("\ufeffa,b\r\n1,2\r\n3,x\r\n", "non-numeric cell at row 3, column 2"),
    "comments-and-blanks-keep-line-numbers": ("# c\n\n1,2\n#\n  \n3\n", "row 6 has 1 columns, expected 2"),
    "header-only": ("a,b\n", "no numeric rows found"),
    "empty": ("", "no numeric rows found"),
}


@pytest.mark.parametrize("case", list(CSV_FAULTS))
def test_csv_first_fault_is_named_in_line_order(tmp_path, capsys, case):
    text, fault = CSV_FAULTS[case]
    p = tmp_path / "x.csv"
    p.write_bytes(text.encode("utf-8"))
    assert run_cli(["gof", str(p), *FAST]) == 2
    assert capsys.readouterr().err == f"parse error: {p}: {fault}\n"


def line_by_line_read_csv(path):
    # the parser read_csv's one-call conversion replaced: each row converted
    # by float() as it is read.  The oracle of its values and of its faults
    rows = []
    header = None
    text = path.read_text(encoding="utf-8-sig")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            if not rows and header is None:
                header = (lineno, len(cells))
                continue
            bad = next(i for i, c in enumerate(cells) if not is_float(c))
            raise ParseFailure(f"{path}: non-numeric cell at row {lineno}, column {bad + 1}") from None
        if len(rows) == 1 and header and header[1] != len(cells):
            raise ParseFailure(f"{path}: row {header[0]} is not numeric, and as a header it would have {len(cells)} cells, not {header[1]}")
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseFailure(f"{path}: row {lineno} has {len(rows[-1])} columns, expected {len(rows[0])}")
    if not rows:
        raise ParseFailure(f"{path}: no numeric rows found")
    return np.asarray(rows, dtype=np.float64)


def is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def parse_outcome(parse, path):
    try:
        data = parse(path)
    except ParseFailure as exc:
        return str(exc)
    return data.shape, data.tobytes()


def test_read_csv_matches_the_line_by_line_parser(tmp_path):
    # random small files of numbers in every form float() reads, the odd
    # cell it rejects, ragged rows, headers, comments, blank lines, a BOM
    # and CRLF: the same values bit for bit, or the same first fault
    numbers = ["1", "-0", "2.5e-3", "1_0", "\u0661\u0662", "infinity", "-inf", "nan", "+.5", "1e400", "1e-400", " 7 ", "\t8", "\u20039\u3000",
               "0.1", "4.9406564584124654e-324", "123456789012345678901234567890"]
    faults = ["x", "", "0x10", "5d", "1.0.0", "1 2"]
    rng = np.random.default_rng(31)
    p = tmp_path / "x.csv"
    for _ in range(400):
        width = int(rng.integers(1, 4))
        lines = ["ch," * (width - 1) + "ch"] if rng.random() < 0.3 else []
        for _ in range(int(rng.integers(0, 6))):
            kind = rng.random()
            if kind < 0.08:
                lines.append("# comment" if kind < 0.04 else " ")
                continue
            count = width if rng.random() < 0.93 else int(rng.integers(1, 5))  # ragged at times
            lines.append(",".join(rng.choice(faults) if rng.random() < 0.02 else rng.choice(numbers) for _ in range(count)))
        newline = "\r\n" if rng.random() < 0.3 else "\n"
        p.write_bytes((("\ufeff" if rng.random() < 0.3 else "") + newline.join(lines) + newline).encode("utf-8"))
        assert parse_outcome(read_csv, p) == parse_outcome(line_by_line_read_csv, p), p.read_text(encoding="utf-8")


# the edges of float64 and values whose shortest repr is not their 17-digit text
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1 / 3, 2.0**53, 2.0**53 + 2, 1e22,
               123456789012345678.0, np.inf, -np.inf]


@pytest.mark.parametrize("shape", [(12,), (12, 1), (4, 3), (1, 12)], ids=lambda s: "x".join(map(str, s)))
def test_write_csv_writes_each_value_as_format_17g_and_reads_back_bit_for_bit(tmp_path, monkeypatch, shape):
    data = np.array(EDGE_VALUES).reshape(shape)
    rows = np.atleast_2d(data)
    expected = f"# manifest: {MANIFEST_NAME}\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    p = tmp_path / "x.csv"
    # in one chunk, and in chunks of a few rows with a short last one
    for chunk_cells in (cli._WRITE_CHUNK_CELLS, 5):
        monkeypatch.setattr(cli, "_WRITE_CHUNK_CELLS", chunk_cells)
        write_csv(p, data)
        assert p.read_bytes() == expected.encode("utf-8")
    back = read_csv(p)
    assert back.shape == rows.shape and back.tobytes() == rows.tobytes()


# --------------------------------------------------------------------- gof


def test_gof_accepts_gaussian_and_rejects_offset(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4096, 3))
    p = tmp_path / "g.csv"
    np.savetxt(p, x, delimiter=",")
    rc = run_cli(["gof", str(p), "--calib-reps", "600", "--json"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["decision"] == "H0_noise"
    assert res["tau"] < res["threshold"]

    p2 = tmp_path / "g2.csv"
    np.savetxt(p2, x + 5.0, delimiter=",")
    rc = run_cli(["gof", str(p2), "--calib-reps", "600", "--json"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["decision"] == "H1_signal"


def test_gof_holds_null_across_seeds(tmp_path, capsys):
    # larger draws from a correlated Gaussian stay under the threshold seed
    # after seed (the fitted covariance makes the statistic conservative)
    chol = np.linalg.cholesky(np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]))
    for seed in range(3):
        x = np.random.default_rng([90, seed]).standard_normal((8192, 3)) @ chol.T
        p = tmp_path / f"null{seed}.csv"
        np.savetxt(p, x, delimiter=",")
        rc = run_cli(["gof", str(p), "--calib-reps", "600", "--json"])
        assert rc == 0
        res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert res["decision"] == "H0_noise"


@pytest.mark.parametrize("n, m, seed", [(64, 2, 0), (200, 3, 1), (301, 2, 1)])
def test_gof_tau_is_the_pipeline_statistic(tmp_path, capsys, n, m, seed):
    # gof scores its rows with the code that scores the null it is compared
    # with: all rows are one window of one block, at the gof window size
    p = tmp_path / "x.csv"
    np.savetxt(p, np.random.default_rng([77, n, m, seed]).standard_normal((n, m)), delimiter=",")
    assert run_cli(["gof", str(p), "--json", *FAST]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rows = read_csv(p)
    sigma = mcd_estimate(rows)
    assert res["tau"] == float(_scale_taus([rows[:, None]], [sigma], n + n % 2)[0][0, 0])


def test_gof_non_finite_data_is_geometry_error(tmp_path, capsys):
    x = np.random.default_rng(4).standard_normal((256, 2))
    x[17, 1] = np.nan
    p = tmp_path / "x.csv"
    np.savetxt(p, x, delimiter=",")
    assert run_cli(["gof", str(p), *FAST]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [1, 5])
def test_gof_too_few_rows_is_geometry_error(tmp_path, capsys, rows):
    # M=2 needs 2(M+1) = 6 rows: the MCD fit, and the threshold's calibration, need them
    p = tmp_path / "x.csv"
    np.savetxt(p, np.random.default_rng(5).standard_normal((rows, 2)), delimiter=",")
    assert run_cli(["gof", str(p), *FAST]) == 3
    assert f"need at least 6 rows for M=2, got {rows}" in capsys.readouterr().err


def test_gof_mostly_zero_rows_take_the_ridge(tmp_path, capsys):
    # 8 of 10 rows zero: the MCD subset is all zeros, an exact fit
    x = np.zeros((10, 2))
    x[3], x[7] = [1.0, 2.0], [-1.5, 0.5]
    p = tmp_path / "x.csv"
    np.savetxt(p, x, delimiter=",")
    assert run_cli(["gof", str(p), "--json", *FAST]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["decision"] == "H1_signal"


def test_gof_pfa_out_of_range_is_usage_error(tmp_path):
    p = tmp_path / "x.csv"
    np.savetxt(p, np.random.default_rng(2).standard_normal((64, 2)), delimiter=",")
    assert run_cli(["gof", str(p), "--pfa", "0.7"]) == 64
    assert run_cli(["gof", str(p), "--pfa", "0"]) == 64


# --------------------------------------------------------------- benchmark


def bench_args(out, seeds=2, methods="mgwd,baseline", n=1024):
    return [
        "benchmark",
        "--signals", "heavydoppler3",
        "--snrs", "0,5",
        "--rhos", "0",
        "--methods", methods,
        "--seeds", str(seeds),
        "--n", str(n),
        "--out", str(out),
        "--seed", "11",
        *FAST,
    ]


# A matrix past one unit of work: 36 cells of 4096 rows score 36 x 174,080
# window values, more than a calibration batch's 6e6, so the cells get a pool
# of their own.  bench_args' default 8 cells of 1024 rows score 348,160.
PAST_ONE_UNIT = {"seeds": 9, "n": 4096}


def test_benchmark_row_cardinality_and_aggregate(tmp_path):
    out = tmp_path / "b"
    assert run_cli(bench_args(out)) == 0
    lines = [l for l in (out / "results.csv").read_text().splitlines() if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header.startswith("signal,method,rho,balanced,channel,input_snr_db,output_snr_db,seed")
    # 1 signal x 2 snrs x 1 rho x 2 methods x 2 seeds x 3 channels
    assert len(rows) == 2 * 2 * 2 * 3
    assert all(r.endswith("ok") for r in rows)

    # one group per (method, rho, SNR level); balanced inputs give every
    # channel the level as its mean input, and the Avg row equals the mean of
    # the channel means
    agg = [l.split(",") for l in (out / "aggregate.csv").read_text().splitlines() if l and not l.startswith("#")][1:]
    by_key = {}
    for row in agg:
        key = (*row[:4], float(row[5]))
        by_key.setdefault(key, {})[row[4]] = float(row[6])
    assert sorted(by_key) == [
        ("heavydoppler3", method, "0", "true", snr) for method in ("baseline", "mgwd") for snr in (0.0, 5.0)
    ]
    for key, chans in by_key.items():
        avg = chans.pop("Avg")
        assert sorted(chans) == ["C1", "C2", "C3"]
        assert abs(avg - np.mean(list(chans.values()))) < 1e-9

    plots = sorted(p.name for p in out.glob("plot_*.csv"))
    assert plots == ["plot_heavydoppler3_baseline_rho0.csv", "plot_heavydoppler3_mgwd_rho0.csv"]


def test_benchmark_aggregate_text_tells_unbalanced_specs_apart(tmp_path):
    out = tmp_path / "b"
    args = [*bench_args(out, seeds=1, methods="baseline"), "--snrs=-3,-5,-7;-7,-5,-3", "--n", "512"]
    assert run_cli(args) == 0
    # both specs have mean input -5 dB; each keeps its own row
    rows = (out / "aggregate.txt").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert [r.split()[4] for r in rows] == ["-7/-5/-3", "-3/-5/-7"]


def test_benchmark_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(bench_args(a)) == 0
    assert run_cli(bench_args(b)) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()


def test_benchmark_parallel_matches_serial(tmp_path, monkeypatch, threshold_store):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    assert run_cli(bench_args(serial, **PAST_ONE_UNIT)) == 0
    threshold_store()  # the parallel run calibrates too
    env = dict(os.environ, MVDENOISE_THREADS="2", PYTHONPATH=os.pathsep.join(sys.path))
    cmd = [sys.executable, "-m", "mvdenoise.cli", *bench_args(parallel, **PAST_ONE_UNIT)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()


def test_benchmark_records_calibration_warnings(tmp_path):
    # 150 replications are below 10/p_fa: the matrix's calibration warns, and
    # the message goes into the manifest and onto stdout, not to stderr
    out = tmp_path / "b"
    env = dict(os.environ, MVDENOISE_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    cmd = [sys.executable, "-m", "mvdenoise.cli", *bench_args(out, seeds=1, methods="mgwd"), "--snrs", "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    message = "calibration_reps=150 is below 10/p_fa=2000; threshold quantile resolution is coarse"
    assert json.loads((out / MANIFEST_NAME).read_text())["warnings"] == [message]
    assert f"warning: {message}" in proc.stdout.splitlines()


def test_benchmark_opens_its_pools_through_the_denoiser(tmp_path, monkeypatch, two_worker_rule, threshold_store):
    # one pool calibrates the key and one runs the cells; every results.csv
    # byte is the one-worker run's
    denoiser._NULL_CACHE.clear()  # calibrate afresh, as a new process would
    assert run_cli(bench_args(tmp_path / "p", **PAST_ONE_UNIT)) == 0
    assert two_worker_rule == [2, 2]
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    denoiser._NULL_CACHE.clear()
    threshold_store()
    assert run_cli(bench_args(tmp_path / "s", **PAST_ONE_UNIT)) == 0
    assert two_worker_rule == [2, 2]  # a count of 1 opens no pool
    assert (tmp_path / "p" / "results.csv").read_bytes() == (tmp_path / "s" / "results.csv").read_bytes()


def test_benchmark_under_one_unit_of_work_runs_its_cells_in_process(tmp_path, two_worker_rule):
    # 8 cells of 1024 rows: the pool would cost more than the cells, so only
    # a cold calibration opens one, and a memo hit opens none at all
    denoiser._NULL_CACHE.clear()
    assert run_cli(bench_args(tmp_path / "cold")) == 0
    assert two_worker_rule == [2]
    assert run_cli(bench_args(tmp_path / "hit")) == 0
    assert two_worker_rule == [2]
    assert (tmp_path / "cold" / "results.csv").read_bytes() == (tmp_path / "hit" / "results.csv").read_bytes()


def test_benchmark_past_one_unit_of_work_gets_a_pool_for_its_cells(tmp_path, monkeypatch, two_worker_rule):
    # with the key in the memo, the one pool opened runs the cells, and its
    # results.csv is the one-worker run's byte for byte
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    assert run_cli(bench_args(tmp_path / "s", **PAST_ONE_UNIT)) == 0
    assert two_worker_rule == []
    monkeypatch.delenv("MVDENOISE_THREADS")
    assert run_cli(bench_args(tmp_path / "p", **PAST_ONE_UNIT)) == 0
    assert two_worker_rule == [2]
    for name in ("results.csv", "aggregate.csv", "aggregate.txt"):
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "s" / name).read_bytes(), name


def no_calibration(*args):
    raise AssertionError("calibration entered")


def forbid_calibration(monkeypatch):
    # pinned to one worker, calibration runs in this process, where the patch is seen
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)


def test_benchmark_baseline_only_never_calibrates(tmp_path, monkeypatch):
    forbid_calibration(monkeypatch)
    # a replication count no other test uses, so the memo holds no entry for it
    args = [*bench_args(tmp_path / "b", seeds=1, methods="baseline"), "--calib-reps", "101"]
    assert run_cli(args) == 0
    rows = (tmp_path / "b" / "results.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 * 3 and all(r.endswith(",ok") for r in rows)
    with pytest.raises(AssertionError, match="calibration entered"):
        run_cli([*bench_args(tmp_path / "m", seeds=1, methods="mgwd"), "--calib-reps", "101"])


def test_rerun_writes_new_files_and_leaves_links_alone(tmp_path):
    # a rerun into the same --out removes each output and creates it again:
    # a hard link to the first run's file keeps its bytes, and a symlinked
    # output is replaced rather than written through
    den, bench = tmp_path / "den", tmp_path / "bench"
    for seed in ("1", "2"):
        assert run_cli(["generate", "heavydoppler3", "--n", "512", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    runs = {
        # denoise draws nothing: the seed picks its input
        den / "denoised.csv": lambda seed: ["denoise", str(tmp_path / seed / "noisy.csv"), "--out", str(den), *FAST],
        # the last --seed given wins
        bench / "results.csv": lambda seed: [*bench_args(bench, seeds=1, methods="baseline"), "--seed", seed],
    }

    def run_manifest(output):
        written = json.loads((output.parent / MANIFEST_NAME).read_text())
        del written["created_utc"]
        return written

    for output, argv in runs.items():
        assert run_cli(argv("1")) == 0
        first = output.read_bytes()
        first_manifest = run_manifest(output)
        linked = tmp_path / f"linked_{output.name}"
        os.link(output, linked)
        target = tmp_path / f"target_{output.parent.name}"
        target.write_text("untouched\n")
        (output.parent / MANIFEST_NAME).unlink()
        (output.parent / MANIFEST_NAME).symlink_to(target)

        assert run_cli(argv("2")) == 0
        assert linked.read_bytes() == first
        assert output.read_bytes() != first
        assert target.read_text() == "untouched\n"
        # the second run's manifest: its input digest (denoise) or seed (benchmark) differs
        assert not (output.parent / MANIFEST_NAME).is_symlink() and run_manifest(output) != first_manifest


def test_benchmark_uncalibratable_geometry_gives_error_rows(tmp_path):
    out = tmp_path / "b"
    args = [*bench_args(out, seeds=1, methods="mgwd"), "--n", "256", "--levels", "8"]
    assert run_cli(args) == 0
    rows = (out / "results.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 * 3
    assert all(",error: signal too short: " in r for r in rows)


def test_benchmark_negative_rho(tmp_path):
    # -0.2 is a valid equicorrelation for three channels
    out = tmp_path / "b"
    assert run_cli([*bench_args(out, seeds=1, methods="baseline"), "--snrs", "0", "--rhos=-0.2"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    assert all(r.startswith("heavydoppler3,baseline,-0.2,") and r.endswith(",ok") for r in rows)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--methods", "mgwd,foo"], "unknown method 'foo'"),
        (["--rhos", "0,1.5"], "not positive definite (rho=1.5"),
        (["--rhos", "abc"], "invalid rho list 'abc'"),
        (["--snrs=-3,-5;0,0,0"], "need one SNR target per channel"),
        (["--seeds", "0"], "--seeds must be >= 1"),
    ],
    ids=["method", "rho", "rho-text", "snr-count", "seeds"],
)
def test_benchmark_bad_matrix_is_usage_error_before_calibration(tmp_path, monkeypatch, capsys, extra, message):
    forbid_calibration(monkeypatch)
    out = tmp_path / "b"
    assert run_cli([*bench_args(out, seeds=1, methods="mgwd"), "--calib-reps", "101", *extra]) == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("generate", ["--snr", "nan"], "SNR target must be a number or +inf, got nan"),
        ("generate", ["--snr=-inf"], "SNR target must be a number or +inf, got -inf"),
        ("generate", ["--snr=0,nan,0"], "SNR target must be a number or +inf, got nan"),
        ("generate", ["--rho", "nan"], "correlation must be finite, got nan"),
        ("benchmark", ["--snrs", "nan"], "SNR target must be a number or +inf, got nan"),
        ("benchmark", ["--rhos", "0,nan"], "correlation must be finite, got nan"),
    ],
    ids=["generate-snr-nan", "generate-snr-neg-inf", "generate-unbalanced-nan", "generate-rho-nan", "benchmark-snr-nan",
         "benchmark-rho-nan"],
)
def test_non_finite_noise_setting_is_usage_error(tmp_path, monkeypatch, capsys, command, extra, message):
    # a noise power or correlation that is not a number names itself and writes nothing
    forbid_calibration(monkeypatch)
    out = tmp_path / "o"
    if command == "generate":
        argv = ["generate", "heavydoppler3", "--n", "256", "--out", str(out), *extra]
    else:
        argv = [*bench_args(out, seeds=1, methods="mgwd"), "--calib-reps", "101", *extra]
    assert run_cli(argv) == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("command", ["denoise", "gof", "benchmark"])
def test_bad_worker_count_is_usage_error(tmp_path, monkeypatch, capsys, command, value):
    # every subcommand that calibrates rejects the count before any work
    x = tmp_path / "x.csv"
    np.savetxt(x, np.random.default_rng(21).standard_normal((256, 3)), delimiter=",")
    out = tmp_path / "out"
    argv = {
        "denoise": ["denoise", str(x), "--out", str(out), *FAST],
        "gof": ["gof", str(x), *FAST],
        "benchmark": bench_args(out, seeds=1),
    }[command]
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)
    monkeypatch.setenv("MVDENOISE_THREADS", value)
    assert run_cli(argv) == 64
    assert "MVDENOISE_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_and_gof_outputs_do_not_depend_on_worker_count(tmp_path, monkeypatch, capsys, two_worker_rule, threshold_store):
    # at two workers calibration maps its batches over a process pool; every
    # output byte is the one-worker run's
    assert run_cli(["generate", "heavydoppler3", "--n", "2048", "--rho", "0.75", "--seed", "3", "--out", str(tmp_path)]) == 0
    np.savetxt(tmp_path / "gof.csv", np.random.default_rng(22).standard_normal((512, 4)), delimiter=",")
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MVDENOISE_THREADS", threads)
        denoiser._NULL_CACHE.clear()  # calibrate afresh, as a new process on an empty store would
        threshold_store()
        out = tmp_path / f"den{threads}"
        assert run_cli(["denoise", str(tmp_path / "noisy.csv"), "--out", str(out), *FAST]) == 0
        capsys.readouterr()
        assert run_cli(["gof", str(tmp_path / "gof.csv"), "--json", *FAST]) == 0
        outputs[threads] = [(out / name).read_bytes() for name in ("denoised.csv", "report.json")]
        outputs[threads].append(capsys.readouterr().out)
    assert two_worker_rule == [2, 2]  # at --calib-reps 150: 3 batches for denoise, 7 for gof
    assert outputs["2"] == outputs["1"]


def test_denoise_on_a_store_hit_writes_the_calibrated_bytes(tmp_path, monkeypatch, threshold_store):
    # 2000 x 3 is off the table's grid: the first run calibrates and stores
    # the key, the second, as a new process on this machine would, reads it
    store = threshold_store()
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    np.savetxt(tmp_path / "x.csv", np.random.default_rng(24).standard_normal((2000, 3)), delimiter=",")
    outputs = []
    for run in ("calibrated", "stored"):
        assert run_cli(["denoise", str(tmp_path / "x.csv"), "--out", str(tmp_path / run), *FAST]) == 0
        outputs.append([(tmp_path / run / name).read_bytes() for name in ("denoised.csv", "report.json")])
        assert len(list(store.iterdir())) == 1
        denoiser._NULL_CACHE.clear()
        forbid_calibration(monkeypatch)
    assert outputs[1] == outputs[0]
    assert json.loads(outputs[0][1])["warnings"]  # calibration's warning, issued on the hit too


def test_default_denoise_and_gof_read_the_shipped_thresholds(tmp_path, monkeypatch, capsys):
    # a fresh process's default denoise of 2048 x 3 and gof of 512 x 4: both
    # keys are in the table, so neither calibrates, and the reports carry the
    # table's values and calibration's warning
    forbid_calibration(monkeypatch)
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    monkeypatch.setattr(denoiser, "_THRESHOLD_TABLE", None)
    table = denoiser._read_table(denoiser._TABLE_PATH)
    assert run_cli(["generate", "heavydoppler3", "--n", "2048", "--seed", "3", "--out", str(tmp_path)]) == 0
    np.savetxt(tmp_path / "gof.csv", np.random.default_rng(22).standard_normal((512, 4)), delimiter=",")
    assert run_cli(["denoise", str(tmp_path / "noisy.csv"), "--out", str(tmp_path / "den")]) == 0
    capsys.readouterr()
    assert run_cli(["gof", str(tmp_path / "gof.csv"), "--json"]) == 0
    gof = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = json.loads((tmp_path / "den" / "report.json").read_text())
    denoise_key = denoiser._memo_key(3, 2048, denoiser.DenoiseConfig())
    gof_key = denoiser._memo_key(4, 1024, denoiser.DenoiseConfig(levels=1, window_l=512))
    assert report["thresholds"] == table[denoise_key][0].tolist()
    assert report["null_retention_sd"] == table[denoise_key][1].tolist()
    assert gof["threshold"] == table[gof_key][0][0]
    message = "calibration_reps=1000 is below 10/p_fa=2000; threshold quantile resolution is coarse"
    assert report["warnings"] == gof["warnings"] == [message]


_COLD_DENOISE = """
import sys
from mvdenoise.cli import main
rc = main(sys.argv[1:])
print(rc, "numpy.ma" in sys.modules)
"""


def test_cold_denoise_does_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, about 10 ms of a cold call
    x = tmp_path / "x.csv"
    np.savetxt(x, np.random.default_rng(23).standard_normal((256, 2)), delimiter=",")
    env = dict(os.environ, MVDENOISE_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _COLD_DENOISE, "denoise", str(x), "--out", str(tmp_path / "den")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert len(json.loads((tmp_path / "den" / "report.json").read_text())["tau_summary"]) == 5


def test_benchmark_short_signal_is_usage_error(tmp_path, capsys):
    assert run_cli([*bench_args(tmp_path / "b", seeds=1), "--n", "128"]) == 64
    assert "n must be >= 256" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    assert main(["denoise"]) == 64  # missing input argument
    assert main(["denoise", "x.csv", "--boundary", "periodic"]) == 64  # no such flag: the transform is periodic
    assert main(["gof", "x.csv", "--sigma-source", "mcd"]) == 64  # no such flag: gof always fits the MCD


def subcommand_argv(tmp_path, command):
    p = tmp_path / "x.csv"
    np.savetxt(p, np.random.default_rng(6).standard_normal((256, 2)), delimiter=",")
    return {
        "generate": ["generate", "heavydoppler3", "--out", str(tmp_path / "g")],
        "denoise": ["denoise", str(p), "--out", str(tmp_path / "d"), *FAST],
        "gof": ["gof", str(p), *FAST],
        "benchmark": bench_args(tmp_path / "b", seeds=1),
    }[command]


@pytest.mark.parametrize("command", ["generate", "denoise", "gof", "benchmark"])
def test_unknown_filter_is_usage_error(tmp_path, capsys, command):
    assert run_cli([*subcommand_argv(tmp_path, command), "--filter", "xyz"]) == 64
    err = capsys.readouterr().err
    if command in ("denoise", "benchmark"):
        assert "unknown wavelet filter 'xyz'" in err
    else:  # generate and gof read no filter, so they take no --filter
        assert "unrecognized arguments: --filter xyz" in err


@pytest.mark.parametrize("command", ["generate", "denoise", "gof", "benchmark"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    assert run_cli([*subcommand_argv(tmp_path, command), "--seed", "-1"]) == 64
    err = capsys.readouterr().err
    if command in ("generate", "benchmark"):
        assert "argument --seed: must be a non-negative integer, got '-1'" in err
    else:  # denoise and gof draw nothing, so they take no --seed
        assert "unrecognized arguments: --seed -1" in err



def test_each_subcommand_takes_the_settings_it_reads(tmp_path):
    config = {"--filter", "--levels", "--window-l", "--pfa", "--calib-reps"}
    expected = {
        "generate": {"--n", "--snr", "--rho", "--out", "--seed"},
        "denoise": {"--clean", "--out", *config},
        "gof": {"--json", "--pfa", "--calib-reps"},
        "benchmark": {"--signals", "--snrs", "--rhos", "--methods", "--seeds", "--n", "--out", "--seed", *config},
    }
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    options = {
        name: {s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, sp in subparsers.items()
    }
    assert options == expected
    p = tmp_path / "x.csv"
    for argv in (["gof", str(p), "--levels", "3"], ["gof", str(p), "--window-l", "20"],
                 ["gof", str(p), "--filter", "db8"], ["generate", "heavydoppler3", "--pfa", "0.01"]):
        assert run_cli(argv) == 64
