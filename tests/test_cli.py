"""Tests for the command-line interface: exit codes, formats, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import weakref

import mpmath as mp
import numpy as np
import pytest

import skewbeta
from skewbeta import cli, transform
from skewbeta.chain import chain_sample
from skewbeta.cli import main
from skewbeta.ensembles import (_c_matrix_chis, _laguerre_chis, build_antisym_tridiagonal,
                                build_dense_antisym_gue, householder_reduce)
from skewbeta.spectral import positive_spectrum, positive_spectrum_batch
from skewbeta.streams import RandomStream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sampled_block(ensemble: str, n: int, a: float, beta: float, stream: RandomStream):
    """The chi block ``sample --ensemble ensemble`` draws on ``stream``: its
    diagonal, its subdiagonal and the dense lower bidiagonal matrix
    (n x n, or (n+1) x n for the C-matrix)."""
    d, e = (_laguerre_chis(n, a, beta, [stream]) if ensemble == "laguerre-bidiag"
            else _c_matrix_chis(n, beta, [stream]))
    d, e = d[0], e[0]
    dense = np.zeros((e.size + 1, n))
    dense[range(n), range(n)] = d
    dense[range(1, e.size + 1), range(e.size)] = e
    return d, e, dense


class TestSample:
    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "sample", "--ensemble", "antisym-trid",
                           "--n", "5", "--reps", "3", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        provenance = json.loads(lines[0][2:])
        assert provenance["seed"] == 1 and provenance["n"] == 5
        assert lines[1] == "lambda_1,lambda_2,q_1,q_2,z"
        assert len(lines) == 5

    def test_csv_rows_are_float_reprs(self, tmp_path):
        # each CSV cell is the float's repr, so it reads back bit for bit
        table = np.array([[np.inf, -0.0, 1e16, 5e-324], [np.nan, 0.1, -2.5e-310, 1.0 / 3.0]])
        out = tmp_path / "rows.csv"
        cli._emit_table(argparse.Namespace(command="sample", fmt="csv", out=str(out)),
                        ["a", "b", "c", "d"], table)
        rows = out.read_text().splitlines()[2:]
        assert rows == [",".join(map(repr, row)) for row in table.tolist()]

    def test_deterministic(self, capsys):
        a = run(capsys, "sample", "--n", "4", "--reps", "2", "--seed", "9")
        b = run(capsys, "sample", "--n", "4", "--reps", "2", "--seed", "9")
        assert a == b

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sample", "--n", "4", "--reps", "2",
                           "--seed", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["lambda_1", "lambda_2", "q_1", "q_2"]
        assert len(doc["rows"]) == 2 and len(doc["rows"][0]) == 4

    @pytest.mark.parametrize("ensemble,n,cols", [
        ("chain", "6", 3),
        ("c-matrix", "3", 3),
    ])
    def test_other_ensembles(self, capsys, ensemble, n, cols):
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble,
                           "--n", n, "--seed", "0", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"][0]) == cols

    @pytest.mark.parametrize("ensemble", ["chain", "antisym-trid"])
    def test_rows_use_split_streams(self, capsys, ensemble):
        # replicate i of `sample` draws its matrix or chain from root.split(i)
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble, "--n", "7",
                           "--beta", "0.5", "--reps", "4", "--seed", "3",
                           "--format", "json")
        assert code == 0
        root = RandomStream(3)
        for i, row in enumerate(json.loads(out)["rows"]):
            if ensemble == "chain":
                expected = chain_sample(7, 0.5, root.split(i))
            else:
                sd = positive_spectrum(build_antisym_tridiagonal(7, 0.5, root.split(i)))
                expected = [*sd.lam, *sd.q, sd.z]
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("ensemble,n,extra", [
        ("antisym-dense-gue", 7, ()),
        ("antisym-dense-gue", 8, ()),
        ("laguerre-bidiag", 5, ("--a", "6", "--beta", "1.5")),
        ("c-matrix", 4, ("--beta", "1.5")),
    ])
    def test_batched_rows_equal_scalar_route(self, capsys, ensemble, n, extra):
        # row i is the one-replicate builder on root.split(i) plus its solve
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble, "--n", str(n),
                           "--reps", "6", "--seed", "4", "--format", "json", *extra)
        assert code == 0
        root = RandomStream(4)
        for i, row in enumerate(json.loads(out)["rows"]):
            stream = root.split(i)
            if ensemble == "antisym-dense-gue":
                sd = positive_spectrum(householder_reduce(build_dense_antisym_gue(n, stream)))
                expected = [*sd.lam, *sd.q] + ([sd.z] if n % 2 else [])
            else:
                d, e, blk = _sampled_block(ensemble, n, 6.0, 1.5, stream)
                expected = positive_spectrum_batch(
                    transform.bidiagonal_read_off(d, e)[None, :])[0]
                dense = np.linalg.svd(blk, compute_uv=False)
                assert np.allclose(row, dense, rtol=1e-12, atol=0.0)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("ensemble,n,extra", [
        ("c-matrix", 5, ()),
        ("laguerre-bidiag", 10, ("--a", "0.5")),
    ])
    def test_chi_block_rows_match_mpmath_svd(self, capsys, ensemble, n, extra):
        # at beta=0.05 the smallest singular values reach 1e-55; a dense SVD
        # resolves them only to about eps * ||B||
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble, "--n", str(n),
                           "--beta", "0.05", "--reps", "2000", "--seed", "1",
                           "--format", "json", *extra)
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        root = RandomStream(1)
        worst = 0.0
        for i in np.argsort(rows[:, -1])[:20]:
            stream = root.split(int(i))
            _, _, blk = _sampled_block(ensemble, n, 0.5, 0.05, stream)
            # enough digits that the smallest value is resolved to 60 of them
            dps = 60 + max(0, int(-np.log10(rows[i, -1])))
            with mp.workdps(dps):
                sv = mp.svd_r(mp.matrix(blk.tolist()), compute_uv=False)
                ref = sorted((sv[j] for j in range(n)), reverse=True)
                worst = max(worst, max(float(abs(got - r) / r) for got, r in zip(rows[i], ref)))
        assert worst <= 1e-13

    def test_rejected_row_exits_two_and_writes_nothing(self, capsys, tmp_path):
        # at beta=0.05 some draw of the 200 has a first component that
        # deflates to 0, which the spectral map rejects
        target = tmp_path / "rows.csv"
        code, out, err = run(capsys, "sample", "--n", "12", "--beta", "0.05",
                             "--reps", "200", "--seed", "1", "--out", str(target))
        assert code == 2 and out == "" and "first components" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("--ensemble", "c-matrix", "--n", "5"),  # 314 of 500 rows with sigma_min = 0
        ("--ensemble", "laguerre-bidiag", "--n", "6", "--a", "0.005"),  # 33 of 500
        ("--ensemble", "laguerre-bidiag", "--n", "10", "--a", "0.005"),  # 415 of 500
    ])
    def test_zero_spectrum_row_exits_two(self, capsys, argv):
        # at beta = 0.001 these tables have rows whose smallest sigma is 0;
        # like the antisym-trid table, they exit 2 and print no row
        code, out, err = run(capsys, "sample", *argv, "--beta", "0.001", "--reps", "500",
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: computed positive eigenvalues are not distinct\n"

    def test_chain_below_the_double_range_prints_every_row(self, capsys):
        # every chain lambda^2 stays at least one _TINY above its pole, so
        # the 374 rows that had lambda_min = 0 print, on the subnormal grid
        code, out, _ = run(capsys, "sample", "--ensemble", "chain", "--n", "13", "--beta",
                           "0.001", "--reps", "500", "--seed", "1")
        lam = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=2)
        assert code == 0 and lam.shape == (500, 6)
        assert np.all(lam >= np.sqrt(np.nextafter(0.0, 1.0)))
        assert np.count_nonzero(np.any(lam < np.sqrt(np.finfo(float).tiny), axis=1)) == 464

    @pytest.mark.parametrize("ensemble", ["antisym-trid", "chain", "c-matrix"])
    def test_zero_reps_writes_header_only(self, capsys, ensemble):
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble, "--n", "4",
                           "--reps", "0", "--format", "json")
        assert code == 0 and json.loads(out)["rows"] == []

    def test_negative_reps_exits_two(self, capsys):
        code, out, err = run(capsys, "sample", "--n", "4", "--reps", "-3")
        assert code == 2 and out == "" and "reps" in err

    def test_laguerre_requires_valid_a(self, capsys):
        code, _, err = run(capsys, "sample", "--ensemble", "laguerre-bidiag",
                           "--n", "4", "--a", "1.0", "--seed", "0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("ensemble,extra,bad", [
        ("antisym-trid", ("--beta", "inf"), "beta"),
        ("antisym-trid", ("--beta", "nan"), "beta"),
        ("chain", ("--beta", "inf"), "beta"),
        ("c-matrix", ("--beta", "inf"), "beta"),
        ("laguerre-bidiag", ("--a", "inf"), "a"),
        ("laguerre-bidiag", ("--a", "5", "--beta", "inf"), "beta"),
    ])
    def test_nonfinite_parameter_exits_two(self, capsys, ensemble, extra, bad):
        # rejected up front, naming the parameter, before any draw
        code, out, err = run(capsys, "sample", "--ensemble", ensemble, "--n", "4",
                             "--seed", "0", *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} must be")

    @pytest.mark.parametrize("ensemble,extra,bad", [
        ("antisym-dense-gue", ("--beta", "0.5"), "beta"),
        ("chain", ("--a", "3"), "a"),
        ("c-matrix", ("--a", "3"), "a"),
    ])
    def test_parameter_the_draw_ignores_exits_two(self, capsys, ensemble, extra, bad):
        # the dense draw is beta = 2 only, and only laguerre-bidiag reads a;
        # these exited 0 and recorded the value in the provenance
        code, out, err = run(capsys, "sample", "--ensemble", ensemble, "--n", "4",
                             "--seed", "1", *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} ")

    @pytest.mark.parametrize("command", ["sample", "prufer", "householder"])
    def test_negative_seed_exits_two(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "4", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be a non-negative integer")

    def test_multi_word_seed_rows_are_split_streams(self, capsys):
        seed = 2**64 + 5
        code, out, _ = run(capsys, "sample", "--n", "6", "--reps", "12", "--seed", str(seed),
                           "--format", "json")
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        for i in (0, 7, 11):
            sd = positive_spectrum(build_antisym_tridiagonal(6, 2.0, RandomStream(seed).split(i)))
            assert np.allclose(rows[i], np.concatenate([sd.lam, sd.q]), rtol=1e-12, atol=0.0)

    def test_beta_whose_shape_sum_overflows(self, capsys):
        # the shapes k * beta / 4 are finite up to k = 9; their sum is not
        code, out, err = run(capsys, "sample", "--n", "10", "--beta", "7e307", "--reps", "3",
                             "--seed", "1")
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=2)
        assert code == 0 and err == "" and rows.shape == (3, 10)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sample", "--n", "4", "--seed", "0",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("# {")


class TestChunks:
    RUNS = [("antisym-trid", "--n", "7", "--beta", "0.5"),
            ("antisym-dense-gue", "--n", "6"),
            ("chain", "--n", "9", "--beta", "0.5"),
            ("laguerre-bidiag", "--n", "5", "--a", "6"),
            ("c-matrix", "--n", "4")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
    def test_chunks_of_seven_equal_one_chunk(self, capsys, monkeypatch, argv, fmt):
        # 23 replicates are 3 chunks of 7 and one of 2, whose streams seed on
        # numpy's SeedSequence; the text comes 7 rows a piece too
        one = run(capsys, "sample", "--ensemble", *argv, "--reps", "23", "--seed", "5",
                  "--format", fmt)
        assert one[0] == 0 and one[2] == ""
        monkeypatch.setattr(cli, "_CHUNK", 7)
        assert run(capsys, "sample", "--ensemble", *argv, "--reps", "23", "--seed", "5",
                   "--format", fmt) == one

    @pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
    def test_streams_die_with_their_chunk(self, capsys, monkeypatch, argv):
        # each chunk seeds its streams once, and by the next chunk's seeding
        # none of the last chunk's streams (and generators) is alive
        monkeypatch.setattr(cli, "_CHUNK", 7)
        seed_streams, alive, chunks = cli.seed_streams, [], []

        def spy(pairs):
            chunks.append(sum(ref() is not None for ref in alive))
            streams = seed_streams(pairs)
            alive[:] = [weakref.ref(stream) for stream in streams]
            return streams

        monkeypatch.setattr(cli, "seed_streams", spy)
        assert run(capsys, "sample", "--ensemble", *argv, "--reps", "23", "--seed", "5")[0] == 0
        assert chunks == [0, 0, 0, 0]

    @pytest.mark.parametrize("reps", [0, 1, 6, 7, 15])
    def test_json_pieces_are_one_document(self, capsys, monkeypatch, reps):
        # the rows rendered a chunk at a time are json.dumps of the whole
        # document with indent=2, byte for byte
        monkeypatch.setattr(cli, "_CHUNK", 7)
        code, out, _ = run(capsys, "sample", "--n", "5", "--reps", str(reps), "--seed", "2",
                           "--format", "json")
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["rows"]) == reps

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("argv,message", [
        # first failing rows 3 and 4
        (("--n", "12", "--beta", "0.05"), "first components must be positive"),
        (("--ensemble", "laguerre-bidiag", "--n", "6", "--a", "0.005", "--beta", "0.001"),
         "computed positive eigenvalues are not distinct"),
    ], ids=["antisym-trid", "laguerre-bidiag"])
    def test_bad_row_in_a_later_chunk_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                      argv, message, to_file):
        monkeypatch.setattr(cli, "_CHUNK", 3)
        assert run(capsys, "sample", *argv, "--reps", "3", "--seed", "1")[0] == 0
        target = tmp_path / "rows.csv"
        out_file = ("--out", str(target)) if to_file else ()
        code, out, err = run(capsys, "sample", *argv, "--reps", "200", "--seed", "1",
                             *out_file)
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert not target.exists()


class TestVerify:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cholesky",
                           "--seed", "20260823")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["suite"] == "cholesky"
        assert all(c["status"] == "pass" for c in doc["reports"][0]["cases"])

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(transform, "reversed_cholesky_residual",
                            lambda d, e, top: 1.0)
        code, out, _ = run(capsys, "verify", "--suite", "cholesky",
                           "--seed", "20260823")
        assert code == 1
        doc = json.loads(out)
        assert doc["reports"][0]["cases"][0]["status"] == "fail"

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus", "--seed", "0")
        assert code == 2 and "unknown suite" in err


class TestDensity:
    def test_known_value(self, capsys):
        # n=2, beta=2 at lam=1: log(2/sqrt(pi)) - 1
        code, out, _ = run(capsys, "density", "--n", "2", "--beta", "2",
                           "--point", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["in_support"]
        import math
        assert doc["log_density"] == pytest.approx(
            math.log(2.0 / math.sqrt(math.pi)) - 1.0, rel=1e-10)

    def test_out_of_support(self, capsys):
        code, out, _ = run(capsys, "density", "--n", "2", "--beta", "2",
                           "--point", "-1.0")
        assert code == 0
        doc = json.loads(out)
        assert not doc["in_support"] and doc["log_density"] == "-inf"

    def test_wrong_dimension_exits_two(self, capsys):
        code, _, err = run(capsys, "density", "--n", "4", "--beta", "2",
                           "--point", "1.0")
        assert code == 2 and "error" in err

    def test_infinite_beta_exits_two(self, capsys):
        # at inf the log-density was NaN, printed with exit 0
        code, out, err = run(capsys, "density", "--n", "4", "--beta", "inf",
                             "--point", "1.5,0.5")
        assert code == 2 and out == "" and err.startswith("error: beta must be")

    @pytest.mark.parametrize("point", ["inf,0.5", "1.5,nan"])
    def test_nonfinite_point_exits_two(self, capsys, point):
        # these printed NaN, which is not JSON, with exit 0
        code, out, err = run(capsys, "density", "--n", "4", "--beta", "2",
                             "--point", point)
        assert code == 2 and out == "" and err.startswith("error: --point")


class TestPruferAndHouseholder:
    def test_prufer_table(self, capsys):
        code, out, _ = run(capsys, "prufer", "--n", "4", "--seed", "5",
                           "--grid", "0:3:7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["mu", "theta_2", "theta_3", "theta_4"]
        assert len(doc["rows"]) == 6  # zero grid point dropped

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prufer_small_beta(self, capsys, seed):
        # tiny off-diagonals: phases fall by pi within far less than a grid step
        code, out, _ = run(capsys, "prufer", "--n", "8", "--beta", "0.05",
                           "--seed", str(seed), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["mu"] + [f"theta_{i}" for i in range(2, 9)]
        assert len(doc["rows"]) == 40
        assert all(len(row) == 8 for row in doc["rows"])

    def test_bad_grid_exits_two(self, capsys):
        code, _, err = run(capsys, "prufer", "--n", "4", "--grid", "oops")
        assert code == 2

    @pytest.mark.parametrize("grid", ["oops", "0:4", "a:b:c", "0:4:2.5", "0:4:5:6",
                                      "0:inf:4", "nan:1:4", "0:4:1", "0:4:0", "4:0:5"])
    def test_malformed_grid_names_the_option(self, capsys, grid):
        code, out, err = run(capsys, "prufer", "--n", "4", "--grid", grid)
        assert code == 2 and out == ""
        assert "--grid" in err and "lo:hi:num" in err

    def test_householder_document(self, capsys):
        code, out, _ = run(capsys, "householder", "--n", "5", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["dense"]) == 5
        assert len(doc["superdiagonal_top_down"]) == 4
        assert all(v > 0 for v in doc["superdiagonal_top_down"])


class TestOptions:
    # each subcommand takes only the options its handler reads, and its
    # provenance records exactly those of them that shaped the output
    @pytest.mark.parametrize("argv", [
        ("householder", "--n", "4", "--beta", "0.5"),
        ("householder", "--reps", "9"),
        ("householder", "--format", "csv"),
        ("verify", "--suite", "dixon-anderson", "--beta", "-3"),
        ("verify", "--suite", "dixon-anderson", "--reps", "-5"),
        ("verify", "--suite", "dixon-anderson", "--n", "4"),
        ("density", "--point", "1.5,0.5", "--seed", "1"),
        ("density", "--point", "1.5,0.5", "--format", "csv"),
        ("prufer", "--n", "4", "--reps", "3"),
        ("prufer", "--n", "4", "--a", "3"),
        ("sample", "--grid", "0:4:41"),
    ])
    def test_unread_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("argv,keys", [
        (("sample", "--n", "4"), ["version", "command", "seed", "ensemble", "n", "beta", "reps"]),
        (("sample", "--ensemble", "laguerre-bidiag", "--n", "4", "--a", "6"),
         ["version", "command", "seed", "ensemble", "n", "beta", "a", "reps"]),
        (("prufer", "--n", "4", "--grid", "0:3:4"), ["version", "command", "seed", "n", "beta"]),
        (("density", "--n", "4", "--point", "1.5,0.5"), ["version", "command", "n", "beta"]),
        (("householder", "--n", "4"), ["version", "command", "seed", "n"]),
    ])
    def test_provenance_records_the_options_read(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv, *(("--format", "json") if argv[0] in
                                            ("sample", "prufer") else ()))
        assert code == 0
        assert list(json.loads(out)["provenance"]) == keys


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter, with this
    checkout's skewbeta on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewbeta.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    def test_cli_import_defers_scipy_interpolate(self):
        # every CLI call pays `import skewbeta.cli`; the quadrature CDFs and
        # `verify` need neither scipy.interpolate nor the scipy.linalg
        # package (and the scipy subpackages they pull in).  A fresh
        # interpreter, since this one has loaded them
        code = (
            "import contextlib, io, sys\n"
            "import numpy as np\n"
            "subs = ('scipy.interpolate', 'scipy.linalg')\n"
            "loaded = lambda: [m for m in subs if m in sys.modules]\n"
            "import skewbeta.cli\n"
            "print(loaded())\n"
            "from skewbeta.stats import quadrature_cdf\n"
            "cdf = quadrature_cdf(lambda x: np.zeros_like(x), 0.0, 1.0)\n"
            "print(repr(float(cdf(np.array([0.25]))[0])))\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = skewbeta.cli.main(['verify', '--suite', 'distributions', '--seed', '1'])\n"
            "print(code, loaded())\n"
        )
        before, value, after_cdf, after_verify = _fresh_python(code).splitlines()
        assert before == after_cdf == "[]"
        assert float(value) == pytest.approx(0.25, abs=1e-9)
        assert after_verify == "0 []"

    def test_sample_loads_no_scipy_subpackage(self):
        # `sample` at n >= 6 needs numpy and LAPACK's dbdsqr alone; the
        # extension that holds dbdsqr loads by file path, without the
        # scipy.linalg package, and a later import of the package finds the
        # same dbdsqr
        code = (
            "import contextlib, ctypes, io, json, sys\n"
            "subs = ('scipy.special', 'scipy.linalg', 'scipy.interpolate')\n"
            "loaded = lambda: [m for m in subs if m in sys.modules]\n"
            "import skewbeta\n"
            "out = [loaded()]\n"
            "import skewbeta.cli\n"
            "out.append(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            "    code = skewbeta.cli.main(['sample', '--n', '10', '--reps', '50', '--seed', '1'])\n"
            "out += [code, len(text.getvalue().splitlines()), loaded()]\n"
            "from skewbeta import spectral\n"
            "pointer = ctypes.cast(spectral._dbdsqr(), ctypes.c_void_p).value\n"
            "from scipy.linalg import cython_lapack\n"
            "out.append(spectral._capsule_pointer(cython_lapack.__pyx_capi__['dbdsqr'])"
            " == pointer)\n"
            "print(json.dumps(out))\n"
        )
        after_package, after_cli, code, lines, after_sample, same = json.loads(_fresh_python(code))
        assert after_package == after_cli == after_sample == []
        assert code == 0 and lines == 52
        assert same is True
