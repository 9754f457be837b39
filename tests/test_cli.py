"""Tests for the command-line interface: exit codes, formats, determinism."""

import json

import numpy as np
import pytest

from skewbeta import transform
from skewbeta.chain import chain_sample
from skewbeta.cli import main
from skewbeta.ensembles import (build_antisym_tridiagonal, build_c_matrix,
                                build_dense_antisym_gue, build_laguerre_bidiagonal,
                                householder_reduce)
from skewbeta.spectral import positive_spectrum
from skewbeta.streams import RandomStream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ("laguerre-bidiag", 5, ("--a", "6")),
        ("c-matrix", 4, ()),
    ])
    def test_batched_rows_equal_scalar_route(self, capsys, ensemble, n, extra):
        # row i is the one-replicate builder on root.split(i) plus its solve
        code, out, _ = run(capsys, "sample", "--ensemble", ensemble, "--n", str(n),
                           "--beta", "1.5", "--reps", "6", "--seed", "4",
                           "--format", "json", *extra)
        assert code == 0
        root = RandomStream(4)
        for i, row in enumerate(json.loads(out)["rows"]):
            stream = root.split(i)
            if ensemble == "antisym-dense-gue":
                sd = positive_spectrum(householder_reduce(build_dense_antisym_gue(n, stream)))
                expected = [*sd.lam, *sd.q] + ([sd.z] if n % 2 else [])
            elif ensemble == "laguerre-bidiag":
                expected = np.linalg.svd(build_laguerre_bidiagonal(n, 6.0, 1.5, stream)
                                         .to_dense(), compute_uv=False)
            else:
                expected = np.linalg.svd(build_c_matrix(n, 1.5, stream).to_dense(),
                                         compute_uv=False)
            assert np.array_equal(row, expected)

    def test_rejected_row_exits_two_and_writes_nothing(self, capsys, tmp_path):
        # at beta=0.05 some draw of the 200 has a first component that
        # deflates to 0, which the spectral map rejects
        target = tmp_path / "rows.csv"
        code, out, err = run(capsys, "sample", "--n", "12", "--beta", "0.05",
                             "--reps", "200", "--seed", "1", "--out", str(target))
        assert code == 2 and out == "" and "first components" in err
        assert not target.exists()

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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sample", "--n", "4", "--seed", "0",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("# {")


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
                            lambda c, top: 1.0)
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


class TestPruferAndHouseholder:
    def test_prufer_table(self, capsys):
        code, out, _ = run(capsys, "prufer", "--n", "4", "--seed", "5",
                           "--grid", "0:3:7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["mu", "theta_2", "theta_3", "theta_4"]
        assert len(doc["rows"]) == 6  # zero grid point dropped

    def test_bad_grid_exits_two(self, capsys):
        code, _, err = run(capsys, "prufer", "--n", "4", "--grid", "oops")
        assert code == 2

    def test_householder_document(self, capsys):
        code, out, _ = run(capsys, "householder", "--n", "5", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["dense"]) == 5
        assert len(doc["superdiagonal_top_down"]) == 4
        assert all(v > 0 for v in doc["superdiagonal_top_down"])
