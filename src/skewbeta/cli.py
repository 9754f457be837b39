"""Command-line interface: sampling, density evaluation, verification
suites, Pruefer phase tables and a Householder reduction demonstration."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, chain, densities, sturm, verify
from .ensembles import (EnsembleSpec, SizeError, antisym_tridiagonal_batch,
                        build_antisym_tridiagonal, build_dense_antisym_gue,
                        c_matrix_rows, dense_antisym_gue_rows, householder_reduce,
                        householder_reduce_batch, laguerre_bidiagonal_rows)
from .spectral import spectral_rows
from .streams import ParameterError, RandomStream


@dataclass(frozen=True)
class RunConfig:
    command: str
    ensemble: str | None
    n: int
    beta: float
    a: float | None
    reps: int
    seed: int
    out: str | None
    fmt: str

    def provenance(self) -> dict:
        rec = {"version": __version__, "command": self.command, "seed": self.seed}
        for key, val in (("ensemble", self.ensemble), ("n", self.n),
                         ("beta", self.beta), ("a", self.a), ("reps", self.reps)):
            if val is not None:
                rec[key] = val
        return rec


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _csv_document(config: RunConfig, header: list[str], table: np.ndarray) -> str:
    lines = [f"# {json.dumps(config.provenance(), sort_keys=True)}",
             ",".join(header)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _json_document(config: RunConfig, header: list[str], table: np.ndarray) -> str:
    return json.dumps({
        "provenance": config.provenance(),
        "columns": header,
        "rows": table.tolist(),
    }, indent=2)


def _emit_table(config: RunConfig, header: list[str], table: np.ndarray) -> None:
    """Write a ``(rows, len(header))`` float array as CSV or JSON."""
    if config.fmt == "json":
        _write(_json_document(config, header, table), config.out)
    else:
        _write(_csv_document(config, header, table), config.out)


def _spectral_header(n: int) -> list[str]:
    k = n // 2
    cols = [f"lambda_{i}" for i in range(1, k + 1)]
    cols += [f"q_{i}" for i in range(1, k + 1)]
    if n % 2 == 1:
        cols.append("z")
    return cols


def _spectral_table(b: np.ndarray) -> np.ndarray:
    """Rows ``(lambda, q[, z])`` for a batch of off-diagonal sequences; a
    row that fails a check of the spectral map raises."""
    lam, q, z = spectral_rows(b)
    parts = [lam, q] + ([z[:, None]] if b.shape[1] % 2 == 0 else [])
    return np.concatenate(parts, axis=1)


def _sample_rows(config: RunConfig) -> tuple[list[str], np.ndarray]:
    """Header and ``(reps, cols)`` table of ``sample``.  Replicate ``i``
    draws on ``root.split(i)`` with the calls of the one-replicate builder;
    the draws are then solved in one batch."""
    if config.reps < 0:
        raise ParameterError(f"reps must be nonnegative, got {config.reps}")
    spec = EnsembleSpec(kind=config.ensemble, n=config.n, beta=config.beta,
                        a=config.a)
    n = spec.n
    if spec.kind in ("antisym-trid", "antisym-dense-gue"):
        header = _spectral_header(n)
    elif spec.kind == "chain":
        header = [f"lambda_{i}" for i in range(1, n // 2 + 1)]
    else:
        header = [f"sigma_{i}" for i in range(1, n + 1)]
    root = RandomStream(config.seed)
    streams = [root.split(i) for i in range(config.reps)]
    if not streams:
        return header, np.empty((0, len(header)))
    if spec.kind == "antisym-trid":
        table = _spectral_table(np.array(
            [antisym_tridiagonal_batch(n, spec.beta, s, None) for s in streams]))
    elif spec.kind == "antisym-dense-gue":
        table = _spectral_table(householder_reduce_batch(dense_antisym_gue_rows(n, streams)))
    elif spec.kind == "chain":
        table = chain.chain_sample_rows(n, spec.beta, streams)
    elif spec.kind == "laguerre-bidiag":
        table = np.linalg.svd(laguerre_bidiagonal_rows(n, spec.a, spec.beta, streams),
                              compute_uv=False)
    else:  # c-matrix
        table = np.linalg.svd(c_matrix_rows(n, spec.beta, streams), compute_uv=False)
    return header, table


def cmd_sample(config: RunConfig) -> int:
    header, table = _sample_rows(config)
    _emit_table(config, header, table)
    return 0


def cmd_verify(config: RunConfig, suite: str) -> int:
    try:
        reports = verify.run_suite(suite, config.seed)
    except KeyError:
        sys.stderr.write(f"unknown suite: {suite}\n")
        return 2
    doc = json.dumps({"reports": [json.loads(r.to_json()) for r in reports]},
                     indent=2)
    _write(doc, config.out)
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_density(config: RunConfig, point: list[float]) -> int:
    val = densities.logpdf_positive_spectrum(np.asarray(point), config.n, config.beta)
    doc = json.dumps({"provenance": config.provenance(),
                      "point": point,
                      "log_density": val.log_value if val.in_support else "-inf",
                      "in_support": val.in_support})
    _write(doc, config.out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    lo, hi, num = text.split(":")
    grid = np.linspace(float(lo), float(hi), int(num))
    return grid[grid > 0]


def cmd_prufer(config: RunConfig, grid_text: str) -> int:
    grid = _parse_grid(grid_text)
    t = build_antisym_tridiagonal(config.n, config.beta, RandomStream(config.seed))
    phases = sturm.prufer_phases(t, grid)
    header = ["mu"] + [f"theta_{i}" for i in range(2, config.n + 1)]
    table = np.array([[p.mu, *p.theta] for p in phases]).reshape(-1, len(header))
    _emit_table(config, header, table)
    return 0


def cmd_householder(config: RunConfig) -> int:
    dense = build_dense_antisym_gue(config.n, RandomStream(config.seed))
    reduced = householder_reduce(dense)
    doc = json.dumps({
        "provenance": config.provenance(),
        "dense": [[float(v) for v in row] for row in dense.a],
        "superdiagonal_top_down": [float(v) for v in
                                   reduced.superdiagonal_top_down()],
    }, indent=2)
    _write(doc, config.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbeta",
        description="Anti-symmetric tridiagonal beta-ensemble toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=4)
        p.add_argument("--beta", type=float, default=2.0)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--reps", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")

    p_sample = sub.add_parser("sample", help="draw replicates of an ensemble")
    p_sample.add_argument("--ensemble", choices=EnsembleSpec.KINDS,
                          default="antisym-trid")
    common(p_sample)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", type=str, required=True)
    common(p_verify)

    p_density = sub.add_parser("density", help="evaluate the eigenvalue log-density")
    p_density.add_argument("--point", type=str, required=True,
                           help="comma-separated eigenvalues, descending")
    common(p_density)

    p_prufer = sub.add_parser("prufer", help="phase table on a mu grid")
    p_prufer.add_argument("--grid", type=str, default="0:4:41",
                          help="lo:hi:num")
    common(p_prufer)

    p_house = sub.add_parser("householder",
                             help="dense draw and its tridiagonal reduction")
    common(p_house)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(command=args.command,
                       ensemble=getattr(args, "ensemble", None),
                       n=args.n, beta=args.beta, a=args.a, reps=args.reps,
                       seed=args.seed, out=args.out, fmt=args.fmt)
    try:
        if args.command == "sample":
            return cmd_sample(config)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        if args.command == "density":
            point = [float(v) for v in args.point.split(",") if v]
            return cmd_density(config, point)
        if args.command == "prufer":
            return cmd_prufer(config, args.grid)
        if args.command == "householder":
            return cmd_householder(config)
    except (ParameterError, SizeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
