"""Command-line interface: sampling, density evaluation, verification
suites, Pruefer phase tables and a Householder reduction demonstration.

Importing this module loads numpy and nothing from scipy.  Each subcommand
imports, when it runs, the modules that only it needs, so ``sample``,
``prufer`` and ``householder`` never load ``scipy.special``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .ensembles import (EnsembleSpec, _c_matrix_chis, _laguerre_chis,
                        antisym_tridiagonal_rows, build_antisym_tridiagonal,
                        build_dense_antisym_gue, dense_antisym_gue_rows,
                        householder_reduce, householder_reduce_batch)
from .spectral import _check_rows, positive_spectrum_batch, spectral_rows
from .streams import ParameterError, RandomStream, seed_streams
from .transform import bidiagonal_read_off


def _provenance(args: argparse.Namespace) -> dict:
    """The version, the command and the options of ``args`` that shaped the
    output; a subcommand's namespace holds only the options it reads, and an
    ``--a`` that was not given is left out."""
    rec = {"version": __version__, "command": args.command}
    for key in ("seed", "ensemble", "n", "beta", "a", "reps"):
        if getattr(args, key, None) is not None:
            rec[key] = getattr(args, key)
    return rec


def _write(text: str, out: str | None) -> None:
    _write_pieces([text if text.endswith("\n") else text + "\n"], out)


def _write_pieces(pieces, out: str | None) -> None:
    """Write an iterable of text pieces to the file ``out``, or to stdout
    when it is None, each piece as it is made."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


# replicates per chunk of `sample`, and rows per piece of a table's text: a
# replicate's stream and generator take about 1.1 KB, so about 10 MB a chunk
_CHUNK = 1 << 13


def _row_chunks(table: np.ndarray):
    for lo in range(0, table.shape[0], _CHUNK):
        yield table[lo:lo + _CHUNK].tolist()


def _table_pieces(args: argparse.Namespace, header: list[str], table: np.ndarray):
    """The text of a ``(rows, len(header))`` float array as CSV or JSON,
    ``_CHUNK`` rows a piece.  The JSON is byte for byte that of
    ``json.dumps`` with ``indent=2`` on the whole document: each piece's
    rows are rendered as one list and indented one level deeper."""
    if args.fmt == "csv":
        yield f"# {json.dumps(_provenance(args), sort_keys=True)}\n{','.join(header)}\n"
        for rows in _row_chunks(table):
            yield "".join(",".join(map(repr, row)) + "\n" for row in rows)
        return
    doc = json.dumps({"provenance": _provenance(args), "columns": header, "rows": []},
                     indent=2)
    if not table.shape[0]:
        yield doc + "\n"
        return
    yield doc[:-len("]\n}")]  # up to the rows' opening bracket
    sep = ""
    for rows in _row_chunks(table):
        # "[\n  [...],\n  [...]\n]" less its brackets and last newline
        yield sep + json.dumps(rows, indent=2)[1:-2].replace("\n", "\n  ")
        sep = ","
    yield "\n  ]\n}\n"


def _emit_table(args: argparse.Namespace, header: list[str], table: np.ndarray) -> None:
    """Write a ``(rows, len(header))`` float array as CSV or JSON."""
    _write_pieces(_table_pieces(args, header, table), args.out)


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


def _sample_rows(args: argparse.Namespace) -> tuple[list[str], np.ndarray]:
    """Header and ``(reps, cols)`` table of ``sample``.  Replicate ``i``
    draws on ``root.split(i)`` with the calls of the one-replicate builder.
    The replicates are taken ``_CHUNK`` at a time: a chunk's streams are
    seeded in one pass, drawn in one draw call, solved in one batch, checked
    and dropped, and its rows written to the table; no row depends on the
    chunking.  The first row that fails a check raises: every check of
    ``spectral_rows`` for the (lambda, q[, z]) tables, and for the lambda
    and sigma tables its ``DegeneracyError`` on a row that is not finite,
    positive and strictly descending."""
    if args.reps < 0:
        raise ParameterError(f"reps must be nonnegative, got {args.reps}")
    spec = EnsembleSpec(kind=args.ensemble, n=args.n, beta=args.beta, a=args.a)
    n = spec.n
    if spec.kind in ("antisym-trid", "antisym-dense-gue"):
        header = _spectral_header(n)
    elif spec.kind == "chain":
        header = [f"lambda_{i}" for i in range(1, n // 2 + 1)]
    else:
        header = [f"sigma_{i}" for i in range(1, n + 1)]
    seed = RandomStream(args.seed).seed
    table = np.empty((args.reps, len(header)))
    for lo in range(0, args.reps, _CHUNK):
        hi = min(lo + _CHUNK, args.reps)
        table[lo:hi] = _chunk_rows(spec, seed_streams((seed, (i,)) for i in range(lo, hi)))
    return header, table


def _chunk_rows(spec: EnsembleSpec, streams) -> np.ndarray:
    """The checked table rows of one chunk of ``sample``'s replicates."""
    n = spec.n
    if spec.kind == "antisym-trid":
        return _spectral_table(antisym_tridiagonal_rows(n, spec.beta, streams))
    if spec.kind == "antisym-dense-gue":
        return _spectral_table(householder_reduce_batch(dense_antisym_gue_rows(n, streams)))
    if spec.kind == "chain":
        from .chain import chain_sample_rows
        table = chain_sample_rows(n, spec.beta, streams)
    else:  # a chi block's singular values are the spectrum of its read-off
        if spec.kind == "laguerre-bidiag":
            d, e = _laguerre_chis(n, spec.a, spec.beta, streams)
        else:  # c-matrix
            d, e = _c_matrix_chis(n, spec.beta, streams)
        table = positive_spectrum_batch(bidiagonal_read_off(d, e))
    _check_rows(table)
    return table


def cmd_sample(args: argparse.Namespace) -> int:
    _emit_table(args, *_sample_rows(args))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    try:
        reports = verify.run_suite(args.suite, args.seed)
    except KeyError:
        sys.stderr.write(f"unknown suite: {args.suite}\n")
        return 2
    doc = json.dumps({"reports": [dataclasses.asdict(r) for r in reports]}, indent=2)
    _write(doc, args.out)
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_density(args: argparse.Namespace) -> int:
    point = [float(v) for v in args.point.split(",") if v]
    if not all(map(math.isfinite, point)):
        raise ParameterError(f"--point takes finite eigenvalues, got {args.point!r}")
    from .densities import logpdf_positive_spectrum
    val = logpdf_positive_spectrum(np.asarray(point), args.n, args.beta)
    doc = json.dumps({"provenance": _provenance(args),
                      "point": point,
                      "log_density": val.log_value if val.in_support else "-inf",
                      "in_support": val.in_support})
    _write(doc, args.out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    grid = np.empty(0)
    try:
        lo, hi, num = text.split(":")
        lo, hi = float(lo), float(hi)
        if math.isfinite(hi - lo) and hi > lo:
            grid = np.linspace(lo, hi, int(num))
    except ValueError:
        pass
    grid = grid[grid > 0]
    if not grid.size:
        raise ParameterError(f"--grid takes lo:hi:num (e.g. 0:4:41), got {text!r}")
    return grid


def cmd_prufer(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    t = build_antisym_tridiagonal(args.n, args.beta, RandomStream(args.seed))
    from .sturm import prufer_phases
    header = ["mu"] + [f"theta_{i}" for i in range(2, args.n + 1)]
    _emit_table(args, header, np.column_stack([grid, prufer_phases(t, grid)]))
    return 0


def cmd_householder(args: argparse.Namespace) -> int:
    dense = build_dense_antisym_gue(args.n, RandomStream(args.seed))
    reduced = householder_reduce(dense)
    doc = json.dumps({
        "provenance": _provenance(args),
        "dense": [[float(v) for v in row] for row in dense.a],
        "superdiagonal_top_down": [float(v) for v in
                                   reduced.superdiagonal_top_down()],
    }, indent=2)
    _write(doc, args.out)
    return 0


_OPTIONS = {
    "--ensemble": dict(choices=EnsembleSpec.KINDS, default="antisym-trid"),
    "--suite": dict(required=True),
    "--n": dict(type=int, default=4),
    "--beta": dict(type=float, default=2.0),
    "--a": dict(type=float, default=None),
    "--reps": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--point": dict(required=True, help="comma-separated eigenvalues, descending"),
    "--grid": dict(default="0:4:41", help="lo:hi:num"),
    "--out": dict(default=None),
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
}

# each subcommand declares only the options its handler reads
_COMMANDS = (
    ("sample", cmd_sample, "draw replicates of an ensemble",
     ("--ensemble", "--n", "--beta", "--a", "--reps", "--seed", "--out", "--format")),
    ("verify", cmd_verify, "run a verification suite", ("--suite", "--seed", "--out")),
    ("density", cmd_density, "evaluate the eigenvalue log-density",
     ("--n", "--beta", "--point", "--out")),
    ("prufer", cmd_prufer, "phase table on a mu grid",
     ("--n", "--beta", "--seed", "--grid", "--out", "--format")),
    ("householder", cmd_householder, "dense draw and its tridiagonal reduction",
     ("--n", "--seed", "--out")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbeta",
        description="Anti-symmetric tridiagonal beta-ensemble toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text, options in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # ParameterError and SizeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
