"""Working memory of the batch kernels: each one's traced peak stays within a
small multiple of its output (of its input, for the KS statistic) at 2e5
rows, where the draws, the tables and the sort dominate."""

import tracemalloc

import numpy as np
import pytest

from skewbeta import chain, ensembles, spectral, stats, transform
from skewbeta.streams import RandomStream, gamma_table

ROWS = 200_000


def _peak(call):
    """``call()``'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scale", [None, 1.0])
def test_gamma_table_draws_into_its_table(scale):
    # n = 5, beta = 2: one of the four shapes is below 1 and takes the boost
    table, peak = _peak(lambda: gamma_table([0.5, 1.0, 1.5, 2.0], [RandomStream(1)], ROWS,
                                            scale))
    assert table.shape == (1, 4, ROWS)
    # the table, the small shape's uniforms and a few blocks
    assert peak <= 1.6 * table.nbytes


@pytest.mark.parametrize("constant", [0, 1])
def test_closed_form_roots_in_blocks_of_rows(constant):
    rng = np.random.default_rng(2)
    poles = -np.sort(-rng.gamma(1.0, size=(ROWS, 2)), axis=1)
    weights = rng.gamma(1.0, size=(ROWS, 2))
    roots, peak = _peak(lambda: chain.secular_roots(constant, poles, weights))
    assert roots.shape == (ROWS, 1 + constant)
    # the roots and the temporaries of one block of rows
    assert peak <= 1.5 * roots.nbytes


def test_chain_batch_working_memory():
    # n = 5: every border step is solved in closed form; a step holds the
    # spectra before it, their poles and weights, and the roots
    lam, peak = _peak(lambda: chain.chain_sample_batch(5, 2.0, RandomStream(3), ROWS))
    assert lam.shape == (ROWS, 2)
    assert peak <= 4.5 * lam.nbytes


@pytest.mark.parametrize("n,rows,bound", [(5, ROWS, 2.75), (10, 20_000, 3.0)])
def test_positive_spectrum_batch_working_memory(n, rows, bound):
    # the spectra and the first vector entries, which become q in place;
    # n = 10 takes dbdsqr row by row (a ctypes call each, hence fewer rows)
    # through a buffer of one block of rows
    b = ensembles.antisym_tridiagonal_batch(n, 2.0, RandomStream(4), rows)
    spectral.positive_spectrum_batch(b[:1])  # loads LAPACK, untraced
    lam, peak = _peak(lambda: spectral.positive_spectrum_batch(b))
    assert peak <= bound * lam.nbytes


def test_laguerre_map_divides_in_place():
    seq, peak = _peak(lambda: transform.laguerre_map_batch(5, 2.0, RandomStream(5), ROWS))
    assert seq.shape == (ROWS, 4)
    # the draw table and the interleaved sequences, and no third copy
    assert peak <= 2.3 * seq.nbytes


def test_ks_two_sample_keeps_no_pooled_arrays():
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal(ROWS), rng.standard_normal(ROWS + 1)
    _, peak = _peak(lambda: stats.ks_two_sample(x, y))
    # the two sorted copies and a few blocks of pooled values
    assert peak <= 2.0 * (x.nbytes + y.nbytes)
