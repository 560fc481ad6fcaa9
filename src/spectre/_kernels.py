"""Run-length partial-sum kernel (NumPy)."""

import math

import numpy as np

# the one implementation; recorded in benchmark provenance
IMPL = "python"


@np.errstate(over='ignore')
def partial_sums_at(values, counts, checkpoints, carry=(0, 0.0)):
    """Sums of the first N terms of the sequence given by (value, count)
    runs, for the leading N of the ascending checkpoints (1-based term
    counts) that fall inside these runs; returns (sums, carry).  `counts`
    is one count per run or a 0-d array, the count of every run, which
    the multiply takes as a scalar.

    `carry` is (terms, sum) of everything before these runs, and the
    returned carry is (terms, sum) at their end, so a long sequence is
    summed one chunk at a time; checkpoints count from the start of the
    sequence and must not precede the chunk, and those past its end are
    left unanswered.  The running sum starts from the carried sum in
    slot 0 of its buffer, which makes it the same left-to-right sequence
    of additions as one cumsum over the whole sequence: chunked partial
    sums are bit-identical to unchunked ones.

    A checkpoint landing inside a run takes the pro-rata number of copies.
    An answered sum past the float64 range raises; an overflowing carry
    is infinite, so it raises at the next checkpoint answered from it.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    ns = np.asarray(checkpoints, dtype=np.int64)
    carry_terms, carry_sum = carry
    terms = (int(counts) * len(values) if counts.ndim == 0
             else int(counts.sum()))
    end = carry_terms + terms
    part = ns[:int(np.searchsorted(ns, end, side='right'))]
    # entry i is the sum before run i; the last entry is after all runs
    cum_sums = np.empty(len(values) + 1)
    cum_sums[0] = carry_sum
    np.multiply(values, counts, out=cum_sums[1:])
    np.cumsum(cum_sums, out=cum_sums)
    sums = np.empty(0)
    if len(part):
        # the running term count, only for a chunk with checkpoints
        cum_counts = np.empty(len(values) + 1, dtype=np.int64)
        cum_counts[0] = carry_terms
        cum_counts[1:] = counts
        np.cumsum(cum_counts, out=cum_counts)
        # the run holding term N
        idx = np.maximum(np.searchsorted(cum_counts, part, side='left') - 1,
                         0)
        sums = cum_sums[idx] + (part - cum_counts[idx]) * values[idx]
    # the sums rise with N: the last one answered is the largest
    if len(sums) and not math.isfinite(sums[-1]):
        raise ValueError("partial sum overflows float64")
    return sums, (end, float(cum_sums[-1]))
