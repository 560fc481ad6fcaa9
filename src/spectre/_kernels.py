"""Run-length partial-sum kernel (NumPy)."""

import numpy as np

# the one implementation; recorded in benchmark provenance
IMPL = "python"


def partial_sums_at(values, counts, checkpoints, carry=(0, 0.0)):
    """Sum of the first N terms of the sequence given by (value, count)
    runs, for each N in checkpoints (1-based term counts).

    `carry` is (terms, sum) of everything before these runs, so a long
    sequence can be summed one chunk at a time; checkpoints then count
    from the start of the sequence and must not precede the chunk.  The
    running sum prepends the carried sum, which makes it the same
    left-to-right sequence of additions as one cumsum over the whole
    sequence: chunked partial sums are bit-identical to unchunked ones.

    A checkpoint landing inside a run takes the pro-rata number of copies;
    checkpoints beyond the enumerated terms raise.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    ns = np.asarray(checkpoints, dtype=np.int64)
    carry_terms, carry_sum = carry
    # entry i is the state before run i; the last entry is after all runs
    cum_counts = np.cumsum(np.concatenate(([carry_terms], counts)))
    cum_sums = np.cumsum(np.concatenate(([carry_sum], values * counts)))
    if ns.size and (len(values) == 0 or ns.max() > cum_counts[-1]):
        raise ValueError("checkpoint beyond enumerated terms")
    # the run holding term N
    idx = np.maximum(np.searchsorted(cum_counts, ns, side='left') - 1, 0)
    return cum_sums[idx] + (ns - cum_counts[idx]) * values[idx]
