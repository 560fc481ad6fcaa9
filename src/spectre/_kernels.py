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
    running sum starts from the carried sum in slot 0 of its buffer,
    which makes it the same left-to-right sequence of additions as one
    cumsum over the whole sequence: chunked partial sums are
    bit-identical to unchunked ones.

    A checkpoint landing inside a run takes the pro-rata number of copies;
    checkpoints beyond the enumerated terms raise.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    ns = np.asarray(checkpoints, dtype=np.int64)
    carry_terms, carry_sum = carry
    total = carry_terms + int(counts.sum())
    if ns.size and (len(values) == 0 or ns.max() > total):
        raise ValueError("checkpoint beyond enumerated terms")
    # entry i is the sum before run i; the last entry is after all runs
    cum_sums = np.empty(len(values) + 1)
    cum_sums[0] = carry_sum
    np.multiply(values, counts, out=cum_sums[1:])
    np.cumsum(cum_sums, out=cum_sums)
    out = np.full(ns.shape, cum_sums[-1])
    inside = ns < total
    if inside.any():
        # the running term count, only for checkpoints short of the end
        cum_counts = np.empty(len(counts) + 1, dtype=np.int64)
        cum_counts[0] = carry_terms
        cum_counts[1:] = counts
        np.cumsum(cum_counts, out=cum_counts)
        part = ns[inside]
        # the run holding term N
        idx = np.maximum(np.searchsorted(cum_counts, part, side='left') - 1,
                         0)
        out[inside] = cum_sums[idx] + (part - cum_counts[idx]) * values[idx]
    return out
