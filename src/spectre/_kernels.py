"""Run-length partial-sum kernel (NumPy)."""

import numpy as np

# the one implementation; recorded in benchmark provenance
IMPL = "python"


def partial_sums_at(values, counts, checkpoints):
    """Sum of the first N terms of the sequence given by (value, count)
    runs, for each N in checkpoints (1-based term counts).

    A checkpoint landing inside a run takes the pro-rata number of copies;
    checkpoints beyond the enumerated terms raise.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    ns = np.asarray(checkpoints, dtype=np.int64)
    if len(values) == 0:
        if ns.size:
            raise ValueError("checkpoint beyond enumerated terms")
        return np.zeros(0)
    cum_counts = np.cumsum(counts)
    if ns.size and ns.max() > cum_counts[-1]:
        raise ValueError("checkpoint beyond enumerated terms")
    cum_sums = np.cumsum(values * counts)
    idx = np.searchsorted(cum_counts, ns, side='left')
    out = np.empty(len(ns), dtype=np.float64)
    for k in range(len(ns)):
        n, i = ns[k], idx[k]
        prev_cnt = cum_counts[i - 1] if i > 0 else 0
        prev_sum = cum_sums[i - 1] if i > 0 else 0.0
        out[k] = prev_sum + (n - prev_cnt) * values[i]
    return out
