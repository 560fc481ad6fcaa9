"""Singular-value ideal norms and logarithmic trace estimation.

Sequences are non-increasing positive reals encoded as (value, count)
runs and read as a stream of chunks of at most CHUNK_RUNS runs, so
partial sums, norms and trace estimates hold one chunk in memory at a
time however many terms they sum.  The trace estimate extrapolates the
slowly varying partial ratio in 1/log N, which the harmonic prototype
makes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import partial_sums_at

# runs per chunk of the built-in generators: 2^16 runs are 512 KB per
# array, so a chunk's values, counts and running sums stay in a 2 MB L2
CHUNK_RUNS = 2**16


def index_chunks(start, stop):
    """The indices start..stop-1 as float64 arrays of at most CHUNK_RUNS
    entries, from which a chunk generator computes its runs."""
    step = CHUNK_RUNS
    for lo in range(start, stop, step):
        yield np.arange(lo, min(lo + step, stop), dtype=np.float64)


class SingularValueSeq:
    """Lazily enumerated non-increasing positive sequence with
    multiplicity runs, read as a stream of (values, counts) chunks.

    `chunks_fn(max_terms)` yields chunks that together cover at least
    max_terms terms; a CSV of runs, known all at once, is one chunk.
    `kernel_dim` records omitted kernel modes (the inverse is taken to
    vanish on the kernel)."""

    def __init__(self, chunks_fn, name="seq", kernel_dim=0):
        self._chunks_fn = chunks_fn
        self.name = name
        self.kernel_dim = kernel_dim

    def chunks(self, max_terms):
        """The non-empty chunks covering at least max_terms terms, checked
        within each chunk and across each chunk boundary."""
        last = math.inf
        for values, counts in self._chunks_fn(max_terms):
            if len(values) == 0:
                continue
            # one pass: the order test is False on any NaN, so a positive
            # tail and a finite head bound every value
            if not (values[0] <= last and np.all(values[1:] <= values[:-1])
                    and values[-1] > 0 and math.isfinite(values[0])
                    and counts.min() >= 1):
                self._reject(values, counts)
            last = values[-1]
            yield values, counts

    def _reject(self, values, counts):
        """Raise for a chunk that failed the one-pass check; a value that
        is not finite and positive is named before any break in order."""
        if (not np.all(values > 0) or not math.isfinite(values[0])
                or np.any(counts < 1)):
            raise ValueError(f"{self.name}: needs finite positive values "
                             "and counts >= 1")
        raise ValueError(f"{self.name}: values must be non-increasing")

    def runs(self, max_terms):
        """Every run covering at least max_terms terms as one (values,
        counts) pair."""
        values, counts = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
        for v, c in self.chunks(max_terms):
            values.append(v)
            counts.append(c)
        return np.concatenate(values), np.concatenate(counts)

    def mapped(self, fn, name):
        """The sequence whose values are fn(values), chunk by chunk; fn
        must keep them non-increasing and positive."""
        source = self._chunks_fn

        def chunks_fn(n):
            for values, counts in source(n):
                yield fn(values), counts
        return SingularValueSeq(name=name, kernel_dim=self.kernel_dim,
                                chunks_fn=chunks_fn)

    def scaled(self, lam):
        return self.mapped(lambda v: v * lam, f"{lam}*{self.name}")

    def with_prefix(self, prefix_values):
        """Replace the first len(prefix_values) terms (finite-rank edit);
        prefix must keep the sequence admissible.  Each prefix value is
        held back until the chunk where it belongs, and comes first among
        equal values."""
        source = self._chunks_fn
        prefix = np.asarray(sorted(prefix_values, reverse=True), dtype=float)

        def chunks_fn(n):
            pending, drop = prefix, len(prefix)
            for values, counts in source(n + len(prefix)):
                values, counts, drop = _drop_terms(values, counts, drop)
                # values of this chunk strictly above each pending value
                pos = np.searchsorted(-values, -pending, side='left')
                k = int(np.count_nonzero(pos < len(values)))
                yield (np.insert(values, pos[:k], pending[:k]),
                       np.insert(counts, pos[:k], 1))
                pending = pending[k:]
            if len(pending):
                yield pending, np.ones(len(pending), dtype=np.int64)
        return SingularValueSeq(name=f"{self.name}+prefix",
                                kernel_dim=self.kernel_dim,
                                chunks_fn=chunks_fn)


def _drop_terms(values, counts, k):
    """Remove the first k terms of a chunk; also returns how many terms
    later chunks must still drop."""
    if k == 0:
        return values, counts, 0
    total = int(counts.sum())
    if k >= total:
        return values[:0], counts[:0], k - total
    ends = np.cumsum(counts)
    i = int(np.searchsorted(ends, k, side='right'))  # runs dropped whole
    counts = counts[i:].copy()
    counts[0] = ends[i] - k
    return values[i:], counts, 0


# ----------------------------------------------------------------------
# built-in sequences: one chunk generator each

def harmonic():
    def chunks(n):
        for ks in index_chunks(0, n):
            yield 1.0 / (ks + 1.0), np.ones(len(ks), dtype=np.int64)
    return SingularValueSeq(name="harmonic", chunks_fn=chunks)


def harmonic_doubled():
    def chunks(n):
        for ks in index_chunks(1, n // 2 + 2):
            yield 1.0 / ks, np.full(len(ks), 2, dtype=np.int64)
    return SingularValueSeq(name="harmonic-doubled", chunks_fn=chunks)


def geometric():
    def chunks(n):
        m = min(n, 900)  # deeper terms would underflow
        for ks in index_chunks(0, m):
            v = 0.5 ** ks
            yield v, np.ones(len(ks), dtype=np.int64)
        if m < n:  # constant subnormal-free tail so checkpoints resolve
            yield v[-1:], np.array([n - m], dtype=np.int64)
    return SingularValueSeq(name="geometric", chunks_fn=chunks)


def telescoping_log():
    def chunks(n):
        for ks in index_chunks(0, n):
            yield (np.log((ks + 2.0) / (ks + 1.0)),
                   np.ones(len(ks), dtype=np.int64))
    return SingularValueSeq(name="telescoping-log", chunks_fn=chunks)


def block_oscillator():
    """Alternating logarithmic slopes over blocks whose lengths double in
    log scale (boundaries B, B^2, B^4, ...): slope-1 blocks carry 1/n,
    slope-3 blocks carry 3/(n + 2 B_entry), which matches the incoming
    value at each entry so the sequence stays non-increasing while the
    partial ratio oscillates without settling.  Chunks end at the level
    boundaries, so each chunk evaluates one level's expression."""
    def chunks(n):
        bounds = [8]
        while bounds[-1] < n:
            bounds.append(int(math.ceil(bounds[-1] ** 2)))
        edges = [1] + [b for b in bounds if b < n + 1] + [n + 1]
        for level, (lo, hi) in enumerate(zip(edges, edges[1:])):
            for ks in index_chunks(lo, hi):
                values = 3.0 / (ks + 2.0 * lo) if level % 2 else 1.0 / ks
                yield values, np.ones(len(ks), dtype=np.int64)
    return SingularValueSeq(name="block-oscillator", chunks_fn=chunks)


BUILTINS = {
    "harmonic": harmonic,
    "harmonic-doubled": harmonic_doubled,
    "geometric": geometric,
    "telescoping-log": telescoping_log,
    "block-oscillator": block_oscillator,
}


# ----------------------------------------------------------------------
# norm functionals and the trace estimate

def partial_sum(seq, n):
    """Sum of mu_0..mu_N inclusive (N+1 terms, the displayed convention)."""
    return float(partial_sums(seq, [n])[0])


def partial_sums(seq, ns):
    """partial_sum for each N in ns (any order), summed one chunk at a
    time."""
    ns = np.asarray(ns, dtype=np.int64)
    order = np.argsort(ns, kind='stable')
    wanted = ns[order] + 1          # ascending 1-based term counts
    out = np.empty(len(ns))
    done, carry = 0, (0, 0.0)
    for values, counts in seq.chunks(int(ns.max()) + 1):
        end = carry[0] + int(counts.sum())
        upto = int(np.searchsorted(wanted, end, side='right'))
        # the chunk's end is one more checkpoint: its sum is the next carry
        sums = partial_sums_at(values, counts,
                               np.append(wanted[done:upto], end), carry)
        out[order[done:upto]] = sums[:-1]
        done, carry = upto, (end, sums[-1])
    if done < len(wanted):
        raise ValueError("checkpoint beyond enumerated terms")
    return out


def partial_ratio(seq, n):
    """(1/log N) sum_{k=0..N} mu_k."""
    if n < 2:
        raise ValueError("the logarithmic ratio needs N >= 2")
    return partial_sum(seq, n) / math.log(n)


def pinfty_norm(seq, p, n):
    """Partial sup of the (p, infinity) functional up to N (sup over
    N >= 1): the largest partial_sum(seq, k) / k^(1 - 1/p), k = 1..N.
    Each ratio is the one `partial_sums` gives; they are formed half a
    chunk at a time, since the kernel holds several arrays per checkpoint,
    and folded into a running maximum."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    if n < 1:
        raise ValueError("N >= 1")
    best = -math.inf
    carry = (0, 0.0)
    step = CHUNK_RUNS // 2
    for values, counts in seq.chunks(n + 1):
        end = carry[0] + int(counts.sum())
        # the k whose k + 1 terms end inside this chunk; the chunk's end
        # is one more checkpoint, and its sum is the next carry
        stop = min(end, n + 1)
        for lo in range(max(carry[0], 1), stop, step) or [stop]:
            hi = min(lo + step, stop)
            wanted = np.arange(lo + 1, hi + 2, dtype=np.int64)
            wanted[-1] = end
            sums = partial_sums_at(values, counts, wanted, carry)
            total = sums[-1]
            if hi > lo:
                ratios = np.arange(lo, hi, dtype=np.float64)
                np.power(ratios, 1.0 - 1.0 / p, out=ratios)
                np.divide(sums[:-1], ratios, out=ratios)
                best = max(best, float(ratios.max()))
        carry = (end, total)
    if carry[0] < n + 1:
        raise ValueError("checkpoint beyond enumerated terms")
    return best


def p1_norm(seq, p, n):
    """Partial sum of the (p,1) functional: sum_{k=1..N} k^(1/p - 1) mu_k;
    the k = 0 term is excluded (its weight is singular as written).  For
    p >= 1 the weighted terms are non-increasing, so they are a sequence
    of their own, written out at most CHUNK_RUNS terms at a time and added
    left to right by `partial_sum`."""
    if not p >= 1:
        raise ValueError("p must be at least 1")
    if n < 1:
        return 0.0

    def chunks_fn(m):               # weighted terms k = 1..m
        first = 0                   # index of the chunk's first term
        for values, counts in seq.chunks(m + 1):
            ends = np.cumsum(counts)
            stop = min(first + int(ends[-1]), m + 1)
            for ks in index_chunks(max(first, 1), stop):
                mu = values[np.searchsorted(ends, ks - first, side='right')]
                weights = ks ** (1.0 / p - 1.0)
                yield weights * mu, np.ones(len(ks), dtype=np.int64)
            first += int(ends[-1])
    return partial_sum(SingularValueSeq(chunks_fn, name=f"{seq.name}-p{p}"),
                       n - 1)


@dataclass
class TraceEstimate:
    value: float
    error_bar: float
    schedule: list
    model: str = "c0 + c1/log N"
    ratios: list = field(default_factory=list)

    def as_dict(self):
        return {"value": self.value, "error_bar": self.error_bar,
                "schedule": list(map(int, self.schedule)),
                "model": self.model}


def dixmier_estimate(seq, schedule):
    """Least-squares fit of the partial ratio against c0 + c1/log N over
    the schedule; the error bar is the largest fit residual."""
    schedule = [int(n) for n in schedule]
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 points")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase")
    sums = partial_sums(seq, np.array(schedule))
    logs = np.log(np.array(schedule, dtype=np.float64))
    ratios = sums / logs
    x = 1.0 / logs
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, ratios, rcond=None)
    resid = ratios - A @ coef
    return TraceEstimate(value=float(coef[0]),
                         error_bar=float(np.max(np.abs(resid))),
                         schedule=schedule,
                         ratios=[float(r) for r in ratios])


def default_schedule():
    return [10**4, 10**5, 10**6, 10**7]


def is_measurable(seq, tol):
    """Estimates over two interleaved dyadic schedules, 2^10..2^18 and
    2^10.5..2^18.5, agree within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sched_a = [2 ** k for k in range(10, 20, 2)]
    sched_b = [int(2 ** (k + 0.5)) for k in range(10, 20, 2)]
    ea = dixmier_estimate(seq, sched_a)
    eb = dixmier_estimate(seq, sched_b)
    return abs(ea.value - eb.value) <= tol
