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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._kernels import partial_sums_at

# runs per chunk of the built-in generators: 2^16 runs are 512 KB per
# array, so a chunk's values, counts and running sums stay in a 2 MB L2
CHUNK_RUNS = 2**16


def index_chunks(start, stop, count=1):
    """The indices start..stop-1 as float64 arrays of at most CHUNK_RUNS
    entries, from which a chunk generator computes its runs in place,
    each with `count` as its counts: a read-only 0-d int64 array, the
    count of every run.

    Every chunk is written into one buffer allocated per call: a chunk is
    valid until the next one is requested, and the generator may
    overwrite it with its values.  The indices are exact integers below
    2^53."""
    size = min(CHUNK_RUNS, stop - start)
    if size <= 0:
        return
    base = np.arange(size, dtype=np.float64)
    buf = np.empty(size)
    counts = np.array(count, dtype=np.int64)
    counts.flags.writeable = False
    for lo in range(start, stop, size):
        m = min(size, stop - lo)
        yield np.add(base[:m], float(lo), out=buf[:m]), counts


class SingularValueSeq:
    """Lazily enumerated non-increasing positive sequence with
    multiplicity runs, read as a stream of (values, counts) chunks.  A
    chunk's `counts` is one int64 count per run, of shape `values.shape`,
    or a 0-d int64 array, the count of every run in the chunk.

    `chunks_fn(max_terms)` yields chunks that together cover at least
    max_terms terms; a CSV of runs, known all at once, is one chunk.  The
    built-in generators write each chunk in place into buffers they reuse
    for the next one, so a chunk is read-only and valid until the next
    chunk is requested: copy it to keep it.  `kernel_dim` records omitted
    kernel modes (the inverse is taken to vanish on the kernel)."""

    def __init__(self, chunks_fn, name="seq", kernel_dim=0):
        self._chunks_fn = chunks_fn
        self.name = name
        self.kernel_dim = kernel_dim

    def chunks(self, max_terms):
        """The non-empty chunks covering at least max_terms terms, checked
        within each chunk and across each chunk boundary, as read-only
        views valid until the next chunk is requested."""
        last = math.inf
        for values, counts in self._chunks_fn(max_terms):
            if len(values) == 0:
                continue
            # one pass: the order test is False on any NaN, so a positive
            # tail and a finite head bound every value
            if not (counts.shape in ((), values.shape)
                    and values[0] <= last
                    and np.all(values[1:] <= values[:-1])
                    and values[-1] > 0 and math.isfinite(values[0])
                    and counts.min() >= 1):
                self._reject(values, counts)
            last = values[-1]
            yield _read_only(values), _read_only(counts)

    def _reject(self, values, counts):
        """Raise for a chunk that failed the one-pass check; a count of
        the wrong shape is named first, then a value that is not finite
        and positive, then a break in order."""
        if counts.shape not in ((), values.shape):
            raise ValueError(f"{self.name}: needs one count, "
                             "or one count per value")
        if (not np.all(values > 0) or not math.isfinite(values[0])
                or np.any(counts < 1)):
            raise ValueError(f"{self.name}: needs finite positive values "
                             "and counts >= 1")
        raise ValueError(f"{self.name}: values must be non-increasing")

    def runs(self, max_terms):
        """Every run covering at least max_terms terms as one (values,
        counts) pair, with one count per run; each chunk is copied before
        the next is drawn."""
        values, counts = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
        for v, c in self.chunks(max_terms):
            values.append(v.copy())
            counts.append(np.broadcast_to(c, v.shape).copy())
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
                # the source is unchecked: a 0-d count is written out one
                # per run, any other counts pass as they are
                if counts.ndim == 0:
                    counts = np.broadcast_to(counts, values.shape)
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


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


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
        for ks, ones in index_chunks(0, n):
            ks += 1.0
            yield np.divide(1.0, ks, out=ks), ones
    return SingularValueSeq(name="harmonic", chunks_fn=chunks)


def harmonic_doubled():
    def chunks(n):
        for ks, twos in index_chunks(1, n // 2 + 2, count=2):
            yield np.divide(1.0, ks, out=ks), twos
    return SingularValueSeq(name="harmonic-doubled", chunks_fn=chunks)


def geometric():
    def chunks(n):
        m = min(n, 900)  # deeper terms would underflow
        for ks, ones in index_chunks(0, m):
            yield np.power(0.5, ks, out=ks), ones
        if m < n:  # constant subnormal-free tail so checkpoints resolve
            yield ks[-1:], np.array([n - m], dtype=np.int64)
    return SingularValueSeq(name="geometric", chunks_fn=chunks)


def telescoping_log():
    def chunks(n):
        above = np.empty(min(CHUNK_RUNS, max(n, 0)))    # ks + 2.0
        for ks, ones in index_chunks(0, n):
            num = np.add(ks, 2.0, out=above[:len(ks)])
            ks += 1.0
            np.divide(num, ks, out=ks)
            yield np.log(ks, out=ks), ones
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
            for ks, ones in index_chunks(lo, hi):
                if level % 2:
                    ks += 2.0 * lo
                    np.divide(3.0, ks, out=ks)
                else:
                    np.divide(1.0, ks, out=ks)
                yield ks, ones
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
    time; each N must be an integer >= 0, and no N gives no sums."""
    ns = _term_indices(ns)
    if len(ns) == 0:
        return np.empty(0)
    order = np.argsort(ns, kind='stable')
    wanted = ns[order] + 1          # ascending 1-based term counts
    out = np.empty(len(ns))
    done, carry = 0, (0, 0.0)
    for values, counts in seq.chunks(int(ns.max()) + 1):
        sums, carry = partial_sums_at(values, counts, wanted[done:], carry)
        out[order[done:done + len(sums)]] = sums
        done += len(sums)
    if done < len(wanted):
        raise ValueError("checkpoint beyond enumerated terms")
    return out


def _term_indices(ns):
    """ns as int64, refusing anything but a list of integers N >= 0 whose
    N + 1 terms count in int64 (an integral float is its integer)."""
    ns = np.asarray(ns)
    if ns.dtype.kind == 'f' and np.all((np.trunc(ns) == ns)
                                       & (abs(ns) < 2.0**63)):
        ns = ns.astype(np.int64)
    if ns.ndim == 1 and ns.dtype.kind in 'iu':
        ns = ns.astype(np.int64)    # a uint64 past int64 wraps below 0
        if np.all((ns >= 0) & (ns < np.iinfo(np.int64).max)):
            return ns
    raise ValueError("checkpoints must be a list of integers "
                     "0 <= N < 2^63 - 1")


def partial_ratio(seq, n):
    """(1/log N) sum_{k=0..N} mu_k."""
    if n < 2:
        raise ValueError("the logarithmic ratio needs N >= 2")
    ratio = partial_sum(seq, n) / math.log(n)
    if not math.isfinite(ratio):
        raise ValueError("partial ratio overflows float64")
    return ratio


def pinfty_norm(seq, p, n):
    """Partial sup of the (p, infinity) functional up to N (sup over
    N >= 1): the largest partial_sum(seq, k) / k^(1 - 1/p), k = 1..N.
    Each ratio is the one `partial_sums` gives; they are formed half a
    chunk at a time, since the kernel holds several arrays per checkpoint,
    and folded into a running maximum."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    n = int(_term_indices([n])[0])
    if n < 1:
        raise ValueError("N >= 1")
    best = -math.inf
    k, carry = 1, (0, 0.0)          # the next k to answer
    step = CHUNK_RUNS // 2
    for values, counts in seq.chunks(n + 1):
        start = carry
        while k <= n:
            wanted = np.arange(k + 1, min(k + step, n) + 2, dtype=np.int64)
            sums, carry = partial_sums_at(values, counts, wanted, start)
            ratios = np.arange(k, k + len(sums), dtype=np.float64)
            np.power(ratios, 1.0 - 1.0 / p, out=ratios)
            np.divide(sums, ratios, out=ratios)
            best = max(best, float(ratios.max(initial=-math.inf)))
            k += len(sums)
            if k >= carry[0]:       # term k + 1 lies past this chunk
                break
    if k <= n:
        raise ValueError("checkpoint beyond enumerated terms")
    return best


def p1_norm(seq, p, n):
    """Partial sum of the (p,1) functional: sum_{k=1..N} k^(1/p - 1) mu_k;
    the k = 0 term is excluded (its weight is singular as written).  For
    p >= 1 the weighted terms are non-increasing, so they are a sequence
    of their own, written out in place at most CHUNK_RUNS terms at a time
    and added left to right by `partial_sum`."""
    if not p >= 1:
        raise ValueError("p must be at least 1")
    if n < 1:
        return 0.0

    def chunks_fn(m):               # weighted terms k = 1..m
        first = 0                   # index of the chunk's first term
        for values, counts in seq.chunks(m + 1):
            ends = np.cumsum(np.broadcast_to(counts, values.shape))
            stop = min(first + int(ends[-1]), m + 1)
            # ks counts from the chunk's first term until mu is read
            for ks, ones in index_chunks(max(first, 1) - first,
                                         stop - first):
                mu = values[np.searchsorted(ends, ks, side='right')]
                ks += first
                ks **= 1.0 / p - 1.0
                ks *= mu
                yield ks, ones
            first += int(ends[-1])
    return partial_sum(SingularValueSeq(chunks_fn, name=f"{seq.name}-p{p}"),
                       n - 1)


@dataclass
class TraceEstimate:
    value: float
    error_bar: float
    schedule: list
    ratios: list
    model: ClassVar[str] = "c0 + c1/log N"

    def as_dict(self):
        return {"value": self.value, "error_bar": self.error_bar,
                "schedule": list(map(int, self.schedule)),
                "model": self.model}


def dixmier_estimate(seq, schedule):
    """Least-squares fit of the partial ratio against c0 + c1/log N over
    the schedule; the error bar is the largest fit residual."""
    schedule = _term_indices(schedule).tolist()
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 points")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase")
    if schedule[0] < 2:
        raise ValueError("the logarithmic ratio needs N >= 2")
    sums = partial_sums(seq, schedule)
    logs = np.log(np.array(schedule, dtype=np.float64))
    with np.errstate(over='ignore'):
        ratios = sums / logs
    if not np.isfinite(ratios).all():
        raise ValueError("partial ratio overflows float64")
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
    if not tol > 0:
        raise ValueError("tol must be positive")
    sched_a = [2 ** k for k in range(10, 20, 2)]
    sched_b = [int(2 ** (k + 0.5)) for k in range(10, 20, 2)]
    ea = dixmier_estimate(seq, sched_a)
    eb = dixmier_estimate(seq, sched_b)
    return abs(ea.value - eb.value) <= tol
