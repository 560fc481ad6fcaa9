"""Trace estimators against independently computed oracles.

Frozen oracle values below were produced by direct compensated summation
(math.fsum over explicit terms), independent of the run-length kernel
they check.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma

from spectre import dixmier as dx
from spectre import model_triples as mt
from spectre._kernels import partial_sums_at


# fsum over 1/(k+1), k = 0..N, computed once and frozen
HARMONIC_PARTIALS = {
    10**4: 9.787706026045383,
    10**5: 12.090156129763429,
    10**6: 14.392727722864723,
}


def test_kernel_implementations_agree():
    rng = np.random.default_rng(0)
    values = np.sort(rng.uniform(0.1, 5.0, size=500))[::-1].copy()
    counts = rng.integers(1, 7, size=500)
    total = counts.sum()
    ns = np.unique(rng.integers(1, total + 1, size=40))
    a, _ = partial_sums_at(values, counts, ns)
    # whole-array reference: every term written out, then summed
    b = np.cumsum(np.repeat(values, counts))[ns - 1]
    assert np.allclose(a, b, rtol=0, atol=1e-9)


def _loop_partial_sums_at(values, counts, ns):
    """The kernel's former checkpoint loop, kept as a bit-exact reference."""
    cum_counts = np.cumsum(counts)
    cum_sums = np.cumsum(values * counts)
    idx = np.searchsorted(cum_counts, ns, side='left')
    out = np.empty(len(ns), dtype=np.float64)
    for k in range(len(ns)):
        n, i = ns[k], idx[k]
        prev_cnt = cum_counts[i - 1] if i > 0 else 0
        prev_sum = cum_sums[i - 1] if i > 0 else 0.0
        out[k] = prev_sum + (n - prev_cnt) * values[i]
    return out


def test_kernel_matches_loop_reference_across_carries():
    rng = np.random.default_rng(1)
    values = np.sort(rng.uniform(0.1, 5.0, size=300))[::-1].copy()
    counts = rng.integers(1, 7, size=300)
    ends = np.cumsum(counts)
    ns = np.arange(1, ends[-1] + 1)
    expect = [x.hex() for x in _loop_partial_sums_at(values, counts, ns)]
    whole, whole_carry = partial_sums_at(values, counts, ns)
    assert [float(x).hex() for x in whole] == expect
    # the same runs in four chunks: each answers the checkpoints it holds
    # and carries the terms and the sum of everything up to its end
    got, carry = [], (0, 0.0)
    for lo, hi in ((0, 1), (1, 77), (77, 78), (78, 300)):
        sums, carry = partial_sums_at(values[lo:hi], counts[lo:hi],
                                      ns[len(got):], carry)
        assert carry[0] == ends[hi - 1]
        got += [float(x).hex() for x in sums]
    assert got == expect
    assert carry == whole_carry
    assert carry[1].hex() == float(whole[-1]).hex()


def test_kernel_leaves_checkpoints_past_the_chunk_unanswered():
    """Only the leading checkpoints inside the chunk are answered; the
    carry is the chunk's end whatever was asked."""
    values, counts = np.array([2.0, 1.0]), np.array([2, 3])
    for ns, expect in (([1, 5, 6, 9], [2.0, 7.0]), ([6, 7], []), ([], [])):
        sums, carry = partial_sums_at(values, counts, ns)
        assert sums.tolist() == expect
        assert carry == (5, 7.0)
    sums, carry = partial_sums_at(values, counts, [11, 15, 16], (10, 0.5))
    assert sums.tolist() == [2.5, 7.5] and carry == (15, 7.5)


@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_kernel_takes_a_0d_count_as_every_runs_count(count):
    """A 0-d count gives the sums and carry of the same chunk with one
    count per run bit for bit, with checkpoints at run ends and inside
    runs (pro rata), and chunk by chunk across carries."""
    rng = np.random.default_rng(count)
    values = np.sort(rng.uniform(0.1, 5.0, size=300))[::-1].copy()
    per_run = np.full(300, count, dtype=np.int64)
    shared = np.array(count, dtype=np.int64)
    ns = np.arange(1, 300 * count + 1)
    expect, expect_carry = partial_sums_at(values, per_run, ns)
    sums, carry = partial_sums_at(values, shared, ns)
    assert _hex(sums) == _hex(expect)
    assert carry[0] == expect_carry[0] == 300 * count
    assert carry[1].hex() == expect_carry[1].hex()
    got, carry = [], (0, 0.0)
    for lo, hi in ((0, 1), (1, 77), (77, 78), (78, 300)):
        sums, carry = partial_sums_at(values[lo:hi], shared,
                                      ns[len(got):], carry)
        assert carry[0] == hi * count
        got += _hex(sums)
    assert got == _hex(expect)
    assert carry[1].hex() == expect_carry[1].hex()


def test_kernel_with_a_0d_count_names_an_overflow():
    values = np.array([1e308, 1e308])
    for counts in (np.array([2, 2]), np.array(2)):
        sums, carry = partial_sums_at(values, counts, [1])
        assert sums.tolist() == [1e308] and carry[1] == math.inf
        with pytest.raises(ValueError, match="overflows float64"):
            partial_sums_at(values, counts, [3])


def _three_terms(n):
    yield np.array([3.0, 1.0]), np.array([1, 2])


@pytest.mark.parametrize("call", [
    lambda seq: dx.partial_sums(seq, [1, 3]),
    lambda seq: dx.pinfty_norm(seq, 2, 3),
    lambda seq: dx.p1_norm(seq, 2, 3),
], ids=["partial_sums", "pinfty_norm", "p1_norm"])
def test_checkpoint_beyond_enumerated_terms_raises(call):
    """A sequence that ends before the last checkpoint is an error at the
    caller, never a sum over the terms that exist."""
    seq = dx.SingularValueSeq(_three_terms, name="three-terms")
    with pytest.raises(ValueError,
                       match="checkpoint beyond enumerated terms"):
        call(seq)


def _unsummed(n):
    raise AssertionError("summed a term")
    yield


@pytest.mark.parametrize("ns", [[-2, 10], [-1], [3.7, 2], [0.5], [math.nan],
                                [math.inf], [1e30], [True], [2**70],
                                [2**63 - 1],
                                np.array([2**63], dtype=np.uint64),
                                [[1, 2]]])
def test_partial_sums_refuses_checkpoints_that_are_not_term_indices(ns):
    """A negative N once extrapolated back from term 0 to a negative sum,
    a fractional N was truncated, and N = 2^63 - 1, whose N + 1 terms wrap
    in int64, enumerated terms without end.  Each is named before any term
    is summed, and so is anything that is not a list of integers."""
    seq = dx.SingularValueSeq(_unsummed, name="unsummed")
    with pytest.raises(ValueError, match="list of integers 0 <= N"):
        dx.partial_sums(seq, ns)


def test_partial_sums_boundary_inputs():
    """No checkpoint gives no sums and sums no term; N = 0 is the first
    term; an integral float N is its integer; partial_sum(-1) is refused."""
    unsummed = dx.SingularValueSeq(_unsummed, name="unsummed")
    out = dx.partial_sums(unsummed, [])
    assert out.dtype == np.float64 and out.shape == (0,)
    h = dx.harmonic()
    assert dx.partial_sum(h, 0) == 1.0
    assert _hex(dx.partial_sums(h, [3.0, 2])) == \
        _hex(dx.partial_sums(h, [3, 2]))
    with pytest.raises(ValueError, match="list of integers 0 <= N"):
        dx.partial_sum(h, -1)


def test_harmonic_partial_sums_match_fsum_oracle():
    h = dx.harmonic()
    for n, expect in HARMONIC_PARTIALS.items():
        assert abs(dx.partial_sum(h, n) - expect) < 1e-9


def test_partial_ratio_examples():
    # telescoping: ratio = log(N+2)/log(N), analytically forced
    t = dx.telescoping_log()
    for n in (10**4, 10**6):
        assert abs(dx.partial_ratio(t, n)
                   - math.log(n + 2) / math.log(n)) < 1e-12
    # summable tail goes to zero like 1/log N
    g = dx.geometric()
    assert dx.partial_ratio(g, 10**6) < 0.15
    # harmonic approaches (log N + gamma)/log N
    h = dx.harmonic()
    n = 10**6
    gamma = 0.5772156649015329
    assert abs(dx.partial_ratio(h, n)
               - (math.log(n) + gamma) / math.log(n)) < 1e-5


def test_partial_ratio_needs_two_terms():
    with pytest.raises(ValueError):
        dx.partial_ratio(dx.harmonic(), 1)


def _ratio_past_float64(n):
    yield np.array([5e307, 1.0]), np.array([3, 5])


def test_partial_ratio_overflow_is_named():
    """The sum to N = 2 (1.5e308) fits float64; its ratio to log 2 does
    not, and is an error, not inf."""
    seq = dx.SingularValueSeq(_ratio_past_float64, name="ratio-past-float64")
    assert math.isfinite(dx.partial_sum(seq, 2))
    with pytest.raises(ValueError, match="partial ratio overflows float64"):
        dx.partial_ratio(seq, 2)
    with pytest.raises(ValueError, match="partial ratio overflows float64"):
        dx.dixmier_estimate(seq, [2, 3, 4])


def test_estimates_with_error_bars():
    sched = [10**4, 10**5, 10**6, 10**7]
    est = dx.dixmier_estimate(dx.harmonic(), sched)
    assert abs(est.value - 1) < 0.01 and est.error_bar < 0.01
    est2 = dx.dixmier_estimate(dx.harmonic_doubled(), sched)
    assert abs(est2.value - 2) < 0.02
    est3 = dx.dixmier_estimate(dx.geometric(), sched)
    assert abs(est3.value) < 0.01


def test_schedule_validation():
    with pytest.raises(ValueError):
        dx.dixmier_estimate(dx.harmonic(), [100, 50, 200])
    with pytest.raises(ValueError):
        dx.dixmier_estimate(dx.harmonic(), [100, 200])


@pytest.mark.parametrize("schedule", [[1, 10, 100], [0, 10, 100]])
def test_schedule_below_two_is_rejected_before_any_sum(schedule):
    """log N vanishes at N = 1 and is undefined below it; the schedule is
    refused before a single term is summed."""
    def chunks(n):
        raise AssertionError("summed a term")
        yield
    seq = dx.SingularValueSeq(chunks, name="unsummed")
    with pytest.raises(ValueError, match="N >= 2"):
        dx.dixmier_estimate(seq, schedule)


@pytest.mark.parametrize("schedule", [[2.5, 3, 4], [10, 100, 1e3 + 0.5],
                                      [10, 100, math.inf],
                                      [10, 100, math.nan], [[10, 100, 1000]]])
def test_schedule_of_non_integers_is_rejected_before_any_sum(schedule):
    """int() once truncated 2.5 to 2 and fitted the schedule [2, 3, 4];
    the rule is partial_sums' own, named before a term is summed."""
    seq = dx.SingularValueSeq(_unsummed, name="unsummed")
    with pytest.raises(ValueError, match="list of integers 0 <= N"):
        dx.dixmier_estimate(seq, schedule)


def test_schedule_of_integral_floats_is_its_integers():
    h = dx.harmonic()
    est = dx.dixmier_estimate(h, [10.0, 100, 1000])
    assert est.schedule == [10, 100, 1000]
    assert all(type(n) is int for n in est.schedule)
    assert est == dx.dixmier_estimate(h, [10, 100, 1000])


def test_trace_estimate_model_is_a_constant():
    """Four settable values; the model is the class's, and `as_dict`
    still reports it."""
    fields = [f.name for f in dataclasses.fields(dx.TraceEstimate)]
    assert fields == ["value", "error_bar", "schedule", "ratios"]
    est = dx.dixmier_estimate(dx.harmonic(), [10, 100, 1000])
    assert est.as_dict()["model"] == "c0 + c1/log N"


def test_linearity_on_measurable_merge():
    """The merged decreasing union of two measurable sequences estimates
    to the sum of the estimates."""
    h = dx.harmonic()
    g = dx.geometric()

    def merged(n):
        hv, hc = h.runs(n)
        gv, gc = g.runs(n)
        values = np.concatenate([hv, gv])
        counts = np.concatenate([hc, gc])
        order = np.argsort(-values, kind='stable')
        yield values[order], counts[order]
    m = dx.SingularValueSeq(merged, name="merged")
    sched = [10**4, 10**5, 10**6]
    em = dx.dixmier_estimate(m, sched)
    eh = dx.dixmier_estimate(h, sched)
    eg = dx.dixmier_estimate(g, sched)
    # the residual-based bar underestimates the extrapolation bias by an
    # order of magnitude at desk schedules; 1e-3 absolute slack covers it
    assert abs(em.value - (eh.value + eg.value)) <= \
        em.error_bar + eh.error_bar + eg.error_bar + 1e-3


def test_finite_rank_invariance():
    h = dx.harmonic()
    edited = h.with_prefix([50.0, 20.0, 7.5, 3.25])
    sched = [10**4, 10**5, 10**6]
    e0 = dx.dixmier_estimate(h, sched)
    e1 = dx.dixmier_estimate(edited, sched)
    assert abs(e0.value - e1.value) <= e0.error_bar + e1.error_bar + 1e-3


def test_positivity():
    for name, mk in dx.BUILTINS.items():
        est = dx.dixmier_estimate(mk(), [10**4, 10**5, 10**6])
        assert est.value >= -est.error_bar - 1e-12, name


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value="1/8", max_value="8"))
def test_homogeneity(lam):
    lam = float(lam)
    sched = [10**4, 10**5, 10**6]
    base = dx.dixmier_estimate(dx.harmonic(), sched).value
    scaled = dx.dixmier_estimate(dx.harmonic().scaled(lam), sched).value
    assert abs(scaled - lam * base) < 1e-9 * max(1.0, lam)


def test_pinfty_and_p1_norms():
    def power_seq(expo):
        def fn(n):
            ks = np.arange(1, n + 1, dtype=np.float64)
            yield ks ** expo, np.ones(n, dtype=np.int64)
        return dx.SingularValueSeq(fn, name=f"n^{expo}")

    s = power_seq(-0.5)
    # integral comparison: partial sums of n^(-1/2) stay below 2 sqrt(N),
    # so the (2,infinity) functional is bounded above by ~2
    vals = [dx.pinfty_norm(s, 2, n) for n in (10**3, 10**4, 10**5)]
    assert all(v <= 2.01 for v in vals)
    assert vals[0] <= vals[1] <= vals[2]  # monotone in N
    # geometric: both functionals converge
    g = dx.geometric()
    assert abs(dx.p1_norm(g, 2, 10**4) - dx.p1_norm(g, 2, 10**5)) < 1e-9
    assert abs(dx.pinfty_norm(g, 2, 10**4)
               - dx.pinfty_norm(g, 2, 10**3)) < 1e-9
    # homogeneity of the norms
    assert math.isclose(dx.pinfty_norm(s.scaled(3.0), 2, 1000),
                        3 * dx.pinfty_norm(s, 2, 1000), rel_tol=1e-12)
    assert math.isclose(dx.p1_norm(s.scaled(3.0), 2, 1000),
                        3 * dx.p1_norm(s, 2, 1000), rel_tol=1e-12)
    with pytest.raises(ValueError):
        dx.pinfty_norm(s, 1.0, 100)


def test_pinfty_norm_rejects_nan_p():
    with pytest.raises(ValueError, match="p must exceed 1"):
        dx.pinfty_norm(dx.harmonic(), math.nan, 10)


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan, "7", [3]])
def test_pinfty_norm_refuses_an_n_that_is_not_an_integer(n):
    """NumPy's TypeError once leaked from N = 2.5 and N = inf; the rule
    is partial_sums' own, named before a term is summed."""
    seq = dx.SingularValueSeq(_unsummed, name="unsummed")
    with pytest.raises(ValueError, match="list of integers 0 <= N"):
        dx.pinfty_norm(seq, 2, n)


def test_pinfty_norm_takes_an_integral_float_n():
    h = dx.harmonic()
    assert dx.pinfty_norm(h, 2, 700.0).hex() == dx.pinfty_norm(h, 2, 700).hex()


def _pinfty_all_at_once(seq, p, n):
    """The (p, infinity) partial sup from every checkpoint 1..N at once."""
    ns = np.arange(1, n + 1)
    sums = dx.partial_sums(seq, ns)
    return float(np.max(sums / ns ** (1.0 - 1.0 / p)))


@pytest.mark.parametrize("name", sorted(dx.BUILTINS))
def test_pinfty_norm_equals_the_all_at_once_formula(name):
    """The streamed running maximum is the sup over all checkpoints at
    once, bit for bit, across chunk ends and the checkpoint blocks."""
    seq = dx.BUILTINS[name]()
    for p in (1.25, 2, 3):
        for n in (1, 2, 7, 2**15, 2**15 + 1, 2**16 - 1, 2**16, 2**16 + 1,
                  70000):
            assert dx.pinfty_norm(seq, p, n).hex() == \
                _pinfty_all_at_once(seq, p, n).hex()


def test_pinfty_norm_streams_in_chunk_memory():
    """The checkpoints 1..N are formed a block at a time: at N = 10^6 the
    peak stays within p1_norm's, where all of them at once take ~37 MB."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn(dx.harmonic(), 2, 10**6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(dx.pinfty_norm) <= peak(dx.p1_norm)


@pytest.mark.parametrize("name", ["harmonic", "geometric"])
def test_p1_norm_does_not_depend_on_chunk_size(monkeypatch, name):
    """The (p,1) terms are added left to right onto a carried total, so
    the chunk size moves no bit of the sum."""
    seq = dx.BUILTINS[name]()
    default = [dx.p1_norm(seq, p, 5000).hex() for p in (1.5, 2, 3)]
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    assert [dx.p1_norm(seq, p, 5000).hex() for p in (1.5, 2, 3)] == default


@pytest.mark.parametrize("name", sorted(dx.BUILTINS))
def test_p1_norm_is_a_left_to_right_float_loop(name):
    """p1_norm equals the plain loop total += k^(1/p - 1) mu_k over
    k = 1..N bit for bit: the weighted terms are added one by one, in
    order, onto one running total."""
    n = 5000
    values, counts = dx.BUILTINS[name]().runs(n + 1)
    mu = np.repeat(values, counts)[:n + 1].tolist()
    for p in (1.5, 2, 3):
        total = 0.0
        for k in range(1, n + 1):
            total += k ** (1.0 / p - 1.0) * mu[k]
        assert dx.p1_norm(dx.BUILTINS[name](), p, n).hex() == total.hex()


def test_p1_norm_inputs():
    """N = 0 sums no term; p = 1 weights every term by 1; below p = 1 the
    weights would increase, and the functional is not defined."""
    h = dx.harmonic()
    assert dx.p1_norm(h, 2, 0) == 0.0
    assert dx.p1_norm(h, 1, 3) == 1 / 2 + 1 / 3 + 1 / 4
    for p in (0.999, 0.5, 0, -2, math.nan):
        with pytest.raises(ValueError, match="p must be at least 1"):
            dx.p1_norm(h, p, 100)


def test_measurability():
    assert dx.is_measurable(dx.harmonic(), 0.05)
    assert dx.is_measurable(dx.geometric(), 0.05)
    assert not dx.is_measurable(dx.block_oscillator(), 0.05)
    with pytest.raises(ValueError):
        dx.is_measurable(dx.harmonic(), 0.0)


def test_measurability_rejects_nan_tol():
    with pytest.raises(ValueError, match="tol must be positive"):
        dx.is_measurable(dx.harmonic(), math.nan)


def test_oscillator_really_oscillates():
    s = dx.block_oscillator()
    ratios = [dx.partial_ratio(s, n)
              for n in (2**8, 2**12, 2**16, 2**20, 2**22)]
    assert max(ratios) - min(ratios) > 0.3


def test_sequence_validation():
    def chunks(n):
        yield np.array([1.0, 2.0]), np.array([1, 1])
    bad = dx.SingularValueSeq(chunks, name="bad")
    with pytest.raises(ValueError):
        bad.runs(2)


@pytest.mark.parametrize("counts", [[2], [1, 1], [[1, 1, 1]], []])
def test_sequence_rejects_counts_of_another_shape(counts):
    """Counts are one count or one count per value: a (1,) array beside
    three values once summed as one run's count and gave runs() arrays
    of different lengths, and two counts beside three values leaked
    NumPy's broadcast error."""
    def chunks_fn(n):
        yield np.array([3.0, 2.0, 1.0]), np.array(counts, dtype=np.int64)
    seq = dx.SingularValueSeq(chunks_fn, name="odd")
    for call in (lambda: seq.runs(3), lambda: dx.partial_sums(seq, [1]),
                 lambda: dx.p1_norm(seq, 2, 2)):
        with pytest.raises(ValueError, match="odd: needs one count, "
                                             "or one count per value"):
            call()


@pytest.mark.parametrize("values", [[math.nan, math.nan], [1.0, math.nan],
                                    [math.nan, 1.0], [math.inf, 1.0],
                                    [math.inf, math.inf],
                                    [3.0, math.nan, 1.0],
                                    ([2.0, 1.0], [math.nan, 0.5])])
def test_sequence_rejects_non_finite_values(values):
    """NaN compares False both ways, so it passes an order test and a
    `<= 0` test; an infinite head would make every sum infinite.  A NaN
    inside a chunk, or at the head of a later one, first breaks the
    one-pass order test, and is still reported as not finite.  A tuple
    holds one list per chunk."""
    chunks = values if isinstance(values, tuple) else (values,)

    def chunks_fn(n):
        for v in chunks:
            yield np.array(v), np.ones(len(v), dtype=np.int64)
    seq = dx.SingularValueSeq(name="odd", chunks_fn=chunks_fn)
    with pytest.raises(ValueError, match="finite positive"):
        seq.runs(2)
    with pytest.raises(ValueError, match="finite positive"):
        dx.partial_sums(seq, [1])


def _hex(xs):
    return [float(x).hex() for x in xs]


# 21 terms: the first chunk of 7 doubled runs is dropped whole; 1/20 and
# 1/40 tie with runs of two equal terms, 1/450 lands mid-chunk
PREFIX = [2.0] + [0.3] * 17 + [1 / 20, 1 / 40, 1 / 450]


def _chunked_sequences():
    torus = mt.torus_power_sequence(mt.TorusSpec(), 2.0)
    def hand_chunks(n):
        yield 1.0 / np.arange(1, n + 1), np.ones(n, dtype=np.int64)
    hand = dx.SingularValueSeq(hand_chunks, name="hand-built")

    def shared_chunks(n):
        yield 1.0 / np.arange(1, n // 3 + 2), np.array(3)
    shared = dx.SingularValueSeq(shared_chunks, name="hand-built-shared")
    return {
        **{name: mk() for name, mk in dx.BUILTINS.items()},
        "circle": mt.circle_singular_values(mt.CircleSpec()),
        "circle-spin": mt.circle_singular_values(mt.CircleSpec(0.5)),
        "torus-p2": torus,
        "scaled": dx.block_oscillator().scaled(2.5),
        "prefix": dx.harmonic_doubled().with_prefix(PREFIX),
        "hand-built": hand,
        "hand-built-shared": shared,
    }


@pytest.mark.parametrize("name", sorted(_chunked_sequences()))
def test_chunk_boundaries_keep_partial_sums_bit_identical(monkeypatch,
                                                           name):
    """Streamed partial sums equal the kernel over all runs at once, with
    checkpoints on both sides of chunk boundaries (runs of one and two
    terms)."""
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    seq = _chunked_sequences()[name]
    terms = sorted({b + d for b in range(7, 1000, 7) for d in (-1, 0, 1)})
    ns = np.array(terms) - 1
    streamed = dx.partial_sums(seq, ns)
    values, counts = seq.runs(int(ns.max()) + 1)
    assert _hex(streamed) == \
        _hex(partial_sums_at(values, counts, ns + 1)[0])


@pytest.mark.parametrize("chunk_runs", [5, 7, 4000])
def test_block_oscillator_chunks_across_levels(monkeypatch, chunk_runs):
    """Chunks end at the level boundaries (levels start at 8, 64, 4096),
    and every value is the one a single chunk per level gives."""
    whole = dx.block_oscillator().runs(5000)
    monkeypatch.setattr(dx, "CHUNK_RUNS", chunk_runs)
    first = 1                       # the index of each chunk's first term
    for chunk_values, _ in dx.block_oscillator().chunks(5000):
        last = first + len(chunk_values) - 1
        assert not any(first < b <= last for b in (8, 64, 4096))
        first = last + 1
    values, counts = dx.block_oscillator().runs(5000)
    assert _hex(values) == _hex(whole[0])
    assert counts.tolist() == whole[1].tolist()


def test_chunked_runs_match_one_chunk_runs(monkeypatch):
    """Chunked generators produce the same runs as a single chunk, and a
    prefix comes first among equal values wherever the chunks split."""
    whole = {name: seq.runs(1000)
             for name, seq in _chunked_sequences().items()}
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    seqs = _chunked_sequences()
    for name, seq in seqs.items():
        values, counts = seq.runs(1000)
        assert _hex(values) == _hex(whole[name][0]), name
        assert counts.tolist() == whole[name][1].tolist(), name
    for name in (*dx.BUILTINS, "circle", "circle-spin", "scaled"):
        assert max(len(v) for v, _ in seqs[name].chunks(1000)) <= 7, name
    # reference: drop 21 terms (10 runs and one term), stable merge
    hv, hc = dx.harmonic_doubled().runs(1000 + len(PREFIX))
    hc = hc.copy()
    hc[10] -= 1
    allv = np.concatenate([PREFIX, hv[10:]])
    allc = np.concatenate([np.ones(len(PREFIX), dtype=np.int64), hc[10:]])
    order = np.argsort(-allv, kind='stable')
    values, counts = _chunked_sequences()["prefix"].runs(1000)
    assert _hex(values) == _hex(allv[order])
    assert counts.tolist() == allc[order].tolist()


def _closed_form_runs(name, n):
    """The runs covering n terms, from each generator's formula over one
    fresh np.arange (block-oscillator levels start at 8, 64, 4096)."""
    def arange(lo, hi):
        return np.arange(lo, hi, dtype=np.float64)

    def const(k, c=1):
        return np.full(k, c, dtype=np.int64)
    if name == "harmonic":
        return 1.0 / (arange(0, n) + 1.0), const(n)
    if name == "harmonic-doubled":
        ks = arange(1, n // 2 + 2)
        return 1.0 / ks, const(len(ks), 2)
    if name == "geometric":         # 900 terms, then one run of the last
        values = 0.5 ** arange(0, 900)
        return (np.append(values, values[-1]),
                np.append(const(900), n - 900))
    if name == "telescoping-log":
        ks = arange(0, n)
        return np.log((ks + 2.0) / (ks + 1.0)), const(n)
    if name == "block-oscillator":
        edges = [1, 8, 64, 4096, n + 1]
        assert n < 8**8
        levels = [3.0 / (arange(lo, hi) + 2.0 * lo) if level % 2
                  else 1.0 / arange(lo, hi)
                  for level, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        return np.concatenate(levels), const(n)
    off, rad = {"circle": (1.0, 1.0), "circle-spin": (0.5, 2.5)}[name]
    ns = arange(0, n // 2 + 1)
    return rad / (ns + off), const(len(ns), 2)


def _in_place_streams():
    return {**{name: mk() for name, mk in dx.BUILTINS.items()},
            "circle": mt.circle_singular_values(mt.CircleSpec()),
            "circle-spin": mt.circle_singular_values(mt.CircleSpec(0.5,
                                                                   2.5))}


@pytest.mark.parametrize("chunk_runs, n", [(7, 5000), (2**16, 5 * 2**16 + 3)])
@pytest.mark.parametrize("name", sorted(_in_place_streams()))
def test_generators_match_their_closed_forms(monkeypatch, chunk_runs, n,
                                             name):
    """Every run the in-place generators write equals its formula over a
    fresh np.arange bit for bit, geometric's tail run and the
    block-oscillator's level edges included."""
    values, counts = _closed_form_runs(name, n)
    monkeypatch.setattr(dx, "CHUNK_RUNS", chunk_runs)
    got_values, got_counts = _in_place_streams()[name].runs(n)
    assert got_values.view(np.uint64).tolist() == \
        values.view(np.uint64).tolist()
    assert got_counts.dtype == np.int64
    assert got_counts.tolist() == counts.tolist()


@pytest.mark.parametrize("name", sorted(_in_place_streams()))
def test_generators_write_every_chunk_into_one_buffer(monkeypatch, name):
    """Consecutive chunks of a stream share their memory, values and
    counts alike (the block-oscillator's first chunk is its own level)."""
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    chunks = list(_in_place_streams()[name].chunks(60))
    assert len(chunks) >= 4
    for (v1, c1), (v2, c2) in zip(chunks[1:], chunks[2:]):
        assert np.shares_memory(v1, v2) and np.shares_memory(c1, c2)


@pytest.mark.parametrize("name", sorted(_in_place_streams()))
def test_chunks_are_read_only(name):
    for values, counts in _in_place_streams()[name].chunks(10):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 1


def test_chunks_leave_a_generators_own_arrays_writable():
    """The read-only chunk is a view: the arrays a generator yields stay
    writable to it."""
    values, counts = np.array([2.0, 1.0]), np.array([1, 1])
    seq = dx.SingularValueSeq(lambda n: iter([(values, counts)]), name="own")
    (v, c), = seq.chunks(2)
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 3.0
    assert values.flags.writeable and counts.flags.writeable


@pytest.mark.parametrize("name", sorted(_in_place_streams()))
def test_runs_are_copies_of_the_chunks(monkeypatch, name):
    """runs() keeps its own copy of every chunk: drawing the sequence
    again, or in between, leaves its arrays as they were."""
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    seq = _in_place_streams()[name]
    values, counts = seq.runs(60)
    kept = values.tolist(), counts.tolist()
    stream = seq.chunks(60)
    next(stream)
    seq.runs(60)
    next(stream)
    dx.partial_sums(seq, [59])
    assert (values.tolist(), counts.tolist()) == kept


def _per_run_twin(seq):
    """The sequence with each chunk's counts written out one per run, as
    the generators gave them before a chunk could carry one 0-d count."""
    def chunks_fn(n):
        for values, counts in seq.chunks(n):
            yield values, np.broadcast_to(counts, values.shape).copy()
    return dx.SingularValueSeq(chunks_fn, name=seq.name,
                               kernel_dim=seq.kernel_dim)


@pytest.mark.parametrize("chunk_runs", [7, 2**16])
@pytest.mark.parametrize("name", sorted(_in_place_streams()))
def test_0d_counts_give_what_per_run_counts_give(monkeypatch, chunk_runs,
                                                  name):
    """The in-place streams carry one 0-d count per chunk (geometric's
    tail run aside); runs(), with_prefix and the norms read them as the
    same counts written out one per run, bit for bit."""
    monkeypatch.setattr(dx, "CHUNK_RUNS", chunk_runs)
    seq = _in_place_streams()[name]
    twin = _per_run_twin(seq)
    assert all(c.ndim == 0 for v, c in seq.chunks(900))
    for a, b in ((seq, twin),
                 (seq.with_prefix(PREFIX), twin.with_prefix(PREFIX))):
        values, counts = a.runs(1000)
        expect_values, expect_counts = b.runs(1000)
        assert counts.dtype == np.int64 and counts.shape == values.shape
        assert _hex(values) == _hex(expect_values)
        assert counts.tolist() == expect_counts.tolist()
        ns = [0, 1, 5, 6, 7, 8, 13, 14, 15, 998, 999]
        assert _hex(dx.partial_sums(a, ns)) == _hex(dx.partial_sums(b, ns))
    for p in (1.5, 2, 3):
        assert dx.p1_norm(seq, p, 999).hex() == dx.p1_norm(twin, p, 999).hex()
        assert dx.pinfty_norm(seq, p, 999).hex() == \
            dx.pinfty_norm(twin, p, 999).hex()


def test_harmonic_streamed_sum_matches_digamma_oracle():
    """H_N = psi(N + 1) + gamma; N - 1 sequential additions of positive
    terms err by at most N u H_N, u = 2^-53."""
    n = 10**7
    got = dx.partial_sums(dx.harmonic(), [n - 1])[0]
    expect = digamma(n + 1) + np.euler_gamma
    assert abs(got - expect) <= n * 2.0**-53 * expect


def test_rise_across_chunk_boundary_is_rejected():
    def chunks(second):
        def fn(n):
            yield np.array([3.0, 2.0]), np.array([1, 1])
            yield np.array([second, 1.0]), np.array([1, 1])
        return fn
    level = dx.SingularValueSeq(name="level", chunks_fn=chunks(2.0))
    assert dx.partial_sums(level, [3])[0] == 8.0
    rising = dx.SingularValueSeq(name="rising", chunks_fn=chunks(2.5))
    with pytest.raises(ValueError, match="non-increasing"):
        dx.partial_sums(rising, [3])
    with pytest.raises(ValueError, match="non-increasing"):
        rising.runs(4)


def test_streamed_partial_sums_memory_bound():
    """Summing 2e7 circle terms holds one chunk at a time; all runs at
    once take several hundred MB."""
    seq = mt.circle_singular_values(mt.CircleSpec())
    tracemalloc.start()
    try:
        dx.partial_sums(seq, [2 * 10**7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_partial_sums_working_set_stays_in_cache():
    """Summing 2e7 circle terms holds a few arrays of one chunk at a
    time: with 2^16-run chunks each array is 512 KB."""
    seq = mt.circle_singular_values(mt.CircleSpec())
    tracemalloc.start()
    try:
        dx.partial_sums(seq, [2 * 10**7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
