"""Spectra of the canonical geometries, the volume constant, and the
graph distance."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from spectre import model_triples as mt
from spectre import dixmier as dx


def test_volume_identity_closed_form():
    for p in range(1, 13):
        lhs, rhs, ok = mt.volume_identity(p)
        assert ok
    assert math.isclose(mt.c_p(1), 1 / math.pi, rel_tol=1e-14)
    assert math.isclose(mt.c_p(2), 1 / (2 * math.pi), rel_tol=1e-14)
    assert math.isclose(mt.c_p(4), 1 / (8 * math.pi ** 2), rel_tol=1e-14)
    with pytest.raises(ValueError):
        mt.volume_identity(13)


def test_circle_runs_periodic():
    seq = mt.circle_singular_values(mt.CircleSpec())
    v, c = seq.runs(8)
    assert np.allclose(v[:4], [1, 1 / 2, 1 / 3, 1 / 4])
    assert list(c[:4]) == [2, 2, 2, 2]
    assert seq.kernel_dim == 1


def test_circle_runs_antiperiodic():
    seq = mt.circle_singular_values(mt.CircleSpec(spin_offset=0.5))
    v, c = seq.runs(8)
    assert np.allclose(v[:3], [2, 2 / 3, 2 / 5])
    assert list(c[:3]) == [2, 2, 2]
    assert seq.kernel_dim == 0


def test_edited_sequences_keep_kernel_dim():
    seq = mt.circle_singular_values(mt.CircleSpec())
    assert seq.with_prefix([5.0]).kernel_dim == 1
    assert seq.scaled(2.0).kernel_dim == 1


@pytest.mark.parametrize("p, zero_modes", [(2, 2), (3, 2), (4, 4)])
def test_torus_kernel_dim_counts_dropped_zero_modes(p, zero_modes):
    # the zero vector is the only zero mode, carrying spinor multiplicity
    # 2^[p/2]; a 1/2 offset in any direction leaves no zero mode
    spec = mt.TorusSpec(p=p, radii=(1.0,) * p, offsets=(0.0,) * p)
    seq = mt.torus_singular_values(spec)
    assert seq.kernel_dim == zero_modes
    assert mt.torus_power_sequence(spec, 2.0).kernel_dim == zero_modes
    for k in range(p):
        offsets = tuple(0.5 if j == k else 0.0 for j in range(p))
        spec = mt.TorusSpec(p=p, radii=(1.0,) * p, offsets=offsets)
        assert mt.torus_singular_values(spec).kernel_dim == 0
    spec = mt.TorusSpec(p=p, radii=(1.0,) * p, offsets=(0.5,) * p)
    assert mt.torus_singular_values(spec).kernel_dim == 0


def test_circle_volume_estimate():
    est, expected = mt.volume_check(
        "circle", schedule=[10**4, 10**5, 10**6, 10**7])
    assert expected == pytest.approx(2.0, rel=1e-12)
    assert abs(est.value / expected - 1) < 0.02


def test_torus_first_run():
    seq = mt.torus_singular_values(mt.TorusSpec())
    v, c = seq.runs(50)
    assert v[0] == pytest.approx(1.0)
    assert c[0] == 8  # four norm-1 lattice vectors times two spin states


def lattice_count_inside(spec, radius):
    """Direct count of lattice points with 0 < |lambda| <= radius."""
    lam = np.sqrt(mt.torus_eigenvalue_grid(spec, radius + 1e-9))
    return int(np.count_nonzero((lam > 0) & (lam <= radius + 1e-12)))


def test_torus_count_oracle():
    spec = mt.TorusSpec()
    for radius in (3.0, 5.0, 7.5):
        direct = sum(
            1 for a in range(-10, 11) for b in range(-10, 11)
            if 0 < a * a + b * b <= radius * radius + 1e-9)
        assert lattice_count_inside(spec, radius) == direct
    # run sequence is non-increasing and counts match shells
    seq = mt.torus_singular_values(spec)
    v, c = seq.runs(500)
    assert np.all(np.diff(v) < 0)
    inside = lattice_count_inside(spec, 4.0)
    enumerated = int(np.sum(c[v >= 1 / 4.0 - 1e-12]) // 2)
    assert enumerated == inside


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("t", [0.2, 0.1])
def test_torus_heat_trace_matches_volume_constant(p, t):
    """The heat trace t^(p/2) 2^[p/2] sum mult e^(-t lambda^2) / Gamma(p/2+1)
    over the shells is c(p) Vol(T^p) up to terms exponentially small in
    1/t (Poisson summation), so it checks the spectrum without the
    Dixmier estimator.  The shells reach e^(-60) of the leading term."""
    spec = mt.TorusSpec(p=p, radii=(1.0,) * p, offsets=(0.0,) * p)
    lam2, mult = mt.torus_shells(spec, math.sqrt(60 / t))
    heat = math.fsum(mult * np.exp(-t * lam2))
    value = t ** (p / 2) * 2 ** (p // 2) * heat / math.gamma(p / 2 + 1)
    assert value == pytest.approx(mt.c_p(p) * (2 * math.pi) ** p,
                                  rel=1e-12)


@pytest.mark.parametrize("model, p", [("circle", None), ("torus", 2),
                                      ("torus", 3), ("torus", 4)])
def test_volume_estimate_within_its_leave_one_out_spread(model, p):
    """At the default schedule |c0 - c(p) Vol| is at most the leave-one-out
    spread: max - min of c0 over the refits of c0 + c1/log N with one
    schedule point dropped.  The spread is compared as a width; the truth
    lies outside [min, max] for the circle and for p = 2, 3."""
    est, expected = mt.volume_check(model, p=p)
    x = 1 / np.log(np.array(est.schedule, dtype=np.float64))
    ratios = np.array(est.ratios)

    def c0(keep):
        a = np.vstack([np.ones(len(keep)), x[keep]]).T
        return np.linalg.lstsq(a, ratios[keep], rcond=None)[0][0]

    points = list(range(len(x)))
    assert c0(points) == pytest.approx(est.value, rel=1e-12)
    refits = [c0(points[:k] + points[k + 1:]) for k in points]
    assert abs(est.value - expected) <= max(refits) - min(refits)


def test_torus_irrational_radius_matches_lattice_enumeration():
    """Runs group exactly equal squared magnitudes, so eigenvalues of a
    torus with an irrational radius ratio stay distinct."""
    radii, count = (1.0, 1.37), 10**5
    seq = mt.torus_singular_values(mt.TorusSpec(p=2, radii=radii),
                                   max_terms=count)
    values, counts = seq.runs(count)
    got = np.repeat(values, counts)[:count]
    # every lattice point with |lambda| <= reach lies in the box
    reach = 130.0
    a, b = (np.arange(-math.ceil(reach * r), math.ceil(reach * r) + 1) / r
            for r in radii)
    lam2 = np.add.outer(a * a, b * b).ravel()
    lam2 = np.sort(lam2[(lam2 > 0) & (lam2 <= reach * reach)])
    assert len(lam2) >= count // 2
    direct = np.repeat(1.0 / np.sqrt(lam2[:count // 2]), 2)
    np.testing.assert_allclose(got, direct, rtol=1e-12)


# radii for the shell oracle, unit and irrational; each runs with offsets
# all 0, all 1/2 and mixed
SHELL_RADII = {2: [(1.0, 1.0), (1.0, 1.37), (0.5, 1.5)],
               3: [(1.0, 1.0, 1.0), (2.0, 1.0, 0.7)],
               4: [(1.0,) * 4, (1.0, 1.37, 0.5, 0.7)]}


@pytest.mark.parametrize("p, radii", [(p, r) for p, rs in SHELL_RADII.items()
                                      for r in rs])
@pytest.mark.parametrize("offsets", ["zero", "half", "mixed"])
def test_torus_shells_match_grid_oracle(p, radii, offsets):
    """The axis-by-axis shells are the grid's distinct squared magnitudes
    inside the ball, bit for bit, with the grid's counts."""
    offs = {"zero": (0.0,) * p, "half": (0.5,) * p,
            "mixed": tuple(0.5 * (j % 2) for j in range(p))}[offsets]
    spec = mt.TorusSpec(p=p, radii=radii, offsets=offs)
    for shell in (0.3, 2.5, 7.3, {2: 40.0, 3: 12.0, 4: 6.0}[p]):
        keys, points = mt.torus_shells(spec, shell)
        uniq, counts = np.unique(mt.torus_eigenvalue_grid(spec, shell),
                                 return_counts=True)
        ball = uniq <= shell * shell
        assert np.array_equal(keys, uniq[ball])
        assert np.array_equal(points, counts[ball])


def test_torus_spectrum_builds_no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice grid built")
    monkeypatch.setattr(mt, "torus_eigenvalue_grid", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    for p in (2, 3, 4):
        seq = mt.torus_singular_values(mt.TorusSpec(p=p, radii=(1.0,) * p,
                                                    offsets=(0.0,) * p),
                                       max_terms=10**4)
        assert seq.runs(10**4)[1].sum() >= 10**4


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_torus_terms_match_enumeration_to_the_last(offset):
    """Every term the sequence returns is a term of the direct lattice
    enumeration, in order, up to the run holding the last term asked
    for."""
    seq = mt.torus_singular_values(mt.TorusSpec(offsets=(offset,) * 2))
    values, counts = seq.runs(2000)
    got = np.repeat(values, counts)
    ks = np.arange(-60, 61) + offset       # far past the shell
    lam2 = np.add.outer(ks * ks, ks * ks).ravel()   # exact quarter-integers
    lam2 = np.sort(lam2[lam2 > 0])
    direct = np.repeat(1.0 / np.sqrt(lam2[:len(got) // 2]), 2)
    assert 2000 <= len(got) < 2000 + counts[-1]
    assert np.array_equal(got, direct)


@pytest.mark.parametrize("radii", [(1.0, 1.0), (0.5, 0.5), (1.0, 1.37),
                                   (2.0, 1.0, 0.7), (1.0,) * 4])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_torus_ball_holds_max_terms(radii, offset):
    """`runs(n)` covers at least n terms besides the zero mode, and ends
    with the run holding term n."""
    p = len(radii)
    spec = mt.TorusSpec(p=p, radii=radii, offsets=(offset,) * p)
    seq = mt.torus_singular_values(spec)
    for n in (1, 7, 1000, 10**5):
        counts = seq.runs(n)[1]
        assert counts[:-1].sum() < n <= counts.sum()


@pytest.mark.parametrize("p, radii", [(2, (1.0, 1.0)), (2, (1.0, 1.37)),
                                      (3, (2.0, 1.0, 0.7)),
                                      (4, (1.0, 1.37, 0.5, 0.7))])
@pytest.mark.parametrize("offsets", ["zero", "mixed"])
def test_torus_bands_match_shells(monkeypatch, p, radii, offsets):
    """Bands of a few runs, so that the reach grows many times, stream
    the runs of `torus_shells` bit for bit."""
    offs = {"zero": (0.0,) * p,
            "mixed": tuple(0.5 * (j % 2) for j in range(p))}[offsets]
    spec = mt.TorusSpec(p=p, radii=radii, offsets=offs)
    keys, points = mt.torus_shells(spec, {2: 30.0, 3: 10.0, 4: 6.0}[p])
    keep = keys > 0
    monkeypatch.setattr(dx, "CHUNK_RUNS", 7)
    n = int(points[keep].sum()) * 2 ** (p // 2)
    chunks = list(mt.torus_singular_values(spec).chunks(n))
    assert len(chunks) > 10
    values = np.concatenate([v for v, _ in chunks])
    counts = np.concatenate([c for _, c in chunks])
    assert [v.hex() for v in values] == \
        [v.hex() for v in 1.0 / np.sqrt(keys[keep])]
    assert np.array_equal(counts, points[keep] * 2 ** (p // 2))


def test_torus_radii_past_float64_raise():
    """A product of radii past float64 leaves the bands no width: the
    stream raises rather than loop."""
    seq = mt.torus_singular_values(mt.TorusSpec(radii=(1e200, 1e200)))
    with pytest.raises(ValueError, match="float64 range"):
        seq.runs(10)


def test_torus_spectrum_memory_bound():
    """The p = 2 stream holds one band at a time, so draining it to 1e8
    terms (a `volume --model torus` schedule top of 1e8) peaks below
    16 MB."""
    spec = mt.TorusSpec(p=2, radii=(1.0, 1.0), offsets=(0.0, 0.0))
    seq = mt.torus_singular_values(spec)
    tracemalloc.start()
    try:
        terms = sum(int(counts.sum()) for _, counts in seq.chunks(10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms >= 10**8
    assert peak < 16 * 2**20


def test_torus_volume_estimate():
    est, expected = mt.volume_check(
        "torus", p=2, schedule=[10**4, 10**5, 10**6, 10**7])
    assert expected == pytest.approx(2 * math.pi, rel=1e-12)
    assert abs(est.value / expected - 1) < 0.02


def test_torus_volume_radius_scaling():
    """Doubling both radii multiplies the squared-inverse trace by 4."""
    sched = [10**4, 10**5, 10**6]
    s1 = mt.torus_power_sequence(mt.TorusSpec(), 2.0)
    s2 = mt.torus_power_sequence(mt.TorusSpec(radii=(2.0, 2.0)), 2.0)
    e1 = dx.dixmier_estimate(s1, sched)
    e2 = dx.dixmier_estimate(s2, sched)
    assert abs(e2.value / e1.value - 4) < 0.02


def test_spin_structure_invariance_of_volume():
    sched = [10**4, 10**5, 10**6]
    vals = []
    for off in (0.0, 0.5):
        seq = mt.torus_power_sequence(mt.TorusSpec(offsets=(off, off)), 2.0)
        vals.append(dx.dixmier_estimate(seq, sched))
    assert abs(vals[0].value - vals[1].value) < \
        vals[0].error_bar + vals[1].error_bar + 0.02


def test_distance_single_edge():
    g = mt.MetricGraph([0, 1], [(0, 1, 1.0)])
    assert mt.connes_distance(g, 0, 1, cross_validate=True) == \
        pytest.approx(1.0, abs=1e-12)


def test_distance_four_cycle():
    q = math.pi / 2
    g = mt.MetricGraph([0, 1, 2, 3],
                       [(0, 1, q), (1, 2, q), (2, 3, q), (3, 0, q)])
    assert mt.connes_distance(g, 0, 2, cross_validate=True) == \
        pytest.approx(math.pi, abs=1e-12)


def test_distance_discretized_circle():
    g = mt.discretized_circle(200)
    d = mt.connes_distance(g, 0, 100, cross_validate=True)
    assert abs(d - math.pi) <= math.pi / 200


def test_distance_disconnected_reports_unbounded():
    g = mt.MetricGraph([0, 1, 2], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        mt.shortest_path_distance(g, 0, 2)
    with pytest.raises(ValueError):
        mt.lp_distance(g, 0, 2)


def test_distance_ignores_self_loops():
    # |a(u) - a(u)| <= l bounds nothing; it must not become |a(u)| <= l
    g = mt.MetricGraph(["a", "b"], [("a", "b", 1.0), ("b", "b", 0.25)])
    assert mt.lp_distance(g, "b", "a") == pytest.approx(1.0, abs=1e-12)
    assert mt.connes_distance(g, "a", "b", cross_validate=True) == 1.0


def test_lp_constraints_are_sparse(monkeypatch):
    import scipy.optimize
    import scipy.sparse
    seen = {}
    real = scipy.optimize.linprog

    def spy(c, A_ub=None, **kwargs):
        seen["A_ub"] = A_ub
        return real(c, A_ub=A_ub, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    g = mt.discretized_circle(200)
    assert abs(mt.lp_distance(g, 0, 100) - math.pi) <= math.pi / 200
    assert scipy.sparse.issparse(seen["A_ub"])
    assert seen["A_ub"].shape == (400, 200)
    assert seen["A_ub"].nnz == 800


def test_lp_equals_shortest_path_on_random_graphs():
    rng = random.Random(42)
    for _ in range(100):
        g = mt.random_connected_graph(rng)
        x = rng.randrange(len(g.vertices))
        y = rng.randrange(len(g.vertices))
        d = mt.shortest_path_distance(g, x, y)
        lp = mt.lp_distance(g, x, y)
        assert abs(d - lp) <= 1e-9


def test_distance_metric_axioms_randomized():
    rng = random.Random(9)
    for _ in range(10):
        g = mt.random_connected_graph(rng, max_vertices=12)
        n = len(g.vertices)
        d = [[mt.shortest_path_distance(g, i, j) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            assert d[i][i] == 0
            for j in range(n):
                assert d[i][j] == pytest.approx(d[j][i], abs=1e-12)
                assert (d[i][j] > 0) == (i != j)
                for k in range(n):
                    assert d[i][j] <= d[i][k] + d[k][j] + 1e-12


def test_graph_adjacency_is_not_an_argument():
    """The adjacency is built from the edges; it cannot be passed in."""
    with pytest.raises(TypeError):
        mt.MetricGraph([0, 1], [(0, 1, 1.0)], {0: [], 1: []})
    g = mt.MetricGraph([0, 1], [(0, 1, 1.0)])
    assert g.adjacency(0) == [(1, 1.0)]
    assert "_adj" not in repr(g)


def test_graph_validation():
    for length in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mt.MetricGraph([0, 1], [(0, 1, length)])
    with pytest.raises(ValueError):
        mt.MetricGraph([0], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        mt.CircleSpec(spin_offset=0.3)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            mt.CircleSpec(radius=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            mt.TorusSpec(radii=(bad, 1.0))
        with pytest.raises(ValueError, match="finite and positive"):
            mt.TorusSpec(radii=(1.0, bad))
    with pytest.raises(ValueError):
        mt.TorusSpec(p=5, radii=(1,) * 5, offsets=(0,) * 5)
