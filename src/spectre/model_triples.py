"""Analytic spectra of canonical commutative geometries, the volume
constant, and the spectral distance as a linear program on metric graphs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import dixmier
from .dixmier import (SingularValueSeq, default_schedule, dixmier_estimate,
                      index_chunks)


# ----------------------------------------------------------------------
# volume constant

def c_p(p):
    """2^[p/2] / ((4 pi)^(p/2) Gamma(p/2 + 1))."""
    return 2 ** (p // 2) / ((4 * math.pi) ** (p / 2) * math.gamma(p / 2 + 1))


def sphere_volume(p_minus_1):
    """Vol(S^(p-1)) = (4 pi)^(p/2) / (2^(p-1) Gamma(p/2))."""
    p = p_minus_1 + 1
    return (4 * math.pi) ** (p / 2) / (2 ** (p - 1) * math.gamma(p / 2))


def volume_identity(p):
    """Evaluate 2^[p/2] Vol(S^(p-1)) / (p (2 pi)^p) against c(p)."""
    if not (1 <= p <= 12):
        raise ValueError("p in 1..12")
    lhs = 2 ** (p // 2) * sphere_volume(p - 1) / (p * (2 * math.pi) ** p)
    rhs = c_p(p)
    return lhs, rhs, math.isclose(lhs, rhs, rel_tol=1e-12)


# ----------------------------------------------------------------------
# circle and torus spectra

@dataclass
class CircleSpec:
    spin_offset: float = 0.0       # 0 or 1/2
    radius: float = 1.0

    def __post_init__(self):
        if self.spin_offset not in (0.0, 0.5):
            raise ValueError("spin offset is 0 or 1/2")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")


def circle_singular_values(spec):
    """Singular values of the inverse circle operator: radius/|n + offset|
    over nonzero lattice points, multiplicity 2 per magnitude (kernel
    omitted at offset 0)."""
    off = spec.spin_offset
    rad = spec.radius

    def chunks(max_terms):
        for ns in index_chunks(0, max_terms // 2 + 1):
            yield (rad / (ns + (1.0 if off == 0.0 else 0.5)),
                   np.full(len(ns), 2, dtype=np.int64))
    kernel = 1 if off == 0.0 else 0
    return SingularValueSeq(name=f"circle(offset={off})", kernel_dim=kernel,
                            chunks_fn=chunks)


MAX_TORUS_P = 4


@dataclass
class TorusSpec:
    p: int = 2
    radii: tuple = (1.0, 1.0)
    offsets: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (2 <= self.p <= MAX_TORUS_P):
            raise ValueError(f"torus dimension 2..{MAX_TORUS_P}")
        if len(self.radii) != self.p or len(self.offsets) != self.p:
            raise ValueError("radii/offsets length must equal p")
        if not all(math.isfinite(r) and r > 0 for r in self.radii):
            raise ValueError("radii must be finite and positive")
        if any(o not in (0.0, 0.5) for o in self.offsets):
            raise ValueError("offsets are 0 or 1/2")


def torus_eigenvalue_grid(spec, shell_radius):
    """Squared magnitudes sum_j (k_j + o_j)^2 / r_j^2, flattened, over the
    integer box around the ball of radius shell_radius: the independent
    oracle of `torus_shells`."""
    lam2 = np.zeros(())
    for r, o in zip(spec.radii, spec.offsets):
        span = int(math.floor(shell_radius * r - o)) + 1
        axis = (np.arange(-span, span + 1, dtype=np.float64) + o) / r
        lam2 = np.add.outer(lam2, axis * axis)
    return lam2.ravel()


def _add_axis(keys, points, axis2, weight, lo, hi):
    """The distinct sums key + axis term in [lo, hi), ascending, weights
    added: `searchsorted` windows with a rounding slack, then exact tests."""
    slack = 4 * np.finfo(np.float64).eps * hi
    first = np.searchsorted(axis2, lo - keys - slack, side='left')
    take = np.searchsorted(axis2, hi - keys + slack, side='right') - first
    col = np.repeat(first - np.cumsum(take) + take, take)
    col += np.arange(len(col))
    sums = np.repeat(keys, take)
    sums += axis2[col]
    weights = np.repeat(points, take)
    weights *= weight[col]
    inside = (sums >= lo) & (sums < hi)
    if not inside.all():
        sums, weights = sums[inside], weights[inside]
    order = np.argsort(sums)
    sums, weights = sums[order], weights[order]
    starts = np.flatnonzero(np.diff(sums, prepend=-np.inf))  # 0 iff equal
    return sums[starts], np.add.reduceat(weights, starts)


def _shells(axes, reach):
    keys, points = np.zeros(1), np.ones(1, dtype=np.int64)
    for r, o in axes:
        # the half axis, k >= 0, past reach: weight 2 for the +- pair;
        # partial sums never exceed full ones, so pruning them is exact
        axis2 = ((np.arange(int(math.floor(reach * r - o)) + 2) + o) / r) ** 2
        keys, points = _add_axis(keys, points, axis2, np.where(axis2, 2, 1),
                                 0.0, np.nextafter(reach * reach, np.inf))
    return keys, points


def torus_shells(spec, shell_radius):
    """The distinct lambda^2 <= shell_radius^2, ascending, with how many
    lattice vectors carry each, summed in axis order like the grid oracle."""
    return _shells(zip(spec.radii, spec.offsets), shell_radius)


def torus_singular_values(spec, max_terms=None):
    """1/|lambda| over the dual lattice, multiplicity 2^[p/2], in runs of
    equal lambda^2 up to the one holding the last term asked for
    (`max_terms` is not read), streamed in bands [lo, hi) of lambda^2 that
    hold by the Weyl count CHUNK_RUNS half-lattice points (k_j >= 0) or n
    terms.  Each band meets the last axis with the shells of the others,
    kept out to a reach whose square doubles when a band passes it."""
    p, mult = spec.p, 2 ** (spec.p // 2)
    vol = math.prod(spec.radii) * math.pi ** (p / 2) / math.gamma(p / 2 + 1)
    *inner, last = zip(spec.radii, spec.offsets)

    def chunks(n):
        width = min(2 ** p * dixmier.CHUNK_RUNS, n / mult) / vol
        lo, reach, covered = math.ulp(0.0), 0.0, 0    # above the kernel
        while covered < n:
            hi = (lo ** (p / 2) + width) ** (2 / p)
            if not lo < hi < math.inf:      # radii whose product overflows
                raise ValueError("torus radii out of float64 range")
            if hi > reach * reach:
                reach = max(math.sqrt(2) * reach, math.sqrt(hi))
                keys, points = _shells(inner, reach)
                axis2, weight = _shells([last], reach)
            sums, weights = _add_axis(keys, points, axis2, weight, lo, hi)
            counts = weights * mult
            stop = int(np.searchsorted(np.cumsum(counts), n - covered)) + 1
            yield 1.0 / np.sqrt(sums[:stop]), counts[:stop]
            lo, covered = hi, covered + int(counts.sum())
    return SingularValueSeq(chunks, name=f"torus(p={p})",
                            kernel_dim=0 if any(spec.offsets) else mult)


def torus_power_sequence(spec, power):
    """Singular values of the inverse operator raised to `power`."""
    return torus_singular_values(spec).mapped(
        lambda v: v ** power, f"torus(p={spec.p})^{power}")


def volume_check(model, p=None, schedule=None, spin_offset=0.0):
    """Dixmier estimate of the p-th inverse power against c(p) Vol."""
    schedule = schedule or default_schedule()
    if model == "circle":
        spec = CircleSpec(spin_offset=spin_offset)
        seq = circle_singular_values(spec)
        est = dixmier_estimate(seq, schedule)
        expected = c_p(1) * 2 * math.pi * spec.radius
        return est, expected
    if model == "torus":
        p = p or 2
        spec = TorusSpec(p=p, radii=(1.0,) * p, offsets=(spin_offset,) * p)
        est = dixmier_estimate(torus_power_sequence(spec, float(p)), schedule)
        expected = c_p(p) * (2 * math.pi) ** p
        return est, expected
    raise ValueError(f"unknown model {model!r}")


# ----------------------------------------------------------------------
# metric graphs and the spectral distance

@dataclass
class MetricGraph:
    vertices: list
    edges: list          # (u, v, length)
    _adj: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._adj = {v: [] for v in self.vertices}
        for u, v, l in self.edges:
            if not (math.isfinite(l) and l > 0):
                raise ValueError("edge lengths must be finite and positive")
            if u not in self._adj or v not in self._adj:
                raise ValueError("edge endpoint outside vertex set")
            self._adj[u].append((v, float(l)))
            self._adj[v].append((u, float(l)))

    def adjacency(self, v):
        return self._adj[v]


def shortest_path_distance(graph, x, y):
    """Dijkstra; the exact dual of the gradient-constraint program."""
    if x not in graph._adj or y not in graph._adj:
        raise ValueError("unknown vertex")
    dist = {x: 0.0}
    heap = [(0.0, x)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == y:
            if d == math.inf:
                raise ValueError("shortest path length overflows float64")
            return d
        for v, l in graph.adjacency(u):
            nd = d + l      # inf past float64's range, still reachable
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    raise ValueError("vertices are not connected: the supremum is "
                     "unbounded")


def lp_distance(graph, x, y):
    """Primal program: maximize a(x) - a(y) subject to the per-edge
    Lipschitz constraints |a(u) - a(v)| <= length, in units of a power of
    two above the longest edge (HiGHS reads bounds from 1e20 up as inf)."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_array
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    c = np.zeros(n)
    c[idx[x]] = -1.0
    c[idx[y]] = 1.0
    # rows 2k and 2k + 1 bound a(u) - a(v) and a(v) - a(u) by edge k's
    # length, four nonzeros each, so the matrix is O(edges), not
    # O(edges * vertices); a self-loop's two entries of a row share a
    # column and sum to 0, which leaves the constraint 0 <= l
    ends = np.array([(idx[u], idx[v], l) for u, v, l in graph.edges],
                    dtype=float).reshape(-1, 3)
    m = len(ends)
    cols = ends[:, [0, 1, 0, 1]].astype(np.intp).ravel()
    a_ub = coo_array((np.tile([1.0, -1.0, -1.0, 1.0], m),
                      (np.repeat(np.arange(2 * m), 2), cols)),
                     shape=(2 * m, n))
    # pin one value; the objective only sees differences
    a_eq = np.zeros((1, n))
    a_eq[0, idx[y]] = 1.0
    e = math.frexp(np.max(ends[:, 2], initial=0.0))[1]
    res = linprog(c, A_ub=a_ub, b_ub=np.repeat(np.ldexp(ends[:, 2], -e), 2),
                  A_eq=a_eq, b_eq=[0.0],
                  bounds=[(None, None)] * n, method="highs")
    if res.status == 3:
        raise ValueError("vertices are not connected: the supremum is "
                         "unbounded")
    if not res.success:
        raise RuntimeError(f"linear program failed: {res.message}")
    return math.ldexp(-res.fun, e)


def connes_distance(graph, x, y, cross_validate=False):
    """Spectral distance on the graph; shortest path is the primary
    (exact dual) algorithm, optionally cross-validated against the
    primal program to an absolute 1e-9."""
    d = shortest_path_distance(graph, x, y)
    if cross_validate:
        lp = lp_distance(graph, x, y)
        if abs(lp - d) > 1e-9:
            raise AssertionError(f"primal/dual gap {lp} vs {d}")
    return d


def discretized_circle(n=200, radius=1.0):
    """Cycle graph with n vertices and equal edge lengths 2 pi r / n."""
    verts = list(range(n))
    step = 2 * math.pi * radius / n
    edges = [(i, (i + 1) % n, step) for i in range(n)]
    return MetricGraph(verts, edges)


def random_connected_graph(rng, max_vertices=50):
    """Random tree plus chords, with lengths in (0.1, 2)."""
    n = rng.randint(2, max_vertices)
    verts = list(range(n))
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.uniform(0.1, 2.0)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.uniform(0.1, 2.0)))
    return MetricGraph(verts, edges)
