"""Reference values computed without spectre.

Each function derives its answer from a closed form or from a separate
library (SciPy), so that a wrong spectre result cannot also be the
reference it is checked against.
"""

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.special import digamma


def shifted_harmonic(m, shift):
    """sum_{k=0}^{m-1} 1/(k + shift) = psi(m + shift) - psi(shift)."""
    return float(digamma(m + shift) - digamma(shift))


def paired_harmonic(m, shift):
    """First m terms of the sequence 1/(k + shift), k = 0, 1, ..., with
    every value repeated twice."""
    half, odd = divmod(m, 2)
    return 2.0 * shifted_harmonic(half, shift) + odd / (half + shift)


def block_oscillator_sum(m):
    """First m terms of the block oscillator: terms k = 1, 2, ... fall in
    blocks [1, 8), [8, 64), [64, 4096), [4096, 4096^2), ...; even blocks
    carry 1/k, odd blocks carry 3/(k + 2 B) with B the block's first k."""
    edges = [1, 8]
    while edges[-1] <= m:
        edges.append(edges[-1] ** 2)
    total = 0.0
    for level, (lo, hi) in enumerate(zip(edges, edges[1:])):
        hi = min(hi, m + 1)
        if lo >= hi:
            break
        shift = 0 if level % 2 == 0 else 2 * lo
        weight = 1.0 if level % 2 == 0 else 3.0
        total += weight * float(digamma(hi + shift) - digamma(lo + shift))
    return total


# first-m-terms sums of spectre's built-in sequences (values sorted
# decreasingly, counted with multiplicity)
SEQUENCE_SUMS = {
    "harmonic": lambda m: shifted_harmonic(m, 1.0),
    "harmonic-doubled": lambda m: paired_harmonic(m, 1.0),
    "telescoping-log": lambda m: math.log(m + 1),
    "block-oscillator": block_oscillator_sum,
    "circle-spin": lambda m: paired_harmonic(m, 0.5),
}


def trace_of_volume(p):
    """c(p) (2 pi)^p for the unit flat torus: the spinor dimension
    2^[p/2] times the volume of the unit p-ball, pi^(p/2) / Gamma(p/2+1)."""
    return 2 ** (p // 2) * math.pi ** (p / 2) / math.gamma(p / 2 + 1)


def c_p(p):
    """The volume constant: trace_of_volume(p) / (2 pi)^p."""
    return trace_of_volume(p) / (2 * math.pi) ** p


def torus_inverse_singular_values(radii, count):
    """The `count` largest values of 1/|lambda| over the dual lattice of
    the flat torus with the given radii (no spin offset), each repeated
    2^[p/2] times, by direct enumeration of a box around the ball."""
    p = len(radii)
    mult = 2 ** (p // 2)
    need = -(-count // mult)
    ball = math.pi ** (p / 2) / math.gamma(p / 2 + 1) * math.prod(radii)
    reach = 1.3 * (need / ball) ** (1.0 / p) + 2.0
    lam2 = np.zeros(())
    for r in radii:
        span = math.ceil(reach * r)
        axis = np.arange(-span, span + 1, dtype=np.float64) / r
        lam2 = np.add.outer(lam2, axis * axis)
    lam2 = lam2.ravel()
    # every lattice point with |lambda| <= reach lies inside the box
    lam2 = np.sort(lam2[(lam2 > 0) & (lam2 <= reach * reach)])
    if len(lam2) < need:
        raise ValueError("enumeration box too small")
    return np.repeat(1.0 / np.sqrt(lam2[:need]), mult)[:count]


def graph_distance(n, edges, src, dst):
    """Shortest-path length between vertex indices src and dst of an
    undirected graph, by scipy.sparse.csgraph on the shortest of any
    parallel edges."""
    best = {}
    for u, v, length in edges:
        key = (min(u, v), max(u, v))
        best[key] = min(best.get(key, math.inf), length)
    rows = [u for u, _ in best]
    cols = [v for _, v in best]
    mat = csr_matrix((list(best.values()), (rows, cols)), shape=(n, n))
    return float(shortest_path(mat, directed=False, indices=src)[dst])


# KO-dimension sign table (epsilon, epsilon', epsilon'') of a real
# spectral triple, p mod 8; epsilon'' exists in even dimension only
# (Connes, "Noncommutative geometry and reality", 1995).
KO_SIGNS = {
    0: (1, 1, 1), 1: (1, -1, None), 2: (-1, 1, -1), 3: (-1, 1, None),
    4: (-1, 1, 1), 5: (-1, -1, None), 6: (1, 1, -1), 7: (1, 1, None),
}
