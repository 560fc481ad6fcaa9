"""Fixtures and independent oracles that several test modules share.

Nothing under src/ uses them: the commands never call them, and each
oracle computes its answer without the code it checks.
"""

import itertools
import math

import numpy as np

from spectre import univdiff as ud
from spectre.clifford import Signature, build_gammas
from spectre.model_triples import MetricGraph

# ----------------------------------------------------------------------
# symbols: labels for expressions built by hand

# fresh_label() hands out distinct positive labels from FRESH_BASE upward;
# the engine itself never calls it
FRESH_BASE = 1000
_fresh_counter = itertools.count(FRESH_BASE)


def fresh_label():
    return next(_fresh_counter)


# ----------------------------------------------------------------------
# clifford: the gamma-word trace from concrete matrices

def numeric_word_trace(word, p):
    """Oracle of `wodzicki.gamma_word_trace`: the same trace from concrete
    matrices, contracting repeated labels by explicit index summation."""
    gs = build_gammas(Signature(p, 0))
    labels = sorted(set(word))
    free = [l for l in labels if word.count(l) == 1]
    dummies = [l for l in labels if word.count(l) == 2]
    if len(free) + 2 * len(dummies) != len(word):
        raise ValueError("labels must appear once or twice")

    def rec(assign, remaining):
        if not remaining:
            m = np.eye(gs.dim, dtype=complex)
            for l in word:
                m = m @ gs.gammas[assign[l]]
            return np.trace(m)
        tot = 0
        for v in range(p):
            assign[remaining[0]] = v
            tot += rec(assign, remaining[1:])
        return tot

    if free:
        raise ValueError("numeric oracle needs fully contracted words")
    return rec({}, dummies)


# ----------------------------------------------------------------------
# model_triples: graphs for the spectral distance

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


# ----------------------------------------------------------------------
# univdiff: the models as explicit n x n matrices with Python-int object
# entries, multiplied out in full

def dense_model(model):
    """The model's D, pi(w) and [D, pi(w)] for every word w, as dense
    object matrices: on the circle pi(w) = u^w, u the cyclic shift
    e_j -> e_(j+1), is the identity with its rows rolled by w."""
    n = model.n
    if isinstance(model, ud.CircleModel):
        eye = np.eye(n, dtype=np.int64)
        d = np.diag(range(n)).astype(object)
        pi = {w: np.roll(eye, w, axis=0).astype(object)
              for w in model.words()}
    else:
        a = [i % 3 - 1 for i in range(n)]
        d = np.diag(range(1, n + 1)).astype(object)
        pi = {w: np.diag([x ** w for x in a]).astype(object)
              for w in model.words()}
    return d, pi, {w: d @ pw - pw @ d for w, pw in pi.items()}


def dense_represent(c, dense):
    """pi(a0) [D, pi(a1)] ... [D, pi(an)] summed over the chain's terms,
    from `dense_model(c.model)`."""
    _, pi, comm = dense
    out = np.zeros((c.model.n,) * 2, dtype=object)
    for wt, coeff in c.terms.items():
        acc = pi[wt[0]]
        for w in wt[1:]:
            acc = acc @ comm[w]
        out = out + coeff * acc
    return out


def same_window(a, b, model):
    """Two operators (weighted shifts or dense arrays) agree on the
    model's window."""
    return np.array_equal(ud.window_part(a, model), ud.window_part(b, model))
