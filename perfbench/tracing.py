"""Per-layer spans and counters, recorded from outside spectre.

`Tracer.install()` replaces selected public functions of spectre with
wrappers that record one span (name, parent, start, end) per call.  The
replacement is made wherever a loaded spectre module binds the function,
as a module attribute or a value of a module-level dict, so names bound
by `from ... import` and the CLI dispatch table are wrapped too.  Nothing
under src/ changes.  Spans stay in memory until the pass ends.
"""

import functools
import sys
import time

# "<module>.<attribute>" under the spectre package; a span takes this name
TARGETS = (
    "_kernels.partial_sums_at",
    # partial_sums frees the run arrays when it returns; its span keeps
    # that out of the self time of dixmier_estimate (dixmier.fit_s)
    "dixmier.SingularValueSeq.runs", "dixmier.partial_sums",
    "dixmier.dixmier_estimate",
    "model_triples.torus_singular_values",
    "model_triples.torus_eigenvalue_grid",
    "model_triples.shortest_path_distance", "model_triples.lp_distance",
    "univdiff.represent", "univdiff.hochschild_b", "univdiff.delta",
    "univdiff.sigma_op", "univdiff.chain_mul", "univdiff.chain_star",
    "univdiff.random_chain", "univdiff.junk_basis", "univdiff.in_junk_span",
    "univdiff.omega1_form",
    "symbols.compose",
    "wodzicki.integrand", "wodzicki.cosphere_integrate",
    "wodzicki.trace_reduce",
    "clifford.find_real_structure",
    "cli.cmd_volume", "cli.cmd_dixmier", "cli.cmd_distance", "cli.cmd_wres",
    "cli.cmd_hochschild", "cli.cmd_clifford_table",
)

CHAIN_OPS = ("univdiff.hochschild_b", "univdiff.delta", "univdiff.sigma_op",
             "univdiff.chain_mul", "univdiff.chain_star",
             "univdiff.random_chain")

# metric -> spans whose time it sums; a span nested inside another span
# of the same metric is not counted again
TOTAL_S = {
    "kernels.partial_sums_s": ("_kernels.partial_sums_at",),
    "dixmier.runs_s": ("dixmier.SingularValueSeq.runs",),
    "model_triples.torus_spectrum_s": ("model_triples.torus_singular_values",),
    "model_triples.shortest_path_s": ("model_triples.shortest_path_distance",),
    "model_triples.lp_s": ("model_triples.lp_distance",),
    "univdiff.represent_s": ("univdiff.represent",),
    "univdiff.chain_ops_s": CHAIN_OPS,
    "univdiff.omega1_form_s": ("univdiff.omega1_form",),
    "symbols.compose_s": ("symbols.compose",),
    "wodzicki.integrand_s": ("wodzicki.integrand",),
    "wodzicki.cosphere_s": ("wodzicki.cosphere_integrate",),
    "wodzicki.trace_reduce_s": ("wodzicki.trace_reduce",),
    "clifford.real_structure_s": ("clifford.find_real_structure",),
    "cli.volume_s": ("cli.cmd_volume",),
    "cli.dixmier_s": ("cli.cmd_dixmier",),
    "cli.distance_s": ("cli.cmd_distance",),
    "cli.wres_s": ("cli.cmd_wres",),
    "cli.hochschild_s": ("cli.cmd_hochschild",),
    "cli.clifford_table_s": ("cli.cmd_clifford_table",),
}
# metric -> spans whose self time (duration minus child spans) it sums
SELF_S = {
    "dixmier.fit_s": ("dixmier.dixmier_estimate",),
    "univdiff.elimination_s": ("univdiff.junk_basis",
                               "univdiff.in_junk_span"),
}
# metric -> span whose calls it counts (outermost calls only)
CALLS = {
    "univdiff.represent_calls": "univdiff.represent",
    "symbols.compose_calls": "symbols.compose",
    "wodzicki.integrand_calls": "wodzicki.integrand",
}
# counters filled from call arguments and results, and the canonicalizer
COUNTERS = ("kernels.runs_in", "dixmier.terms", "dixmier.runs_bytes_max",
            "model_triples.grid_points", "model_triples.torus_runs",
            "symbols.canon_hits", "symbols.canon_misses")

# every per-layer metric in report order with its unit; the overhead is
# filled in by run.py from traced and untraced passes
PER_LAYER = {
    **{m: "s" for m in (*TOTAL_S, *SELF_S)},
    **{m: "count" for m in (*CALLS, *COUNTERS)},
    "dixmier.runs_bytes_max": "bytes",
    "trace.overhead_s": "s",
}


def _resolve(target):
    module, _, attr = target.partition(".")
    owner = sys.modules[f"spectre.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._open = []          # indices of the spans now running
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._originals = {}

    def install(self):
        """Wrap every target; spectre's modules must be imported first."""
        for target in TARGETS:
            owner, name = _resolve(target)
            original = getattr(owner, name)
            self._originals[target] = original
            wrapper = self._wrap(target, original)
            setattr(owner, name, wrapper)
            self._rebind(original, wrapper)

    @staticmethod
    def _rebind(original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "spectre" and not modname.startswith("spectre."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper

    def _wrap(self, name, fn):
        spans, running = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, running[-1] if running else -1, 0.0, 0.0]
            spans.append(span)
            running.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                running.pop()
            if not self._inside(span[1], (name,)):
                self._count(name, args, result)
            return result
        return wrapper

    def _count(self, name, args, result):
        c = self.counters
        if name == "_kernels.partial_sums_at":
            c["kernels.runs_in"] += len(args[0])
        elif name == "dixmier.SingularValueSeq.runs":
            values, counts = result
            c["dixmier.terms"] += int(counts.sum())
            c["dixmier.runs_bytes_max"] = max(
                c["dixmier.runs_bytes_max"], values.nbytes + counts.nbytes)
        elif name == "model_triples.torus_eigenvalue_grid":
            c["model_triples.grid_points"] += result.size
        elif name == "model_triples.torus_singular_values":
            runs = self._originals["dixmier.SingularValueSeq.runs"]
            c["model_triples.torus_runs"] += len(runs(result, 1)[0])

    def _inside(self, index, names):
        """Whether the span at `index` or one of its ancestors is one of
        `names`."""
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][1]
        return False

    def metrics(self):
        """Per-layer metrics of everything recorded so far (the tracing
        overhead excepted)."""
        out = {m: 0.0 for m in (*TOTAL_S, *SELF_S)}
        out.update({m: 0 for m in CALLS})
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            for metric, names in _TOTAL_OF.get(name, ()):
                if not self._inside(parent, names):
                    out[metric] += end - start
            for metric in _SELF_OF.get(name, ()):
                out[metric] += end - start - child_time[i]
            for metric in _CALLS_OF.get(name, ()):
                if not self._inside(parent, (name,)):
                    out[metric] += 1
        out.update(self.counters)
        canon = getattr(sys.modules["spectre.symbols"], "_canon_cached", None)
        if canon is not None and hasattr(canon, "cache_info"):
            info = canon.cache_info()
            out["symbols.canon_hits"] = info.hits
            out["symbols.canon_misses"] = info.misses
        return out


def _by_span(table):
    """Invert metric -> span names into span name -> metrics."""
    out = {}
    for metric, names in table.items():
        for name in ((names,) if isinstance(names, str) else names):
            out.setdefault(name, []).append(metric)
    return out


_TOTAL_OF = {name: [(m, TOTAL_S[m]) for m in metrics]
             for name, metrics in _by_span(TOTAL_S).items()}
_SELF_OF = _by_span(SELF_S)
_CALLS_OF = _by_span(CALLS)
