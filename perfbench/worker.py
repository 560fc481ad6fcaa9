"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Imports spectre from src/ of the checkout, generates the inputs under
WORKDIR, then runs the workload's operations in order, one at a time.
Prints one JSON line: the time.monotonic() reading when the inputs were
ready (the parent shares that clock, so it measures set-up from before
the interpreter started), the wall time of the operations with their
checks, the peak RSS, each operation's time and outcome, and with
TRACE=1 the per-layer metrics and spans.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def provenance():
    import numpy
    import scipy
    from spectre import _kernels
    return {"kernel_impl": _kernels.IMPL,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def main(argv):
    workload, seed, trace, workdir = argv
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # set-up: every import a workload may need, then its inputs
    import numpy            # noqa: F401
    import scipy.optimize   # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.special    # noqa: F401
    import spectre
    from spectre import (_kernels, cli, clifford, dixmier,  # noqa: F401
                         model_triples, symbols, univdiff, wodzicki)
    if Path(spectre.__file__).resolve().parent != src / "spectre":
        print(f"spectre imported from {spectre.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    ops = workloads.build(workload, int(seed), Path(workdir))
    ready = time.monotonic()

    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    records = workloads.run(ops)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "wall_s": wall, "peak_rss_mb": peak_kib / 1024,
              "ops": records, "provenance": provenance()}
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
