"""Inputs of the `spectre distance` golden, `tests/data/distance.json`.

Each case is a graph CSV and a vertex pair, generated from a fixed seed;
the golden holds the stdout that `spectre distance` printed for it.
Rewrite the golden, only from a commit whose output is known good, with

    PYTHONPATH=src python tests/distance_cases.py
"""

import contextlib
import io
import json
import pathlib
import random

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "distance.json"

README_GRAPH = "u,v,length\nA,B,1.5\nB,C,2.0\n"


def tree_with_chords(rng, n, low, high):
    """Random spanning tree on n vertices plus n // 2 chords, lengths
    uniform in (low, high); the shape of perfbench's torus graphs."""
    edges = [(rng.randrange(v), v, rng.uniform(low, high))
             for v in range(1, n)]
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.uniform(low, high)))
    return edges


def graph_csv(edges):
    """Vertex k is named vk; lengths are written by repr, so they read
    back exactly."""
    return "u,v,length\n" + "".join(f"v{u},v{v},{length!r}\n"
                                    for u, v, length in edges)


def cases():
    """{case id: (graph CSV text, from, to)}."""
    from fixtures import random_connected_graph
    out = {f"readme-{x}-{y}": (README_GRAPH, x, y)
           for x, y in (("A", "C"), ("C", "A"), ("A", "B"), ("B", "B"))}
    for seed in (1000, 1001, 1002):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=800)
        text = graph_csv(g.edges)
        for _ in range(3):
            x, y = rng.sample(g.vertices, 2)
            out[f"random{seed}-v{x}-v{y}"] = (text, f"v{x}", f"v{y}")
    rng = random.Random(7)
    n = rng.randint(400, 800)
    text = graph_csv(tree_with_chords(rng, n, 0.1, 2.0))
    for _ in range(3):
        x, y = rng.sample(range(n), 2)
        out[f"perfbench-shaped-v{x}-v{y}"] = (text, f"v{x}", f"v{y}")
    return out


def replay(main, tmp_dir, text, x, y):
    """(exit code, stdout) of `spectre distance` on one case."""
    path = pathlib.Path(tmp_dir) / "graph.csv"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["distance", "--graph", str(path), "--from", x, "--to", y])
    return rc, out.getvalue()


if __name__ == "__main__":
    import tempfile

    from spectre.cli import main
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, x, y) in cases().items():
            rc, stdout = replay(main, tmp, text, x, y)
            if rc != 0:
                raise SystemExit(f"{name}: exit code {rc}")
            golden[name] = stdout
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
