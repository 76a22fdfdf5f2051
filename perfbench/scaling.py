#!/usr/bin/env python3
"""Scaling report: one ``apply_filter`` (k=1, t=5) per icosphere size.

    python3 perfbench/scaling.py

For icosphere subdivisions 3, 4 and 5 (642, 2562 and 10242 vertices,
radius 50 mm) it times one filter, the part of it spent in the Chebyshev
recurrence, and a 3-scale ``multiscale_apply`` (t = 5, 10, 20).  Each entry
runs in its own process under a time budget; an entry that runs over is
recorded as ``"skipped": "over budget"``, never dropped.  Operator, spectral
bound and frames are built before timing starts.  Not gated; the table is
printed and written to ``.perfbench_out/scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SUBDIVISIONS = (3, 4, 5)
SCALES = (5.0, 10.0, 20.0)
BUDGET_S = 60.0   # seconds allowed for each entry
SEED = 0          # of the step signal's direction and noise


def child(subdivisions: int, mode: str) -> dict:
    import numpy as np
    from mahf import (FilterSpec, HeatParams, apply_filter, build_frames, cotan_operator,
                      multiscale_apply, vertex_normals)
    from mahf.synthetic import icosphere
    from spans import Tracer, self_times

    mesh = icosphere(subdivisions, 50.0)
    rng = np.random.default_rng(SEED)
    signal = ((mesh.vertices @ rng.standard_normal(3) > 0)
              + 0.05 * rng.standard_normal(mesh.n_vertices))
    op = cotan_operator(mesh)
    op.lambda_max
    frames = build_frames(vertex_normals(mesh))

    tracer = Tracer()
    tracer.install()
    try:
        begin = time.perf_counter()
        if mode == "single":
            apply_filter(op, frames, mesh.vertices, FilterSpec(1, HeatParams(SCALES[0])),
                         signal)
        else:
            multiscale_apply(op, frames, mesh.vertices, 1, SCALES, signal)
        wall = time.perf_counter() - begin
    finally:
        tracer.close()
    cheb = sum(st for s, st in zip(tracer.spans, self_times(tracer.spans))
               if s.name == "spectral.chebyshev_apply")
    return {"n": mesh.n_vertices, "wall_s": wall, "cheb_s": cheb}


def run_entry(subdivisions: int, mode: str) -> dict:
    argv = [sys.executable, __file__, "--child", str(subdivisions), mode]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, str(os.cpu_count() or 1))
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUDGET_S, env=env)
    except subprocess.TimeoutExpired:
        return {"skipped": "over budget", "budget_s": BUDGET_S}
    if done.returncode:
        raise RuntimeError(f"scaling child failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _cell(entry: dict, key: str) -> str:
    return "over budget" if "skipped" in entry else f"{entry[key]:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=2, metavar=("SUBDIVISIONS", "MODE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(SRC))
        print(json.dumps(child(int(args.child[0]), args.child[1])))
        return 0

    rows = []
    for sub in SUBDIVISIONS:
        single = run_entry(sub, "single")
        if "skipped" in single:
            # three scales cost at least what one did
            multi = {"skipped": "over budget", "budget_s": BUDGET_S}
        else:
            multi = run_entry(sub, "multiscale")
        rows.append({"subdivisions": sub, "vertices": 10 * 4 ** sub + 2,
                     "one_filter": single, "multiscale_3": multi})

    print(f"{'vertices':>8} {'one filter':>12} {'of which cheb':>14} {'3-scale':>12}")
    for row in rows:
        one, multi = row["one_filter"], row["multiscale_3"]
        print(f"{row['vertices']:>8} {_cell(one, 'wall_s'):>12} "
              f"{_cell(one, 'cheb_s'):>14} {_cell(multi, 'wall_s'):>12}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(
        {"budget_s": BUDGET_S, "seed": SEED, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
