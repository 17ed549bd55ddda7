"""Time and memory of the set-up, estimator and visibility layers on Koch curves.

Usage:

    python3 scripts/scale_probe.py 8 9 10

Each level runs in a fresh interpreter.  It builds
``koch_generalized(1.5, LEVEL)``, writes it to a curve file in a temporary
directory and reads it back (``write_curve``, ``read_curve``; the line gives
both times and the file's size), box-counts it (``box_dimension(curve)``,
the sweep's d_hat), estimates its energy dimension (``energy_dimension(curve)``
on the default grid), builds its ``SegmentIndex``, then computes one
``visible_set`` from the first ring viewpoint of ``plan_viewpoints``
(seed 0), with the share of segments in the blocks that survive its block
pass, renders that view's ``scene.svg`` (``render_scene``; the line gives
the scene's bytes), computes one ``visible_set`` from each of the four
viewpoints of a 2x2 grid (the ``koch-deep`` benchmark's), and prints the wall time of each step, the
process's ``ru_maxrss`` after it and the minor page faults the step took
(the ``ru_minflt`` delta of the probing process); the grid line gives the
median and the max of its four calls, as a call's cost depends on the
view direction, and the faults of all four.  The launcher imports neither
numpy nor fracvis, because a child's ``ru_maxrss`` starts from its
launcher's peak.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

KOCH_DIM = 1.5
SEED = 0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _probe(level: int) -> None:
    from fracvis.fractals import koch_generalized, read_curve, write_curve
    from fracvis.harness import ViewpointPlan, plan_viewpoints
    from fracvis.measurelab import box_dimension, energy_dimension
    from fracvis.svg import render_scene
    from fracvis.visibility import SegmentIndex, _block_cull, visible_set

    faults = _minflt()

    def report(step: str, t0: float, detail: str) -> None:
        nonlocal faults
        now = _minflt()
        print(f"L{level} {step:<14} {time.perf_counter() - t0:8.3f} s "
              f"rss {_rss_mb():7.1f} MB  minflt {now - faults:7d}  {detail}",
              flush=True)
        faults = now

    t0 = time.perf_counter()
    curve = koch_generalized(KOCH_DIM, level)
    report("generate", t0, f"{curve.segments.shape[0]} segments")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        t0 = time.perf_counter()
        write_curve(curve, path)
        t_write = time.perf_counter() - t0
        read_curve(path)
        report("curve file", t0, f"write {t_write:.3f} s, read "
                                 f"{time.perf_counter() - t0 - t_write:.3f} s, "
                                 f"{path.stat().st_size / 1e6:.1f} MB")
    t0 = time.perf_counter()
    d_hat = box_dimension(curve)
    report("d_hat", t0, f"{d_hat.value:.4f} over {d_hat.n_scales} scales")
    t0 = time.perf_counter()
    energy = energy_dimension(curve)
    report("energy", t0, f"{energy.value:.4f} over {energy.n_scales} sizes")
    t0 = time.perf_counter()
    index = SegmentIndex(curve)
    report("SegmentIndex", t0, f"{index.crossings().shape[0]} crossings")
    vp = plan_viewpoints(curve, ViewpointPlan(mode="ring", count=1), SEED)[0]
    t0 = time.perf_counter()
    vs = visible_set(curve, vp, index)
    elapsed = time.perf_counter() - t0
    # The block pass runs again for its count, outside the timed call.
    kept = _block_cull(index, vp)
    kept = index.n_segments if kept is None else kept.size
    report("visible_set", time.perf_counter() - elapsed,
           f"{len(vs.segments)} pieces from ({vp[0]:.4f}, {vp[1]:.4f}), "
           f"{100.0 * kept / index.n_segments:.1f}% of segments kept by the block pass")
    t0 = time.perf_counter()
    scene = render_scene(curve, vs)
    report("render_scene", t0, f"{len(scene.encode())} bytes")
    times = []
    for vp in plan_viewpoints(curve, ViewpointPlan(mode="grid", count=4), SEED):
        t0 = time.perf_counter()
        visible_set(curve, vp, index)
        times.append(time.perf_counter() - t0)
    print(f"L{level} {'  grid median':<14} {statistics.median(times):8.3f} s "
          f"rss {_rss_mb():7.1f} MB  minflt {_minflt() - faults:7d}  "
          f"visible_set from 4 grid viewpoints, max {max(times):.3f} s", flush=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("levels", type=int, nargs="+", metavar="LEVEL")
    args = p.parse_args(argv)
    ctx = multiprocessing.get_context("spawn")
    status = 0
    for level in args.levels:
        proc = ctx.Process(target=_probe, args=(level,))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            print(f"L{level} failed with exit code {proc.exitcode}", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
