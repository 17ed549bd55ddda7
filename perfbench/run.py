"""fracvis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is a workload of BENCHMARK.json, or
``all`` to run each of them in turn.  Every sample runs in a fresh
interpreter (worker.py) with ``src`` on PYTHONPATH.

--trace 0 takes as many untraced samples as fit in S seconds and reports
the end-to-end metrics as medians over them.  --trace 1 takes as many pairs
of an untraced and a traced sample as fit in S seconds and reports the
per-layer metrics as medians over the traced ones; the traced replay must
reproduce the untraced outputs.  A run always takes at least one sample.

Prints one line per metric (value, unit, sample count), an ``info`` line,
and last one JSON object with keys correct, attempted, failed and metrics.
Exits 1 when a correctness gate fails and 2, without a result, when the
benchmark cannot run.  Outputs and spans go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"

# Set-up is cheap next to a sample, so runs add set-up-only samples until
# set-up has been timed this often.
SETUP_SAMPLES = 5
# A run must end within 180 s; samples are stopped before that.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Run:
    """Samples of one workload, each a worker.py process."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out = OUT_ROOT / workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.taken = 0
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def sample(self, role: str, oracle: bool = False) -> dict:
        out = self.out / f"{self.taken:02d}-{role}"
        self.taken += 1
        out.mkdir()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), role,
               self.workload, str(self.seed), str(out)]
        if self.smoke:
            cmd.append("--smoke")
        if oracle:
            cmd.append("--oracle")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time before a {role} sample")
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: {role} sample timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: {role} sample exited with "
                             f"{proc.returncode}\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _repeat(seconds: float, take) -> list:
    """Results of take(0), take(1), ... for as long as the next call is
    expected, from the last one's duration, to end within ``seconds``."""
    start = time.monotonic()
    out = []
    while True:
        t0 = time.monotonic()
        out.append(take(len(out)))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return out


def untraced(run: Run, seconds: float) -> dict:
    timed = _repeat(seconds, lambda k: run.sample("timed", oracle=k == 0))
    setups = [s["setup_s"] for s in timed]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.sample("setup")["setup_s"])
    n = len(timed)
    return {
        "metrics": {
            "wall_s": _median(s["wall_s"] for s in timed),
            "setup_s": _median(setups),
            "cpu_s": _median(s["cpu_s"] for s in timed),
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in timed),
            "ops_per_s": _median(s["attempted"] / s["wall_s"] for s in timed),
        },
        "samples": {"wall_s": n, "setup_s": len(setups), "cpu_s": n,
                    "peak_rss_mb": n, "ops_per_s": n},
        "attempted": sum(s["attempted"] for s in timed),
        "failed": sum(s["failed"] for s in timed),
        "errors": [e for s in timed for e in s["errors"]],
        "first": timed[0],
        "info": {"sample_values": {
            "setup_s": setups,
            **{k: [s[k] for s in timed]
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}}},
    }


def traced(run: Run, seconds: float) -> dict:
    pairs = _repeat(seconds, lambda k: (run.sample("timed", oracle=k == 0),
                                        run.sample("traced")))

    attempted = failed = 0
    errors = []
    for k, (plain, replay) in enumerate(pairs):
        attempted += plain["attempted"]
        failed += plain["failed"]
        errors += plain["errors"]
        if "dims" in replay:
            # Sweeps: one operation per replayed viewpoint.
            a, b = plain["dims"], replay["dims"]
            bad = [i for i in range(max(len(a), len(b)))
                   if i >= min(len(a), len(b)) or not _same(a[i], b[i])]
            attempted += len(b)
        else:
            # estimate-cli: one operation per command; command i writes
            # output file i, which must match the untraced run byte for byte.
            names = list(plain["digests"])
            bad = [i for i, code in enumerate(replay["codes"])
                   if code != 0 or plain["digests"][names[i]] is None
                   or replay["digests"][names[i]] != plain["digests"][names[i]]]
            attempted += len(replay["codes"])
        failed += len(bad)
        errors += [f"traced pair {k}: replay differs at operation {i}" for i in bad]

    replays = [r for _, r in pairs]
    metrics = {name: _median(r["metrics"][name] for r in replays)
               for name in replays[0]["metrics"]}
    first = pairs[0][0]
    metrics["visibility.rss_rise_mb"] = _median(r["rss_rise_mb"] for r in replays)
    metrics["visibility.oracle_checks"] = first.get("oracle_checks", 0)
    metrics["visibility.oracle_misses"] = first.get("oracle_misses", 0)
    overheads = [r["wall_s"] - p["wall_s"] for p, r in pairs]
    metrics["trace.overhead_s"] = _median(overheads)
    return {
        "metrics": metrics,
        "samples": {name: len(pairs) for name in metrics},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "first": first,
        "info": {"trace_overhead_s": overheads,
                 "untraced_wall_s": [p["wall_s"] for p, _ in pairs],
                 "traced_wall_s": [r["wall_s"] for r in replays],
                 "replay_digests_match": all(p["digests"] == r["digests"]
                                             for p, r in pairs),
                 "trace_files": sorted(str(p.relative_to(ROOT)) for p in
                                       run.out.glob("*-traced/trace.json"))},
    }


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
    }


def run_workload(workload: str, args, spec: dict) -> dict:
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    run = Run(workload, args.seed, args.smoke)
    res = (traced if args.trace else untraced)(run, args.seconds)
    if set(res["metrics"]) != set(units):
        raise BenchError(f"{workload}: measured metrics differ from "
                         f"BENCHMARK.json {section}: "
                         f"{sorted(set(res['metrics']) ^ set(units))}")
    correct = res["failed"] == 0 and not res["errors"]

    info = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "env": environment(res["first"]["numpy"]),
        "samples": res["samples"],
        "error_rate": res["failed"] / res["attempted"],
        "errors": res["errors"][:20],
        "digests": res["first"]["digests"],
        **res.get("info", {}),
    }
    (run.out / "info.json").write_text(json.dumps(info, indent=1) + "\n",
                                       encoding="utf-8")
    for name in units:
        print(f"{workload:<13} {name:<34} {res['metrics'][name]:>16.6f} "
              f"{units[name]:<6} n={res['samples'][name]}")
    print(f"{workload:<13} error_rate {res['failed']}/{res['attempted']}"
          + ("" if correct else "  GATE FAILED: " + "; ".join(res["errors"][:5])))
    print("info " + json.dumps(info, sort_keys=True))
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fracvis benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own test")
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names + ['all']}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fracvis" / "__init__.py").is_file():
        print(f"perfbench: no fracvis sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args, spec) for w in workloads}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
