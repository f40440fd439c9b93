"""occreid benchmark: closed-loop workloads with end-to-end and traced metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ablation-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

One client in one process runs the workload's batch jobs back to back until
the jobs have used ``--seconds`` of wall time. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Traced runs also write their spans to
``.perfbench/traces/``. See NOTES.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported: one BLAS thread, so that a later change running
# regimes in nproc worker processes keeps the thread count at nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 900

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)

_UNITS = {"calls": "count", "self_s": "s", "rows": "count", "bytes": "B", "shapes": "count"}
_LAYER_STATS = {
    "model.forward": ("calls", "self_s", "rows"),
    "model.backward": ("calls", "self_s"),
    "model.sgd_step": ("calls", "self_s"),
    "model.train": ("calls", "self_s"),
    "model.preprocess_image": ("calls", "self_s"),
    "model.extract_features": ("calls", "self_s"),
    "imaging.jittered_center_crop": ("calls", "self_s"),
    "imaging.resize": ("calls", "self_s", "shapes"),
    "imaging.load_image": ("calls", "self_s", "bytes"),
    "imaging.save_image": ("calls", "self_s", "bytes"),
    "occsim.build_occlusion_set": ("calls", "self_s", "rows"),
    "dataset.scan_dataset": ("calls", "self_s"),
    "dataset.make_probe_gallery": ("calls", "self_s"),
    "dataset.generate_synthetic_dataset": ("calls", "self_s"),
    "evaluate.evaluate": ("calls", "self_s"),
    "evaluate.cmc_curve": ("calls", "self_s"),
    "evaluate.rank_identities": ("calls",),
    "evaluate.l2_distance": ("calls",),
    "saliency.saliency_map": ("calls", "self_s"),
    "saliency.map_from_feature_maps": ("calls", "self_s"),
    "saliency.binarize": ("calls", "self_s"),
    "saliency.detection_precision": ("calls", "self_s"),
    "pipeline.prepare_experiment": ("calls", "self_s"),
    "pipeline.train_model": ("calls", "self_s"),
    "pipeline.evaluate_model": ("calls", "self_s"),
    "pipeline.run_ablation": ("calls", "self_s"),
    "pipeline.run_eval": ("calls", "self_s"),
    "pipeline.run_simulate": ("calls", "self_s"),
    "pipeline.run_saliency": ("calls", "self_s"),
}
_FN_METRICS = tuple(
    (f"{fn}.{stat}", _UNITS[stat]) for fn, stats in _LAYER_STATS.items() for stat in stats
)
PER_LAYER = _FN_METRICS + (
    ("model.forward.rows_per_image", "ratio"),
    ("setup.dataset.generate_synthetic_dataset.self_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_frac", "frac"),
)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(wl, job_stats, setup_stats, traced_s, untraced_s, cpu_s, absent) -> dict:
    from tracer import median_of

    out = {}
    for name, unit in _FN_METRICS:
        fn, stat = name.rsplit(".", 1)
        key = {"calls": "calls", "self_s": "self_s", "shapes": "distinct"}.get(stat, "totals")
        out[name] = _metric(median_of(job_stats, lambda st: st[key].get(fn, 0)), unit)
    rows = median_of(job_stats, lambda st: st["test_rows"])
    per_image = rows / wl.test_images if wl.test_images else 0.0
    out["model.forward.rows_per_image"] = _metric(per_image, "ratio")
    out["setup.dataset.generate_synthetic_dataset.self_s"] = _metric(
        setup_stats["self_s"]["dataset.generate_synthetic_dataset"], "s"
    )
    out["process.cpu_per_wall"] = _metric(cpu_s / sum(untraced_s), "ratio")
    out["trace.overhead_frac"] = _metric(
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "frac"
    )
    if absent:
        print(json.dumps({"absent": absent}))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from contextlib import nullcontext

    from tracer import Patch, Trace, phase_stats
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, size)
    # Work directories persist across runs: the set-up is rewritten in
    # place, and job k of every run writes into job<k>. Deleting thousands
    # of files slows file writes for many seconds afterwards, in this run
    # and the next.
    base = WORK / size / name
    (base / "setup").mkdir(parents=True, exist_ok=True)
    traces, absent, setup_s = [], [], []
    # at least SETUP_REPS set-ups, more while they add up to under a second
    while len(setup_s) < SETUP_REPS or (sum(setup_s) < 1.0 and len(setup_s) < 15):
        traced = trace and len(setup_s) == SETUP_REPS - 1
        tr = Trace("setup")
        patch = Patch(tr) if traced else nullcontext()
        t0 = time.perf_counter()
        with patch:
            wl.setup(base / "setup")
        setup_s.append(time.perf_counter() - t0)
        if traced:
            traces.append(tr)
            absent = patch.absent
    wl.reference()

    attempted = failed = 0
    rates, traced_s, untraced_s = [], [], []
    cpu_s = used = 0.0
    k = 0
    # closed loop: start the next job only if it should still fit the window
    while k < (2 if trace else 1) or used + statistics.median(traced_s + untraced_s) <= seconds:
        traced = trace and k % 2 == 1
        out = base / f"job{k}"
        tr = Trace(f"job{k}")
        # the previous write into job<k> is a run ago, over a second back
        since_ns = time.time_ns() - 10_000_000
        c0, t0 = _cpu_seconds(), time.perf_counter()
        res, problems = None, []
        try:
            with Patch(tr) if traced else nullcontext():
                res = wl.job(out)
        except Exception:
            problems = [traceback.format_exc()]
        job_s = res.seconds if res else time.perf_counter() - t0
        if traced:
            traces.append(tr)
            traced_s.append(job_s)
        else:
            cpu_s += _cpu_seconds() - c0
            untraced_s.append(job_s)
        used += job_s
        if res is not None:
            try:
                problems = wl.check(out, res, since_ns)
            except Exception:
                problems = [traceback.format_exc()]
        attempted += wl.ops_per_job
        if problems:
            failed += wl.ops_per_job
            if failed <= 3 * wl.ops_per_job:
                print(f"{name} job {k}: " + "; ".join(problems[:5]), file=sys.stderr)
        elif not traced:
            rates.append(res.items / res.seconds)
        k += 1
    times = {"setup_s": setup_s, "job_s": untraced_s, "traced_job_s": traced_s}
    print(json.dumps(times), file=sys.stderr)

    if trace:
        metrics = layer_metrics(
            wl,
            [phase_stats(t) for t in traces[1:]],
            phase_stats(traces[0]),
            traced_s,
            untraced_s,
            cpu_s,
            absent,
        )
        out_dir = WORK / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{name}-seed{seed}.json", "w", encoding="utf-8") as f:
            json.dump(
                {
                    "workload": name,
                    "seed": seed,
                    "env": environment(),
                    "absent": absent,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "value"],
                    "phases": [t.to_json() for t in traces],
                },
                f,
            )
    else:
        metrics = {
            "items_per_s": _metric(statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
            "ops_ok_frac": _metric((attempted - failed) / attempted, "frac"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _child(args: list) -> dict:
    """Run this script as a separate process and return its result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int, size: str) -> dict:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace), "--size", size])
        print(json.dumps({"workload": name, **res}))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def self_check() -> int:
    """Tiny run of every workload in both modes; every metric named in
    BENCHMARK.json must be printed with its unit and every output correct."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, mine in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(mine):
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in WORKLOADS:
            res = _child(["--workload", name, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny"])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric value is not a number")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {res['failed']}/{res['attempted']} failed")
            print(f"{name} trace={trace}: {len(got)} metrics, {res['attempted']} ops", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"self_check": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "occreid" / "__init__.py").is_file():
        print(f"error: no occreid sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.self_check:
        return self_check()
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    print(json.dumps({"env": environment()}))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace, args.size)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
