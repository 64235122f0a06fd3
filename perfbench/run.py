"""kslab benchmark: one workload, timed end to end, with a traced variant.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload collapse_store --seed 0 \
        --seconds 55 --trace 0

The benchmark imports `kslab` from `./src`, generates the workload's
inputs from the seed (perfbench/inputs.py), and repeats the workload's op
until `--seconds` is used up.  A fresh child process measures set-up
(import, grid, initial data) several times.  Every op passes a correctness
gate (perfbench/workloads.py).  With `--trace 0` the last stdout line
carries the end-to-end metrics; with `--trace 1` ops alternate untraced and
traced, and it carries the per-layer metrics, the tracing overhead and the
replay probes.  The full record (environment, inputs, every op, spans) goes
to .perfbench_out/.  perfbench/README.md explains each workload and
metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
REPLAY_PASSES = 3

OUTCOMES = ("blew_up", "reached_t_end", "diverged_numerically",
            "inconclusive")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _declared(root: str, trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _environment(root: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            fields = []
            for f in ("level", "type", "size"):
                path = os.path.join(cache_dir, index, f)
                if os.path.isfile(path):
                    with open(path, encoding="utf-8") as fh:
                        fields.append(fh.read().strip())
            if len(fields) == 3:
                caches["L{}{}".format(fields[0], fields[1][0].lower())] = \
                    fields[2]
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    src = os.path.join(root, "src", "kslab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": commit,
        "kslab_source_sha256": h.hexdigest(),
    }


def _setup_probes(root: str, workload: str, seed: int) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
           str(seed)]
    out = []
    # the first probe may compile bytecode; it is not counted
    for i in range(SETUP_PROBES + 1):
        res = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        if i:
            out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def _replay(trajs: list) -> tuple[float, float]:
    """Median µs of public `step` and `energy_report` on retained snapshots."""
    from kslab.functionals import energy_report
    from kslab.solver import step
    step_us, energy_us = [], []
    for _ in range(REPLAY_PASSES):
        for traj in trajs:
            for s in traj.snapshots:
                t0 = time.perf_counter()
                step(s, traj.config.dt_min)
                t1 = time.perf_counter()
                energy_report(s)
                t2 = time.perf_counter()
                step_us.append(1e6 * (t1 - t0))
                energy_us.append(1e6 * (t2 - t1))
    return _median(step_us), _median(energy_us)


def _layer_metrics(ops: list, untraced: list, rec, replay) -> dict:
    import spans
    import workloads
    traced = [o for o in ops if o["traced"]]
    per_op = []
    for o in traced:
        sp = rec.op_spans(o["op"])
        selfs = spans.self_times(sp)
        totals = spans.total_times(sp)
        c = o["counts"]
        m = {name + "_s": selfs.get(name, 0.0)
             for name in workloads.LAYER_SPANS}
        run_s = totals.get("solver.run", 0.0)
        persist_s = totals.get("io.persist_run", 0.0)
        load_s = totals.get("io.load_run", 0.0)
        m.update({
            "initial_data.lemma14_pair_calls": c["lemma14_pair_calls"],
            "solver.steps": c["steps"],
            "solver.rejected_steps": c["rejected_steps"],
            "solver.snapshots": c["snapshots"],
            "solver.retained_mb": c["retained_bytes"] / 1e6,
            "solver.us_per_step": 1e6 * run_s / max(c["steps"], 1),
            "io.bytes_written": c["bytes_written"],
            "io.files_written": c["files_written"],
            "io.persist_mb_per_s":
                c["persisted_bytes"] / 1e6 / persist_s if persist_s else 0.0,
            "io.load_mb_per_s":
                c["loaded_bytes"] / 1e6 / load_s if load_s else 0.0,
            "verifier.corpus_states": c["corpus_states"],
            "verifier.checks_run": c["checks_run"],
            "verifier.checks_failed": c["checks_failed"],
            "trace.self_coverage": 1.0 - selfs[spans.ROOT] / totals[spans.ROOT],
        })
        for outcome in OUTCOMES:
            m["solver.outcome." + outcome] = c["outcomes"].get(outcome, 0)
        per_op.append(m)
    # lower median, so that exact counts stay whole numbers
    out = {k: statistics.median_low([m[k] for m in per_op]) for k in per_op[0]}
    step_us, energy_us = replay
    out["solver.step_us"] = step_us
    out["functionals.energy_report_us"] = energy_us
    out["solver.other_us_per_step"] = (out["solver.us_per_step"] - step_us
                                       - energy_us)
    out["trace.overhead_s"] = (_median([o["wall_s"] for o in traced])
                               - _median([o["wall_s"] for o in untraced]))
    return out


def main(argv=None) -> int:
    import inputs
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kslab", "__init__.py")):
        print("error: no kslab source under ./src; run from the root of a "
              "kslab checkout", file=sys.stderr)
        return 2
    for k in THREAD_PINS:
        os.environ[k] = "1"
    sys.path.insert(0, os.path.join(root, "src"))

    setup = _setup_probes(root, args.workload, args.seed)

    import spans
    import workloads
    out_root = os.path.join(root, OUT_DIR)
    work_dir = os.path.join(out_root, "work", f"{args.workload}-{args.seed}")
    workloads.reset_dir(work_dir)
    run_dir = os.path.join(work_dir, "out")
    wl = workloads.Workload(args.workload, args.seed, work_dir)
    rec = spans.Recorder()

    ops = []
    deadline = time.perf_counter() + args.seconds
    min_ops = 2 if args.trace else 1
    last_trajs = []
    cycles = []
    # start an op only if a typical op (with its gate) still fits
    while len(ops) < min_ops or \
            time.perf_counter() + _median(cycles) < deadline:
        traced = bool(args.trace) and len(ops) % 2 == 1
        cycle0 = time.perf_counter()
        workloads.reset_dir(run_dir)
        gc.collect()
        rec.begin_op(traced)
        err, slots, loaded = None, [], {}
        with rec.hooks(workloads.TRACED if traced else workloads.UNTRACED):
            t0 = time.perf_counter()
            try:
                with rec.span(spans.ROOT):
                    slots, loaded = wl.op(rec, run_dir)
            except Exception:  # an op that raises is a failed op
                err = traceback.format_exc()
            t1 = time.perf_counter()
        trajs = [c.result for c in rec.calls if c.name == "solver.run"]
        problems, counts = [err] if err else [], None
        if not err:
            try:
                problems = workloads.gate(trajs, slots, loaded)
                counts = workloads.counts(rec.calls, run_dir)
            except Exception:  # outputs the gate cannot read fail the op
                problems = [traceback.format_exc()]
        record = {
            "op": rec.op, "traced": traced, "wall_s": t1 - t0,
            "verdict_s": max((c.end for c in rec.calls
                              if c.name == "solver.run"), default=t1) - t0,
            "problems": problems,
            "counts": counts,
        }
        ops.append(record)
        if traced:
            last_trajs = trajs
        del slots, loaded, trajs
        rec.calls = []
        cycles.append(time.perf_counter() - cycle0)

    failed = sum(bool(o["problems"]) for o in ops)
    good = [o for o in ops if not o["problems"]]
    untraced = [o for o in good if not o["traced"]]
    if args.trace:
        metrics = {
            "kslab.import_s": _median([p["import_s"] for p in setup]),
            "grid.build_grid_s": _median([p["build_grid_s"] for p in setup]),
            "initial_data.baseline_profiles_s":
                _median([p["datum_s"] for p in setup]),
        }
        if any(o["traced"] for o in good):
            metrics.update(_layer_metrics(good, untraced, rec,
                                          _replay(last_trajs)))
    else:
        # Times are means over the run's untraced ops, i.e. ratios of
        # totals: the host's speed drifts in phases of tens of seconds, and
        # a mean moves smoothly with the share of a run spent in a slow
        # phase where a median jumps between phases.
        wall = sum(o["wall_s"] for o in untraced)
        metrics = {
            "setup_s": _median([sum(p.values()) for p in setup]),
            "verdict_s": _mean([o["verdict_s"] for o in untraced]),
            "wall_s": _mean([o["wall_s"] for o in untraced]),
            "cell_steps_per_s": sum(o["counts"]["cell_steps"]
                                    for o in untraced) / wall if wall else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "disk_mb": statistics.median_low(
                [o["counts"]["bytes_written"] for o in untraced]) / 1e6
            if untraced else 0.0,
        }

    units = _declared(root, args.trace)
    if failed == 0 and set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    metrics = {k: metrics[k] for k in units if k in metrics}
    env = _environment(root)
    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": wl.inputs, "setup_probes": setup,
        "ops": ops, "metrics": metrics, "units": units,
        "spans": rec.dump(),
    }
    os.makedirs(out_root, exist_ok=True)
    path = os.path.join(
        out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, default=str)
    shutil.rmtree(work_dir)

    for o in ops:
        for p in o["problems"]:
            print(f"op {o['op']} failed: {p}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"ops {len(ops)} ({sum(o['traced'] for o in ops)} traced), "
          f"failed {failed}; record in {path}")
    if len(untraced) >= 4:
        q = statistics.quantiles([o["wall_s"] for o in untraced], n=4)
        print(f"untraced op wall_s: quartiles {q[0]:.4g} / {q[1]:.4g} / "
              f"{q[2]:.4g} s over {len(untraced)} ops")
    for k, v in metrics.items():
        print(f"{k:36s} {v:>16.6g} {units[k]}")
    result = {
        "correct": failed == 0 and bool(untraced),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
