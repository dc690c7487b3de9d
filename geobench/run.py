"""Benchmark of the proj_ray spatial engine: three seeded workloads.

Run from the root of a source checkout:

    python3 geobench/run.py --workload tile_join --seed 1 --seconds 24 \\
        --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  tile_join    read_parquet -> reproject -> with_tiles z10 -> PIP join
               -> per-batch partial tile counts -> bucketed_sum -> pull
  tile_export  tile_counts_salted z14 -> resumable_write by tile prefix
  knn_lookup   knn_build once, then one knn_index query at a time; not
               in BENCHMARK.json (its latency moved too much between
               runs on a 4-vCPU host), but traced runs of the other two
               probe its layer

`--trace 0` measures the end-to-end metrics with nothing wrapped:
`rows_per_s` on the batch workloads, `query_p50_ms` and `query_p90_ms`
on knn_lookup, and `setup_s` and `driver_rss_mb` on all.
`--trace 1` alternates untraced and traced ops for the same time, then
probes single layers, and reports the per-layer metrics together with
the tracing overhead. Either way the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record
(host calibration, the host's CPU busy, idle and steal shares while
timed, samples, spans, per-operator stats, the command) is written
under `.geobench/results/` in the checkout. Ops are pipelines of many
short Ray tasks that leave about half the CPUs idle, so their times
follow the host: on a shared VM, steal while timed moves them by
several percent per point of steal, and a diff should be read with it.

Before it exits, a run stops and reaps every process it started,
including Ray workers orphaned by their raylet.

Two result files can be compared layer by layer with
`python3 geobench/diff.py BASE.json NEW.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# the Unix socket path limit leaves this much room for Ray's temp dir
MAX_RAY_TEMP_LEN = 40


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["tile_join", "tile_export", "knn_lookup"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "toy"], default="full",
                   help="input sizes; toy is for the self-test")
    p.add_argument("--out", help="result file (default: under .geobench/)")
    return p.parse_args(argv)


# ------------------------------------------------------------ calibration

def _burn(n: int) -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i % 7
    return time.perf_counter() - t0


def calibrate(burn_iters: int = 1_000_000) -> dict:
    """Host context taken outside any timed region: CPU counts, 1-minute
    load and an effective-core count from a multiprocessing burn test
    (cores x single-process time / parallel time)."""
    import multiprocessing as mp

    ncpu = os.cpu_count() or 1
    single = _burn(burn_iters)
    # fork: Ray is imported but not started, so this process has one
    # thread, and unlike spawn, fork starts no resource-tracker process
    # that would outlive the pool
    ctx = mp.get_context("fork")
    with ctx.Pool(ncpu) as pool:
        pool.map(_burn, [1] * ncpu)  # worker start-up is not burn time
        t0 = time.perf_counter()
        pool.map(_burn, [burn_iters] * ncpu)
        parallel = time.perf_counter() - t0
        pool.close()
        pool.join()
    return {"nproc": ncpu,
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
            "burn_effective_cores": ncpu * single / parallel,
            "burn_single_s": single}


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (VmHWM) from its current
    resident set."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_times() -> list[int]:
    """Host-wide jiffies: user, nice, system, idle, iowait, irq,
    softirq, steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def cpu_shares(before: list[int], after: list[int]) -> dict:
    """Busy, idle and steal shares of all CPUs between two readings:
    steal is time the hypervisor gave this host's CPUs to others."""
    d = [b - a for a, b in zip(before, after)]
    total = max(sum(d), 1)
    return {"cpu_busy_pct": 100.0 * (total - d[3] - d[4] - d[7]) / total,
            "cpu_idle_pct": 100.0 * (d[3] + d[4]) / total,
            "cpu_steal_pct": 100.0 * d[7] / total}


# ------------------------------------------------------------ processes

PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant: Ray's workers outlive the raylet
    that started them by a moment, and would otherwise pass to init,
    still running or unreaped, after this process has exited."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def live_children() -> list[int]:
    """Pids whose parent is this process and that have not exited."""
    me, out = os.getpid(), []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] not in ("Z", "X"):
            out.append(int(name))
    return out


def reap() -> bool:
    """Collect every exited child; False once no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started, and those they started, and
    wait until each has ended: SIGTERM first, SIGKILL after `grace_s`."""
    deadline = time.monotonic() + grace_s
    sent: set = set()
    while reap():
        sig = signal.SIGKILL if time.monotonic() > deadline else signal.SIGTERM
        for pid in live_children():
            if sig == signal.SIGKILL or pid not in sent:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                sent.add(pid)
        time.sleep(0.02)


# ------------------------------------------------------------ measurement

def run_op(wl, tracer=None):
    """One op and its check. Returns (seconds, ok, span id)."""
    span_id = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op()
            dt = time.perf_counter() - t0
        else:
            with tracer.instrument(), tracer.span("op") as rec:
                out = wl.op()
            dt = time.perf_counter() - t0
            span_id = rec["id"]
    except Exception:  # a failed op is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False, span_id
    try:
        ok = bool(wl.check(out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return dt, ok, span_id


def measure(wl, seconds: float, tracer=None):
    """Ops back to back (closed loop) until `seconds` of op time have
    been measured and, untraced, at least `wl.min_ops` ops ran. With a
    tracer, untraced and traced ops alternate in ABBA order, so neither
    side always gets the same kind of op, and each side runs twice or
    more. Untraced ops come in pairs: back-to-back tile_join runs, whose
    join stage is an actor pool, alternate between slower and faster,
    and the median of an odd count would pick one kind."""
    plain, traced, roots, kinds, failed = [], [], [], [], 0
    need = wl.min_ops if tracer is None else 2
    deadline = time.perf_counter() + 2 * seconds + 60
    while (sum(plain) + sum(traced) < seconds
           or len(plain) < need or len(plain) % 2
           or (tracer is not None and len(traced) < need)):
        use_tracer = tracer is not None and len(kinds) % 4 in (1, 2)
        dt, ok, root = run_op(wl, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(dt)
        if use_tracer:
            roots.append(root)
        kinds.append(use_tracer)
        failed += not ok
        if time.perf_counter() > deadline:
            break
    return plain, traced, roots, kinds, failed


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between samples (never beyond the
    largest, which matters for the few ops of a batch workload)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, latencies, setup_times, rss_mb: float) -> dict:
    """Throughput for the batch workloads, latency for knn_lookup; the
    per-op latencies of every workload stay in the result record."""
    p50 = statistics.median(latencies)
    if wl.op_unit == "query":
        out = {"query_p50_ms": (p50 * 1e3, "ms"),
               "query_p90_ms": (percentile(latencies, 90) * 1e3, "ms")}
    else:
        out = {"rows_per_s": (wl.rows_per_op() / p50, "rows/s")}
    out["setup_s"] = (statistics.median(setup_times), "s")
    out["driver_rss_mb"] = (rss_mb, "MB")
    return out


def span_summary(tracer, roots) -> dict:
    """Per span name, summed over the traced ops: count, total and self
    seconds."""
    out: dict = {}
    for root in roots:
        for name, d in tracer.by_name(root).items():
            acc = out.setdefault(name, dict.fromkeys(d, 0))
            for k, v in d.items():
                acc[k] += v
    return out


# ------------------------------------------------------------------ main

def start_ray(root: str) -> dict:
    # Ray starts workers at nice 15 and its own helper daemons at nice 0,
    # so on a small host the daemons' bursts preempt the workers and the
    # same op's time moves with them: run everything at one priority, and
    # turn off the periodic metrics export and usage report, which
    # nothing here reads
    os.environ.update(RAY_worker_niceness="0",
                      RAY_enable_metrics_collection="0",
                      RAY_USAGE_STATS_ENABLED="0")
    import ray

    kwargs = dict(address="local", num_cpus=os.cpu_count(),
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False, object_store_memory=10 ** 9)
    temp = os.path.join(root, ".geobench", "ray")
    if len(temp) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = temp
    ray.init(**kwargs)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    ctx.execution_options.verbose_progress = False
    return {"ray_version": ray.__version__,
            "ray_cpus": int(ray.cluster_resources().get("CPU", 0)),
            "ray_temp_dir": kwargs.get("_temp_dir", "ray default")}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "proj_ray", "__init__.py")):
        print("geobench: run from the root of a proj_ray checkout",
              file=sys.stderr)
        return 2
    become_subreaper()
    try:
        return run(args, root)
    finally:
        stop_children()


def run(args, root: str) -> int:
    sys.path[:0] = [root, HERE]
    import logging

    logging.getLogger("ray.data").setLevel(logging.WARNING)

    import layers
    import perlayer
    import spans as tracing
    import workloads
    from ray import cloudpickle

    # ship the benchmark's own batch functions by value: Ray workers do
    # not have this directory on their import path
    cloudpickle.register_pickle_by_value(workloads)
    cloudpickle.register_pickle_by_value(layers)

    command = ["python3", "geobench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
    if args.scale != "full":
        command += ["--scale", args.scale]
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = os.path.join(root, ".geobench", "work", run_id)
    context = {"calibration": calibrate()}
    import ray

    try:
        t_start = time.perf_counter()
        context.update(start_ray(root))
        phases = context["phases_s"] = {
            "ray_init": time.perf_counter() - t_start}
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                args.scale)
        setup_times = []
        for rep in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(rep)
            # write-back of the table and index is part of set-up; left
            # to the kernel it lands on the first timed ops of some runs
            os.sync()
            setup_times.append(time.perf_counter() - t0)
            if rep == 0:
                wl.oracle()
        if args.trace:
            # Ray retires idle workers while the oracle runs: warm again
            wl.warm_up()
        tracer = tracing.Tracer(run_id) if args.trace else None
        phases["setup_and_oracle"] = (time.perf_counter() - t_start
                                      - phases["ray_init"])
        t0 = time.perf_counter()
        cpu0 = cpu_times()
        reset_peak_rss()
        plain, traced, roots, kinds, failed = measure(wl, args.seconds,
                                                      tracer)
        rss_mb = peak_rss_mb()
        context["measure_cpu"] = cpu_shares(cpu0, cpu_times())
        phases["measure"] = time.perf_counter() - t0
        attempted = len(plain) + len(traced)
        if args.trace:
            t0 = time.perf_counter()
            metrics = perlayer.collect(wl, tracer, roots, kinds, plain,
                                       traced)
            metrics.update(perlayer.probes(wl, tracer, layers, metrics))
            phases["probes"] = time.perf_counter() - t0
        else:
            metrics = end_to_end(wl, plain, setup_times, rss_mb)
    finally:
        ray.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()  # so the deletes do not spill into the next run
    context["loadavg_1m_after"] = os.getloadavg()[0]
    context.update(wl.context)

    correct = failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "command": " ".join(command), "context": context,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "samples": {"op_unit": wl.op_unit, "latencies_s": plain,
                    "traced_latencies_s": traced,
                    "setup_s": setup_times,
                    "samples_beyond_p90": sum(
                        1 for x in plain
                        if x > percentile(plain, 90))},
        "metrics": {k: {"value": v, "unit": u, "command": " ".join(command)}
                    for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["span_summary"] = span_summary(tracer, roots)
        record["spans"] = tracer.spans
        record["operators"] = tracer.operators
    out = args.out or os.path.join(root, ".geobench", "results",
                                   f"{run_id}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"geobench: result file {out}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
