#!/usr/bin/env python3
"""Closed-loop benchmark of clustrop: one client, one process, one thread.

    python3 bench/run.py --workload mutation-search --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src, which the
benchmark only reads.  The job pool is built from the seed alone.  Passes over
the pool repeat while the next one fits in --seconds (at least one pass and
100 latency samples), and every job output is checked exactly.  The last
line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 untraced and traced passes alternate and
the metrics are the per-layer ones.

The end-to-end timings are scaled to a reference machine speed: a fixed probe
that owes nothing to clustrop runs before every job, and each time is
multiplied by REF_PROBE_S over the median probe time around it.  On a shared
host whose speed swings by half within a minute, this keeps the timings of
the program's code and leaves out those of the host.  See bench/README.md.
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
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".bench_out"
WORKLOADS = ("mutation-search", "polytope-duality", "tropical-certify")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
MIN_SAMPLES = 100  # p90 keeps at least ten samples beyond it
FIXTURES_EXPECTED = 13
# Probe time that defines the reference speed, about the fastest median seen
# on a 2-vCPU Intel Xeon VM with Python 3.11.7; a timing t taken where the
# probe takes p is reported as t * REF_PROBE_S / p.
REF_PROBE_S = 0.0017
PROBE_WINDOW = 9  # probes around a job whose median gives the machine speed
SETUP_PROBES = 9  # probes before and after each set-up


def probe() -> int:
    """Fixed exact-arithmetic work in the program's style (Fraction sums,
    tuple keys, a set) that calls nothing of clustrop; about 2 ms."""
    seen = set()
    for i in range(1, 600):
        x = Fraction(i % 7 - 3, i) + Fraction(1, i + 1)
        seen.add((i % 97, x.denominator % 1009, x.numerator))
    return len(seen)


def probe_time() -> float:
    gc.disable()  # a collection inside the probe would scan the program's heap
    try:
        t0 = perf_counter()
        probe()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(times, probes) -> list[float]:
    """Each time scaled by REF_PROBE_S over the median of the PROBE_WINDOW
    probes around it."""
    k = PROBE_WINDOW // 2
    return [t * REF_PROBE_S / statistics.median(probes[max(0, i - k):i + k + 1]) for i, t in enumerate(times)]


class BenchError(Exception):
    pass


def setup(workload: str, seed: int, workdir: str, tracer=None):
    """Import, fixture gate, seeded pool and one warm-up job; returns the pool."""
    import workloads
    from clustrop import fixture_suite as fs

    if tracer is not None:
        results = tracer.job("setup", lambda: tracer.span("fixture_suite", fs.fixture_suite))
        pool = tracer.job("setup", lambda: workloads.build_pool(workload, seed, workdir))
    else:
        results = fs.fixture_suite()
        pool = workloads.build_pool(workload, seed, workdir)
    passed = sum(r.passed for r in results)
    if passed != FIXTURES_EXPECTED or len(results) != FIXTURES_EXPECTED:
        bad = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        raise BenchError(f"fixture gate: {passed}/{len(results)} passed, need {FIXTURES_EXPECTED}; {bad}")
    try:
        pool[0].check(pool[0].run())
    except Exception as exc:
        raise BenchError(f"warm-up job failed: {type(exc).__name__}: {exc}") from None
    return pool


def timed_setup(workload: str, seed: int, workdir: str) -> tuple[float, float, list]:
    """(scaled set-up time, raw set-up time, pool)."""
    probes = [probe_time() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    pool = setup(workload, seed, workdir)
    raw = perf_counter() - t0
    probes += [probe_time() for _ in range(SETUP_PROBES)]
    return raw * REF_PROBE_S / statistics.median(probes), raw, pool


def setup_in_fresh_interpreter(workload: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup in a fresh interpreter failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_raw_s"]


def run_pass(pool, reference, tracer=None, probes=None):
    """One pass over the pool; returns (latencies, output hashes, failures).
    `reference` holds the first pass's hashes, which later passes must
    reproduce.  Only job.run is timed; checks run outside the clock.  With a
    `probes` list, the probe is timed before each job and appended to it."""
    import workloads

    lat, hashes, failures = [], [], []
    for i, job in enumerate(pool):
        gc.collect()
        if probes is not None:
            probes.append(probe_time())
        t0 = perf_counter()
        try:
            out = tracer.job(i, job.run) if tracer is not None else job.run()
        except Exception as exc:  # an unexpected exception is a failed job, not a crash
            lat.append(perf_counter() - t0)
            hashes.append(None)
            failures.append(f"job {i} ({job.kind}) raised {type(exc).__name__}: {exc}")
            continue
        lat.append(perf_counter() - t0)
        try:
            h = hashlib.sha256(job.summary(out).encode()).hexdigest()
            if reference is None:
                job.check(out)
            elif h != reference[i]:
                raise workloads.CheckFailed("output differs from the first pass")
        except Exception as exc:  # a malformed output fails the job like a wrong one
            what = exc if isinstance(exc, workloads.CheckFailed) else f"{type(exc).__name__}: {exc}"
            failures.append(f"job {i} ({job.kind}) failed its check: {what}")
            h = None
        hashes.append(h)
    return lat, hashes, failures


def keep_going(elapsed, pass_times, samples, seconds) -> bool:
    mean_pass = sum(pass_times) / len(pass_times)
    return samples < MIN_SAMPLES or elapsed + mean_pass <= seconds


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def outputs_digest(hashes) -> str:
    return hashlib.sha256("\n".join(h or "FAILED" for h in hashes).encode()).hexdigest()


def kind_medians(pool, lat) -> dict:
    by_kind: dict[str, list[float]] = {}
    for i, t in enumerate(lat):
        by_kind.setdefault(pool[i % len(pool)].kind, []).append(t)
    return {k: [len(v), round(statistics.median(v) * 1000, 3)] for k, v in sorted(by_kind.items())}


def measure(pool, seconds):
    lat, probes, failures, pass_times, reference = [], [], [], [], None
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        l, hashes, f = run_pass(pool, reference, probes=probes)
        pass_times.append(perf_counter() - t0)
        reference = reference or hashes
        lat += l
        failures += f
        if not keep_going(perf_counter() - t_start, pass_times, len(lat), seconds):
            return lat, probes, reference, failures, len(pass_times)


def end_to_end(args, workdir):
    setup_s, setup_raw, pool = timed_setup(args.workload, args.seed, workdir)
    # fresh set-ups before and after the timed loop, so that their median
    # spans the run rather than one moment of it
    fresh = (SETUP_SAMPLES - 1) // 2
    setups = [(setup_s, setup_raw)] + [setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(fresh)]
    raw, probes, reference, failures, passes = measure(pool, args.seconds)
    setups += [setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1 - fresh)]
    lat = scaled(raw, probes)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s", len(setups)),
        "jobs_per_s": (n / sum(lat), "1/s", n),
        "job_p50_ms": (statistics.median(lat) * 1000, "ms", n),
        "job_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms", n),
        "ok_ratio": ((n - len(failures)) / n, "ratio", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    info = {
        "passes": passes, "pool": len(pool), "probe_ms": round(statistics.median(probes) * 1000, 4),
        "setups_s": [round(s, 4) for s, _ in setups], "kinds_ms": kind_medians(pool, lat),
        "unscaled": {
            "setup_s": statistics.median(r for _, r in setups), "jobs_per_s": n / sum(raw),
            "job_p50_ms": statistics.median(raw) * 1000, "job_p90_ms": statistics.quantiles(raw, n=10)[8] * 1000,
        },
    }
    return metrics, n, failures, reference, info


def per_layer(args, workdir):
    sys.path[:0] = [str(SRC), str(HERE)]
    from spans import Tracer, ratio

    tracer = Tracer()
    tracer.install()
    try:
        pool = setup(args.workload, args.seed, workdir, tracer)
        setup_summary = tracer.summary()
        import workloads

        pool += workloads.named_jobs(args.workload)
        tracer.reset()
        reference, failures, plain, traced, summaries = None, [], [], [], []
        t_start = perf_counter()
        n = 0
        while True:
            t0 = perf_counter()
            tracer.uninstall()
            probes = []
            lat, hashes, f = run_pass(pool, reference, probes=probes)
            tracer.install()
            reference = reference or hashes
            plain.append(len(lat) / sum(scaled(lat, probes)))
            failures += f
            tracer.reset()
            probes = []
            lat_t, _, f = run_pass(pool, reference, tracer, probes)
            traced.append(len(lat_t) / sum(scaled(lat_t, probes)))
            failures += f
            summaries.append(tracer.summary())
            n += len(lat) + len(lat_t)
            # a step is one untraced and one traced pass; per-layer numbers need no latency samples
            if not keep_going(perf_counter() - t_start, [perf_counter() - t0], MIN_SAMPLES, args.seconds):
                break
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    finally:
        tracer.uninstall()
    first = summaries[0]
    counts_repeat = all(
        all(s[k] == first[k] for k in first if not k.endswith("_s")) for s in summaries[1:]
    )
    if not counts_repeat:
        failures.append("per-layer counts differ between traced passes")
    m = {k: statistics.median(s[k] for s in summaries) if k.endswith("_s") else first[k] for k in first}
    for k in ("glsseed.gls_exchange_matrix.calls", "glsseed.gls_exchange_matrix.busy_s", "fixture_suite.busy_s"):
        m[k] = setup_summary[k]
    bfs_children = m["mutation.class_bfs.children"]
    metrics = {}

    def put(name, unit, value=None):
        metrics[name] = (m[name] if value is None else value, unit, len(summaries))

    for name in (
        "mutation.mutate", "mutation.construct", "mutation.class_bfs", "mutation.large_entry_search",
        "glsseed.gls_exchange_matrix", "linalg.rref", "linalg.rank", "linalg.solve", "linalg.mat_inverse",
        "polytopes.vertices_from_facets", "polytopes.hull", "polytopes.polar_dual", "polytopes.qgf_solve",
        "polytopes.crossing_points", "polytopes.lattice_points", "tropical.trop_mutate_polytope",
        "tropical.qgf_preservation_check", "tropical.distinguish_certificate", "cli.main",
    ):
        put(f"{name}.calls", "count")
        put(f"{name}.busy_s", "s")
    for name in ("polytopes.vertices_from_facets", "polytopes.hull", "tropical.trop_mutate_polytope", "cli.main"):
        put(f"{name}.self_s", "s")
    put("mutation.class_bfs.nodes", "count")
    put("mutation.class_bfs.nodes_per_s", "1/s",
        ratio(m["mutation.class_bfs.nodes"], m["mutation.class_bfs.busy_s"]))
    put("mutation.class_bfs.children", "count")
    put("mutation.class_bfs.dedup_hit_ratio", "ratio",
        ratio(bfs_children - m["mutation.class_bfs.new_children"], bfs_children))
    put("mutation.large_entry_search.expansions", "count")
    put("mutation.large_entry_search.found", "count")
    put("mutation.large_entry_search.found_ratio", "ratio",
        ratio(m["mutation.large_entry_search.found"], m["mutation.large_entry_search.calls"]))
    put("polytopes.vertices_from_facets.constraints_in", "count")
    put("polytopes.vertices_from_facets.rays_out", "count")
    put("polytopes.hull.points_in", "count")
    put("polytopes.hull.vertices_out", "count")
    put("polytopes.lattice_points.cells_scanned", "count")
    put("polytopes.lattice_points.points_out", "count")
    put("polytopes.lattice_points.accept_ratio", "ratio",
        ratio(m["polytopes.lattice_points.points_out"], m["polytopes.lattice_points.cells_scanned"]))
    put("tropical.trop_mutate_polytope.convex", "count")
    put("tropical.trop_mutate_polytope.convex_ratio", "ratio",
        ratio(m["tropical.trop_mutate_polytope.convex"], m["tropical.trop_mutate_polytope.calls"]))
    put("tropical.qgf_preservation_check.accepted", "count")
    put("tropical.qgf_preservation_check.accept_ratio", "ratio",
        ratio(m["tropical.qgf_preservation_check.accepted"], m["tropical.qgf_preservation_check.calls"]))
    put("jsonio.busy_s", "s")
    put("jsonio.bytes_out", "bytes")
    put("fixture_suite.busy_s", "s")
    put("trace.jobs_per_s", "1/s", statistics.median(traced))
    put("trace.untraced_jobs_per_s", "1/s", statistics.median(plain))
    put("trace.overhead_ratio", "ratio", statistics.median(traced) / statistics.median(plain))
    info = {"passes": len(summaries), "pool": len(pool)}
    return metrics, n, failures, reference, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "clustrop" / "__init__.py").is_file():
        print(f"error: no clustrop package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_only:
            setup_s, setup_raw, _ = timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        env = environment()
        print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
        layer = per_layer if args.trace else end_to_end
        metrics, attempted, failures, reference, info = layer(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = outputs_digest(reference)
    print(f"digest workload={args.workload} seed={args.seed} sha256={digest}")
    print(f"run {json.dumps(info)}")
    for f in failures[:20]:
        print(f"FAIL {f}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples {n})")
    failed = len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "digest": digest,
        "info": info, "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
