"""dq-kit benchmark: seeded, exactly checked workloads, timed end to end.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-test

Workloads: gauge_roundtrip, hochschild_solve, corpus_cli (see README.md in
this directory).  Each is a closed loop with one client: a job starts when the
previous one has been checked.

--trace 0 runs the job pool in whole passes until --seconds seconds have
passed and reports the end-to-end metrics.  Each pass draws fresh coefficient
values for the same job structures.  --trace 1 runs one pass untraced and
pass 0 traced (so two traced runs of a seed do identical work) and reports
the per-layer metrics.  The last line of stdout is one JSON object; the lines before it are
a readable summary.  A full record (environment, ROADMAP baseline jobs,
failures, tail percentile) goes to .bench_out/.

Timings are process-local: a job's time is the CPU time (user + system) of
the process that does its work, read with time.process_time and, for child
processes, getrusage.  On an idle machine that equals the wall time a user
waits; unlike wall time it leaves out time spent waiting for a CPU.
setup_s, jobs_per_s and job_p50_ms are given at reference speed: each time
is divided by the time of a fixed reference routine run right after it (see
reference_seconds) and multiplied by REFERENCE_S.  Raw CPU and wall times
are kept in the full record.  The benchmark reads and changes no CPU
governor, cache or cgroup setting.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPEATS = 5
CHILD_REPEATS = 5
# Job times are reported at the machine speed at which the reference routine
# takes this long (about its time on the 2-core x86 VM the benchmark was
# tuned on).
REFERENCE_S = 0.005


def cpu_now():
    """CPU seconds used so far by this process and the children it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def import_dqkit():
    """Import dqkit from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dqkit", "__init__.py")):
        sys.exit(f"bench: no dqkit sources under {src}; run from a dq-kit checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import dqkit

    if os.path.dirname(os.path.abspath(dqkit.__file__)) != os.path.join(src, "dqkit"):
        sys.exit(f"bench: imported dqkit from {dqkit.__file__}, not from {src}")


# ----------------------------------------------------------------------
# the reference routine
#
# The host this was tuned on runs at speeds up to 1.7x apart, in phases of
# seconds to minutes, so a 35 s run can fall wholly in a slow phase; over
# five seeds the interquartile spread of raw job times reached 0.3-0.5 of the
# median.  Each time is therefore divided by the CPU time of a fixed routine
# run right after it, which slows with the host but not with dqkit: sparse
# polynomial products over Fraction in dicts, the kind of work dqkit's kernel
# does, written here and calling nothing in dqkit.  With each job's median
# over the passes, that brought the spread under 0.07.  The routine runs
# with the garbage collector off, so that a dqkit change that grows the heap
# cannot slow it and so look like a gain.

_ref_rng = random.Random("dq-kit bench reference")
_REF_FACTORS = [
    {tuple(_ref_rng.randint(0, 3) for _ in range(4)): Fraction(_ref_rng.randint(-9, 9) or 1, _ref_rng.randint(1, 7))
     for _ in range(40)}
    for _ in range(2)
]


def reference_seconds():
    """CPU seconds of one run of the reference routine."""
    a, b = _REF_FACTORS
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# running and checking jobs


class Ledger:
    """Attempts, failures and latencies of one run."""

    def __init__(self, expected, seed, default_seed):
        self.expected = expected
        self.default_seed = seed == default_seed
        self.attempted = 0
        self.failures = []
        self.latency = []          # CPU seconds, timed jobs only
        self.wall = []             # wall seconds of the same jobs
        self.by_key = {}           # key -> latencies
        self.samples = []          # (key, CPU seconds, reference seconds right after)
        self.hashed = 0

    def execute(self, job, timed=True, wrap=None, pass_no=0):
        """Run, time and check one job.  Seeded jobs are hash-checked on pass 0
        of the default seed, the inputs expected.json was recorded from."""
        from workloads import OracleFailure, sha256

        self.attempted += 1
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            result = wrap(job.key, job.run) if wrap else job.run()
        except Exception as exc:  # any raise is a failed job, recorded with its type
            self.failures.append((job.key, f"raised {type(exc).__name__}: {exc}"))
            return
        dt, wall = cpu_now() - c0, time.perf_counter() - t0
        try:
            digest = sha256(job.check(result))
            if job.seeded and not (self.default_seed and pass_no == 0):
                pass  # no expected hash for these inputs
            else:
                self.hashed += 1
                want = self.expected.get(job.key)
                if want is None:
                    raise OracleFailure("no expected hash recorded for this job")
                if digest != want:
                    raise OracleFailure(f"result hash {digest[:12]} != expected {want[:12]}")
        except OracleFailure as exc:
            self.failures.append((job.key, str(exc)))
            return
        if timed:
            self.samples.append((job.key, dt, reference_seconds()))
            self.latency.append(dt)
            self.wall.append(wall)
            self.by_key.setdefault(job.key, []).append(dt)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value.  Returns (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# set-up time: fresh processes from start to inputs ready


def setup_probe(workload, seed):
    """Body of a --setup-only child: import, build inputs, then report the
    CPU time this process has used since it started."""
    import_dqkit()
    import workloads

    workdir = make_workdir(f"setup-{workload}-{seed}-{os.getpid()}")
    try:
        workloads.build(workload, seed, workdir)
        sys.stdout.write(f"ready {time.process_time()!r}\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    """One fresh process from start to inputs ready: (CPU seconds, wall seconds)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline().split()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if len(line) != 2 or line[0] != b"ready" or code != 0:
        raise RuntimeError(f"set-up child for {workload} failed with exit code {code}")
    return float(line[1]), wall


def make_workdir(name):
    path = os.path.join(OUT_DIR, "work", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_seconds(code_text, repeats=CHILD_REPEATS):
    """Median over fresh interpreters of the CPU seconds a snippet prints,
    or of the whole process's CPU seconds when it prints nothing."""
    from workloads import child_env, run_child

    env = child_env(ROOT)
    vals = []
    for _ in range(repeats):
        code, out, cpu = run_child([sys.executable, "-c", code_text], ROOT, env)
        if code != 0:
            raise RuntimeError(f"child {code_text!r} exited {code}: {out[-300:]}")
        vals.append(float(out) if out.strip() else cpu)
    return statistics.median(vals)


IMPORT_SNIPPET = ("import time; t = time.process_time(); import dqkit.cli; "
                  "print(repr(time.process_time() - t))")


# ----------------------------------------------------------------------
# environment record


def environment(seed):
    commit = "unknown: the checkout is not a git repository"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "timing": ("process-local: job and set-up times are CPU seconds (user + system) of "
                   "the process doing the work, from time.process_time and getrusage; wall "
                   "times are kept alongside; no CPU governor, cache or cgroup setting is "
                   "read or changed"),
    }


# ----------------------------------------------------------------------
# the two modes


def run_untraced(workload, ledger, seconds, seed):
    """Whole passes over the pool until --seconds have passed, so every job
    is equally represented whatever the machine's speed.  The set-up probes
    run between passes, spread over the run like the jobs."""
    import workloads

    setups = []      # (CPU seconds, wall seconds, reference seconds right after)
    # warm-up on inputs no pass uses: checked but not timed
    ledger.execute(workloads.layer_probe(workload.workdir), timed=False)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS:
            setups.append((*measure_setup(workload.name, seed), reference_seconds()))
        for job in workload.pool(passes):
            ledger.execute(job, pass_no=passes)
        passes += 1
    while len(setups) < SETUP_REPEATS:
        setups.append((*measure_setup(workload.name, seed), reference_seconds()))
    # A job's time is its median over the passes at reference speed;
    # throughput and the median job use that.  Seeded jobs get fresh inputs
    # on every pass, so no pass of theirs is made cheap by a cache an
    # earlier pass filled.
    scaled = {}
    for key, dt, ref in ledger.samples:
        scaled.setdefault(key, []).append(dt * REFERENCE_S / ref)
    per_job = [statistics.median(xs) for xs in scaled.values()]
    raw_per_job = [statistics.median(xs) for xs in ledger.by_key.values()]
    t_val, t_pct, t_n = tail([1000.0 * x for xs in scaled.values() for x in xs])
    return {
        "setup_s": (statistics.median(cpu * REFERENCE_S / ref for cpu, _, ref in setups), "s"),
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_p50_ms": (1000.0 * statistics.median(per_job), "ms"),
        "job_tail_ms": (t_val, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"tail_percentile": t_pct, "samples": t_n, "passes": passes,
        "job_ms": {key: 1000.0 * statistics.median(xs) for key, xs in scaled.items()},
        "job_samples": [{"job": k, "cpu_s": dt, "reference_s": ref} for k, dt, ref in ledger.samples],
        "raw_jobs_per_s": len(raw_per_job) / sum(raw_per_job),
        "raw_job_p50_ms": 1000.0 * statistics.median(raw_per_job),
        "reference_ms": {"least": 1000.0 * min(r for _, _, r in ledger.samples),
                         "median": 1000.0 * statistics.median(r for _, _, r in ledger.samples)},
        "mean_jobs_per_s": len(ledger.latency) / sum(ledger.latency),
        "all_samples_job_p50_ms": 1000.0 * statistics.median(ledger.latency),
        "wall_jobs_per_s": len(ledger.wall) / sum(ledger.wall),
        "wall_job_p50_ms": 1000.0 * statistics.median(ledger.wall),
        "setup_runs": [{"cpu_s": cpu, "wall_s": wall, "reference_s": ref} for cpu, wall, ref in setups]}


def run_traced(workload, ledger, seed):
    import workloads
    from tracing import TARGETS, Tracer

    # The untraced pass runs pass 1's inputs, so that the traced pass 0 is
    # not made cheap by anything an input-keyed cache kept from it.
    # Both passes are timed job by job at reference speed.
    def pass_seconds(first):
        return sum(dt * REFERENCE_S / ref for _, dt, ref in ledger.samples[first:])

    jobs = workload.pool(1)
    first = len(ledger.samples)
    for job in jobs:
        ledger.execute(job, pass_no=1)
    untraced_s = pass_seconds(first)

    tracer = Tracer()
    tracer.install()
    try:
        first = len(ledger.samples)
        for job in workload.jobs:
            ledger.execute(job, wrap=tracer.job_span)
        traced_s = pass_seconds(first)
        ledger.execute(workloads.layer_probe(workload.workdir), timed=False, wrap=tracer.job_span)
    finally:
        tracer.uninstall()

    # ROADMAP baseline: verify as a fresh process, untraced, like a shell call
    verify = workloads.verify_subprocess_job(ROOT)
    for _ in range(CHILD_REPEATS):
        ledger.execute(verify)

    totals = tracer.totals()
    metrics = {}
    for name in dict.fromkeys(target[0] for target in TARGETS):
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counts
    metrics["diffop.compose.term_pairs"] = (c["diffop.compose.term_pairs"], "count")
    metrics["diffop.compose.out_terms"] = (c["diffop.compose.out_terms"], "count")
    metrics["starprod.assoc_defect.cancel_ratio"] = (
        c["starprod.assoc_defect.surviving_terms"] / c["starprod.assoc_defect.compose_terms"]
        if c["starprod.assoc_defect.compose_terms"] else 0.0, "ratio")
    spec_calls = totals.get("starprod.specialize", (0, 0.0))[0]
    metrics["starprod.specialize.unknowns"] = (c["starprod.specialize.unknowns"], "count")
    metrics["starprod.specialize.solved_ratio"] = (
        c["starprod.specialize.solved"] / spec_calls if spec_calls else 0.0, "ratio")
    metrics["parser.parse.bytes"] = (c["parser.parse.bytes"], "bytes")
    metrics["parser.serialize.bytes"] = (c["parser.serialize.bytes"], "bytes")
    import_s = child_seconds(IMPORT_SNIPPET)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.interp_s"] = (child_seconds("pass"), "s")

    span_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.jsonl")
    tracer.write_spans(span_path)
    modules = {}
    for name, (_, self_s) in totals.items():
        layer = "harness/other (job self time)" if name == "job" else name.split(".")[0]
        modules[layer] = modules.get(layer, 0.0) + self_s
    info = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "traced_over_untraced_jobs_per_s": untraced_s / traced_s,
        "module_self_s": modules,
        "counters": dict(c),
        "spans_file": os.path.relpath(span_path, ROOT),
        "stored_spans": len(tracer.spans),
        "roadmap_baselines": {
            verify.named: {"median_s": statistics.median(ledger.by_key[verify.key]), "runs": CHILD_REPEATS},
            "import dqkit.cli (fresh interpreter)": {"median_s": import_s, "runs": CHILD_REPEATS},
        } if verify.key in ledger.by_key else {},
    }
    return metrics, info


def declared_metrics(trace):
    """Names of the metrics BENCHMARK.json declares for the final JSON line."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def load_expected(workload):
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench: cannot read {EXPECTED}: {exc}")
    return data["hashes"].get(workload, {}), data["default_seed"]


def named_medians(workload, ledger):
    out = {}
    for job in workload.jobs:
        if job.named and job.key in ledger.by_key:
            xs = ledger.by_key[job.key]
            out[job.named] = {"median_s": statistics.median(xs), "runs": len(xs)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true", help="check the correctness gate itself")
    args = ap.parse_args(argv)
    if args.self_test:
        import_dqkit()
        import selftest

        return selftest.main()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    os.chdir(ROOT)
    import_dqkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        setup_probe(args.workload, args.seed)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    expected, default_seed = load_expected(args.workload)
    workdir = make_workdir(f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        ledger = Ledger(expected, args.seed, default_seed)
        if args.trace:
            values, info = run_traced(workload, ledger, args.seed)
        else:
            values, info = run_untraced(workload, ledger, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(ledger.failures)
    values["failed_frac"] = (failed / ledger.attempted, "1")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    declared = {k: metrics[k] for k in declared_metrics(args.trace)}
    record = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "untraced",
        "environment": environment(args.seed),
        "jobs_in_pool": len(workload.jobs),
        "attempted": ledger.attempted,
        "failed": failed,
        "hash_checked": ledger.hashed,
        "failures": [{"job": k, "why": w} for k, w in ledger.failures[:50]],
        "metrics": metrics,
        "info": info,
        "roadmap_baselines": {**named_medians(workload, ledger), **info.pop("roadmap_baselines", {})},
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print_summary(record, path)
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": declared}))
    return 0


def print_summary(record, path):
    env = record["environment"]
    print(f"workload {record['workload']} ({record['mode']}), seed {env['seed']}: "
          f"{record['attempted']} jobs attempted, {record['failed']} failed, "
          f"{record['hash_checked']} checked against expected hashes")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    info = record["info"]
    if "tail_percentile" in info:
        print(f"  job_tail_ms is p{info['tail_percentile']:.2f} of {info['samples']} samples "
              f"(the 11th largest, at reference speed); {info['passes']} passes over the pool")
        ref = info["reference_ms"]
        print(f"  at raw CPU speed: jobs_per_s {info['raw_jobs_per_s']:.6g} 1/s, job_p50_ms "
              f"{info['raw_job_p50_ms']:.6g} ms; reference routine least {ref['least']:.3f} ms, "
              f"median {ref['median']:.3f} ms (scaled to {1000 * REFERENCE_S:g} ms)")
    if "traced_over_untraced_jobs_per_s" in info:
        print(f"  tracing: traced pass {info['traced_pass_s']:.3f} s, untraced {info['untraced_pass_s']:.3f} s, "
              f"traced/untraced jobs_per_s {info['traced_over_untraced_jobs_per_s']:.3f}")
        total = sum(info["module_self_s"].values())
        for layer, secs in sorted(info["module_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    self time {layer:32s} {secs:10.4f} s  {100 * secs / total:5.1f}%")
    for name, b in record["roadmap_baselines"].items():
        print(f"  ROADMAP baseline {name}: median {b['median_s']:.4f} s")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['job']}: {f['why']}", file=sys.stderr)
    print(f"  python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}; "
          f"timings are process-local, no CPU governor, cache or cgroup setting is touched")
    print(f"  full record: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
