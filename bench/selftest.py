"""Self-test of the benchmark's correctness gate and trace counters.

Run: python3 bench/run.py --self-test

It shows that a tampered star product and a corrupted expected hash are both
counted as failed jobs, and that two traced passes over the same jobs give
identical call counts and work counters.
"""

from __future__ import annotations

import os
import random
import shutil

import run
import workloads
from tracing import Tracer
from workloads import Poly, PolyDiffOp, starprod


def tampered_job():
    """A gauge round trip on Moyal n=2, N=2 whose P_2 has a stray term
    d1^2 (x) d1; its Hochschild coboundary is nonzero, so the product fails
    associativity at order 2."""
    S = starprod.moyal(workloads.symplectic_pi(2), 2)
    tamper = PolyDiffOp(2, 2, {((2, 0), (1, 0)): Poly.one(2)})
    bad = starprod.StarProduct(2, 2, [S.op(1), S.op(2) + tamper])
    R = workloads.rand_gauge(random.Random(1), random.Random(2), 2, 2)
    return workloads._gauge_job("selftest:tampered_star", bad, starprod.assoc_poisson(bad), R, seeded=True)


def traced_counts(jobs, expected, seed):
    tracer = Tracer()
    ledger = run.Ledger(expected, seed=seed, default_seed=seed)
    tracer.install()
    try:
        for job in jobs:
            ledger.execute(job, timed=False, wrap=tracer.job_span)
    finally:
        tracer.uninstall()
    calls = {name: calls for name, (calls, _) in tracer.totals().items()}
    return calls, dict(tracer.counts), ledger


def main():
    os.chdir(run.ROOT)
    expected, default_seed = run.load_expected("corpus_cli")
    checks = []

    def verdict(name, ok, detail):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    # 1. a tampered star is counted as a failure; a clean one is not
    ledger = run.Ledger({}, seed=1, default_seed=default_seed)
    clean = workloads.gauge_roundtrip(1).jobs[0]
    ledger.execute(clean)
    ledger.execute(tampered_job())
    verdict("tampered star", ledger.attempted == 2 and [k for k, _ in ledger.failures] == ["selftest:tampered_star"],
            f"attempted {ledger.attempted}, failed {len(ledger.failures)}: {ledger.failures}")

    # 2. a corrupted expected hash is counted as a failure
    workdir = run.make_workdir(f"selftest-{os.getpid()}")
    try:
        wl = workloads.corpus_cli(default_seed, workdir)
        job = next(j for j in wl.jobs if j.key == "corpus:verify:bundle")
        good = run.Ledger(expected, seed=default_seed, default_seed=default_seed)
        good.execute(job)
        corrupted = dict(expected)
        digest = corrupted[job.key]
        corrupted[job.key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        bad = run.Ledger(corrupted, seed=default_seed, default_seed=default_seed)
        bad.execute(job)
        verdict("corrupted expected hash",
                not good.failures and good.hashed == 1 and len(bad.failures) == 1 and bad.attempted == 1,
                f"committed hash: {len(good.failures)} failed; corrupted hash: "
                f"{len(bad.failures)} failed ({bad.failures[0][1] if bad.failures else '-'})")

        # 3. two traced passes give identical counts, and every result still
        # matches its expected hash
        small = (workloads.gauge_roundtrip(default_seed).jobs[:4]
                 + workloads.hochschild_solve(default_seed).jobs[:3]
                 + wl.jobs[:12] + [workloads.layer_probe(workdir)])
        merged = {}
        for name in ("gauge_roundtrip", "hochschild_solve", "corpus_cli"):
            merged.update(run.load_expected(name)[0])
        first = traced_counts(small, merged, default_seed)
        second = traced_counts(small, merged, default_seed)
        failures = first[2].failures + second[2].failures
        verdict("identical traced counts", first[:2] == second[:2] and not failures,
                f"{sum(first[0].values())} spans, counters {first[1]}, failures {failures}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = all(checks)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1

