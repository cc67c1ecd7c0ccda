"""Write bench/expected.json: the SHA-256 of every job's canonical result.

Run once, from the repository root, on the commit whose outputs are the
reference:  python3 bench/record_expected.py

Seeded jobs are recorded for pass 0 of the default seed only; jobs whose
inputs do not depend on the seed (corpus documents, ROADMAP baselines) are
checked on every seed and pass.  Recording stops without writing if any job breaks its oracle.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    os.chdir(run.ROOT)
    run.import_dqkit()
    import workloads
    from workloads import sha256

    seed = workloads.DEFAULT_SEED
    hashes = {}
    for name in workloads.WORKLOADS:
        workdir = run.make_workdir(f"record-{name}")
        try:
            wl = workloads.build(name, seed, workdir)
            hashes[name] = {}
            extra = [workloads.layer_probe(workdir), workloads.verify_subprocess_job(run.ROOT)]
            for job in wl.jobs + extra:
                hashes[name][job.key] = sha256(job.check(job.run()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(hashes[name])} jobs")
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": seed, "hashes": hashes}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
