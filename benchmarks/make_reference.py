"""Write reference.json: the pipeline workload's report for a range of seeds.

    python3 benchmarks/make_reference.py --seeds 0-49

Run it on a commit whose outputs are the accepted reference.  The pipeline
workload compares every run's report.csv with the entry for its seed, within
1e-9 on CSRR and EER.  Entries already in the file are kept unless the
pipeline scale changed, which empties the table.
"""

import argparse
import json
import os
import shutil
import sys

import run


def write_table(table):
    """One line per seed, so a diff shows which seeds changed."""
    import checks
    seeds = sorted(table["reports"], key=int)
    lines = [f'  {json.dumps(s)}: {json.dumps(table["reports"][s])}' for s in seeds]
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as f:
        f.write('{\n "pipeline_scale": ' + json.dumps(table["pipeline_scale"])
                + ',\n "reports": {\n' + ",\n".join(lines) + "\n }\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-49")
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.seeds.split("-"))

    run._import_package()
    import checks
    import synth
    import workloads

    scale = workloads.DEFAULT_SCALES.pipeline
    key = checks.scale_key(scale)
    table = {"pipeline_scale": key, "reports": {}}
    if os.path.exists(checks.REFERENCE_FILE):
        old = checks.load_reference()
        if old["pipeline_scale"] == key:
            table = old
    workdir = os.path.join(run.ROOT, ".bench_run", f"reference-{os.getpid()}")
    try:
        for seed in range(lo, hi + 1):
            ctx = workloads.Context(seed=seed, seconds=0, workdir=workdir)
            config = synth.build_corpus(ctx.fresh_dir("corpus"), seed, scale.roles,
                                        scale.config)
            out = ctx.fresh_dir("out")
            workloads.chain_pass(ctx, config, out)
            if ctx.ledger.failed:
                sys.exit(f"seed {seed}: {ctx.ledger.problems}")
            table["reports"][str(seed)] = workloads.read_report(out)
            print(f"seed {seed}: {len(table['reports'][str(seed)])} report rows",
                  flush=True)
            write_table(table)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
