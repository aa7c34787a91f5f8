#!/usr/bin/env python3
"""Record the reference fingerprints the benchmark checks every op against.

    python3 perfbench/record.py

Run once, at the commit whose outputs are the reference, from the root of
the checkout.  Runs every workload once per program seed in the pool and
writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORK, load_program

import checks
from workloads import REFERENCE_SEEDS, WORKLOADS, write_configs


def main() -> int:
    cli = load_program()
    scratch = WORK / "record"
    reference: dict = {}
    for workload in WORKLOADS.values():
        configs = write_configs(workload, scratch / workload.name)
        for pseed in range(REFERENCE_SEEDS):
            outs = [scratch / "out" / str(i) for i in range(len(configs))]
            problems = []
            for task, config, out in zip(workload.tasks, configs, outs):
                code = cli.main(["--config", str(config), "--out", str(out), "--seed", str(pseed)])
                problems += checks.check_task(task, out, code)
            if problems:
                print(f"{workload.name} seed {pseed}: {problems}", file=sys.stderr)
                return 1
            reference.setdefault(workload.name, {})[str(pseed)] = checks.fingerprints(
                workload.tasks, outs
            )
            shutil.rmtree(scratch / "out")
            print(f"recorded {workload.name} seed {pseed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
