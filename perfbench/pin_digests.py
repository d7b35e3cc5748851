"""Regenerate ``perfbench/digests.json``, the pinned output digests.

    python3 perfbench/pin_digests.py

Runs the first passes of every workload at the default seed (the oracle's
inputs do not depend on the seed, so its digests hold for every seed),
refuses to pin if any structural check fails, and stores one digest per op.
``run.py`` compares each op it runs against these, so an optimisation has to
keep every output byte-identical.  Re-pin only for an intended output change.
"""

from __future__ import annotations

import json
import sys

import library
import run
import workloads

PIN_PASSES = {"oracle": 1, "poset-queries": 6, "tableau-queries": 20, "cli-stream": 15}


def main() -> int:
    pinned = {}
    for name, count in PIN_PASSES.items():
        workload = workloads.WORKLOADS[name]
        passes = []
        for index in range(count):
            if index % workload.passes_per_load == 0:
                lib = library.load(run.ROOT)
            ops = workload.ops(lib, workload.inputs(run.DEFAULT_SEED, index))
            run.run_pass(ops)
            failures = run.check_pass(workload, ops, None)
            if failures:
                print(f"{name} pass {index}: refusing to pin, {failures[0]}", file=sys.stderr)
                return 1
            passes.append([run.digest(op.render(op.result)) for op in ops])
        pinned[name] = passes
        print(f"{name}: pinned {count} passes, {sum(map(len, passes))} ops")
    # one line per pass keeps a re-pin readable as a diff
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(p) for p in passes) + "\n]"
        for name, passes in pinned.items()
    ]
    with open(run.DIGESTS, "w") as fh:
        fh.write(f'{{"seed": {run.DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
