"""Record the default-seed references that run.py compares against.

    python3 bench/record_refs.py [workload ...]

For each workload this writes bench/ref/<workload>.json with the digest of
the serialized inputs at the default seed (the frozen workload) and, per op,
what the program printed: a digest of the answer set for eval-corpus and
deep-store, the decided/skipped/checks counts for check-corpus.  Run it only
at a commit whose outputs are the intended references; a later change that
alters them then shows up as failed ops.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import run


def record(workload: str, W, pairs, pols) -> dict:
    lines = W.input_lines(workload, W.DEFAULT_SEED, pairs)
    if workload == "eval-corpus":
        n = W.EVAL_REF_OPS
    elif workload == "check-corpus":
        n = len(lines)
    else:
        n = len(W.chains(W.DEFAULT_SEED))
    ops = itertools.islice(W.make_ops(workload, W.DEFAULT_SEED, pairs, pols, lines), n)
    outputs = []
    for op in ops:
        result = op.run()
        problem = op.check(result)
        if problem:
            raise SystemExit(f"{op.key}: {problem}; not recording a failing reference")
        outputs.append(W.reference_value(workload, result))
    return {"workload": workload, "seed": W.DEFAULT_SEED, "inputs_sha256": W.digest(lines), "outputs": outputs}


def main(argv) -> int:
    run.import_folc()
    import workloads as W

    pairs, pols = W.policy_algebras(), W.policies()
    os.makedirs(run.REF, exist_ok=True)
    for workload in argv or run.WORKLOADS:
        data = record(workload, W, pairs, pols)
        with open(os.path.join(run.REF, f"{workload}.json"), "w") as fh:
            json.dump(data, fh, indent=0)
            fh.write("\n")
        print(f"{workload}: {len(data['outputs'])} references, inputs {data['inputs_sha256'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
