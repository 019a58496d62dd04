"""Write expected.json: the known answers the benchmark checks against.

    python3 perfbench/record.py

It records the refutation counterexample ids and the digests of the CLI
script's output bytes. Run it only at a commit whose outputs are the
reference; later commits must reproduce them byte for byte. It also records
the natural share of each formula stratum of the `evaluate` workload, from
100,000 formulas of `random_positive_formula` judged by the reference
evaluator (this needs no reference commit).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(workloads.record_expected(ROOT), handle, indent=1)
        handle.write("\n")
