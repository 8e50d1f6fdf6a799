"""Record the construct_q128 output digests that the benchmark checks against.

Run from the root of the repository when an intended change alters the
construction's output:

    python3 perfbench/record_digests.py

It runs the construct_q128 job for job seeds 0..15 (the default seed's
first sixteen jobs), confirms each partition with is_resolving, and writes
the sha256 of each serialized output to construct_q128_digests.json.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from planepart import metric
    from workloads import ConstructQ128

    workload = ConstructQ128(0, HERE)
    workload.setup()
    digests = {}
    for seed in SEEDS:
        text = workload.job(seed)
        partition = metric.partition_from_doc(json.loads(text), workload.plane)
        if not metric.is_resolving(workload.plane, partition).resolving:
            print(f"seed {seed}: construct returned a partition that does not resolve")
            return 1
        digests[str(seed)] = hashlib.sha256(text.encode()).hexdigest()
        print(seed, digests[str(seed)], flush=True)
    doc = {
        "q": workload.q,
        "output": "json.dumps(result_to_doc(construct_partition(plane, seed), plane), "
        "sort_keys=True)",
        "sha256": digests,
    }
    (HERE / "construct_q128_digests.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
