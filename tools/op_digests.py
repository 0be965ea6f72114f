"""Print ``workload seed op-name sha256`` for every benchmark op, seeds 1-3.

The hash is taken over ``perfbench.workloads.digest`` of the op's output,
so two checkouts produce the same outputs exactly when their printouts
are equal.  The library and the workloads are imported from the checkout
this file lives in.  ``tools/op_digests.txt`` holds the printout of the
committed code, and CI diffs against it, so a change to any op's output
shows up in review as a diff of that file:

    python3 tools/op_digests.py | diff -u tools/op_digests.txt -
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, digest  # noqa: E402

for name, (setup, plan) in WORKLOADS.items():
    for seed in (1, 2, 3):
        for op in plan(setup(seed)):
            print(name, seed, op.name, hashlib.sha256(repr(digest(op.call())).encode()).hexdigest())
