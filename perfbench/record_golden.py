"""Record root-long's removal counts per op, the reference its gate checks.

    PYTHONPATH=src python3 perfbench/record_golden.py

For each seed in ``SEEDS`` and each of the first ``RootLong.traced_ops`` ops,
stores the number of values atmost, atleast, exact and decomposed remove, in
``perfbench/golden_root_long.json``.  Re-record only when the propagators'
pruning is meant to change.
"""

from __future__ import annotations

import json
import os

from workloads import HERE, RootLong

SEEDS = range(0, 21)


def main() -> None:
    wl = RootLong()
    golden = {}
    for seed in SEEDS:
        counts = []
        for inp in wl.make_inputs(seed, wl.traced_ops):
            outs = wl.run(inp)
            counts.append([len(outs[mode].removals) for mode in wl.modes])
        golden[str(seed)] = counts
    with open(os.path.join(HERE, "golden_root_long.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
