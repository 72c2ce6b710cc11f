"""Write the reference digests the benchmark compares outputs against.

    python3 perfbench/make_digests.py

For each workload and each seed in SEEDS this records the fingerprint
(norms and sampled entries, or loss rows) of one op and one control.  The
committed digests come from the package as first benchmarked; regenerate
them only when the benchmark changes its inputs, never to make a changed
program pass.  HELD_OUT_SEED is for confirming a change, not for
developing it.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOAD_NAMES, load_package, src_digest

SEEDS = tuple(range(10))
HELD_OUT_SEED = 7919


def rounded(fp):
    """The fingerprint with floats at 9 significant digits, far inside the
    tolerances the benchmark compares at."""
    if isinstance(fp, dict):
        return {k: rounded(v) for k, v in fp.items()}
    if isinstance(fp, list):
        return [rounded(v) for v in fp]
    return float(f"{fp:.9g}") if isinstance(fp, float) else fp


def main():
    load_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    (HERE / "digests").mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name]()
        seeds = {}
        for seed in SEEDS + (HELD_OUT_SEED,):
            wl.setup(seed)
            wl.before_op()
            seeds[str(seed)] = rounded({"op": wl.fingerprint(wl.op()),
                                        "control": wl.control_print(wl.control())})
        doc = {"workload": name, "src_digest": src_digest(), "held_out_seed": HELD_OUT_SEED,
               "seeds": seeds}
        path = HERE / "digests" / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.name}: {len(seeds)} seeds")


if __name__ == "__main__":
    main()
