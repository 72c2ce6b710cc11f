"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks the tracer in process on a small config (errors counted, every
neck site named, bindings restored).  Then runs each workload very
briefly, untraced and traced, and checks that the
result line has the metric names and units BENCHMARK.json declares, that
every op of the package as committed passes its output checks (error rate
0), and that traced and untraced ops give identical outputs (the traced
run compares them op by op).  It then checks that the benchmark fails
without printing a result in a directory holding only BENCHMARK.json and
the benchmark's own files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench-smoke"


def bench(cwd, workload, trace, seed=0, seconds=0.5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_tracer():
    """In process: errors are counted, sites are named, bindings come back."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from a2fpn import nn_ops, pyramid, tensor_core, train
    from run import SITES
    from tracer import Tracer

    original = pyramid.conv2d_fwd
    with Tracer() as tracer:
        expect(pyramid.conv2d_fwd is not original, "tracer rebinds imported names")
        tensor_core.relu_fwd(np.array([np.nan, 1.0]))
        try:
            nn_ops.max_pool2d_fwd(np.zeros(3))
        except ValueError:
            pass
        cfg = train.toy_train_config("a2fpn")
        store = pyramid.init_params(cfg, with_backbone=True)
        levels, _ = pyramid.toy_backbone_fwd(train.synth_shapes(cfg, count=1)[0][0], store)
        pyramid.forward_a2fpn_fwd(levels, store, cfg)
    expect(pyramid.conv2d_fwd is original, "leaving the tracer restores every binding")
    expect(tracer.stats[("tensor_core", "relu_fwd")][2] == 1, "a non-finite output is an error")
    expect(tracer.stats[("nn_ops", "max_pool2d_fwd")][2] == 1, "an exception is an error")
    expect(set(tracer.sites) == set(SITES), f"neck sites {sorted(tracer.sites)}")


def main():
    check_tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(ROOT, wl, trace)
            tag = f"{wl} trace={trace}"
            expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode} {proc.stderr[-300:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], f"{tag}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{tag}: every value is a finite number")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{tag}: every end-to-end value is positive")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                   f"{tag}: error rate 0 over {result['attempted']} ops")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(HERE, BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(BARE, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit code {proc.returncode} and no result printed")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)


if __name__ == "__main__":
    main()
