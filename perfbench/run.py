"""Benchmark of the a2fpn neck: inference, forward+backward and toy training.

Run from the repository root:

    python3 perfbench/run.py --workload infer-512 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The package is imported from ``src/`` of the checkout; nothing is
installed.  Each run sets up the workload several times (import, store
init, input generation and one warm-up op and control each; ``setup_s`` is
the import time plus the median set-up), then runs ops for ``--seconds``
and checks every output.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
loop with ``--trace 1``.  The lines before it give the run environment,
the calibration probe, the full per-function and per-site tables and a
readable table under per-workload names (``fwd_ms_p50``, ``step_ms_tail``,
``error_rate``, ...), tails with their percentile and sample count.

On a shared host the machine's speed can change by up to half again
within minutes, which moves every timing of a run alike.  So a fixed
calibration probe (Python, matmuls and array copies, no code of the
package) runs before each op and each set-up, and the end-to-end times
are given at a reference machine speed: each measured time is scaled by
``PROBE_REF_MS`` over the mean probe time just before and after it, and
the median of the scaled times is reported.  A change to the package
cannot move the probe, so it shows in full.  The table prints the raw
medians and the tail unscaled.

BLAS and the package's own thread pool are pinned to one thread, so no
BLAS call waits on the machine's second core; every result records the
thread settings.
"""

from __future__ import annotations

import os

# must precede the first numpy import
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "A2FPN_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("infer-512", "fwdbwd-256", "toy-train")
SETUP_REPS = 3
PROBES_PER_OP = 5  # the probe time next to an op is the median of this many
PROBE_REF_MS = 8.0  # probe time at the reference machine speed

# throughput (images per second at the median op) is printed in the table
# only: it is the op median restated, so gating it would count that twice
END_TO_END = {
    "op_ms_p50": "ms",
    "control_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
HOT = (
    ("nn_ops", "conv2d_fwd"), ("nn_ops", "conv2d_bwd"), ("nn_ops", "max_pool2d_fwd"),
    ("nn_ops", "bilinear_upsample_fwd"), ("fusion", "reassemble_up_fwd"),
    ("fusion", "reassemble_up_bwd"), ("fusion", "reassemble_down_fwd"),
    ("fusion", "reassemble_down_bwd"), ("fusion", "channel_gates_fwd"),
    ("fusion", "channel_gates_bwd"), ("mgc", "distribute_context_fwd"),
    ("tensor_core", "softmax_fwd"),
)
SITES = ("mgc", "extra.f6", "td.l5", "td.l4", "td.l3", "td.l2", "bu.l2.smooth",
         "bu.l3", "bu.l4", "bu.l5", "bu.l6")
LAYER_UNITS = {"calls": "count", "self_ms": "ms", "share": "ratio", "errors": "count"}
SITE_UNITS = {"ms": "ms", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import numpy and the package from src/; returns the import seconds."""
    if not (SRC / "a2fpn" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'a2fpn'}; run from a checkout of the repository")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import a2fpn
    from a2fpn import analysis, fusion, mgc, nn_ops, pyramid, tensor_core, train  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(a2fpn.__file__).resolve().parent != SRC / "a2fpn":
        fail(f"imported a2fpn from {a2fpn.__file__}, not from {SRC}")
    return seconds


# ---------------------------------------------------------------------------
# statistics and run environment
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(values)
    rank = len(xs) - 10
    if rank < 1:
        return {"value": None, "pct": None, "n": len(xs)}
    return {"value": xs[rank - 1], "pct": round(100.0 * rank / len(xs), 1), "n": len(xs)}


@functools.cache
def probe_arrays():
    """The probe's arrays, made once so that no probe pays for page faults."""
    import numpy as np

    src = np.full(1 << 19, 0.5, dtype=np.float32)
    return (np.full((192, 192), 0.5, dtype=np.float32),
            np.full((512, 512), 0.5, dtype=np.float32), src, np.zeros_like(src))


def calibration_probe():
    """Milliseconds of a fixed mix of work, none of it the package's: a
    pure-Python loop and small matmuls, like the dispatch-bound toy
    workload, then a 512^2 matmul and 2 MB array copies, like the big-array
    workloads.  The two halves take about the same time.  Slowdowns of a
    shared host hit them unequally; in a 15-minute log of all three
    workloads on a 2-vCPU VM the sum tracked each workload's op and control
    times as well as or better than either half alone."""
    small, large, src, dst = probe_arrays()
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(8):
        small @ small
    large @ large
    for _ in range(4):
        dst[:] = src
    return (time.perf_counter() - t0) * 1e3


def blas_info():
    import ctypes

    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, ValueError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def git_commit():
    """Commit checked out at ROOT, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "a2fpn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def probe_ms():
    """Median of PROBES_PER_OP calibration probes, in milliseconds."""
    return statistics.median(calibration_probe() for _ in range(PROBES_PER_OP))


def at_reference(seconds, probes):
    """Median of the times, each scaled to the reference machine speed by
    the mean of the probe times just before and just after it: ``probes``
    holds one more entry than ``seconds``."""
    assert len(probes) == len(seconds) + 1
    return statistics.median(2 * t * PROBE_REF_MS / (p + q)
                             for t, p, q in zip(seconds, probes, probes[1:]))


def environment(wl, seed, probes):
    import numpy as np

    blas, blas_threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": wl.name,
        "config_digest": wl.config_digest(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "probe_ms": {"p50": statistics.median(probes), "min": min(probes),
                     "max": max(probes), "n": len(probes)},
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Outcome:
    """Counts ops and checks each output: structure, repeatability within
    the run, and the committed reference digest when the seed has one."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.attempted = 0
        self.problems = []
        self.first = {}
        doc = json.loads((HERE / "digests" / f"{wl.name}.json").read_text())
        self.ref = doc["seeds"].get(str(seed))

    def record(self, kind, out, traced_twin=None):
        wl = self.wl
        if kind == "op":
            problems, fp = wl.check(out), wl.fingerprint(out)
        else:
            problems, fp = wl.check_control(out), wl.control_print(out)
        first = self.first.setdefault(kind, fp)
        if fp != first:
            problems.append(f"{kind} output differs from the first {kind} of this run")
        if traced_twin is not None and fp != traced_twin:
            problems.append("traced and untraced outputs differ")
        if self.ref is not None and not problems:
            from workloads import compare

            problems.extend(compare(fp, self.ref[kind]))
        self.attempted += 1
        if problems:
            self.problems.append((kind, self.attempted, problems[:3]))
        return fp

    @property
    def failed(self):
        return len(self.problems)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def set_up(wl, seed, outcome):
    """One set-up: inputs and store from the seed, one warm-up op and control."""
    t0 = time.perf_counter()
    wl.setup(seed)
    wl.before_op()
    outcome.record("op", wl.op())
    outcome.record("control", wl.control())
    return time.perf_counter() - t0


def measure(wl, seconds, outcome, probes):
    """Closed loop: probe, op, control, until the time is up, then a last
    probe.  ``probes`` gets the probe times, one more than the ops."""
    op_s, control_s = [], []
    deadline = time.perf_counter() + seconds
    while not op_s or time.perf_counter() < deadline:
        probes.append(probe_ms())
        wl.before_op()
        out, dt = timed(wl.op)
        op_s.append(dt)
        outcome.record("op", out)
        out, dt = timed(wl.control)
        control_s.append(dt)
        outcome.record("control", out)
        out = None
    probes.append(probe_ms())
    return op_s, control_s


def measure_traced(wl, seconds, outcome, probes):
    """Alternate untraced and traced ops; per-op tables of the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    plain_s, traced_s, tables = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        probes.append(probe_ms())
        wl.before_op()
        out, dt = timed(wl.op)
        plain_s.append(dt)
        fp = outcome.record("op", out)
        out = None
        wl.before_op()
        with tracer:
            out, dt = timed(wl.op)
        traced_s.append(dt)
        outcome.record("op", out, traced_twin=fp)
        out = None
        tables.append({
            "functions": {f"{layer}.{fn}": list(stat) for (layer, fn), stat in tracer.stats.items()},
            "sites": {k: list(v) for k, v in tracer.sites.items()},
            "overhead_s": tracer.overhead_s,
            "wall_s": dt,
        })
    return plain_s, traced_s, tables


def site_flops(wl):
    """Analytic FLOPs of one neck forward per site, from analysis.count_flops."""
    from a2fpn import analysis

    report = analysis.count_flops("a2fpn", image_size=wl.cfg.image_size, cfg=wl.cfg)
    flops = dict.fromkeys(SITES, 0)
    unmatched = []
    for line in report.lines:
        site = next((s for s in SITES if line.name == s or line.name.startswith(s + ".")), None)
        if site is None:
            unmatched.append(line.name)
        else:
            flops[site] += line.flops
    return flops, unmatched


def layer_tables(wl, plain_s, traced_s, tables):
    """Per-layer, per-function and per-site values, each the median over traced ops."""
    from tracer import LAYERS

    flops, unmatched = site_flops(wl)
    per_op = []
    for t in tables:
        m = {}
        # the traced op's own wall time, net of the tracer's bookkeeping
        op_ms = (t["wall_s"] - t["overhead_s"]) * 1e3
        for layer in LAYERS:
            stats = [v for k, v in t["functions"].items() if k.startswith(layer + ".")]
            m[f"{layer}.calls"] = sum(s[0] for s in stats)
            m[f"{layer}.self_ms"] = sum(s[1] for s in stats) * 1e3
            m[f"{layer}.share"] = m[f"{layer}.self_ms"] / op_ms
            m[f"{layer}.errors"] = sum(s[2] for s in stats)
        for layer, fn in HOT:
            stat = t["functions"].get(f"{layer}.{fn}", [0, 0.0, 0, 0.0])
            m[f"{layer}.{fn}.calls"] = stat[0]
            m[f"{layer}.{fn}.self_ms"] = stat[1] * 1e3
        for site in SITES:
            calls, secs = t["sites"].get(site, (0, 0.0))
            m[f"site.{site}.ms"] = secs * 1e3
            m[f"site.{site}.gflop"] = flops[site] * calls / 1e9
            m[f"site.{site}.gflop_per_s"] = flops[site] * calls / 1e9 / secs if secs else 0.0
        per_op.append(m)
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["trace.overhead_ms"] = (statistics.median(traced_s) - statistics.median(plain_s)) * 1e3
    neck = [t["functions"].get("pyramid.forward_a2fpn_fwd", [0, 0.0, 0, 0.0])[3]
            - sum(v[1] for v in t["sites"].values()) for t in tables]
    detail = {
        "functions_last_op": {
            k: {"calls": v[0], "self_ms": v[1] * 1e3, "errors": v[2], "total_ms": v[3] * 1e3}
            for k, v in sorted(tables[-1]["functions"].items()) if v[0]
        },
        "absent_hot_functions": [f"{layer}.{fn}" for layer, fn in HOT
                                 if f"{layer}.{fn}" not in tables[-1]["functions"]],
        "site_unattributed_ms": statistics.median(neck) * 1e3,
        "flop_lines_without_site": unmatched,
        "tracer_bookkeeping_ms": statistics.median(t["overhead_s"] for t in tables) * 1e3,
        "untraced_op_ms_p50": statistics.median(plain_s) * 1e3,
        "traced_op_ms_p50": statistics.median(traced_s) * 1e3,
        "traced_ops": len(tables),
    }
    return metrics, detail


def per_layer_units():
    """Every per-layer metric name the traced run can give, with its unit."""
    from tracer import LAYERS

    units = {f"{layer}.{k}": u for layer in LAYERS for k, u in LAYER_UNITS.items()}
    units.update({f"{layer}.{fn}.{k}": LAYER_UNITS[k]
                  for layer, fn in HOT for k in ("calls", "self_ms")})
    units.update({f"site.{s}.{k}": u for s in SITES for k, u in SITE_UNITS.items()})
    units["trace.overhead_ms"] = "ms"
    return units


def reported_per_layer():
    """Per-layer metrics of the result line: those listed in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer"]]


def run_one(args):
    import_s = load_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    outcome = Outcome(wl, args.seed)
    reps = SETUP_REPS if not args.trace else 1
    setups, setup_probes = [], []
    for _ in range(reps):
        setup_probes.append(probe_ms())
        setups.append(set_up(wl, args.seed, outcome))
    probes = []

    if args.trace:
        plain_s, traced_s, tables = measure_traced(wl, args.seconds, outcome, probes)
        values, detail = layer_tables(wl, plain_s, traced_s, tables)
        units = per_layer_units()
        names = reported_per_layer()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in names}
        table = {k: (values[k], units[k]) for k in units}
    else:
        op_s, control_s = measure(wl, args.seconds, outcome, probes)
        op_ms = [t * 1e3 / wl.evals_per_op for t in op_s]
        values = {
            "op_ms_p50": at_reference(op_ms, probes),
            "control_ms_p50": at_reference(control_s, probes) * 1e3,
            # import runs before the first probe and is scaled by that one
            "setup_s": (import_s * PROBE_REF_MS / setup_probes[0]
                        + at_reference(setups, setup_probes + probes[:1])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "raw_op_ms_p50": statistics.median(op_ms),
            "raw_control_ms_p50": statistics.median(control_s) * 1e3,
            "raw_setup_s": import_s + statistics.median(setups),
            "images_per_s": wl.images_per_op / statistics.median(op_s),
        }
        op_tail = tail(op_ms)
        detail = {"op_ms_tail": op_tail, "import_s": import_s, "setup_reps_s": setups,
                  "setup_probe_ms": setup_probes, "op_ms": op_ms,
                  "control_ms": [t * 1e3 for t in control_s], "op_probe_ms": probes}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        label = wl.op_label
        table = {
            f"{label}_ms_p50": (values["op_ms_p50"], "ms"),
            f"{label}_ms_tail": (op_tail["value"],
                                 f"ms (not scaled; p{op_tail['pct']}, N={op_tail['n']})"
                                 if op_tail["pct"] else f"ms (N={op_tail['n']}: no percentile "
                                 "has 10 samples beyond it)"),
            f"{wl.control_label}_ms_p50": (values["control_ms_p50"], "ms"),
            "setup_s": (values["setup_s"], "s"),
            f"raw_{label}_ms_p50": (values["raw_op_ms_p50"], "ms (not scaled)"),
            f"raw_{wl.control_label}_ms_p50": (values["raw_control_ms_p50"], "ms (not scaled)"),
            "raw_setup_s": (values["raw_setup_s"], "s (not scaled)"),
            wl.images_label: (values["images_per_s"], "1/s (not scaled)"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        }
    table["error_rate"] = (outcome.failed / outcome.attempted, "ratio")

    print(json.dumps({"environment": environment(wl, args.seed, probes)}))
    print(json.dumps({"detail": detail, "problems": outcome.problems}))
    for name, (value, unit) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{wl.name:>11}  {name:<40} {shown:>12} {unit}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
