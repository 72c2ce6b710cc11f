"""Bit-identity of two checkouts: do they compute the same arrays?

    python3 tools/bits.py PARENT_DIR CHANGE_DIR          # the full set, a few minutes
    python3 tools/bits.py PARENT_DIR CHANGE_DIR --quick  # toy shapes at one seed

Each directory is a checkout of the repository (``git archive REF | tar -x
-C DIR`` makes one).  Each side runs in its own process, importing the
package from its ``src/``, with BLAS and the package's thread pool pinned
to one thread.  It hashes the dtype, shape and bytes of every array of the
set below, and the key order of every dict of them:

- fwdbwd-256 (the a2fpn neck at 256², c=256, as the benchmark builds it):
  outputs, level gradients and parameter gradients at seeds 0, 3 and 7919;
- infer-512: the a2fpn neck's outputs at 512² and seed 0;
- 3-step ``train_toy`` of a2fpn and a2fpn_lite at seeds 0, 3 and 7919: the
  loss rows (``repr`` of each value, so NaN compares equal to NaN) and the
  trained store;
- every gradient check at seeds 0-11: its shapes, ``repr`` of its error,
  its coordinate count and its verdict (not its time);
- the oracle sweeps at seed 0: each one's ``repr`` of its error, case count
  and verdict.

``--quick`` hashes the neck and training arrays at toy widths and seed 0
only.  It prints ``same (N arrays)`` and exits 0, or prints ``differs`` and
then the name of each differing entry, first differing first, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "A2FPN_THREADS": "1"}
NECK_SEEDS = (0, 3, 7919)
CHECK_SEEDS = tuple(range(12))
TRAIN_ARCHS = ("a2fpn", "a2fpn_lite")


def _array_digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _add_dict(out, name, arrays):
    """One entry per array under name/key, and one for the key order."""
    out[f"{name}/keys"] = _text_digest("\n".join(map(str, arrays)))
    for key, a in arrays.items():
        out[f"{name}/{key}"] = _array_digest(a)


def _neck_digests(out, cfg, seed, backward):
    """The a2fpn neck on one synthetic image, as the benchmark's workloads run it."""
    from a2fpn import pyramid, train

    store = pyramid.init_params(cfg, with_backbone=True)
    image = train.synth_shapes(cfg, count=1)[0][0]
    levels = pyramid.toy_backbone_fwd(image, store)[0]
    name = f"{'fwdbwd' if backward else 'infer'}-{cfg.image_size[0]}/c{cfg.c}/s{seed}"
    if not backward:
        outs = pyramid.forward_pyramid(levels, store, cfg)
        _add_dict(out, f"{name}/out", {f"l{f.level}": f.data for f in outs})
        return
    rng = np.random.default_rng([seed, 0xC07])
    h, w = cfg.image_size
    gouts = [rng.standard_normal((cfg.c, h // 2 ** lvl, w // 2 ** lvl)).astype(np.float32)
             for lvl in pyramid.OUTPUT_LEVELS]
    outs, cache = pyramid.forward_a2fpn_fwd(levels, store, cfg)
    glevels, grads = pyramid.forward_a2fpn_bwd(cache, gouts)
    _add_dict(out, f"{name}/out", {f"l{f.level}": f.data for f in outs})
    _add_dict(out, f"{name}/glevel", {f"l{k}": g for k, g in glevels.items()})
    _add_dict(out, f"{name}/grad", grads)


def _train_digests(out, arch, seed, steps=3):
    from a2fpn import train

    report, store = train.train_toy(train.toy_train_config(arch, seed=seed), steps=steps)
    name = f"train/{arch}/s{seed}"
    out[f"{name}/rows"] = _text_digest(repr([tuple(map(repr, row)) for row in report.rows]))
    _add_dict(out, f"{name}/store", store)


def digests(quick=False):
    """{entry name: sha256 hex digest} of this process's package, in a fixed order."""
    from dataclasses import replace

    from a2fpn import pyramid, train, verify

    out = {}
    if quick:
        cfg = replace(train.toy_train_config("a2fpn"), seed=0)
        _neck_digests(out, cfg, 0, backward=True)
        _neck_digests(out, cfg, 0, backward=False)
        for arch in TRAIN_ARCHS:
            _train_digests(out, arch, 0)
        return out
    for seed in NECK_SEEDS:
        cfg = pyramid.PyramidConfig(arch="a2fpn", c=256, image_size=(256, 256), seed=seed)
        _neck_digests(out, cfg, seed, backward=True)
    _neck_digests(out, pyramid.PyramidConfig(arch="a2fpn", c=256, image_size=(512, 512)), 0,
                  backward=False)
    for arch in TRAIN_ARCHS:
        for seed in NECK_SEEDS:
            _train_digests(out, arch, seed)
    for seed in CHECK_SEEDS:
        for op in verify.REGISTRY:
            r = verify.check_gradients(op, seed=seed)
            out[f"gradcheck/{op}/s{seed}"] = _text_digest(
                repr((r.shapes, repr(r.max_rel_err), r.coords, r.passed)))
    for e in verify.oracle_suite(seed=0)[0]:
        out[f"oracle/{e.op}/s0"] = _text_digest(repr((repr(e.max_abs_err), e.cases, e.passed)))
    return out


def differing(a, b):
    """Names whose digests differ or that only one side has, in a's order then b's."""
    return [k for k in a if a[k] != b.get(k)] + [k for k in b if k not in a]


def report(a, b):
    """(text, exit status) of the comparison of parent digests a with change digests b."""
    bad = differing(a, b)
    if bad:
        return "\n".join(["differs"] + bad), 1
    return f"same ({len(a)} arrays)", 0


def run_side(checkout, quick):
    """The digests of one checkout, computed in a child process."""
    src = Path(checkout).resolve() / "src"
    if not (src / "a2fpn" / "__init__.py").is_file():
        raise SystemExit(f"bits: no package source at {src}")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--side"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bits: {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="*", metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    ap.add_argument("--quick", action="store_true", help="toy shapes at seed 0 only")
    ap.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.side:
        print(json.dumps(digests(args.quick)))
        return 0
    if len(args.dirs) != 2:
        ap.error("give PARENT_DIR and CHANGE_DIR")
    text, status = report(*(run_side(d, args.quick) for d in args.dirs))
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
