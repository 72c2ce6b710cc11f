"""Command-line front end: gradient checks, oracle sweeps, forward runs,
complexity tables, and the toy training loop.

Exit codes are a stable contract: 0 success, 1 numeric/assertion failure,
2 usage or config error.  Every run can drop a RunReport JSON under --out
recording the command, config digest, seed, outcome, and artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, train, verify
from .pyramid import (
    ARCHS,
    ConfigError,
    PyramidConfig,
    forward_pyramid,
    init_params,
    resolve_backbone,
    toy_backbone_fwd,
)
from .tensor_io import TensorFormatError, load_tensor, save_params, save_tensor


@dataclass
class RunReport:
    command: str
    config_digest: str
    seed: int
    outcome: str = "pass"
    artifacts: list = field(default_factory=list)
    seconds: float = 0.0

    def write(self, out_dir):
        path = os.path.join(out_dir, "run_report.json")
        doc = {
            "command": self.command,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "outcome": self.outcome,
            "artifacts": self.artifacts,
            "seconds": round(self.seconds, 3),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        return path


def _extents(text, order):
    """'AxB' read in ``order`` ("HxW" or "WxH") as (h, w), both positive
    multiples of 64; anything else is a usage error."""
    try:
        a, b = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {order}, got {text!r}")
    h, w = (a, b) if order == "HxW" else (b, a)
    if min(h, w) < 1 or h % 64 or w % 64:
        raise argparse.ArgumentTypeError(f"extents in {text!r} must be positive multiples of 64")
    return h, w


def _parse_hw(text):
    """'256x256' as height x width."""
    return _extents(text, "HxW")


def _parse_wh(text):
    """'1280x832' as width x height (the table convention); stored (h, w)."""
    return _extents(text, "WxH")


def _parse_backbone(text):
    """A preset name or four comma-separated stage widths."""
    try:
        return resolve_backbone(tuple(int(v) for v in text.split(",")) if "," in text else text)
    except ValueError as exc:  # ConfigError included
        raise argparse.ArgumentTypeError(f"bad backbone spec {text!r}: {exc}")


def _checked(cast, ok, what):
    """An argparse type: cast(text) satisfying ok, else a usage error naming the flag (exit 2)."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in a failed cast
    return parse


_positive = _checked(float, lambda v: 0 < v < float("inf"), "a positive finite number")
_at_least_one = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _load_config(path, default=None):
    if path is None:
        return default if default is not None else PyramidConfig()
    return PyramidConfig.from_file(path)


def _ensure_out(args):
    """Make --out, if given, before any work: an unusable path fails at once."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_gradcheck(args):
    cfg = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    out = _ensure_out(args)
    t0 = time.perf_counter()
    reports, passed = verify.run_all_checks(seed=seed, eps=args.eps, tol=args.tol)
    for r in reports:
        flag = "ok" if r.passed else "FAIL"
        print(f"{r.op:<22} max_rel_err {r.max_rel_err:.3e}  tol {r.tol:.0e}  "
              f"coords {r.coords:>5}  {r.seconds:6.2f}s  {flag}")
    print(f"gradcheck: {sum(r.passed for r in reports)}/{len(reports)} ops passed")
    run = RunReport("gradcheck", cfg.digest(), seed, "pass" if passed else "fail",
                    seconds=time.perf_counter() - t0)
    if out:
        path = os.path.join(out, "gradcheck.json")
        verify.save_gradcheck_report(path, reports)
        run.artifacts.append(path)
        run.write(out)
    return 0 if passed else 1


def cmd_oracles(args):
    out = _ensure_out(args)
    t0 = time.perf_counter()
    entries, passed = verify.oracle_suite(seed=args.seed, cases=args.cases)
    for e in entries:
        flag = "ok" if e.passed else "FAIL"
        print(f"{e.op:<24} cases {e.cases:>3}  max_abs_err {e.max_abs_err:.3e}  {flag}")
    print(f"oracles: {sum(e.passed for e in entries)}/{len(entries)} ops agree")
    run = RunReport("oracles", "", args.seed, "pass" if passed else "fail",
                    seconds=time.perf_counter() - t0)
    if out:
        path = os.path.join(out, "oracles.json")
        verify.save_oracle_report(path, entries)
        run.artifacts.append(path)
        run.write(out)
    return 0 if passed else 1


def cmd_forward(args):
    cfg = _load_config(args.config)
    if args.arch:
        cfg = PyramidConfig.from_dict({**cfg.to_dict(), "arch": args.arch})
    if args.seed is not None:
        cfg = PyramidConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    t0 = time.perf_counter()
    if args.input:
        image = load_tensor(args.input)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ValueError(f"input tensor must be 3×H×W, got {image.shape}")
        image = image.astype(cfg.np_dtype)
        if not np.isfinite(image).all():
            raise ValueError(f"input tensor {args.input} holds non-finite values "
                             f"(as {cfg.dtype})")
    else:
        h, w = args.random if args.random else cfg.image_size
        rng = np.random.default_rng([cfg.seed, 0x1A])
        image = rng.standard_normal((3, h, w)).astype(cfg.np_dtype)

    out = _ensure_out(args) or "."
    store = init_params(cfg, with_backbone=True)
    levels = toy_backbone_fwd(image, store)[0]
    outs = forward_pyramid(levels, store, cfg)
    for f in outs:
        if not np.isfinite(f.data).all():
            raise FloatingPointError(f"non-finite values in output p{f.level}; "
                                     f"no tensors written")

    run = RunReport("forward", cfg.digest(), cfg.seed)
    manifest = {"arch": cfg.arch, "c": cfg.c, "input": list(image.shape), "levels": {}}
    for f in outs:
        name = f"p{f.level}"
        path = os.path.join(out, f"{name}.a2tsr")
        save_tensor(path, f.data)
        run.artifacts.append(path)
        manifest["levels"][name] = {"shape": list(f.data.shape), "stride": f.stride}
        print(f"{name}: shape {list(f.data.shape)} stride {f.stride} -> {path}")
    shapes_path = os.path.join(out, "shapes.json")
    with open(shapes_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    run.artifacts.append(shapes_path)
    run.seconds = time.perf_counter() - t0
    run.write(out)
    return 0


def cmd_count(args):
    cfg = _load_config(args.config, default=None)

    def report_for(arch):
        c = cfg if cfg is not None else analysis.reference_config(arch)
        return analysis.count_flops(arch, args.backbone_spec, args.image_size, c)

    out = _ensure_out(args)
    main_report = report_for(args.arch)
    reports = [main_report]
    diff = None
    if args.diff:
        other = report_for(args.diff)
        reports.append(other)
        diff = analysis.diff_report(main_report, other)
    print(analysis.format_table(reports))
    if diff is not None:
        print()
        print(analysis.format_diff(diff))
    if out:
        run = RunReport("count", cfg.digest() if cfg else "", 0)
        path = os.path.join(out, f"count_{args.arch}.json")
        analysis.save_report(path, main_report)
        run.artifacts.append(path)
        if diff is not None:
            dpath = os.path.join(out, f"diff_{args.arch}_vs_{args.diff}.json")
            analysis.save_report(dpath, diff)
            run.artifacts.append(dpath)
        run.write(out)
    return 0


def cmd_train_toy(args):
    cfg = _load_config(args.config, default=train.toy_train_config())
    if args.seed is not None:
        cfg = PyramidConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    train.check_trainable(cfg)
    out = _ensure_out(args)
    report, store = train.train_toy(cfg, steps=args.steps, lr=args.lr)
    ok = report.converged
    print(f"train-toy[{cfg.arch}]: initial {report.initial_loss:.6f} -> "
          f"final {report.final_loss:.6f} over {args.steps} steps "
          f"({'converged' if ok else 'diverged' if report.diverged else 'not converged'}, "
          f"{report.seconds:.1f}s)")
    run = RunReport("train-toy", cfg.digest(), cfg.seed, "pass" if ok else "fail",
                    seconds=report.seconds)
    if out:
        csv_path = os.path.join(out, "loss.csv")
        train.write_loss_csv(csv_path, report.rows)
        ckpt_dir = os.path.join(out, "checkpoint")
        save_params(ckpt_dir, store)
        meta_path = os.path.join(out, "train_report.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        run.artifacts += [csv_path, ckpt_dir, meta_path]
        run.write(out)
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="a2fpn",
                                description="verified pyramid-fusion operator toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="finite-difference checks of all registered ops")
    g.add_argument("--config", help="config JSON path")
    g.add_argument("--tol", type=_positive, default=None, help="override per-op tolerance")
    g.add_argument("--eps", type=_positive, default=verify.DEFAULT_EPS)
    g.add_argument("--seed", type=_non_negative, default=None)
    g.add_argument("--out", help="directory for JSON reports")
    g.set_defaults(fn=cmd_gradcheck)

    o = sub.add_parser("oracles", help="production kernels vs naive loop references")
    o.add_argument("--seed", type=_non_negative, default=0)
    o.add_argument("--cases", type=_at_least_one, default=50)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracles)

    f = sub.add_parser("forward", help="run a neck forward pass and save the pyramid")
    f.add_argument("--arch", choices=ARCHS)
    f.add_argument("--config")
    f.add_argument("--input", help="input image tensor (.a2tsr, 3xHxW)")
    f.add_argument("--random", type=_parse_hw, metavar="HxW",
                   help="use a seeded random image of this size")
    f.add_argument("--seed", type=_non_negative, default=None)
    f.add_argument("--out", default="forward_out")
    f.set_defaults(fn=cmd_forward)

    c = sub.add_parser("count", help="analytic parameter/FLOP table")
    c.add_argument("--arch", choices=analysis.COUNT_ARCHS, default="a2fpn")
    c.add_argument("--image-size", type=_parse_wh, default=(832, 1280), metavar="WxH")
    c.add_argument("--backbone-spec", type=_parse_backbone, default=None,
                   help="toy, nominal, or four comma-separated widths")
    c.add_argument("--diff", choices=analysis.COUNT_ARCHS, default=None)
    c.add_argument("--config")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_count)

    t = sub.add_parser("train-toy", help="synthetic-shapes training check")
    t.add_argument("--config")
    t.add_argument("--steps", type=_non_negative, default=train.DEFAULT_STEPS)
    t.add_argument("--lr", type=_positive, default=train.DEFAULT_LR)
    t.add_argument("--seed", type=_non_negative, default=None)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_train_toy)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:  # an OSError names the path it could not use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TensorFormatError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
