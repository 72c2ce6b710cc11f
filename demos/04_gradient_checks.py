"""Every differentiable op in the package carries a hand-derived adjoint.
This runs the two verification routes over a few of them: central finite
differences against the analytic gradients, and naive loop oracles against
the vectorized forward kernels."""

import numpy as np

from a2fpn import verify

# the registry maps op names to self-contained check builders
names = sorted(verify.REGISTRY)
print(f"{len(names)} registered ops:")
for i in range(0, len(names), 5):
    print("   " + ", ".join(names[i:i + 5]))

print("\nspot checks (max relative error vs central differences):")
for op in ("softmax", "layer_norm", "conv2d", "compatibility",
           "fuse_topdown", "a2fpn_full"):
    r = verify.check_gradients(op, seed=0)
    flag = "ok" if r.passed else "FAIL"
    print(f"  {op:<16} {r.max_rel_err:.3e}  (tol {r.tol:.0e}, "
          f"{r.coords} coords, {r.seconds * 1e3:.0f} ms)  {flag}")

# tolerances are tiered: simple closed-form ops must sit at roundoff,
# deep compositions accumulate a little conditioning noise
print(f"\nprimitive tol {verify.PRIMITIVE_TOL:.0e}, "
      f"composite tol {verify.COMPOSITE_TOL:.0e}")

# the oracle route: same math written as plain loops, compared elementwise
entries, ok = verify.oracle_suite(seed=0, cases=10)
print(f"\noracle sweeps ({'all matched' if ok else 'MISMATCH'}):")
for e in entries:
    print(f"  {e.op:<20} {e.cases} shapes, max |err| {e.max_abs_err:.2e}")

# a deliberately broken gradient is caught immediately: nudge one analytic
# value by 0.1% and the measured error jumps ten orders of magnitude
honest = verify.check_gradients("softmax", seed=0)
builder, _, cap = verify.REGISTRY["softmax"]
arrays, loss_fn, grad_fn = builder(np.random.default_rng(0))
analytic = grad_fn()
key = next(iter(analytic))
analytic[key] = analytic[key] * 1.001
worst, _ = verify._probe(arrays, loss_fn, analytic, verify.DEFAULT_EPS,
                         np.random.default_rng(1), cap)
print(f"\nsoftmax honest: {honest.max_rel_err:.1e}   "
      f"corrupted by 0.1%: {worst:.1e}")
