"""The benchmark's tracer must still find every neck site in the a2fpn forward.

perfbench/ is read, never changed: the test imports its tracer and its site
list and runs a tiny forward under the tracer.
"""

import os
from pathlib import Path

from a2fpn import pyramid, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_sites(monkeypatch, entry):
    """(sites the tracer finds while pyramid.<entry> runs the toy a2fpn neck, the benchmark's SITES)."""
    # importing run pins the BLAS thread variables; keep them to this test
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "A2FPN_THREADS"):
        monkeypatch.setenv(key, os.environ.get(key, ""))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import SITES
    from tracer import Tracer

    cfg = train.toy_train_config("a2fpn")
    store = pyramid.init_params(cfg, with_backbone=True)
    levels, _ = pyramid.toy_backbone_fwd(train.synth_shapes(cfg, count=1)[0][0], store)
    with Tracer() as tracer:
        getattr(pyramid, entry)(levels, store, cfg)
    return set(tracer.sites), set(SITES)


def test_tracer_attributes_every_benchmark_site(monkeypatch):
    found, sites = _traced_sites(monkeypatch, "forward_a2fpn_fwd")
    assert found == sites


def test_tracer_attributes_every_site_of_the_inference_entry(monkeypatch):
    # infer-512 runs forward_pyramid, which drops each stage's cache
    found, sites = _traced_sites(monkeypatch, "forward_pyramid")
    assert found == sites
