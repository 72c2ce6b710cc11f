"""The bit-identity tool, tools/bits.py, on toy shapes at seed 0."""

import importlib.util
from pathlib import Path

import numpy as np

from a2fpn import train

ROOT = Path(__file__).resolve().parent.parent


def _bits():
    spec = importlib.util.spec_from_file_location("bits", ROOT / "tools" / "bits.py")
    bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bits)
    return bits


def test_two_runs_of_one_checkout_are_the_same(capsys):
    # each side in its own process, as the tool runs a parent and a change
    assert _bits().main([str(ROOT), str(ROOT), "--quick"]) == 0
    assert capsys.readouterr().out.startswith("same (")


def test_a_one_ulp_nudge_of_a_bias_is_named(monkeypatch):
    # one ulp of one trained bias, and nothing else, differs
    bits = _bits()
    want = bits.digests(quick=True)
    real = train.train_toy

    def nudged(cfg, **kw):
        report, store = real(cfg, **kw)
        if cfg.arch == "a2fpn_lite":
            bias = store["td.l3.smooth.bias"]
            bias[1] = np.nextafter(bias[1], bias.dtype.type(np.inf))
        return report, store

    monkeypatch.setattr(train, "train_toy", nudged)
    text, status = bits.report(want, bits.digests(quick=True))
    assert (text, status) == ("differs\ntrain/a2fpn_lite/s0/store/td.l3.smooth.bias", 1)
