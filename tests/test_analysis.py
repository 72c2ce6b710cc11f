import numpy as np
import pytest

from a2fpn import analysis, pyramid
from a2fpn.analysis import count_flops, count_params, diff_report, reference_config
from a2fpn.pyramid import ARCHS, PyramidConfig

# frozen audit values at the reference widths (c=256, a=64, nominal backbone)
PAFPN_MINUS_FPN_PARAMS = 3_540_480
PAFPN_MINUS_FPN_FLOPS = 25_769_103_360
A2FPN_NECK_PARAMS = 15_994_100


def tiny_cfg(arch):
    return PyramidConfig(arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
                         backbone=(4, 4, 8, 8), image_size=(64, 64))


@pytest.mark.parametrize("arch", ARCHS)
def test_param_count_matches_instantiated_store_exactly(arch):
    # the analytic audit must agree with an actual allocation, symbol for symbol
    cfg = tiny_cfg(arch)
    store = pyramid.init_params(cfg)
    want = sum(int(v.size) for v in store.values())
    got = count_params(arch, cfg=cfg).total_params
    assert got == want


@pytest.mark.parametrize("arch", ARCHS)
def test_param_count_at_reference_widths_matches_store(arch):
    # same audit at the quoted widths; f32 keeps the allocation moderate
    cfg = reference_config(arch)
    store = pyramid.init_params(cfg)
    want = sum(int(v.size) for v in store.values())
    assert count_params(arch).total_params == want


def test_pafpn_minus_fpn_params_exact():
    d = count_params("pafpn").total_params - count_params("fpn").total_params
    assert d == PAFPN_MINUS_FPN_PARAMS


def test_pafpn_minus_fpn_flops():
    d = count_flops("pafpn").total_flops - count_flops("fpn").total_flops
    assert d == PAFPN_MINUS_FPN_FLOPS
    # the published rounding of this delta is 25.77e9; stay within 0.1%
    assert abs(d - 25.77e9) / 25.77e9 < 1e-3


def test_a2fpn_neck_params_frozen():
    assert count_params("a2fpn").total_params == A2FPN_NECK_PARAMS


def test_a2fpn_lite_is_cheaper_than_a2fpn():
    lite = count_flops("a2fpn_lite")
    full = count_flops("a2fpn")
    assert lite.total_params < full.total_params
    assert lite.total_flops < full.total_flops


def test_none_arch_counts_nothing():
    r = count_flops("none")
    assert r.total_params == 0 and r.total_flops == 0


def test_conv_flops_scale_linearly_with_area():
    # fpn and pafpn are pure convolution necks, so doubling the image
    # height exactly doubles the work
    for arch in ("fpn", "pafpn"):
        f1 = count_flops(arch, image_size=(832, 1280)).total_flops
        f2 = count_flops(arch, image_size=(1664, 1280)).total_flops
        assert f2 == 2 * f1


def test_flops_need_64_divisible_extents():
    with pytest.raises(Exception):
        count_flops("fpn", image_size=(100, 128))


@pytest.mark.parametrize("arch, size", [("fpn", (-64, 64)), ("fpn", (0, 64)), ("fpn", (64, 0)),
                                        ("none", (-64, 64))])
def test_flops_need_positive_extents(arch, size):
    # a negative extent gave negative FLOPs and a zero one gave none
    with pytest.raises(ValueError, match="must be positive"):
        count_flops(arch, image_size=size)


def test_bias_params_counted_but_not_flops():
    # one lateral conv line: weights + bias in params, MACs only in flops
    r = count_flops("fpn", image_size=(832, 1280))
    line = next(l for l in r.lines if l.name == "fpn.lateral.l2")
    c, cin = 256, 256
    assert line.params == c * cin + c
    assert line.flops == c * cin * (832 // 4) * (1280 // 4)


def test_diff_report_antisymmetry():
    a = count_flops("a2fpn")
    b = count_flops("pafpn")
    d1 = diff_report(a, b)
    d2 = diff_report(b, a)
    assert d1.total_params == -d2.total_params
    assert d1.total_flops == -d2.total_flops


def test_diff_report_requires_matching_image_size():
    with pytest.raises(ValueError):
        diff_report(count_flops("fpn"), count_params("fpn"))


def test_a2fpn_vs_pafpn_delta_in_published_ballpark():
    d = diff_report(count_flops("a2fpn"), count_flops("pafpn"))
    assert abs(d.total_params - 9.77e6) / 9.77e6 < 0.20
    conv = (count_flops("a2fpn").category_flops("conv")
            - count_flops("pafpn").category_flops("conv"))
    assert abs(conv - 66.34e9) / 66.34e9 < 0.20


def test_format_table_layout():
    text = analysis.format_table([count_flops("fpn"), count_flops("pafpn")])
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "Image", "Size", "#FLOPs", "#Params"]
    assert lines[2].startswith("fpn") and "1280x832" in lines[2]
    assert any(cell.endswith("G") for cell in lines[2].split())


def test_format_diff_mentions_only_changed_lines():
    text = analysis.format_diff(diff_report(count_params("pafpn"), count_params("fpn")))
    assert "pafpn - fpn" in text
    assert "pafpn.down.l3" in text
    assert "fpn.lateral.l2" not in text  # shared lines cancel to zero


def test_report_json_roundtrip(tmp_path):
    import json

    path = analysis.save_report(tmp_path / "r.json", count_flops("fpn"))
    doc = json.loads(path.read_text())
    assert doc["arch"] == "fpn"
    assert doc["total_params"] == count_params("fpn").total_params
