import json
import subprocess
import sys

import numpy as np
import pytest

from a2fpn import cli, tensor_io


def small_config(tmp_path, arch="a2fpn", **kw):
    doc = dict(arch=arch, c=8, a=1, c_m=4, k_up=3, k_dn=3, k_en=1,
               backbone=[4, 4, 8, 8], image_size=[64, 64])
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["forward", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"arch": "fancy"}))
    assert cli.main(["forward", "--config", str(bad)]) == 2


@pytest.mark.parametrize("doc", [
    {"c": 8.0}, {"a": 1.5}, {"c_m": 2.5}, {"k_up": 3.0}, {"seed": -1}, {"lambda_o": "x"},
    {"c": 8, "k_en": 2}, {"c": 8, "image_size": [0, 64]},
], ids=["c-float", "a-float", "c_m-float", "k_up-float", "seed-negative", "lambda_o-str",
        "k_en-even", "image-size-zero"])
def test_mistyped_config_exits_2_without_traceback(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["forward", "--config", str(path), "--random", "64x64",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_corrupt_input_tensor_exits_1(tmp_path, capsys):
    junk = tmp_path / "img.a2tsr"
    junk.write_bytes(b"NOTFMT\x01" + b"\0" * 64)
    cfg = small_config(tmp_path)
    code = cli.main(["forward", "--config", cfg, "--input", str(junk),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_wrong_input_shape_exits_1(tmp_path):
    img = tmp_path / "img.a2tsr"
    tensor_io.save_tensor(img, np.zeros((1, 64, 64)))
    cfg = small_config(tmp_path)
    assert cli.main(["forward", "--config", cfg, "--input", str(img),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("arch", ["fpn", "a2fpn_lite"])
def test_forward_writes_the_pyramid(tmp_path, capsys, arch):
    cfg = small_config(tmp_path, arch=arch)
    out = tmp_path / "fwd"
    code = cli.main(["forward", "--config", cfg, "--random", "64x64",
                     "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "shapes.json").read_text())
    assert manifest["arch"] == arch and manifest["c"] == 8
    assert sorted(manifest["levels"]) == ["p2", "p3", "p4", "p5", "p6"]
    strides = [manifest["levels"][f"p{l}"]["stride"] for l in (2, 3, 4, 5, 6)]
    assert strides == [4, 8, 16, 32, 64]
    p2 = tensor_io.load_tensor(out / "p2.a2tsr")
    assert p2.shape == (8, 16, 16)
    run = json.loads((out / "run_report.json").read_text())
    assert run["command"] == "forward" and run["outcome"] == "pass"
    assert len(run["config_digest"]) == 64


def test_forward_is_byte_reproducible(tmp_path):
    cfg = small_config(tmp_path, arch="a2fpn")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["forward", "--config", cfg, "--random", "64x64",
                     "--out", str(out1)]) == 0
    assert cli.main(["forward", "--config", cfg, "--random", "64x64",
                     "--out", str(out2)]) == 0
    for lvl in (2, 3, 4, 5, 6):
        a = (out1 / f"p{lvl}.a2tsr").read_bytes()
        b = (out2 / f"p{lvl}.a2tsr").read_bytes()
        assert a == b


def test_forward_seed_changes_the_image(tmp_path):
    cfg = small_config(tmp_path, arch="fpn")
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    cli.main(["forward", "--config", cfg, "--random", "64x64", "--out", str(out1)])
    cli.main(["forward", "--config", cfg, "--random", "64x64", "--seed", "1",
              "--out", str(out2)])
    assert (out1 / "p2.a2tsr").read_bytes() != (out2 / "p2.a2tsr").read_bytes()


def test_forward_arch_override(tmp_path):
    cfg = small_config(tmp_path, arch="a2fpn")
    out = tmp_path / "o"
    assert cli.main(["forward", "--config", cfg, "--arch", "a2fpn_lite",
                     "--random", "64x64", "--out", str(out)]) == 0
    manifest = json.loads((out / "shapes.json").read_text())
    assert manifest["arch"] == "a2fpn_lite"


def test_count_prints_table_and_saves(tmp_path, capsys):
    out = tmp_path / "counts"
    code = cli.main(["count", "--arch", "pafpn", "--diff", "fpn", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "Method" in text and "pafpn" in text
    assert "pafpn - fpn" in text
    doc = json.loads((out / "count_pafpn.json").read_text())
    assert doc["arch"] == "pafpn"
    diff = json.loads((out / "diff_pafpn_vs_fpn.json").read_text())
    assert diff["total_params"] == 3_540_480


def test_count_accepts_custom_widths(capsys):
    assert cli.main(["count", "--arch", "fpn", "--backbone-spec", "8,8,16,16",
                     "--image-size", "128x64"]) == 0
    assert "fpn" in capsys.readouterr().out


def test_count_small_config(tmp_path, capsys):
    cfg = small_config(tmp_path, arch="a2fpn_lite")
    assert cli.main(["count", "--arch", "a2fpn_lite", "--config", cfg,
                     "--image-size", "64x64"]) == 0


def test_gradcheck_subset_tolerance_failure(tmp_path, capsys):
    # an absurd tolerance must flip the exit code; the report still lands
    out = tmp_path / "g"
    code = cli.main(["gradcheck", "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["passed"] is False
    run = json.loads((out / "run_report.json").read_text())
    assert run["outcome"] == "fail"


def test_oracles_command(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["oracles", "--cases", "3", "--out", str(out)]) == 0
    assert json.loads((out / "oracles.json").read_text())["passed"]


def test_train_toy_short_run_reports_not_converged(tmp_path, capsys):
    cfg = small_config(tmp_path, arch="a2fpn_lite", c=8, backbone=[4, 4, 8, 8])
    out = tmp_path / "t"
    code = cli.main(["train-toy", "--config", cfg, "--steps", "3", "--out", str(out)])
    assert code == 1  # three steps cannot reach the convergence bar
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss,reg_loss" and len(lines) == 5
    report = json.loads((out / "train_report.json").read_text())
    assert report["converged"] is False and report["diverged"] is False
    ckpt = tensor_io.load_params(out / "checkpoint")
    assert ckpt


@pytest.mark.parametrize("arch", ["fpn", "pafpn"])
def test_train_toy_config_with_an_untrained_arch_exits_2(tmp_path, capsys, arch):
    cfg = small_config(tmp_path, arch=arch)
    out = tmp_path / "t"
    assert cli.main(["train-toy", "--config", cfg, "--steps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training covers") and repr(arch) in err
    assert not out.exists()


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "a2fpn.cli", "count", "--arch", "fpn"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fpn" in proc.stdout


def test_config_naming_a_removed_key_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, drop_extra_level=True)
    assert cli.main(["forward", "--config", cfg, "--random", "64x64",
                     "--out", str(tmp_path / "o")]) == 2
    assert "drop_extra_level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["count", "--image-size", "100x64"],
    ["count", "--backbone-spec", "a,b,c,d"],
    ["forward", "--random", "100x64"],
    ["gradcheck", "--eps", "0"],
    ["gradcheck", "--eps", "nan"],
    ["gradcheck", "--eps", "inf"],
    ["oracles", "--cases", "0"],
    ["oracles", "--cases", "-3"],
    ["train-toy", "--steps", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["oracles", "--seed", "-1"],
    ["forward", "--seed", "-1"],
    ["train-toy", "--seed", "-1"],
    *(["gradcheck", "--tol", v] for v in ("nan", "inf", "0", "-1")),
    *(["train-toy", "--lr", v] for v in ("nan", "inf", "0", "-1")),
], ids=["count-image-size", "count-backbone-spec", "forward-random", "gradcheck-eps-zero",
        "gradcheck-eps-nan", "gradcheck-eps-inf", "oracles-cases-zero", "oracles-cases-negative",
        "train-toy-steps-negative", "gradcheck-seed-negative", "oracles-seed-negative",
        "forward-seed-negative", "train-toy-seed-negative",
        *(f"{cmd}-{v}" for cmd in ("gradcheck-tol", "train-toy-lr")
          for v in ("nan", "inf", "zero", "negative"))])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_non_finite_input_exits_1_and_writes_nothing(tmp_path, capsys):
    img = tmp_path / "img.a2tsr"
    data = np.random.default_rng(0).standard_normal((3, 64, 64))
    data[1, 5, 7] = np.nan
    tensor_io.save_tensor(img, data)
    out = tmp_path / "o"
    assert cli.main(["forward", "--config", small_config(tmp_path), "--input", str(img),
                     "--out", str(out)]) == 1
    assert str(img) in capsys.readouterr().err
    assert not list(tmp_path.glob("**/p*.a2tsr"))


def test_non_finite_output_exits_1_naming_the_level(tmp_path, capsys, monkeypatch):
    real = cli.forward_pyramid

    def forward_with_inf_at_p4(levels, store, cfg):
        outs = real(levels, store, cfg)
        outs[2].data[0, 0, 0] = np.inf
        return outs

    monkeypatch.setattr(cli, "forward_pyramid", forward_with_inf_at_p4)
    out = tmp_path / "o"
    assert cli.main(["forward", "--config", small_config(tmp_path), "--random", "64x64",
                     "--out", str(out)]) == 1
    assert "output p4" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/p*.a2tsr"))


def test_overflowing_input_exits_1_with_no_tensors(tmp_path, capsys):
    # finite f32 values so large that the backbone convs overflow
    img = tmp_path / "img.a2tsr"
    tensor_io.save_tensor(img, np.full((3, 64, 64), 3e38, dtype=np.float32))
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["forward", "--config", small_config(tmp_path), "--input", str(img),
                         "--out", str(out)])
    assert code == 1
    assert "non-finite values in output p2" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/p*.a2tsr"))
