import subprocess
import sys

import numpy as np
import pytest

from ofanet import checkpoint as ckpt
from ofanet import cli, synthdata
from ofanet.binread import atomic_write
from ofanet.cli import main
from ofanet.model import param_hash
from ofanet.runconfig import CLS_TASK, SEG_TASK, ProbeConfig, parse_config, serialize_config


TINY_CONFIG = """\
[train]
seed = 3
input_size = 16
patch_size = 4
embed_dim = 16
depth = 1
heads = 4
decoder_embed_dim = 8
decoder_depth = 1
samples_per_modality = 32
batch_size = 16
epochs = 1
modalities = sentinel1, naip
"""
PROBE_EPOCHS = ["--epochs", "30"]


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_gen_data_deterministic_rerun(tmp_path, capsys):
    out1 = tmp_path / "a.ofad"
    out2 = tmp_path / "b.ofad"
    base = ["gen-data", "--modality", "sentinel1", "--kind", "cls",
            "--count", "12", "--seed", "5", "--classes", "2", "--size", "16"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "12 cls samples" in capsys.readouterr().out


def test_gen_data_unknown_modality_exit_code(tmp_path, capsys):
    rc = main(["gen-data", "--modality", "wat", "--kind", "cls", "--count", "4",
               "--seed", "1", "--out", str(tmp_path / "x.ofad")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.ofad").exists()


def test_failed_write_leaves_no_partial_file(tmp_path):
    ds = synthdata.LoadedDataset(
        modality_id="sentinel1",
        images=np.zeros((1, 4, 4, 2), dtype=np.float32),
        labels=np.array([70_000]),  # does not fit the u16 label field
    )
    with pytest.raises(Exception):
        synthdata.save_dataset(tmp_path / "broken.ofad", ds)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_keeps_old_bytes(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old bytes")

    def write(fh):
        fh.write(b"new")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, write)
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]
    atomic_write(path, lambda fh: fh.write(b"new bytes"))
    assert path.read_bytes() == b"new bytes"
    assert list(tmp_path.iterdir()) == [path]


def test_pretrain_probe_inspect_report_pipeline(tmp_path, tiny_config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(tiny_config_path), "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()
    final = run_dir / "checkpoint-final.ofac"
    assert final.exists()
    assert (run_dir / "loss.log").exists()

    data = tmp_path / "naip_cls.ofad"
    assert main(["gen-data", "--modality", "naip", "--kind", "cls", "--count", "40",
                 "--seed", "9", "--classes", "2", "--size", "16", "--out", str(data),
                 "--config", str(tiny_config_path)]) == 0
    capsys.readouterr()

    lines_file = tmp_path / "reports.txt"
    assert main(["probe", "--task", "cls", "--checkpoint", "random-init",
                 "--data", str(data), "--config", str(tiny_config_path),
                 "--out", str(lines_file)] + PROBE_EPOCHS) == 0
    out = capsys.readouterr().out.strip()
    task, dataset, method, metric, value = out.split("\t")
    assert (task, dataset, method, metric) == ("classification", "naip", "random-init", "top1")
    assert 0.0 <= float(value) <= 1.0

    assert main(["probe", "--task", "cls", "--checkpoint", str(final),
                 "--data", str(data), "--config", str(tiny_config_path),
                 "--method", "ofa", "--out", str(lines_file)] + PROBE_EPOCHS) == 0
    capsys.readouterr()
    assert len(lines_file.read_text().splitlines()) == 2

    assert main(["inspect", "--checkpoint", str(final)]) == 0
    inspect_out = capsys.readouterr().out
    assert "backbone.block0.attn.wq" in inspect_out
    assert "embedder.sentinel1.weight" in inspect_out
    assert "seed = 3" in inspect_out

    assert main(["report", "--inputs", str(lines_file)]) == 0
    table = capsys.readouterr().out
    assert "random-init" in table and "ofa" in table and "delta" in table


def test_probe_checkpoint_brings_its_own_modalities(tmp_path, tiny_config_path, capsys):
    # thermal is declared in the checkpoint's embedded config only, not in
    # the config the probe runs with
    thermal_cfg = tmp_path / "thermal.cfg"
    thermal_cfg.write_text(
        TINY_CONFIG.replace("modalities = sentinel1, naip", "modalities = sentinel1, thermal")
        + "\n[modality.thermal]\nchannels = 1\n"
    )
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(thermal_cfg), "--out-dir", str(run_dir)]) == 0
    data = tmp_path / "thermal_seg.ofad"
    assert main(["gen-data", "--modality", "thermal", "--kind", "seg", "--count", "10",
                 "--seed", "4", "--classes", "2", "--size", "16", "--out", str(data),
                 "--config", str(thermal_cfg)]) == 0
    capsys.readouterr()
    assert main(["probe", "--task", "seg", "--checkpoint", str(run_dir / "checkpoint-final.ofac"),
                 "--data", str(data), "--config", str(tiny_config_path)] + PROBE_EPOCHS) == 0
    assert capsys.readouterr().out.startswith("segmentation\tthermal\tpretrained\tmiou\t")


def test_pretrain_embeds_the_canonical_config(tmp_path):
    # a hand-written file with a comment and most keys left at their defaults
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(
        "# naip only, tiny\n[train]\nmodalities = naip\nseed = 5\ninput_size = 16\n"
        "embed_dim = 16\ndepth = 1\ndecoder_embed_dim = 8\ndecoder_depth = 1\n"
        "samples_per_modality = 16\nepochs = 1\n"
    )
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--out-dir", str(run_dir)]) == 0
    final = run_dir / "checkpoint-final.ofac"
    run = parse_config(cfg.read_text())
    text = ckpt.read_checkpoint(final).config_text
    assert text == serialize_config(run)
    assert "#" not in text and f"base_lr = {run.train.base_lr!r}" in text
    net, loaded = ckpt.load_net(final)
    assert loaded == run

    # an older checkpoint that embeds the file verbatim still loads to the same net
    verbatim = tmp_path / "verbatim.ofac"
    ckpt.write_checkpoint(verbatim, cfg.read_text(), ckpt.read_checkpoint(final).tensors.items())
    old_net, old_loaded = ckpt.load_net(verbatim)
    assert old_loaded == run
    assert param_hash(old_net) == param_hash(net)


def test_probe_task_data_mismatch(tmp_path, tiny_config_path, capsys):
    data = tmp_path / "seg.ofad"
    main(["gen-data", "--modality", "naip", "--kind", "seg", "--count", "8",
          "--seed", "1", "--classes", "2", "--size", "16", "--out", str(data)])
    capsys.readouterr()
    rc = main(["probe", "--task", "cls", "--checkpoint", "random-init",
               "--data", str(data), "--config", str(tiny_config_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, flags, expected",
    [
        ("cls", [], ProbeConfig(CLS_TASK, lr=None, epochs=100, k_classes=3)),
        ("seg", [], ProbeConfig(SEG_TASK, lr=None, epochs=100, k_classes=2)),
        ("cls", ["--lr", "0.5", "--epochs", "7", "--classes", "5"], ProbeConfig(CLS_TASK, 0.5, 7, 5)),
    ],
)
def test_probe_flags_and_data_make_the_probe_config(tmp_path, capsys, monkeypatch, kind, flags, expected):
    # the probe config comes from the flags and the data alone; unset --lr
    # means the task default and unset --epochs ProbeConfig's 100
    data = tmp_path / f"{kind}.ofad"
    assert main(["gen-data", "--modality", "naip", "--kind", kind, "--count", "12", "--seed", "1",
                 "--classes", "3" if kind == "cls" else "2", "--size", "16", "--out", str(data)]) == 0
    seen = []

    def fake_probe(net, dataset, config, method):
        seen.append(config)
        return None, cli.probe_mod.ProbeReport(config.task, "naip", method, "top1", 0.5)

    monkeypatch.setattr(cli.probe_mod, "run_cls_probe", fake_probe)
    monkeypatch.setattr(cli.probe_mod, "run_seg_probe", fake_probe)
    assert main(["probe", "--task", kind, "--checkpoint", "random-init", "--data", str(data)] + flags) == 0
    assert seen == [expected]


def test_bad_config_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[train]\nmask_ratio = 1.5\n")
    rc = main(["pretrain", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "mask_ratio" in err and "line 2" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ofanet.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
