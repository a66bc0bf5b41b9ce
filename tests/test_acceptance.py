"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in captured output).

The desk-scale pretraining runs live in session fixtures so the expensive
checkpoints are built once and shared. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import os
import time

import numpy as np
import pytest

from ofanet import checkpoint as ckpt
from ofanet import model as m
from ofanet import ndtensor as ndt
from ofanet import probe
from ofanet import synthdata as sd
from ofanet.modalities import builtin_modalities, default_registry
from ofanet.ndtensor import Tensor
from ofanet.runconfig import CLS_TASK, SEG_TASK, ProbeConfig, TrainConfig
from ofanet.seeds import derive_seed
from ofanet.trainer import pretrain

from composed import dot
from gradcheck import finite_diff, rel_err
from test_model import run_full_net_gradcheck, tiny_dims

pytestmark = pytest.mark.acceptance

REG = default_registry()
DESK = TrainConfig()  # 5 modalities x 512 samples, d=64, L=4, 30 epochs

PROBE_SEED = 202
N_CLS = 320  # 256 head-train / 64 eval per modality
N_SEG = 160  # 128 head-train / 32 eval per modality
CLS_PROBE = dict(task=CLS_TASK, k_classes=4, epochs=100)
SEG_PROBE = dict(task=SEG_TASK, k_classes=2, epochs=100)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# session fixtures: the expensive artifacts


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def desk_run(work_dir):
    t0 = time.monotonic()
    result = pretrain(DESK, out_dir=work_dir / "desk")
    wall = time.monotonic() - t0
    return result, wall


@pytest.fixture(scope="session")
def naip_run(work_dir):
    cfg = TrainConfig(modalities=("naip",))
    result = pretrain(cfg, out_dir=work_dir / "naip-only")
    return result


@pytest.fixture(scope="session")
def random_net():
    return m.build_ofanet(DESK.model_dims(), builtin_modalities(), DESK.seed)


@pytest.fixture(scope="session")
def cls_sets():
    return {
        spec.id: sd.stack_samples(
            spec.id, sd.gen_cls_dataset(spec, N_CLS, 4, PROBE_SEED, size=DESK.input_size)
        )
        for spec in builtin_modalities()
    }


@pytest.fixture(scope="session")
def seg_sets():
    return {
        spec.id: sd.stack_samples(
            spec.id, sd.gen_seg_dataset(spec, N_SEG, 2, PROBE_SEED, size=DESK.input_size)
        )
        for spec in builtin_modalities()
    }


def _backbone_transplant(donor_path, train_cfg=DESK):
    """Fresh net (random embedders/decoders) with the donor's backbone: the
    single-modality baseline probed on modalities it never saw."""
    net = m.build_ofanet(train_cfg.model_dims(), builtin_modalities(), train_cfg.seed)
    donor = ckpt.read_checkpoint(donor_path)
    for name, t in net.params.items():
        if name.startswith("backbone."):
            arr = donor.tensors[name]
            assert arr.shape == t.shape, name
            np.copyto(t.data, arr)
    return net


# ---------------------------------------------------------------------------
# criterion: gradient oracle


def _op_cases(rng):
    """(name, x0, scalar_fn) triples covering every differentiable op."""
    w53 = rng.normal(size=(5, 3))
    w34 = rng.normal(size=(3, 4))
    b3 = rng.normal(size=3)
    g6 = rng.normal(size=6)
    idx = np.array([4, 0, 2, 1])
    bidx = np.array([[0, 2], [3, 1]])
    rows_proj = np.arange(12.0).reshape(1, 4, 3) - 5.0  # a misrouted row's gradient shows

    def fd_target(build):
        def f(x):
            with ndt.no_grad():
                return build(Tensor(x)).item()
        return f

    cases = []

    def case(name, x0, build):
        cases.append((name, np.asarray(x0, dtype=np.float64), build))

    case("matmul", w53, lambda x: dot(ndt.matmul(x, Tensor(w34)), 1.0))
    case("matmul_stacked", rng.normal(size=(2, 4, 3)),
         lambda x: dot(ndt.matmul(x, Tensor(w34[:3, :3])), 0.5))
    case("add_broadcast", b3, lambda x: dot(ndt.add(Tensor(w53), x), w53 + 2.0))
    b4 = rng.normal(size=4)
    c54 = w53 @ w34
    case("linear_input", w53, lambda x: dot(ndt.linear(x, Tensor(w34), Tensor(b4)), c54))
    case("linear_weight", w34, lambda x: dot(ndt.linear(Tensor(w53), x, Tensor(b4)), c54))
    case("linear_bias", b4, lambda x: dot(ndt.linear(Tensor(w53), Tensor(w34), x), c54))
    case("gather_rows", w53[None], lambda x: dot(ndt.gather_rows_batch(x, idx[None]), rows_proj))
    case("gather_rows_batch", rng.normal(size=(2, 4, 3)),
         lambda x: dot(ndt.gather_rows_batch(x, bidx), rows_proj.reshape(2, 2, 3)))
    # a batch of 2, 3 tokens of width 4, 2 heads; the other two inputs fixed
    qkv = [rng.normal(size=(2, 3, 4)) for _ in range(3)]
    proj = rng.normal(size=(2, 3, 4))
    for i, role in enumerate("qkv"):
        def attn(x, i=i):
            args = [Tensor(a) for a in qkv]
            args[i] = x
            return dot(ndt.attention(*args, heads=2), proj)
        case(f"attention_{role}", qkv[i], attn)
    ramp = np.arange(6.0) - 2
    case("layernorm_x", g6, lambda x: dot(
        ndt.layernorm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))), ramp))
    case("layernorm_gamma", np.ones(6) * 0.7, lambda x: dot(
        ndt.layernorm(Tensor(g6), x, Tensor(np.zeros(6))), ramp))
    case("layernorm_beta", np.zeros(6), lambda x: dot(
        ndt.layernorm(Tensor(g6), Tensor(np.ones(6)), x), ramp))
    case("gelu", g6 * 1.5, lambda x: dot(ndt.gelu(x), 1.0))
    # the model's masked loss: the masked rows gathered, then mse
    case("mse", b3[None, None], lambda x: ndt.mse(ndt.gather_rows_batch(x, [[0]]), b3[None, None] * 0.1))
    t243 = rng.normal(size=(2, 4, 3))
    rows = np.array([[3, 0], [1, 2]])
    t_rows = t243[np.arange(2)[:, None], rows]
    case("mse_masked", rng.normal(size=(2, 4, 3)), lambda x: ndt.mse(ndt.gather_rows_batch(x, rows), t_rows))
    return cases, fd_target


def test_criterion_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    cases, fd_target = _op_cases(rng)
    worst = {"float64": 0.0, "float32": 0.0}
    for mode, eps, tol in (("float64", 1e-4, 1e-4), ("float32", 1e-2, 1e-2)):
        for name, x0, build in cases:
            with ndt.dtype_mode(mode):
                x = Tensor(x0, requires_grad=True)
                ndt.backward(build(x))
                fd = finite_diff(fd_target(build), x0.astype(np.float32) if mode == "float32" else x0, eps)
                err = rel_err(x.grad, fd)
            assert err < tol, f"{name} [{mode}]: rel err {err:.2e} >= {tol}"
            worst[mode] = max(worst[mode], err)

    net64 = run_full_net_gradcheck(sample_entries=None, eps=1e-3, dtype="float64")
    net32 = run_full_net_gradcheck(sample_entries=8, eps=5e-2, dtype="float32")
    wall = time.monotonic() - t0
    ok = net64 < 1e-4 and net32 < 1e-2 and wall < 60.0
    _criterion(
        "gradient oracle",
        ok,
        f"ops worst f64={worst['float64']:.2e} f32={worst['float32']:.2e}; "
        f"full net f64={net64:.2e} (<1e-4) f32={net32:.2e} (<1e-2); wall={wall:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion: weight sharing


def test_criterion_weight_sharing(random_net):
    net = random_net
    reference = m.backbone_hash(net)
    hashes = set()
    for spec in builtin_modalities():
        img = sd.gen_pretrain_sample(spec, 91, 0, size=DESK.input_size).image[None]
        m.forward_features(net, img, spec.id)
        hashes.add(m.backbone_hash(net))
    shared = hashes == {reference}

    confined = all(
        name.split(".")[0] in ("embedder", "backbone", "decoder")
        and (name.split(".")[0] == "backbone" or name.split(".")[1] in net.channels)
        for name, _ in m.named_parameters(net)
    )

    counted = m.parameter_count(net)
    formula = m.expected_parameter_count(DESK.model_dims(), [s.channels for s in builtin_modalities()])
    _criterion(
        "weight-sharing invariant",
        shared and confined and counted == formula,
        f"backbone hash stable over 5 modalities={shared}; per-modality params confined={confined}; "
        f"count {counted} == closed form {formula}",
    )


# ---------------------------------------------------------------------------
# criterion: masking contract


def test_criterion_masking_contract():
    n = DESK.model_dims().tokens
    draws = 10_000
    masked, _ = m.draw_masks(n, 0.75, [derive_seed("mc", i) for i in range(draws)])
    counts_ok = masked.shape == (draws, round(0.75 * n))
    freq = np.bincount(masked.ravel(), minlength=n) / draws
    freq_ok = freq.min() >= 0.73 and freq.max() <= 0.77

    target = np.random.default_rng(5).normal(size=(1, n, 48)).astype(np.float32)
    pred = Tensor(np.zeros((1, n, 48), dtype=np.float32), requires_grad=True)
    masked_idx, _ = m.draw_masks(n, 0.75, [1])
    ndt.backward(ndt.mse(ndt.gather_rows_batch(pred, masked_idx), target[:, masked_idx[0]]))
    visible = np.setdiff1d(np.arange(n), masked_idx[0])
    grad_ok = bool(np.all(pred.grad[0, visible] == 0.0) and np.any(pred.grad[0, masked_idx[0]] != 0.0))

    _criterion(
        "masking contract",
        counts_ok and freq_ok and grad_ok,
        f"|masked|=round(0.75n)={counts_ok}; per-position freq in [{freq.min():.3f}, {freq.max():.3f}] "
        f"(0.75 +/- 0.02); visible-row gradients exactly zero={grad_ok}",
    )


# ---------------------------------------------------------------------------
# criterion: training sanity (desk pretrain)


def test_criterion_training_sanity(desk_run):
    result, wall = desk_run
    by_mod: dict[str, list[float]] = {}
    for line in result.log_lines:
        _, _, mid, loss, _ = line.split("\t")
        by_mod.setdefault(mid, []).append(float(loss))
    ratios = {
        mid: float(np.mean(losses[-20:]) / np.mean(losses[:20]))
        for mid, losses in by_mod.items()
    }
    halved = all(r < 0.5 for r in ratios.values())
    time_ok = wall < 1800.0
    _criterion(
        "training sanity",
        halved and time_ok,
        f"wall={wall / 60:.1f} min (<30); last20/first20 per modality="
        + ", ".join(f"{k}:{v:.3f}" for k, v in ratios.items()),
    )


# ---------------------------------------------------------------------------
# criterion: determinism incl. OFA_THREADS


def test_criterion_determinism(work_dir):
    cfg = TrainConfig(
        seed=5,
        input_size=16,
        patch_size=4,
        embed_dim=32,
        depth=2,
        heads=4,
        decoder_embed_dim=16,
        decoder_depth=1,
        samples_per_modality=64,
        batch_size=16,
        epochs=2,
        modalities=("sentinel1", "sentinel2", "naip"),
    )
    outs = []
    prev = os.environ.pop("OFA_THREADS", None)
    try:
        for tag, threads in (("a", None), ("b", None), ("c", "4")):
            if threads is None:
                os.environ.pop("OFA_THREADS", None)
            else:
                os.environ["OFA_THREADS"] = threads
            out = work_dir / f"det-{tag}"
            pretrain(cfg, out_dir=out)
            outs.append(out)
    finally:
        if prev is None:
            os.environ.pop("OFA_THREADS", None)
        else:
            os.environ["OFA_THREADS"] = prev

    logs = [(o / "loss.log").read_bytes() for o in outs]
    ckpts = [(o / "checkpoint-final.ofac").read_bytes() for o in outs]
    logs_ok = logs[0] == logs[1] == logs[2]
    ckpt_ok = ckpts[0] == ckpts[1] == ckpts[2]
    _criterion(
        "determinism",
        logs_ok and ckpt_ok,
        f"3 runs (2 plain, 1 with OFA_THREADS=4): loss logs bitwise equal={logs_ok}, "
        f"final checkpoints bitwise equal={ckpt_ok}",
    )


# ---------------------------------------------------------------------------
# criteria: directional table analogues


def _cls_accuracy(net, data):
    _, report = probe.run_cls_probe(net, data, ProbeConfig(**CLS_PROBE), "x")
    return report.value


def _seg_miou(net, data):
    _, report = probe.run_seg_probe(net, data, ProbeConfig(**SEG_PROBE), "x")
    return report.value


def test_criterion_table1_analogue_classification(desk_run, random_net, cls_sets):
    result, _ = desk_run
    rows = []
    wins = 0
    for mid in DESK.modalities:
        rand_acc = _cls_accuracy(random_net, cls_sets[mid])
        ofa_acc = _cls_accuracy(result.net, cls_sets[mid])
        delta = ofa_acc - rand_acc
        wins += delta >= 0.05
        rows.append(f"{mid}: random={rand_acc:.3f} ofa={ofa_acc:.3f} delta={delta:+.3f}")
    _criterion(
        "table-1 analogue (classification)",
        wins >= 4,
        f"ofa >= random+0.05 on {wins}/5 modalities (need >=4); " + "; ".join(rows),
    )


def test_criterion_table2_analogue_segmentation(desk_run, random_net, seg_sets):
    result, _ = desk_run
    rows = []
    wins = 0
    for mid in DESK.modalities:
        rand_miou = _seg_miou(random_net, seg_sets[mid])
        ofa_miou = _seg_miou(result.net, seg_sets[mid])
        wins += ofa_miou > rand_miou
        rows.append(f"{mid}: random={rand_miou:.3f} ofa={ofa_miou:.3f}")
    _criterion(
        "table-2 analogue (segmentation)",
        wins >= 4,
        f"ofa strictly above random on {wins}/5 modalities (need >=4); " + "; ".join(rows),
    )


def test_criterion_single_vs_multi(desk_run, naip_run, cls_sets):
    result, _ = desk_run
    single_net = _backbone_transplant(naip_run.final_checkpoint)
    rows = []
    wins = 0
    others = [mid for mid in DESK.modalities if mid != "naip"]
    for mid in others:
        single_acc = _cls_accuracy(single_net, cls_sets[mid])
        ofa_acc = _cls_accuracy(result.net, cls_sets[mid])
        wins += ofa_acc >= single_acc
        rows.append(f"{mid}: single={single_acc:.3f} ofa={ofa_acc:.3f}")
    _criterion(
        "single-vs-multi analogue (soft)",
        wins >= 3,
        f"ofa >= naip-only on {wins}/4 non-naip modalities (need >=3); "
        f"seeds: train={DESK.seed} naip={naip_run and DESK.seed} probe={PROBE_SEED}; " + "; ".join(rows),
    )


# ---------------------------------------------------------------------------
# criterion: metric oracles


def test_criterion_metric_oracles():
    miou = probe.mean_iou(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
    miou_ok = abs(miou - 7 / 12) <= 1e-9
    top1_ok = (
        probe.top1_accuracy([1, 2, 0], [1, 0, 0]) == pytest.approx(2 / 3)
        and probe.top1_accuracy([1, 2], [1, 2]) == 1.0
        and probe.top1_accuracy([0, 0], [1, 1]) == 0.0
    )
    _criterion(
        "metric oracles",
        miou_ok and top1_ok,
        f"mean_iou hand example={miou:.12f} (7/12 +/- 1e-9); top1 exact fractions={top1_ok}",
    )


# ---------------------------------------------------------------------------
# criterion: format round-trips


def test_criterion_format_roundtrips(work_dir):
    spec = REG.lookup("sentinel2")
    ds = sd.stack_samples(spec.id, sd.gen_cls_dataset(spec, 8, 2, 3, size=16))
    p1, p2 = work_dir / "rt1.ofad", work_dir / "rt2.ofad"
    sd.save_dataset(p1, ds)
    sd.save_dataset(p2, sd.load_dataset(p1))
    ofad_ok = p1.read_bytes() == p2.read_bytes()

    dims = tiny_dims()
    net = m.build_ofanet(dims, [spec], seed=4)
    c1, c2 = work_dir / "rt1.ofac", work_dir / "rt2.ofac"
    ckpt.save_net(c1, net, "[train]\nseed = 4\n")
    loaded = ckpt.read_checkpoint(c1)
    ckpt.write_checkpoint(c2, loaded.config_text, loaded.tensors.items())
    ofac_ok = c1.read_bytes() == c2.read_bytes()

    _criterion(
        "format round-trips",
        ofad_ok and ofac_ok,
        f"OFAD write-read-write byte-identical={ofad_ok}; OFAC={ofac_ok}",
    )
