import hashlib

import numpy as np
import pytest

from ofanet import model as m
from ofanet import probe
from ofanet.modalities import default_registry
from ofanet.probe import (
    LinearHead,
    ProbeReport,
    classify,
    compare_runs,
    mean_iou,
    parse_report_line,
    predict_seg,
    run_cls_probe,
    run_seg_probe,
    top1_accuracy,
    train_linear_cls,
)
from ofanet.runconfig import CLS_TASK, SEG_TASK, ProbeConfig
from ofanet.synthdata import gen_cls_dataset, gen_seg_dataset, resize_nearest, stack_samples

REG = default_registry()


def small_net(modalities=("sentinel1",)):
    dims = m.ModelDims(input_size=16, patch_size=4, embed_dim=16, depth=2,
                       heads=4, decoder_embed_dim=8, decoder_depth=1)
    return m.build_ofanet(dims, [REG.lookup(x) for x in modalities], seed=2)


# ---------------------------------------------------------------------------
# metrics


def test_top1_examples():
    assert top1_accuracy([1, 2, 0], [1, 0, 0]) == pytest.approx(2 / 3)
    assert top1_accuracy([4, 5], [4, 5]) == 1.0
    assert top1_accuracy([1, 1], [0, 2]) == 0.0


def test_top1_errors():
    with pytest.raises(ValueError):
        top1_accuracy([], [])
    with pytest.raises(ValueError, match="mismatch"):
        top1_accuracy([1, 2], [1])


def test_top1_permutation_invariant():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 3, 40)
    labels = rng.integers(0, 3, 40)
    perm = rng.permutation(40)
    assert top1_accuracy(preds, labels) == top1_accuracy(preds[perm], labels[perm])


def test_mean_iou_identity():
    gt = np.array([0, 1, 1, 0])
    assert mean_iou(gt, gt, 2) == 1.0


def test_mean_iou_hand_enumerated():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    assert mean_iou(pred, gt, 2) == pytest.approx(7 / 12, abs=1e-9)


def test_mean_iou_disjoint_is_zero():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 0, 0])
    assert mean_iou(pred, gt, 2) == 0.0


def test_mean_iou_excludes_classes_absent_from_both():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    # class 2 appears nowhere: same value as the k=2 case
    assert mean_iou(pred, gt, 3) == pytest.approx(7 / 12, abs=1e-9)


def test_mean_iou_relabeling_symmetry():
    gt = np.array([0, 0, 1, 1, 0])
    pred = np.array([0, 1, 1, 1, 0])
    swapped = lambda a: 1 - a
    assert mean_iou(pred, gt, 2) == pytest.approx(mean_iou(swapped(pred), swapped(gt), 2))


def test_mean_iou_sample_order_invariant():
    rng = np.random.default_rng(1)
    gt = rng.integers(0, 2, (6, 4, 4))
    pred = rng.integers(0, 2, (6, 4, 4))
    perm = rng.permutation(6)
    assert mean_iou(pred, gt, 2) == pytest.approx(mean_iou(pred[perm], gt[perm], 2))


def test_mean_iou_errors():
    with pytest.raises(ValueError):
        mean_iou(np.array([]), np.array([]), 2)
    with pytest.raises(ValueError, match="shape"):
        mean_iou(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        mean_iou(np.array([0, 3]), np.array([0, 1]), 2)


def test_upsample_token_geometry():
    tokens = np.arange(64)
    # one-hot token features under an identity head predict each token's index
    head = LinearHead(weight=np.eye(64), bias=np.zeros(64))
    up = predict_seg(head, np.eye(64)[None], (8, 8), 4)[0]
    assert up.shape == (32, 32)
    for ti in range(8):
        for tj in range(8):
            block = up[ti * 4 : ti * 4 + 4, tj * 4 : tj * 4 + 4]
            assert np.all(block == tokens[ti * 8 + tj])


# ---------------------------------------------------------------------------
# heads


def _separable_features(n=60, d=8, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    feats = rng.normal(0, 0.3, (n, d))
    feats[:, 0] += np.where(labels == 0, -2.0, 2.0)
    return feats.astype(np.float32), labels


def test_separable_features_reach_full_training_accuracy():
    feats, labels = _separable_features()
    cfg = ProbeConfig(task=CLS_TASK, k_classes=2, epochs=50)
    head = train_linear_cls(feats, labels, cfg)
    assert top1_accuracy(classify(head, feats), labels) == 1.0


def test_cls_head_rejects_out_of_range_label():
    feats, labels = _separable_features()
    labels = labels.copy()
    labels[0] = 7
    with pytest.raises(ValueError, match="k_classes"):
        train_linear_cls(feats, labels, ProbeConfig(task=CLS_TASK, k_classes=2))


def test_cls_head_rejects_negative_label():
    # np.eye(k)[-1] would train label -1 as the last class
    feats, labels = _separable_features()
    labels = labels.copy()
    labels[3] = -1
    with pytest.raises(ValueError, match="label -1 < 0"):
        train_linear_cls(feats, labels, ProbeConfig(task=CLS_TASK, k_classes=2))


def test_seg_head_rejects_negative_mask_value():
    # a -1 pixel would drop out of its token's class histogram
    feats = np.zeros((2, 4, 3), dtype=np.float32)
    masks = np.zeros((2, 4, 4), dtype=np.int64)
    masks[1, 2, 3] = -1
    with pytest.raises(ValueError, match="mask value -1 < 0"):
        probe.train_linear_seg(feats, masks, 2, ProbeConfig(task=SEG_TASK, k_classes=2))


def test_head_training_deterministic():
    feats, labels = _separable_features()
    cfg = ProbeConfig(task=CLS_TASK, k_classes=2, epochs=30)
    h1 = train_linear_cls(feats, labels, cfg)
    h2 = train_linear_cls(feats, labels, cfg)
    np.testing.assert_array_equal(h1.weight, h2.weight)
    np.testing.assert_array_equal(h1.bias, h2.bias)


@pytest.mark.parametrize("task, digest", [
    (CLS_TASK, "967703a3f6758449b34a4d5e3c016524a6a851bec08d69f97ecc01ce6e49a611"),
    (SEG_TASK, "dae9c63b40b4e59aa6c1f1a527acac421341899137fe01b5eec2da9fa7c1a443"),
])
def test_head_fit_bytes_pinned(task, digest):
    # the fit's float operations and their order: a 4-class head at the cls
    # defaults, a 2-class seg head at an lr that moves it off zero
    rng = np.random.default_rng(20)
    feats = rng.normal(0.0, 1.0, (48, 16)).astype(np.float32)
    if task == CLS_TASK:
        head = train_linear_cls(feats, np.arange(48) % 4, ProbeConfig(task=CLS_TASK, k_classes=4))
    else:
        tokens = rng.normal(0.0, 1.0, (6, 16, 16)).astype(np.float32)
        masks = (rng.random((6, 16, 16)) < 0.4).astype(np.uint8)
        head = probe.train_linear_seg(tokens, masks, 4, ProbeConfig(task=SEG_TASK, k_classes=2, lr=1e-2))
    assert hashlib.sha256(head.weight.tobytes() + head.bias.tobytes()).hexdigest() == digest


def test_token_label_histograms_follow_patchify_order():
    # a 2x3 token grid, so swapped grid axes would show
    masks = np.random.default_rng(4).integers(0, 3, (2, 8, 12)).astype(np.uint8)
    hist = probe.token_label_histograms(masks, 4, 3)
    assert hist.shape == (2, 6, 3)
    for i in range(2):
        for ti in range(2):
            for tj in range(3):
                block = masks[i, ti * 4 : ti * 4 + 4, tj * 4 : tj * 4 + 4]
                np.testing.assert_array_equal(hist[i, ti * 3 + tj], np.bincount(block.ravel(), minlength=3))
    np.testing.assert_array_equal(hist.sum(axis=-1), 16)


def test_predict_seg_broadcasts_token_blocks():
    head = LinearHead(weight=np.eye(3, 2), bias=np.zeros(2))
    feats = np.zeros((1, 4, 3))
    feats[0, :, 0] = [1, -1, -1, 1]  # favors class 0 at tokens 0 and 3
    feats[0, :, 1] = [-1, 1, 1, -1]
    pred = predict_seg(head, feats, (2, 2), 2)
    assert pred.shape == (1, 4, 4)
    assert pred[0, 0, 0] == 0 and pred[0, 0, 3] == 1 and pred[0, 3, 3] == 0


# ---------------------------------------------------------------------------
# end-to-end probe runs (random-init nets; pretrained runs live in acceptance)


def test_run_cls_probe_freezes_backbone_and_reports():
    net = small_net()
    data = stack_samples(
        "sentinel1", gen_cls_dataset(REG.lookup("sentinel1"), 60, 4, 3, size=16)
    )
    before = m.backbone_hash(net)
    head, report = run_cls_probe(net, data, ProbeConfig(task=CLS_TASK, k_classes=4, epochs=40), "random-init")
    assert m.backbone_hash(net) == before
    assert report.task == CLS_TASK
    assert report.dataset == "sentinel1"
    assert report.metric == "top1"
    assert 0.0 <= report.value <= 1.0
    assert head.weight.shape == (16, 4)


def test_run_seg_probe_freezes_backbone_and_reports():
    net = small_net()
    data = stack_samples(
        "sentinel1", gen_seg_dataset(REG.lookup("sentinel1"), 40, 2, 3, size=16)
    )
    before = m.backbone_hash(net)
    head, report = run_seg_probe(net, data, ProbeConfig(task=SEG_TASK, k_classes=2, epochs=40), "random-init")
    assert m.backbone_hash(net) == before
    assert report.metric == "miou"
    assert 0.0 <= report.value <= 1.0
    assert head.weight.shape == (16, 2)


@pytest.mark.parametrize("task", [CLS_TASK, SEG_TASK])
def test_run_probe_rejects_a_single_sample(task):
    # one sample cannot both fit the head and evaluate it
    spec = REG.lookup("sentinel1")
    if task == CLS_TASK:
        run, samples, k = run_cls_probe, gen_cls_dataset(spec, 3, 3, 3, size=16), 3
    else:
        run, samples, k = run_seg_probe, gen_seg_dataset(spec, 2, 2, 3, size=16), 2
    data = stack_samples("sentinel1", samples[:1])
    with pytest.raises(ValueError, match="sample count 1 < 2; a probe needs one sample"):
        run(small_net(), data, ProbeConfig(task=task, k_classes=k), "random-init")


def test_run_seg_probe_resizes_non_square_sets():
    # 32x48 against a 32 px net: the heights agree, the widths do not; the
    # set probes exactly as the same set resized to 32x32 first
    dims = m.ModelDims(input_size=32, patch_size=4, embed_dim=16, depth=1,
                       heads=4, decoder_embed_dim=8, decoder_depth=1)
    net = m.build_ofanet(dims, [REG.lookup("sentinel1")], seed=2)
    data = stack_samples(
        "sentinel1", gen_seg_dataset(REG.lookup("sentinel1"), 20, 2, 3, size=48)
    )
    data.images, data.masks = data.images[:, :32], data.masks[:, :32]
    cfg = ProbeConfig(task=SEG_TASK, k_classes=2, epochs=40)
    head, report = run_seg_probe(net, data, cfg, "random-init")
    data.images, data.masks = resize_nearest(data.images, 32), resize_nearest(data.masks, 32)
    head_sq, report_sq = run_seg_probe(net, data, cfg, "random-init")
    np.testing.assert_array_equal(head.weight, head_sq.weight)
    assert report.value == report_sq.value


def test_cached_features_equal_recomputation():
    net = small_net()
    data = stack_samples(
        "sentinel1", gen_cls_dataset(REG.lookup("sentinel1"), 30, 2, 5, size=16)
    )
    cfg = ProbeConfig(task=CLS_TASK, k_classes=2, epochs=20)
    feats_once = probe.extract_features(net, data.images, "sentinel1")
    head_cached = train_linear_cls(feats_once, data.labels, cfg)
    feats_again = probe.extract_features(net, data.images, "sentinel1")
    head_fresh = train_linear_cls(feats_again, data.labels, cfg)
    np.testing.assert_allclose(head_cached.weight, head_fresh.weight, atol=1e-6)


def _stacked_single_image_features(net, images, modality, per_token):
    """Reference: forward_features/forward_tokens on batches of 1, stacked."""
    fwd = m.forward_tokens if per_token else m.forward_features
    return np.concatenate([fwd(net, images[i : i + 1], modality).data for i in range(len(images))])


@pytest.mark.parametrize("size", [16, 64])
@pytest.mark.parametrize("per_token", [False, True])
def test_batched_features_equal_single_image_features(size, per_token):
    # 13 images cross a FEATURE_CHUNK boundary; 64 px inputs take the resize path
    net = small_net()
    images = stack_samples(
        "sentinel1", gen_cls_dataset(REG.lookup("sentinel1"), 13, 2, 9, size=size)
    ).images
    assert probe.FEATURE_CHUNK < len(images)
    feats = probe.extract_features(net, images, "sentinel1", per_token=per_token)
    if size != 16:
        images = np.stack([resize_nearest(img[None], 16)[0] for img in images])
    np.testing.assert_array_equal(feats, _stacked_single_image_features(net, images, "sentinel1", per_token))


@pytest.mark.parametrize("per_token", [False, True])
def test_batched_features_independent_of_thread_count(per_token, monkeypatch):
    net = small_net()
    images = stack_samples(
        "sentinel1", gen_cls_dataset(REG.lookup("sentinel1"), 13, 2, 11, size=16)
    ).images
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OFA_THREADS", threads)
        runs.append(probe.extract_features(net, images, "sentinel1", per_token=per_token))
    np.testing.assert_array_equal(runs[0], runs[1])


def test_probe_resizes_native_inputs():
    net = small_net()
    data = stack_samples(
        "sentinel1", gen_cls_dataset(REG.lookup("sentinel1"), 20, 2, 5, size=32)
    )
    feats = probe.extract_features(net, data.images, "sentinel1")
    assert feats.shape == (20, 16)


# ---------------------------------------------------------------------------
# comparisons


def test_compare_runs_delta():
    rows = [
        ProbeReport(CLS_TASK, "naip", "random-init", "top1", 0.40),
        ProbeReport(CLS_TASK, "naip", "ofa", "top1", 0.90),
    ]
    table = compare_runs(rows)
    assert "+0.5" in table
    assert "random-init" in table and "ofa" in table


def test_compare_runs_single_row_rejected():
    with pytest.raises(ValueError, match="two"):
        compare_runs([ProbeReport(CLS_TASK, "naip", "x", "top1", 0.5)])


def test_compare_runs_mismatched_tasks_rejected():
    rows = [
        ProbeReport(CLS_TASK, "naip", "a", "top1", 0.5),
        ProbeReport(SEG_TASK, "naip", "b", "miou", 0.5),
    ]
    with pytest.raises(ValueError, match="mismatch"):
        compare_runs(rows)


def test_compare_runs_renders_published_scale_numbers():
    rows = [
        ProbeReport(CLS_TASK, "m-eurosat", "Random Init.", "top1", 69.53),
        ProbeReport(CLS_TASK, "m-eurosat", "MAE Single", "top1", 78.00),
        ProbeReport(CLS_TASK, "m-eurosat", "OFA-Net", "top1", 81.00),
    ]
    table = compare_runs(rows)
    assert "69.53" in table and "78" in table and "81" in table
    assert "m-eurosat" in table


def test_report_line_roundtrip():
    r = ProbeReport(SEG_TASK, "enmap", "ofa", "miou", 0.625)
    back = parse_report_line(r.line())
    assert back.task == r.task and back.dataset == r.dataset
    assert back.method == r.method and back.metric == r.metric
    assert back.value == pytest.approx(r.value)
