"""Linear probing of frozen features: classification and segmentation heads,
their metrics, and cross-run comparison tables.

The backbone is never trained here. Features are extracted once, in small
batches on the model's one forward path (pooled for classification, per
token for segmentation), cached as plain arrays, and a linear head is fit
on top by full-batch gradient descent with momentum, from zero init. Both
tasks share that one fit: a classification label is a one-hot row, a
segmentation token the pixel count of each class in its patch. Each epoch
runs its chain in place, and its softmax takes the row max over the k logit
columns from a class-major copy, element by element, as ``ndtensor``'s
attention does over keys: the same operations in the same order, so the
same bytes, with fewer temporaries and no per-row reduction of k values.
Labeled sets are split 80/20 by index into head-train and eval halves;
reports carry the eval-half metric only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OfaNet, forward_features, forward_tokens, patchify
from .runconfig import CLS_TASK, SEG_TASK, ProbeConfig
from .seeds import parallel_map
from .synthdata import LoadedDataset, resize_nearest

MOMENTUM = 0.9
EVAL_FRACTION = 0.2
# Images per feature graph. Small on purpose: a whole-set batch makes
# temporaries of several MB, which the allocator hands back to the kernel on
# free, so every new one faults its pages in again and runs slower.
FEATURE_CHUNK = 8


@dataclass
class LinearHead:
    weight: np.ndarray  # [d, k]
    bias: np.ndarray  # [k]


@dataclass
class ProbeReport:
    task: str
    dataset: str  # modality id or file stem
    method: str
    metric: str  # "top1" or "miou"
    value: float

    def line(self) -> str:
        """Machine-readable form: task, dataset, method, metric, value."""
        return f"{self.task}\t{self.dataset}\t{self.method}\t{self.metric}\t{self.value:.6f}"


def parse_report_line(line: str) -> ProbeReport:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise ValueError(f"report line needs 5 tab-separated fields, got {len(parts)}")
    return ProbeReport(parts[0], parts[1], parts[2], parts[3], float(parts[4]))


# ---------------------------------------------------------------------------
# metrics


def top1_accuracy(pred_classes, labels) -> float:
    pred_classes = np.asarray(pred_classes)
    labels = np.asarray(labels)
    if pred_classes.size == 0:
        raise ValueError("top1_accuracy of empty input")
    if pred_classes.shape != labels.shape:
        raise ValueError(f"length mismatch: {pred_classes.shape} vs {labels.shape}")
    return float((pred_classes == labels).mean())


def mean_iou(pred_mask, gt_mask, k: int) -> float:
    """Mean per-class IoU; classes absent from both masks are excluded.

    Accepts a single mask pair or equal-shaped stacks (aggregate confusion).
    """
    pred = np.asarray(pred_mask)
    gt = np.asarray(gt_mask)
    if pred.size == 0:
        raise ValueError("mean_iou of empty masks")
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.max() >= k or gt.max() >= k or pred.min() < 0 or gt.min() < 0:
        raise ValueError(f"mask values must be in [0, {k})")
    ious = []
    for c in range(k):
        p = pred == c
        g = gt == c
        union = np.logical_or(p, g).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(p, g).sum() / union)
    return float(np.mean(ious))


# ---------------------------------------------------------------------------
# frozen feature extraction


def extract_features(net: OfaNet, images: np.ndarray, modality: str, per_token: bool = False) -> np.ndarray:
    """[n, d] pooled (or [n, tokens, d] per-token) frozen features, computed
    on the training forward path in chunks of FEATURE_CHUNK images."""
    images = resize_nearest(images, net.dims.input_size)
    fwd = forward_tokens if per_token else forward_features

    def chunk(lo: int) -> np.ndarray:
        return fwd(net, images[lo : lo + FEATURE_CHUNK], modality).data

    return np.concatenate(parallel_map(chunk, range(0, images.shape[0], FEATURE_CHUNK)))


# ---------------------------------------------------------------------------
# heads


def _sgd_softmax(
    features: np.ndarray,
    hist: np.ndarray,
    lr: float,
    epochs: int,
) -> LinearHead:
    """Full-batch momentum descent on softmax cross-entropy against per-row
    class counts `hist` [n, k] (one-hot rows for classification, covered
    pixels per class for segmentation tokens); the loss is the mean
    cross-entropy per counted unit. Zero init, so deterministic."""
    x = features.astype(np.float64)
    hist = hist.astype(np.float64)
    w = np.zeros((x.shape[1], hist.shape[1]), dtype=np.float64)
    b = np.zeros(hist.shape[1], dtype=np.float64)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    row_counts = hist.sum(axis=1, keepdims=True)
    units = max(hist.sum(), 1.0)
    for _ in range(epochs):
        logits = x @ w
        logits += b
        # the row max over the k columns, from a class-major copy
        logits -= np.ascontiguousarray(logits.T).max(axis=0)[:, None]
        p = np.exp(logits, out=logits)
        p /= p.sum(axis=1, keepdims=True)
        p *= row_counts  # p becomes the logits' gradient
        p -= hist
        p /= units
        gw = x.T @ p
        gb = p.sum(axis=0)
        vw *= MOMENTUM
        vw += gw
        vb *= MOMENTUM
        vb += gb
        w -= lr * vw
        b -= lr * vb
    return LinearHead(weight=w, bias=b)


def train_linear_cls(features: np.ndarray, labels: np.ndarray, config: ProbeConfig) -> LinearHead:
    """Fit a [d -> k] head on cached pooled features."""
    labels = np.asarray(labels)
    k = config.k_classes
    if labels.max() >= k:
        raise ValueError(f"label {int(labels.max())} >= k_classes {k}")
    if labels.min() < 0:
        raise ValueError(f"label {int(labels.min())} < 0; labels must be class indices in [0, {k})")
    return _sgd_softmax(features, np.eye(k)[labels], config.resolved_lr, config.epochs)


def classify(head: LinearHead, features: np.ndarray) -> np.ndarray:
    return (features @ head.weight + head.bias).argmax(axis=1)


def token_label_histograms(masks: np.ndarray, patch: int, k: int) -> np.ndarray:
    """Per-token class pixel counts [n, tokens, k] for [n, h, w] masks, with
    tokens in `patchify` order."""
    blocks = patchify(masks[..., None], patch)  # [n, tokens, patch * patch]
    hist = np.zeros(blocks.shape[:2] + (k,), dtype=np.int64)
    for c in range(k):
        hist[..., c] = (blocks == c).sum(axis=-1)
    return hist


def train_linear_seg(
    token_features: np.ndarray,
    masks: np.ndarray,
    patch: int,
    config: ProbeConfig,
) -> LinearHead:
    """Fit a per-token [d -> k] head against per-pixel cross-entropy."""
    k = config.k_classes
    if masks.max() >= k:
        raise ValueError(f"mask value {int(masks.max())} >= k_classes {k}")
    if masks.min() < 0:
        raise ValueError(f"mask value {int(masks.min())} < 0; masks must hold class indices in [0, {k})")
    hist = token_label_histograms(masks, patch, k)
    n, tokens, d = token_features.shape
    return _sgd_softmax(
        token_features.reshape(n * tokens, d),
        hist.reshape(n * tokens, k),
        config.resolved_lr,
        config.epochs,
    )


def predict_seg(head: LinearHead, token_features: np.ndarray, grid: tuple[int, int], patch: int) -> np.ndarray:
    """Token argmax, broadcast to pixel blocks: [n, h, w] predicted masks."""
    n, tokens, d = token_features.shape
    gh, gw = grid
    logits = token_features.reshape(n * tokens, d) @ head.weight + head.bias
    token_pred = logits.argmax(axis=1).reshape(n, gh, gw)
    return token_pred.repeat(patch, axis=1).repeat(patch, axis=2)


# ---------------------------------------------------------------------------
# full probe runs


def _split(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise ValueError(
            f"sample count {n} < 2; a probe needs one sample to fit the head and one to evaluate it"
        )
    n_eval = max(1, int(round(EVAL_FRACTION * n)))
    idx = np.arange(n)
    return idx[: n - n_eval], idx[n - n_eval :]


def run_cls_probe(
    net: OfaNet, dataset: LoadedDataset, config: ProbeConfig, method: str
) -> tuple[LinearHead, ProbeReport]:
    if dataset.labels is None:
        raise ValueError("classification probe needs a labeled dataset")
    train_idx, eval_idx = _split(len(dataset.labels))
    feats = extract_features(net, dataset.images, dataset.modality_id)
    head = train_linear_cls(feats[train_idx], dataset.labels[train_idx], config)
    eval_acc = top1_accuracy(classify(head, feats[eval_idx]), dataset.labels[eval_idx])
    assert 0.0 <= eval_acc <= 1.0
    report = ProbeReport(
        task=CLS_TASK,
        dataset=dataset.modality_id,
        method=method,
        metric="top1",
        value=eval_acc,
    )
    return head, report


def run_seg_probe(
    net: OfaNet, dataset: LoadedDataset, config: ProbeConfig, method: str
) -> tuple[LinearHead, ProbeReport]:
    if dataset.masks is None:
        raise ValueError("segmentation probe needs a mask-labeled dataset")
    train_idx, eval_idx = _split(len(dataset.masks))
    patch = net.dims.patch_size
    feats = extract_features(net, dataset.images, dataset.modality_id, per_token=True)
    masks = resize_nearest(dataset.masks, net.dims.input_size)
    head = train_linear_seg(feats[train_idx], masks[train_idx], patch, config)
    pred = predict_seg(head, feats[eval_idx], net.dims.grid, patch)
    miou = mean_iou(pred, masks[eval_idx], config.k_classes)
    assert 0.0 <= miou <= 1.0
    report = ProbeReport(
        task=SEG_TASK,
        dataset=dataset.modality_id,
        method=method,
        metric="miou",
        value=miou,
    )
    return head, report


# ---------------------------------------------------------------------------
# comparisons


def compare_runs(reports: list[ProbeReport]) -> str:
    """Aligned table with deltas against the first (baseline) row."""
    if len(reports) < 2:
        raise ValueError("compare_runs needs at least two reports")
    first = reports[0]
    for r in reports[1:]:
        if r.task != first.task or r.dataset != first.dataset:
            raise ValueError(
                f"mismatched runs: ({first.task}, {first.dataset}) vs ({r.task}, {r.dataset})"
            )
    name_width = max(len(r.method) for r in reports) + 2
    lines = [
        f"task={first.task} dataset={first.dataset} metric={first.metric}",
        f"{'method'.ljust(name_width)}{'value':>10}  {'delta':>8}",
    ]
    for i, r in enumerate(reports):
        delta = "--" if i == 0 else f"{r.value - first.value:+.4g}"
        lines.append(f"{r.method.ljust(name_width)}{r.value:>10.4g}  {delta:>8}")
    return "\n".join(lines)
