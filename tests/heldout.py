"""Held-out masked-reconstruction loss of a net, beside two trivial baselines.

Per modality, the net reconstructs ``COUNT`` fresh pretraining images that
no run trains on (indices from ``START`` under the default run seed) under
fixed 0.75 masks, one mask key per image. Three masked MSEs come back:

- ``model``: the net's own reconstruction, ``mim_forward_batch`` off the tape;
- ``zero``: predicting 0 for every masked pixel;
- ``visible_mean``: predicting each band's mean over the image's visible
  pixels.

The last two are the floors a net must clear to show that it reads context
from the visible patches rather than copying their average. Run it on a
trained checkpoint with::

    PYTHONPATH=src:tests python -c "import heldout; heldout.main('run/checkpoint-final.ofac')"
"""

from __future__ import annotations

import numpy as np

from ofanet import checkpoint as ckpt
from ofanet import model as m
from ofanet import ndtensor as ndt
from ofanet.modalities import default_registry
from ofanet.seeds import derive_seed
from ofanet.synthdata import gen_pretrain_sample

SEED = 42
START = 100_000
COUNT = 64
RATIO = 0.75
CHUNK = 16  # images per graph; the loss is a mean over equal chunks


def heldout_stream(net: m.OfaNet, modality: str, count: int = COUNT) -> np.ndarray:
    """[count, n, p*p*c] patch rows of the held-out images."""
    spec = default_registry().lookup(modality)
    size = net.dims.input_size
    images = np.stack([gen_pretrain_sample(spec, SEED, START + i, size=size).image for i in range(count)])
    return m.patchify(images, net.dims.patch_size)


def heldout_losses(net: m.OfaNet, modality: str, count: int = COUNT) -> dict[str, float]:
    """The model's, the zero predictor's and the visible mean's masked MSE."""
    stream = heldout_stream(net, modality, count)
    keys = [derive_seed("heldout", i) for i in range(count)]
    masked, visible = m.draw_masks(net.dims.tokens, RATIO, keys)
    samples = np.arange(count)[:, None]
    bands = net.channels[modality]
    # [count, masked pixels, bands]: patch rows hold their pixels band-fastest
    target = stream[samples, masked].reshape(count, -1, bands).astype(np.float64)
    band_means = stream[samples, visible].reshape(count, -1, bands).mean(axis=1, dtype=np.float64)
    chunks = range(0, count, CHUNK)
    with ndt.no_grad():
        model = [
            m.mim_forward_batch(net, stream, modality, np.arange(i, min(i + CHUNK, count)), RATIO,
                                keys[i : i + CHUNK]).item()
            for i in chunks
        ]
    sizes = [min(CHUNK, count - i) for i in chunks]
    return {
        "model": float(np.average(model, weights=sizes)),
        "zero": float(np.mean(target * target)),
        "visible_mean": float(np.mean((target - band_means[:, None]) ** 2)),
    }


def main(checkpoint: str) -> None:
    """Print one line per modality of a checkpoint's net."""
    net, _ = ckpt.load_net(checkpoint)
    for modality in net.channels:
        r = heldout_losses(net, modality)
        print(f"{modality}\tmodel {r['model']:.4f}\tzero {r['zero']:.4f}\tvisible_mean {r['visible_mean']:.4f}"
              f"\tmodel/zero {r['model'] / r['zero']:.3f}")
