import numpy as np
import pytest

from ofanet import model as m
from ofanet import ndtensor as ndt
from ofanet.modalities import default_registry
from ofanet.seeds import derive_seed

import heldout
from test_model import tiny_dims

REG = default_registry()


@pytest.mark.parametrize("modality", ["naip", "enmap"])
def test_heldout_losses_match_a_direct_computation(modality):
    # 20 images: one full chunk of 16 and a partial one of 4
    net = m.build_ofanet(tiny_dims(), [REG.lookup(modality)], seed=3)
    count = 20
    got = heldout.heldout_losses(net, modality, count)

    stream = heldout.heldout_stream(net, modality, count)
    assert stream.shape == (count, 16, 16 * net.channels[modality])
    keys = [derive_seed("heldout", i) for i in range(count)]
    with ndt.no_grad():
        model = m.mim_forward_batch(net, stream, modality, np.arange(count), 0.75, keys).item()
    masked, visible = m.draw_masks(16, 0.75, keys)
    zero = visible_mean = 0.0
    for i in range(count):
        image = stream[i].reshape(16, 16, -1).astype(np.float64)  # [token, pixel, band]
        target = image[masked[i]]
        zero += np.mean(target**2) / count
        visible_mean += np.mean((target - image[visible[i]].mean(axis=(0, 1))) ** 2) / count
    assert got["model"] == pytest.approx(model, rel=1e-6)
    assert got["zero"] == pytest.approx(zero, rel=1e-12)
    assert got["visible_mean"] == pytest.approx(visible_mean, rel=1e-12)
    # the held-out images are standardized per image, so the visible mean
    # sits well under the zero predictor
    assert got["visible_mean"] < 0.8 * got["zero"]

