import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofanet import checkpoint as ckpt
from ofanet import model as m
from ofanet import ndtensor as ndt
from ofanet.modalities import builtin_modalities, default_registry
from ofanet.ndtensor import Tensor
from ofanet.seeds import derive_seed, generator
from ofanet.synthdata import gen_pretrain_sample

import composed
from gradcheck import finite_diff, rel_err

REG = default_registry()
ALL_POSITIONS = np.arange(64)[None]  # every token position of a 32 px image at patch 4


def desk_dims(**kw):
    return m.ModelDims(**{**dict(input_size=32, patch_size=4, embed_dim=64, depth=4,
                                 heads=4, decoder_embed_dim=32, decoder_depth=2), **kw})


def tiny_dims():
    return m.ModelDims(input_size=16, patch_size=4, embed_dim=16, depth=2,
                       heads=4, decoder_embed_dim=8, decoder_depth=2)


def build_net(modalities=("sentinel1",), dims=None, seed=0):
    dims = dims or desk_dims()
    return m.build_ofanet(dims, [REG.lookup(mid) for mid in modalities], seed)


# ---------------------------------------------------------------------------
# patch geometry


def test_patchify_224_gives_196_rows():
    img = np.zeros((224, 224, 1), dtype=np.float32)
    assert m.patchify(img, 16).shape == (196, 256)


def test_patchify_multispectral_shape():
    img = np.zeros((32, 32, 9), dtype=np.float32)
    assert m.patchify(img, 4).shape == (64, 144)


def test_patchify_multi_patch_layout():
    # row i*cols+j is patch (i, j), flattened row-major with channel fastest
    rng = np.random.default_rng(3)
    img = rng.normal(size=(32, 32, 5)).astype(np.float32)
    patches = m.patchify(img, 4)
    assert patches.shape == (64, 80)
    for i in range(8):
        for j in range(8):
            block = img[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
            np.testing.assert_array_equal(patches[i * 8 + j], block.reshape(-1))


def test_patchify_layout_channel_fastest():
    img = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
    rows = m.patchify(img, 2)
    # single patch, flattened row-major over (dy, dx), channel fastest
    np.testing.assert_array_equal(rows[0], img.reshape(-1))


def test_patchify_batch_equals_stacked_images():
    rng = np.random.default_rng(31)
    imgs = rng.normal(size=(3, 8, 12, 5)).astype(np.float32)
    batched = m.patchify(imgs, 4)
    assert batched.flags.c_contiguous
    np.testing.assert_array_equal(batched, np.stack([m.patchify(im, 4) for im in imgs]))


def test_patchify_rejects_indivisible():
    with pytest.raises(ValueError, match="divisible"):
        m.patchify(np.zeros((30, 30, 2), dtype=np.float32), 4)


# ---------------------------------------------------------------------------
# embed


def test_embed_shape_contract():
    net = build_net()
    img = gen_pretrain_sample(REG.lookup("sentinel1"), 1, 0).image
    tokens = m.embed_patches(net, m.patchify(img[None], 4), ALL_POSITIONS, "sentinel1")
    assert tokens.shape == (1, 64, 64)
    assert net.dims.grid == (8, 8)


def test_embed_zero_image_equals_positional_table():
    net = build_net()
    for positions in (np.tile(np.arange(64), (2, 1)), np.arange(64)):  # [b, k], and [k] for every sample
        tokens = m.embed_patches(net, np.zeros((2, 64, 32), dtype=np.float32), positions, "sentinel1")
        np.testing.assert_array_equal(tokens.data, np.broadcast_to(net.backbone_pos.data, (2, 64, 64)))
    # visible rows take their own positions' rows of the table
    visible = np.array([[9, 2, 40]])
    tokens = m.embed_patches(net, np.zeros((1, 3, 32), dtype=np.float32), visible, "sentinel1")
    np.testing.assert_array_equal(tokens.data[0], net.backbone_pos.data[visible[0]])


def test_enmap_embedder_weight_shape_forced_by_channels():
    net = build_net(("enmap",))
    assert net.params["embedder.enmap.weight"].shape == (3584, 64)


def test_wide_reconstruction_head_keeps_backward_gain_order_one():
    net = build_net(("naip", "enmap"))
    head = net.params["decoder.enmap.head.weight"].data  # [32, 3584]
    assert np.abs(head).max() <= np.sqrt(6.0 / (32 + 3584))
    # sum_k w_jk^2 is the gain from the loss back into the decoder's last
    # hidden state; U(+-1/sqrt(32)) would make it about 37
    assert (head.astype(np.float64) ** 2).sum(axis=1).mean() < 3.0
    naip_head = net.params["decoder.naip.head.weight"].data  # [32, 48]: plain fan-in bound
    assert np.sqrt(6.0 / (32 + 3584)) < np.abs(naip_head).max() <= 1.0 / np.sqrt(32)


def test_embed_unknown_modality():
    net = build_net()
    with pytest.raises(KeyError, match="gaofen"):
        m.embed_patches(net, np.zeros((1, 64, 64), dtype=np.float32), ALL_POSITIONS, "gaofen")
    with pytest.raises(KeyError, match="gaofen"):
        m.forward_tokens(net, np.zeros((1, 32, 32, 4), dtype=np.float32), "gaofen")


def test_embed_channel_mismatch():
    net = build_net()
    with pytest.raises(ValueError, match="2"):
        m.forward_tokens(net, np.zeros((1, 32, 32, 3), dtype=np.float32), "sentinel1")
    # 3-band patch rows, 4 * 4 * 3 wide, where sentinel1's are 32 wide
    with pytest.raises(ValueError, match="2 bands"):
        m.embed_patches(net, np.zeros((1, 64, 48), dtype=np.float32), ALL_POSITIONS, "sentinel1")


def test_embed_requires_resized_input():
    net = build_net()
    with pytest.raises(ValueError, match="resized"):
        m.forward_tokens(net, np.zeros((1, 64, 64, 2), dtype=np.float32), "sentinel1")
    # a 16x16 image's 16 patch rows against a 32x32 image's 64 positions
    with pytest.raises(ValueError, match=r"\(1, 16, 32\) and \(1, 64\)"):
        m.embed_patches(net, np.zeros((1, 16, 32), dtype=np.float32), ALL_POSITIONS, "sentinel1")


# ---------------------------------------------------------------------------
# masking


def test_random_mask_counts_196():
    masked, visible = m.draw_masks(196, 0.75, [1])
    assert len(masked[0]) == 147
    assert len(visible[0]) == 49


def test_random_mask_counts_64():
    masked, visible = m.draw_masks(64, 0.75, [1])
    assert len(masked[0]) == 48
    assert len(visible[0]) == 16


def test_random_mask_deterministic_and_disjoint():
    a_masked, a_visible = m.draw_masks(64, 0.75, [9])
    b_masked, _ = m.draw_masks(64, 0.75, [9])
    np.testing.assert_array_equal(a_masked, b_masked)
    assert set(a_masked[0]) | set(a_visible[0]) == set(range(64))
    assert not set(a_masked[0]) & set(a_visible[0])


def test_random_mask_positionwise_frequency():
    n, draws = 64, 10_000
    masked, _ = m.draw_masks(n, 0.75, [derive_seed("freq", i) for i in range(draws)])
    freq = np.bincount(masked.ravel(), minlength=n) / draws
    assert freq.min() >= 0.73
    assert freq.max() <= 0.77


def test_random_mask_degenerate_ratios():
    with pytest.raises(ValueError):
        m.draw_masks(4, 0.01, [1])  # rounds to zero masked
    with pytest.raises(ValueError):
        m.draw_masks(4, 0.99, [1])  # rounds to zero visible
    with pytest.raises(ValueError):
        m.draw_masks(4, 1.5, [1])


# ---------------------------------------------------------------------------
# encode / decode


def _visible_tokens(net, img, modality, visible):
    """The embedded visible rows of one image as a batch of 1."""
    patches = m.patchify(img[None], net.dims.patch_size)
    return m.embed_patches(net, patches[0, visible], visible, modality)


def _masked_tokens(net, img, modality, key):
    """(visible tokens, masked, visible) for one image as a batch of 1."""
    masked, visible = m.draw_masks(net.dims.tokens, 0.75, [key])
    return _visible_tokens(net, img, modality, visible), masked, visible


def test_encode_shape_and_determinism():
    net = build_net()
    img = gen_pretrain_sample(REG.lookup("sentinel1"), 2, 0).image
    tokens, _, _ = _masked_tokens(net, img, "sentinel1", 5)
    out1 = m.encode_tokens(net, tokens)
    out2 = m.encode_tokens(net, tokens)
    assert out1.shape == (1, 16, 64)
    np.testing.assert_array_equal(out1.data, out2.data)
    ndt.active_tape().clear()


def test_encode_49_visible_tokens_shape():
    # 14x14 grid with 0.75 masking leaves 49 visible rows
    dims = desk_dims(input_size=56)
    net = m.build_ofanet(dims, [REG.lookup("sentinel1")], seed=0)
    img = np.random.default_rng(0).normal(size=(56, 56, 2)).astype(np.float32)
    tokens, _, _ = _masked_tokens(net, img, "sentinel1", 3)
    assert m.encode_tokens(net, tokens).shape == (1, 49, 64)
    ndt.active_tape().clear()


def test_encode_permutation_equivariant():
    net = build_net()
    img = gen_pretrain_sample(REG.lookup("sentinel1"), 3, 1).image
    tokens, _, visible = _masked_tokens(net, img, "sentinel1", 11)
    out = m.encode_tokens(net, tokens).data

    perm = np.random.default_rng(1).permutation(visible.shape[1])
    out_shuffled = m.encode_tokens(net, _visible_tokens(net, img, "sentinel1", visible[:, perm])).data
    unshuffled = np.empty_like(out_shuffled)
    unshuffled[:, perm] = out_shuffled
    np.testing.assert_allclose(unshuffled, out, atol=1e-5)
    ndt.active_tape().clear()


def test_decode_output_shapes():
    # the decoder answers the 48 masked rows at its own width; the
    # modality's head then maps them to patch rows
    for mid, ppc in (("naip", 48), ("enmap", 3584)):
        net = build_net((mid,))
        img = gen_pretrain_sample(REG.lookup(mid), 4, 0).image
        tokens, masked, visible = _masked_tokens(net, img, mid, 2)
        hidden = m.decode_tokens(net, m.encode_tokens(net, tokens), masked, visible, mid)
        assert hidden.shape == (1, 48, 32)
        assert ndt.linear(hidden, *_head(net, mid)).shape == (1, 48, ppc)
        ndt.active_tape().clear()


def test_decode_mask_token_ablation():
    net = build_net(("naip",))
    img = gen_pretrain_sample(REG.lookup("naip"), 5, 0).image
    tokens, masked, visible = _masked_tokens(net, img, "naip", 7)
    latent = m.encode_tokens(net, tokens)
    pred = m.decode_tokens(net, latent, masked, visible, "naip").data.copy()

    token = net.params["decoder.naip.mask_token"]
    net.params["decoder.naip.mask_token"] = Tensor(np.zeros_like(token.data), requires_grad=True)
    pred_zeroed = m.decode_tokens(net, latent, masked, visible, "naip").data
    diff_masked = np.linalg.norm(pred - pred_zeroed)  # the decoder answers the masked rows alone
    assert diff_masked > 0
    ndt.active_tape().clear()


def test_decode_rejects_rows_that_are_not_a_split():
    # visible rows 0..15 with masked rows that repeat row 0 and leave out
    # row 16 would decode position 0 twice and position 16 never
    net = build_net(("naip",))
    img = gen_pretrain_sample(REG.lookup("naip"), 5, 0).image
    visible = np.arange(16)[None]
    latent = m.encode_tokens(net, _visible_tokens(net, img, "naip", visible))
    overlapping = np.concatenate([[0], np.arange(17, 64)])[None]
    with pytest.raises(ValueError, match="repeat"):
        m.decode_tokens(net, latent, overlapping, visible, "naip")
    with pytest.raises(ValueError, match="split of 64"):
        m.decode_tokens(net, latent, overlapping[:, 1:], visible, "naip")
    ndt.active_tape().clear()


def test_decode_unknown_modality():
    net = build_net(("naip",))
    img = gen_pretrain_sample(REG.lookup("naip"), 5, 0).image
    tokens, masked, visible = _masked_tokens(net, img, "naip", 7)
    latent = m.encode_tokens(net, tokens)
    with pytest.raises(KeyError, match="sentinel2"):
        m.decode_tokens(net, latent, masked, visible, "sentinel2")
    ndt.active_tape().clear()


# ---------------------------------------------------------------------------
# loss


def _head(net, modality):
    """The modality's reconstruction head: (weight, bias)."""
    return net.params[f"decoder.{modality}.head.weight"], net.params[f"decoder.{modality}.head.bias"]


def _mim_loss(pred: Tensor, target: np.ndarray, masked) -> Tensor:
    """The MIM loss of full-row predictions: the masked rows gathered, then
    ``linear_mse`` under an identity head, which changes no value."""
    b, _, width = target.shape
    return ndt.linear_mse(ndt.gather_rows_batch(pred, masked), Tensor(np.eye(width)), Tensor(np.zeros(width)),
                          target, np.arange(b), masked)


def test_mim_loss_perfect_reconstruction():
    target = np.random.default_rng(1).normal(size=(1, 8, 6)).astype(np.float32)
    loss = _mim_loss(Tensor(target.copy()), target, [[1, 3, 5]])
    assert loss.item() == 0.0


def test_mim_loss_ignores_visible_rows():
    target = np.random.default_rng(2).normal(size=(1, 8, 6)).astype(np.float32)
    pred = target.copy()
    pred[0, [0, 2, 4, 6, 7]] = 99.0  # garbage on visible rows only
    loss = _mim_loss(Tensor(pred), target, [[1, 3, 5]])
    assert loss.item() == 0.0


def test_mim_loss_constant_offset():
    target = np.random.default_rng(3).normal(size=(1, 8, 6)).astype(np.float32)
    loss = _mim_loss(Tensor(target + 1.0), target, [[0, 5]])
    assert loss.item() == pytest.approx(1.0, abs=1e-6)


def test_mim_loss_gradient_zero_at_visible_rows():
    target = np.random.default_rng(4).normal(size=(1, 8, 6)).astype(np.float32)
    pred = Tensor(np.zeros((1, 8, 6), dtype=np.float32), requires_grad=True)
    masked = np.array([1, 3, 5])
    ndt.backward(_mim_loss(pred, target, masked[None]))
    visible = np.setdiff1d(np.arange(8), masked)
    np.testing.assert_array_equal(pred.grad[0, visible], 0.0)
    assert np.all(pred.grad[0, masked] != 0.0)


def test_mim_loss_empty_mask_rejected():
    with pytest.raises(ValueError, match="masked"):
        _mim_loss(Tensor(np.zeros((1, 4, 2))), np.zeros((1, 4, 2)), np.zeros((1, 0), dtype=np.intp))


def test_mim_forward_batch_matches_per_sample_loop():
    # a batch of b equals the mean of b batches of 1 with the same mask keys
    net = build_net(("sentinel1",), dims=tiny_dims())
    spec = REG.lookup("sentinel1")
    patches = m.patchify(np.stack([gen_pretrain_sample(spec, 21, i, size=16).image for i in range(4)]), 4)
    keys = [derive_seed("eq", i) for i in range(4)]

    batched = m.mim_forward_batch(net, patches, "sentinel1", np.arange(4), 0.75, keys)
    ndt.backward(batched)
    grads_batched = {n: t.grad.copy() for n, t in m.named_parameters(net) if t.grad is not None}
    for _, t in m.named_parameters(net):
        t.grad = None

    total = None
    for i in range(4):
        loss = m.mim_forward_batch(net, patches, "sentinel1", [i], 0.75, keys[i : i + 1])
        total = loss if total is None else ndt.add(total, loss)
    total = composed.dot(total, 1.0 / 4)
    ndt.backward(total)

    np.testing.assert_allclose(batched.item(), total.item(), rtol=1e-5)
    for name, t in m.named_parameters(net):
        if t.grad is None:
            assert name not in grads_batched
            continue
        np.testing.assert_allclose(grads_batched[name], t.grad, rtol=1e-4, atol=1e-6)


def _image_path_loss(net, images, modality, ratio, keys):
    """The MIM loss as an image path composes it: the step patchifies the
    images, gathers their visible rows with their positions' rows of the
    table for the embed, runs the head as ``linear`` and takes an unmasked MSE
    (``composed.unmasked_mse``) over the masked rows."""
    patches = m.patchify(images, net.dims.patch_size)
    weight, bias = (net.params[f"embedder.{modality}.{k}"] for k in ("weight", "bias"))
    masked, visible = m.draw_masks(net.dims.tokens, ratio, keys)
    samples = np.arange(len(images))[:, None]
    pos = Tensor(net.backbone_pos.data[visible])
    tokens = ndt.add(ndt.linear(Tensor(patches[samples, visible]), weight, bias), pos)
    hidden = m.decode_tokens(net, m.encode_tokens(net, tokens), masked, visible, modality)
    return composed.unmasked_mse(ndt.linear(hidden, *_head(net, modality)), Tensor(patches[samples, masked]))


@pytest.mark.parametrize("modality", ["naip", "enmap"])
def test_patch_row_path_matches_image_path_bytes(modality):
    # a batch gathered from a stream patchified once at load trains exactly
    # as the same images gathered and patchified in the step
    net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=3)
    spec = REG.lookup(modality)
    images = np.stack([gen_pretrain_sample(spec, 13, i).image for i in range(6)])
    stream = np.stack([m.patchify(img, 4) for img in images])
    batch = [4, 1, 5, 2]
    keys = [derive_seed("rows", i) for i in range(len(batch))]
    results = []
    for loss_of in (lambda: m.mim_forward_batch(net, stream, modality, batch, 0.75, keys),
                    lambda: _image_path_loss(net, images[batch], modality, 0.75, keys)):
        loss = loss_of()
        ndt.backward(loss)
        grads = {n: t.grad for n, t in m.named_parameters(net) if t.grad is not None}
        for _, t in m.named_parameters(net):
            t.grad = None
        results.append((loss.data.tobytes(), {n: g.tobytes() for n, g in grads.items()}))
    (loss, grads), (ref_loss, ref_grads) = results
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    assert any(name.startswith(f"embedder.{modality}.") for name in grads)
    for name in ref_grads:
        assert grads[name] == ref_grads[name], name


@pytest.mark.parametrize("modality", ["naip", "enmap"])
def test_mim_forward_batch_matches_full_row_chain(modality):
    # embedding only the visible rows and decoding only the masked ones is
    # the full-row chain, whose decoder runs per-head numpy attention, with
    # the unused rows dropped: in float64, the same loss and gradients up to
    # summation order
    with ndt.dtype_mode("float64"):
        net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=4)
        spec = REG.lookup(modality)
        stream = np.stack([m.patchify(gen_pretrain_sample(spec, 17, i).image, 4) for i in range(6)])
        batch = [3, 0, 5, 1]
        keys = [derive_seed("full-row", i) for i in range(len(batch))]
        results = []
        for loss_of in (m.mim_forward_batch, composed.full_row_mim_loss):
            loss = loss_of(net, stream, modality, batch, 0.75, keys)
            ndt.backward(loss)
            results.append((loss.item(), {n: t.grad for n, t in m.named_parameters(net) if t.grad is not None}))
            for _, t in m.named_parameters(net):
                t.grad = None
    (loss, grads), (ref_loss, ref_grads) = results
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    assert any(name.startswith(f"embedder.{modality}.") for name in grads)
    for name in ref_grads:
        assert rel_err(grads[name], ref_grads[name]) < 1e-12, name


def test_enmap_step_builds_no_full_width_token_array():
    # a desk enmap step embeds the 16 visible rows and decodes the 48 masked
    # ones against them: no tape array holds all 64 rows, and the decoder's
    # attention takes 48 queries over 16 keys. The head's output is the loss
    # difference, which only the loss node holds: no tape array is head-wide
    net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=0)
    stream = np.random.default_rng(8).normal(size=(20, 64, 3584)).astype(np.float32)
    batch = np.arange(2, 18)
    m.mim_forward_batch(net, stream, "enmap", batch, 0.75, [derive_seed("wide", i) for i in range(16)])
    tape = list(ndt.active_tape())
    ndt.active_tape().clear()
    embed_w, head_b = net.params["embedder.enmap.weight"], net.params["decoder.enmap.head.bias"]
    (embed,) = [node for node in tape if any(p is embed_w for p in node.parents)]
    (head,) = [node for node in tape if any(p is head_b for p in node.parents)]
    assert embed.parents[0].shape == (16, 16, 3584)
    assert head.parents[0].shape == (16, 48, 32) and head.out.shape == ()
    assert not [node.out.shape for node in tape if node.out.ndim > 1 and node.out.shape[-2] == 64]
    assert not [node.out.shape for node in tape if node.out.ndim and node.out.shape[-1] == 3584]
    attention = [tuple(p.shape for p in node.parents) for node in tape
                 if node.grad_fn.__qualname__.startswith("attention.")]
    assert attention == [((16, 16, 64),) * 3] * 4 + [((16, 48, 32), (16, 16, 32), (16, 16, 32))] * 2


def test_enmap_step_peak_memory_stays_near_naip(traced_peak):
    # the head's output is the loss difference, so a desk enmap step at batch
    # 16 holds one [16, 48, 3584] float32 array where a head output, a target
    # gather and a difference took three: over naip's, its traced peak of one
    # forward and backward stays under two of them
    peaks = {}
    for mid in ("naip", "enmap"):
        net = build_net((mid,), seed=3)
        images = np.stack([gen_pretrain_sample(REG.lookup(mid), 13, i).image for i in range(16)])
        stream = m.patchify(images, 4)
        keys = [derive_seed("peak", i) for i in range(16)]
        peaks[mid] = traced_peak(
            lambda: ndt.backward(m.mim_forward_batch(net, stream, mid, np.arange(16), 0.75, keys)))
    assert peaks["enmap"] - peaks["naip"] < 2 * 16 * 48 * 3584 * 4, peaks


def test_gather_rows_batch_matches_loop():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 5, 2)).astype(np.float32), requires_grad=True)
    idx = np.array([[0, 4], [1, 3], [3, 2]])
    out = ndt.gather_rows_batch(x, idx)
    for b in range(3):
        np.testing.assert_array_equal(out.data[b], x.data[b][idx[b]])
    c = rng.normal(size=(3, 2, 2)).astype(np.float32)
    ndt.backward(composed.dot(out, c))
    expected = np.zeros((3, 5, 2), dtype=np.float32)
    for b in range(3):
        for j in range(2):
            expected[b, idx[b, j]] += c[b, j]
    np.testing.assert_array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# frozen features


def test_forward_features_shape_and_pooling_consistency():
    net = build_net()
    img = gen_pretrain_sample(REG.lookup("sentinel1"), 6, 0).image[None]
    feats = m.forward_features(net, img, "sentinel1")
    tokens = m.forward_tokens(net, img, "sentinel1")
    assert feats.shape == (1, 64)
    assert tokens.shape == (1, 64, 64)
    np.testing.assert_allclose(tokens.data.mean(axis=1), feats.data, atol=1e-6)
    np.testing.assert_array_equal(
        feats.data, m.forward_features(net, img, "sentinel1").data
    )
    assert len(ndt.active_tape()) == 0  # frozen inference stays off-tape


def test_forward_features_decoder_independent():
    net = build_net()
    img = gen_pretrain_sample(REG.lookup("sentinel1"), 7, 0).image[None]
    with_dec = m.forward_features(net, img, "sentinel1").data.copy()
    tokens, masked, visible = _masked_tokens(net, img[0], "sentinel1", 7)
    latent = m.encode_tokens(net, tokens)
    net.params = {n: t for n, t in net.params.items() if not n.startswith("decoder.")}
    np.testing.assert_array_equal(with_dec, m.forward_features(net, img, "sentinel1").data)
    with pytest.raises(KeyError, match="sentinel1"):
        m.decode_tokens(net, latent, masked, visible, "sentinel1")
    ndt.active_tape().clear()


@pytest.mark.parametrize("fwd, digest", [
    (m.forward_tokens, "8069fa659fd700bb22b4807bc0854c44980ca41816229f2c9613caf95dba9dfb"),
    (m.forward_features, "dea63e13d0066cc1546c8bc902badc0a004db389625f144b7f5d01e9e56ccb45"),
])
def test_probe_path_bytes_pinned(fwd, digest):
    # every probe readout's bytes: the backbone's self-attention is attention
    # with as many keys as queries, whose float operations must stay as they
    # were before attention took keys of any length
    net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=9)
    h = hashlib.sha256()
    for spec in builtin_modalities():
        images = np.stack([gen_pretrain_sample(spec, 23, i).image for i in range(2)])
        h.update(fwd(net, images, spec.id).data.tobytes())
    assert h.hexdigest() == digest


def test_backbone_weight_sharing_across_all_modalities():
    net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=1)
    ids_before = [id(t) for n, t in m.named_parameters(net) if n.startswith("backbone.")]
    hash_before = m.backbone_hash(net)
    for spec in builtin_modalities():
        img = gen_pretrain_sample(spec, 8, 0).image[None]
        m.forward_features(net, img, spec.id)
        assert m.backbone_hash(net) == hash_before
    ids_after = [id(t) for n, t in m.named_parameters(net) if n.startswith("backbone.")]
    assert ids_before == ids_after


def test_per_modality_parameters_confined_to_embedders_and_decoders():
    net = m.build_ofanet(desk_dims(), builtin_modalities(), seed=1)
    for name, _ in m.named_parameters(net):
        head = name.split(".")[0]
        assert head in ("embedder", "backbone", "decoder")
        if head in ("embedder", "decoder"):
            assert name.split(".")[1] in net.channels


# ---------------------------------------------------------------------------
# parameter accounting


def test_parameter_count_matches_closed_form_desk():
    specs = builtin_modalities()
    net = m.build_ofanet(desk_dims(), specs, seed=0)
    expected = m.expected_parameter_count(desk_dims(), [s.channels for s in specs])
    assert m.parameter_count(net) == expected


def test_parameter_count_matches_closed_form_tiny():
    spec = REG.lookup("sentinel1")
    net = m.build_ofanet(tiny_dims(), [spec], seed=0)
    assert m.parameter_count(net) == m.expected_parameter_count(tiny_dims(), [spec.channels])


def test_init_independent_of_modality_order():
    specs = builtin_modalities()
    a = m.build_ofanet(desk_dims(), specs, seed=3)
    b = m.build_ofanet(desk_dims(), list(reversed(specs)), seed=3)
    for (name_a, ta), (name_b, tb) in zip(m.named_parameters(a), m.named_parameters(b)):
        assert name_a == name_b
        np.testing.assert_array_equal(ta.data, tb.data)


def test_build_makes_a_generator_only_for_parameters_that_draw(monkeypatch):
    # the zeros and ones entries of the desk layout draw nothing, so they get no generator
    made = []

    def counting(*parts):
        made.append(parts)
        return generator(*parts)

    specs = builtin_modalities()
    monkeypatch.setattr(m, "generator", counting)
    m.build_ofanet(desk_dims(), specs, seed=0)
    layout = list(m._layout(desk_dims(), {s.id: s.channels for s in specs}))
    drawing = [("init", 0, name) for name, _, kind in layout if kind in ("weight", "token")]
    assert len(layout) == 257
    assert made == drawing and len(made) == 104


def test_load_net_rejects_tensors_that_do_not_fit_the_net(tmp_path):
    # an extra name, a wrong shape, a missing name: each raises naming the path
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = RunConfig(train=TrainConfig(modalities=("sentinel1",)))
    net = cfg.build_net()
    full = {name: t.data for name, t in net.params.items()}
    cases = [
        ({**full, "backbone.block9.attn.wq": np.zeros((64, 64))}, "block9"),
        ({**full, "backbone.block0.attn.wq": np.zeros((2, 2))}, "shape"),
        ({"backbone.norm.gamma": np.ones(64, dtype=np.float32)}, "mismatch"),
    ]
    for i, (tensors, what) in enumerate(cases):
        path = tmp_path / f"unfit{i}.ofac"
        ckpt.write_checkpoint(path, serialize_config(cfg), tensors.items())
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + f".*{what}"):
            ckpt.load_net(path)


@pytest.mark.parametrize("value, later", [(np.nan, np.nan), (np.inf, np.inf), (-np.inf, -np.inf),
                                          (np.inf, -np.inf)], ids=["nan", "+inf", "-inf", "+inf,-inf"])
def test_load_net_rejects_non_finite_parameters(tmp_path, value, later):
    # such a net would fit a NaN probe head and report a number without a
    # word; read_checkpoint still reads the file, for inspect
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = RunConfig(train=TrainConfig(input_size=8, embed_dim=8, depth=2, heads=2, decoder_embed_dim=4,
                                      decoder_depth=1, modalities=("naip",)))
    tensors = {name: t.data.copy() for name, t in cfg.build_net().params.items()}
    tensors["backbone.block1.mlp.w1"][0, :2] = value
    tensors["decoder.naip.head.bias"][3] = later
    path = tmp_path / "bad.ofac"
    ckpt.write_checkpoint(path, serialize_config(cfg), tensors.items())
    message = f"{path}: parameter backbone.block1.mlp.w1 has 2 non-finite values"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ckpt.load_net(path)
    np.testing.assert_array_equal(ckpt.read_checkpoint(path).tensors["backbone.block1.mlp.w1"][0, :2], value)


def test_build_and_load_make_every_parameter_its_slice_of_flat(tmp_path):
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = RunConfig(train=TrainConfig(input_size=8, embed_dim=8, depth=1, heads=2, decoder_embed_dim=4,
                                      decoder_depth=1, modalities=("sentinel1", "naip")))
    built = cfg.build_net()
    built.flat += 0.01  # away from init, so a load that only rebuilt would differ
    path = tmp_path / "net.ofac"
    ckpt.save_net(path, built, serialize_config(cfg))
    tensors = ckpt.read_checkpoint(path).tensors
    loaded, _ = ckpt.load_net(path)
    for net in (built, loaded):
        assert list(net.params) == list(tensors)
        off = 0
        for name, t in net.params.items():
            assert t.data.base is net.flat, name
            assert t.data.ctypes.data == net.flat[off:].ctypes.data, name
            off += t.size
        assert off == net.flat.size
        assert net.flat.tobytes() == b"".join(a.tobytes() for a in tensors.values())


# ---------------------------------------------------------------------------
# end-to-end gradient spot check (full sweep lives in the acceptance suite)


def run_full_net_gradcheck(sample_entries=None, eps=1e-3, dtype="float64"):
    """FD-check the training loss's gradients for every parameter tensor of
    the tiny net, through mim_forward_batch on a batch of 1.

    sample_entries=None checks every entry; an int checks that many entries
    per tensor (deterministically spread). Returns max relative error seen.
    """
    with ndt.dtype_mode(dtype):
        spec = REG.lookup("sentinel1")
        net = m.build_ofanet(tiny_dims(), [spec], seed=5)
        patches = m.patchify(gen_pretrain_sample(spec, 9, 0, size=16).image[None], 4)
        mask_keys = [derive_seed("gradcheck-mask")]

        loss = m.mim_forward_batch(net, patches, "sentinel1", [0], 0.75, mask_keys)
        ndt.backward(loss)
        grads = {name: t.grad.copy() for name, t in m.named_parameters(net)}

        worst = 0.0
        for name, tensor in m.named_parameters(net):
            base = tensor.data.copy()

            def loss_at(values, tensor=tensor):
                tensor.data = values
                with ndt.no_grad():
                    out = m.mim_forward_batch(net, patches, "sentinel1", [0], 0.75, mask_keys).item()
                return out

            flat = base.reshape(-1)
            if sample_entries is None or flat.size <= sample_entries:
                idx = np.arange(flat.size)
            else:
                idx = np.linspace(0, flat.size - 1, sample_entries).astype(int)
            fd = np.zeros(idx.size)
            for j, i in enumerate(idx):
                up, down = flat.copy(), flat.copy()
                up[i] += eps
                down[i] -= eps
                fd[j] = (loss_at(up.reshape(base.shape)) - loss_at(down.reshape(base.shape))) / (2 * eps)
            tensor.data = base
            worst = max(worst, rel_err(grads[name].reshape(-1)[idx], fd))
        return worst


def test_tiny_net_grads_match_finite_difference_spot():
    assert run_full_net_gradcheck(sample_entries=4) < 1e-4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    net = build_net(("sentinel1", "naip"))
    cfg_text = "[train]\nseed = 1\nmodalities = sentinel1, naip\n"
    p1, p2 = tmp_path / "a.ofac", tmp_path / "b.ofac"
    ckpt.save_net(p1, net, cfg_text)
    loaded = ckpt.read_checkpoint(p1)
    assert loaded.config_text == cfg_text
    ckpt.write_checkpoint(p2, loaded.config_text, loaded.tensors.items())
    assert p1.read_bytes() == p2.read_bytes()


def test_read_checkpoint_tensors_own_their_data(tmp_path):
    # each tensor is read straight into its own array; no buffer holds the file
    path = tmp_path / "net.ofac"
    ckpt.save_net(path, build_net(("sentinel1", "naip")), "[train]\nseed = 1\n")
    tensors = ckpt.read_checkpoint(path).tensors
    assert [name for name, arr in tensors.items() if not arr.flags.owndata] == []


def test_load_net_peaks_no_higher_than_building_the_net(tmp_path, traced_peak):
    # the weights are read straight into net.flat: the load adds no copy of them
    from ofanet.runconfig import RunConfig, serialize_config

    cfg = RunConfig()
    path = tmp_path / "desk.ofac"
    ckpt.save_net(path, cfg.build_net(), serialize_config(cfg))
    built = traced_peak(cfg.build_net)
    assert traced_peak(lambda: ckpt.load_net(path)) <= built + 100_000


def test_checkpoint_load_restores_forward_bitwise(tmp_path):
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = TrainConfig(modalities=("sentinel1", "naip"), seed=7)
    net = m.build_ofanet(cfg.model_dims(), [REG.lookup(x) for x in cfg.modalities], cfg.seed)
    # drift the weights away from init so the test cannot pass by rebuilding
    net.flat += 0.01
    path = tmp_path / "net.ofac"
    ckpt.save_net(path, net, serialize_config(RunConfig(train=cfg)))

    img = gen_pretrain_sample(REG.lookup("naip"), 10, 0).image[None]
    before = m.forward_features(net, img, "naip").data
    restored, loaded_cfg = ckpt.load_net(path)
    assert loaded_cfg.train.seed == 7
    np.testing.assert_array_equal(before, m.forward_features(restored, img, "naip").data)


@pytest.mark.parametrize("build_order", [("naip", "sentinel1"), ("sentinel1", "naip")])
def test_checkpoint_tensor_order_and_bytes_pinned(tmp_path, build_order):
    # the parameter table's order is the file order: embedders, backbone,
    # decoders, modality ids sorted whatever the build list's order
    dims = m.ModelDims(16, 4, 16, 2, 4, 8, 2)
    net = m.build_ofanet(dims, [REG.lookup(mid) for mid in build_order], seed=0)
    path = tmp_path / "tiny.ofac"
    ckpt.save_net(path, net, "[train]\nseed = 0\n")
    names = list(ckpt.read_checkpoint(path).tensors)
    assert len(names) == 110
    assert names[:4] == ["embedder.naip.weight", "embedder.naip.bias",
                         "embedder.sentinel1.weight", "embedder.sentinel1.bias"]
    assert names[4] == "backbone.block0.ln1.gamma"
    assert names[-1] == "decoder.sentinel1.head.bias"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "cd8b2ecab7817f754e32e165916b544701e3c80fb742413a643364edc95163a4"


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ofac"
    bad.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError, match="OFAC"):
        ckpt.read_checkpoint(bad)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A valid OFAC file's bytes, and a directory for cut copies of it."""
    where = tmp_path_factory.mktemp("ckpt")
    tensors = [
        ("embedder.x.weight", np.arange(6, dtype=np.float32).reshape(2, 3)),
        ("scalar", np.float32(0.5)),
        ("decoder.x.bias", np.ones(4, dtype=np.float32)),
    ]
    ckpt.write_checkpoint(where / "full.ofac", "[train]\nseed = 1  # \u00e9\n", tensors)
    return (where / "full.ofac").read_bytes(), where


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_checkpoint_truncated_anywhere_names_path_and_offset(small_checkpoint, data):
    full, where = small_checkpoint
    cut = data.draw(st.integers(0, len(full) - 1), label="cut")
    path = where / "cut.ofac"
    path.write_bytes(full[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path)) + r": truncated OFAC file: .* at byte offset \d+$"):
        ckpt.read_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_ofac(tmp_path_factory):
    """A loadable OFAC of a one-modality net, and the offsets of its header,
    config, name, rank and extent bytes (everything but tensor data)."""
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = TrainConfig(input_size=8, embed_dim=8, depth=1, heads=2, decoder_embed_dim=4,
                      decoder_depth=1, modalities=("sentinel1",))
    net = m.build_ofanet(cfg.model_dims(), [REG.lookup("sentinel1")], cfg.seed)
    path = tmp_path_factory.mktemp("ofac") / "tiny.ofac"
    ckpt.save_net(path, net, serialize_config(RunConfig(train=cfg)))
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 6)
    off = 4 + 2 + 4 + cfg_len + 4
    structural = list(range(off))
    for tensor in net.params.values():  # file order
        (name_len,) = struct.unpack_from("<I", raw, off)
        head = 4 + name_len + 1 + 4 * tensor.data.ndim
        structural.extend(range(off, off + head))
        off += head + 4 * tensor.size
    assert off == len(raw)
    return raw, structural


def test_checkpoint_bit_flips_load_or_name_the_path(tiny_ofac, tmp_path):
    # bits 0 and 7 of every non-data byte: a flip may still load (a seed
    # digit, say), else it must be a ValueError that names the path once
    raw, structural = tiny_ofac
    path = tmp_path / "flipped.ofac"
    for at in structural:
        for bit in (0, 7):
            flipped = bytearray(raw)
            flipped[at] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                ckpt.load_net(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ") and str(exc).count(str(path)) == 1, (at, bit, exc)
            except Exception as exc:
                pytest.fail(f"byte {at} bit {bit}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("extents", [[0] * 97, [0] + [2**31] * 3], ids=["97-axes", "2**93-items"])
def test_checkpoint_shape_beyond_numpy_names_path(tmp_path, extents):
    # a zero extent makes the data 0 bytes, so no size check stops numpy's
    # reshape, which takes at most 64 axes and an item count that fits intp
    body = b"x" + struct.pack(f"<B{len(extents)}I", len(extents), *extents)
    path = tmp_path / "shape.ofac"
    path.write_bytes(b"OFAC" + struct.pack("<HII", 1, 0, 1) + struct.pack("<I", 1) + body)
    data_at = 4 + 2 + 4 + 4 + 4 + len(body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: x data: ") + rf".* at byte offset {data_at}$"):
        ckpt.read_checkpoint(path)


def test_checkpoint_rejects_a_repeated_tensor_name(tmp_path):
    # a second copy of a tensor must not silently replace the first on load
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    cfg = RunConfig(train=TrainConfig(input_size=8, embed_dim=8, depth=1, heads=2,
                                      decoder_embed_dim=4, decoder_depth=1, modalities=("naip",)))
    net = cfg.build_net()
    weight = net.params["embedder.naip.weight"].data
    tensors = [(n, t.data) for n, t in m.named_parameters(net)] + [("embedder.naip.weight", weight + 1.0)]
    path = tmp_path / "twice.ofac"
    ckpt.write_checkpoint(path, serialize_config(cfg), tensors)
    at = path.read_bytes().rfind(b"embedder.naip.weight")
    message = f"{path}: tensor name 'embedder.naip.weight' repeated at byte offset {at}"
    for read in (ckpt.read_checkpoint, ckpt.load_net):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            read(path)


def test_load_net_rejects_parent_format_checkpoint_with_path_and_line(tmp_path):
    # config text as written while the run config still had a [probe] section:
    # the 17 [train] keys, a blank line, then [probe] at line 20
    from ofanet.runconfig import RunConfig, TrainConfig, serialize_config

    text = serialize_config(RunConfig(train=TrainConfig(modalities=("sentinel1",))))
    text += "\n[probe]\ntask = classification\nepochs = 100\nk_classes = 4\n"
    path = tmp_path / "old.ofac"
    ckpt.save_net(path, build_net(("sentinel1",)), text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 20: unknown section [probe]")):
        ckpt.load_net(path)
