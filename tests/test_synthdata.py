import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofanet import synthdata as sd
from ofanet.modalities import builtin_modalities, default_registry
from ofanet.seeds import derive_seed


REG = default_registry()
S1 = REG.lookup("sentinel1")
NAIP = REG.lookup("naip")
ENMAP = REG.lookup("enmap")


def _lag1_autocorr(field: np.ndarray) -> float:
    f = field - field.mean()
    horiz = np.corrcoef(f[:, :-1].ravel(), f[:, 1:].ravel())[0, 1]
    vert = np.corrcoef(f[:-1, :].ravel(), f[1:, :].ravel())[0, 1]
    return (abs(horiz) + abs(vert)) / 2.0


def _fields(key: int, c: int, size: int, passes: int) -> np.ndarray:
    return sd._texture_fields(np.random.Generator(np.random.PCG64(key)), c, size, size, passes)


def test_texture_fields_unsmoothed_are_standardized():
    # one field per band, and fields interpolated over spectral knots
    for c in (S1.channels, ENMAP.channels):
        fields = _fields(derive_seed("t", 1), c, 64, 0)
        assert fields.shape == (c, 64, 64)
        np.testing.assert_allclose(fields.mean(axis=(1, 2)), 0.0, atol=1e-9)
        np.testing.assert_allclose(fields.var(axis=(1, 2)), 1.0, atol=1e-9)


def test_texture_fields_deterministic():
    key = derive_seed("t", 2)
    np.testing.assert_array_equal(_fields(key, 3, 32, 3), _fields(key, 3, 32, 3))


def test_texture_fields_smoothing_raises_autocorrelation():
    key = derive_seed("t", 3)
    rough = _fields(key, 1, 64, 0)[0]
    smooth = _fields(key, 1, 64, 8)[0]
    assert _lag1_autocorr(smooth) > _lag1_autocorr(rough)


def test_pretrain_sample_shape_and_determinism():
    a = sd.gen_pretrain_sample(S1, 42, 0)
    assert a.image.shape == (32, 32, 2)
    assert a.image.dtype == np.float32
    b = sd.gen_pretrain_sample(S1, 42, 0)
    np.testing.assert_array_equal(a.image, b.image)


def test_pretrain_sample_index_sensitivity():
    a = sd.gen_pretrain_sample(ENMAP, 42, 0)
    b = sd.gen_pretrain_sample(ENMAP, 42, 1)
    assert not np.array_equal(a.image, b.image)


def test_pretrain_sample_clamped():
    img = sd.gen_pretrain_sample(ENMAP, 7, 3).image
    assert img.min() >= -3.0
    assert img.max() <= 3.0


def test_all_builtin_channel_counts_respected():
    for spec in builtin_modalities():
        sample = sd.gen_pretrain_sample(spec, 1, 0, size=16)
        assert sample.image.shape == (16, 16, spec.channels)


def test_cls_dataset_balanced_and_deterministic():
    data = sd.gen_cls_dataset(NAIP, 100, 4, 42)
    counts = np.bincount([s.label for s in data], minlength=4)
    np.testing.assert_array_equal(counts, [25, 25, 25, 25])
    again = sd.gen_cls_dataset(NAIP, 100, 4, 42)
    assert [s.label for s in data] == [s.label for s in again]
    np.testing.assert_array_equal(data[0].image, again[0].image)


def test_cls_dataset_centroids_separated():
    data = sd.gen_cls_dataset(S1, 80, 4, 11)
    feats = np.stack([s.image.mean(axis=(0, 1)) for s in data])
    labels = np.array([s.label for s in data])
    centroids = np.stack([feats[labels == k].mean(axis=0) for k in range(4)])
    dists = [
        np.linalg.norm(centroids[i] - centroids[j])
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    assert min(dists) >= 0.3


def test_cls_dataset_rejects_too_many_classes():
    with pytest.raises(ValueError, match="255"):
        sd.gen_cls_dataset(NAIP, 300, 256, 1)


def test_raw_channel_means_linearly_separable():
    # independent solvability oracle: plain logistic regression on channel
    # means must reach 80% before any model code is trusted
    data = sd.gen_cls_dataset(NAIP, 200, 4, 5)
    feats = np.stack([s.image.mean(axis=(0, 1)) for s in data]).astype(np.float64)
    labels = np.array([s.label for s in data])
    w = np.zeros((feats.shape[1], 4))
    b = np.zeros(4)
    onehot = np.eye(4)[labels]
    for _ in range(500):
        logits = feats @ w + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(labels)
        w -= 1.0 * (feats.T @ g)
        b -= 1.0 * g.sum(axis=0)
    acc = ((feats @ w + b).argmax(axis=1) == labels).mean()
    assert acc >= 0.8


def test_hyperspectral_bands_smooth_multispectral_bands_independent():
    img = sd.gen_pretrain_sample(ENMAP, 3, 0).image.reshape(-1, 224).astype(np.float64)
    adjacent = [np.corrcoef(img[:, b], img[:, b + 1])[0, 1] for b in range(223)]
    assert min(adjacent) > 0.8
    # up to SPECTRAL_KNOTS bands every band is its own knot: no interpolation
    assert sd.spectral_knots(ENMAP.channels) == sd.SPECTRAL_KNOTS < ENMAP.channels
    assert sd.spectral_knots(NAIP.channels) == NAIP.channels


def test_centred_pixels_linearly_separable_for_segmentation():
    # solvability oracle for the seg sets: a per-pixel linear classifier on
    # pixels minus their image mean (which removes the scene shift)
    data = sd.gen_seg_dataset(NAIP, 60, 2, 5)
    px = np.stack([s.image for s in data]).astype(np.float64)
    px = (px - px.mean(axis=(1, 2), keepdims=True)).reshape(-1, NAIP.channels)
    masks = np.stack([s.mask for s in data]).reshape(-1)
    train, held = slice(0, 40 * 32 * 32), slice(40 * 32 * 32, None)
    w = np.zeros(NAIP.channels)
    b = 0.0
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(px[train] @ w + b)))
        g = p - masks[train]
        w -= 0.5 * px[train].T @ g / g.size
        b -= 0.5 * g.mean()
    pred = (px[held] @ w + b > 0).astype(np.uint8)
    ious = [
        np.logical_and(pred == c, masks[held] == c).sum() / np.logical_or(pred == c, masks[held] == c).sum()
        for c in (0, 1)
    ]
    assert np.mean(ious) >= 0.65


def test_seg_dataset_mask_contract():
    data = sd.gen_seg_dataset(S1, 50, 2, 42)
    for s in data:
        assert s.mask.shape == (32, 32)
        assert set(np.unique(s.mask)) <= {0, 1}
    again = sd.gen_seg_dataset(S1, 50, 2, 42)
    np.testing.assert_array_equal(data[3].mask, again[3].mask)
    np.testing.assert_array_equal(data[3].image, again[3].image)


def test_seg_dataset_both_classes_usually_present():
    data = sd.gen_seg_dataset(S1, 1000, 2, 9)
    both = sum(1 for s in data if len(np.unique(s.mask)) == 2)
    assert both >= 950


def test_resize_nearest_mask_safe():
    mask = np.arange(16, dtype=np.uint8).reshape(4, 4)
    up = sd.resize_nearest(mask[None], 8)[0]
    assert up.shape == (8, 8)
    assert set(np.unique(up)) == set(np.unique(mask))
    np.testing.assert_array_equal(up[::2, ::2], mask)
    down = sd.resize_nearest(up[None], 4)[0]
    np.testing.assert_array_equal(down, mask)


def test_resize_nearest_returns_a_stack_at_size_as_it_is():
    stack = np.arange(2 * 4 * 4 * 3, dtype=np.float32).reshape(2, 4, 4, 3)
    assert sd.resize_nearest(stack, 4) is stack
    assert sd.resize_nearest(stack[:, :, :3], 4).shape == (2, 4, 4, 3)


def test_resize_nearest_image_channels():
    img = sd.gen_pretrain_sample(NAIP, 1, 0, size=16).image
    out = sd.resize_nearest(img[None], 32)[0]
    assert out.shape == (32, 32, 3)
    # a stack resizes each image on its own, as the per-image index formula does
    stack = np.stack([sd.gen_pretrain_sample(NAIP, 1, i, size=16).image for i in range(3)])
    rows = cols = (np.arange(24) * 16) // 24
    np.testing.assert_array_equal(sd.resize_nearest(stack, 24), [im[rows][:, cols] for im in stack])


def test_generation_identical_under_parallelism(monkeypatch):
    seq = sd.gen_cls_dataset(S1, 24, 4, 3)
    monkeypatch.setenv("OFA_THREADS", "4")
    par = sd.gen_cls_dataset(S1, 24, 4, 3)
    assert [s.label for s in seq] == [s.label for s in par]
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.image, b.image)


@pytest.mark.parametrize("kind", ["pretrain", "cls", "seg"])
def test_enmap_generation_identical_under_parallelism(monkeypatch, kind):
    # every sample owns its arrays, so concurrent samples cannot share one
    gen = {"pretrain": lambda: sd.gen_pretrain_stream(ENMAP, 3, 6),
           "cls": lambda: sd.gen_cls_dataset(ENMAP, 6, 3, 3),
           "seg": lambda: sd.gen_seg_dataset(ENMAP, 6, 2, 3)}[kind]
    monkeypatch.delenv("OFA_THREADS", raising=False)
    seq = gen()
    monkeypatch.setenv("OFA_THREADS", "4")
    par = gen()
    for a, b in zip(seq, par, strict=True):
        assert a.label == b.label
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)


def test_enmap_sample_peaks_under_four_float64_images(traced_peak):
    # noise, texture fields and the image being built are the full-size
    # float64 arrays a sample needs at once, plus its float32 result
    image_bytes = 32 * 32 * ENMAP.channels * 8
    sd.gen_pretrain_sample(ENMAP, 1, 0)
    assert traced_peak(lambda: sd.gen_pretrain_sample(ENMAP, 1, 0)) < 4 * image_bytes


@pytest.mark.parametrize("size", [0, -4])
def test_generators_reject_a_size_below_one(size):
    # a size below 1 is named here, not left to fail inside numpy
    for gen in (lambda: sd.gen_pretrain_sample(NAIP, 1, 0, size=size),
                lambda: sd.gen_pretrain_stream(NAIP, 1, 2, size=size),
                lambda: sd.gen_cls_dataset(NAIP, 4, 2, 1, size=size),
                lambda: sd.gen_seg_dataset(NAIP, 4, 2, 1, size=size)):
        with pytest.raises(ValueError, match=f"^image size must be >= 1, got {size}$"):
            gen()


@pytest.mark.parametrize("kind", ["pretrain", "cls", "seg"])
def test_ofad_roundtrip_byte_identical(tmp_path, kind):
    if kind == "pretrain":
        ds = sd.stack_samples("sentinel1", sd.gen_pretrain_stream(S1, 1, 6, size=16))
    elif kind == "cls":
        ds = sd.stack_samples("sentinel1", sd.gen_cls_dataset(S1, 6, 2, 1, size=16))
    else:
        ds = sd.stack_samples("sentinel1", sd.gen_seg_dataset(S1, 6, 2, 1, size=16))
    p1 = tmp_path / "a.ofad"
    p2 = tmp_path / "b.ofad"
    sd.save_dataset(p1, ds)
    loaded = sd.load_dataset(p1)
    assert loaded.modality_id == "sentinel1"
    np.testing.assert_array_equal(loaded.images, ds.images)
    if ds.labels is not None:
        np.testing.assert_array_equal(loaded.labels, ds.labels)
    if ds.masks is not None:
        np.testing.assert_array_equal(loaded.masks, ds.masks)
    sd.save_dataset(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mid, kind, digest", [
    ("naip", "pretrain", "8905d375dd05cb306928d7e3b08b28711a197f7ac076f413bf09b6cf7c488148"),
    ("naip", "cls", "2dbf09da8104e998122ef3ba9633e165dab45198c6366cb9841e83d4fd1e7862"),
    ("naip", "seg", "ba2b001bdbcaf6c84a5951a22bb8f17a8941df97654f58e9fe4f72b84c5f5f43"),
    ("enmap", "pretrain", "4c6bbaa158f0171df4e654e0602c75cfc6fb0c30f61c970f1692745a42810167"),
    ("enmap", "cls", "0aa01b8c39b673882ecfa54b55d85f664fceca717b849c5a73ce5e5a3a602e80"),
    ("enmap", "seg", "ee61ac67232597c39d38a91c8084c79f092bb587d981577c9ca84b18906d55e9"),
    ("sentinel1", "pretrain", "87d3f09c61690efcc27d3ca2a957e3f0c13151ddd40e3c012809f0853292a95d"),
    ("sentinel1", "cls", "80e38e62b8b76e862e6d3a4035755953b7a5240cf3af94661689d2f4d9164478"),
    ("sentinel1", "seg", "4846f4f28100001b279b8675745e2de9984fcd7a84e086a9c7fe57fde6b1d190"),
    ("sentinel2", "pretrain", "20607e6d83ef5c72c3245c5c4d59dc548e7dd9f9478d0130a91cd0d04581746b"),
    ("sentinel2", "cls", "cb350858ec22701383a377b07c1eb78bf486626e68b02333cb2c295ed79eb5c7"),
    ("sentinel2", "seg", "36d3ca99caf2d9b652a5057efc64ea130e3480ba7f1f00cdac66071dc5100d56"),
    ("gaofen", "pretrain", "06b19b64b5bddb4dc4566951bcab41775d16b645c315d142c7ae569f0cfa3c3c"),
    ("gaofen", "cls", "46e5e1b38562e6df92a2199531bfaa135e35ad3ae96644b1f5ef8d1c3ac89e93"),
    ("gaofen", "seg", "818ca5ff181a55b20c9d777dfcb4baa4a86e37c35e0093ec43446de355429e08"),
])
def test_generated_set_bytes_pinned(tmp_path, mid, kind, digest):
    # generated pixels, labels and masks, through the OFAD writer: every
    # builtin modality (2 to 224 bands), each generator once
    spec = REG.lookup(mid)
    samples = {"pretrain": lambda: sd.gen_pretrain_stream(spec, 31, 3),
               "cls": lambda: sd.gen_cls_dataset(spec, 4, 2, 31),
               "seg": lambda: sd.gen_seg_dataset(spec, 3, 2, 31)}[kind]()
    path = tmp_path / "set.ofad"
    sd.save_dataset(path, sd.stack_samples(mid, samples))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mid", ["naip", "gaofen", "enmap", "sentinel2"])
def test_ofad_load_holds_one_copy_of_the_images(tmp_path, mid):
    # ids of 4, 6, 5 and 9 letters put the sample data at every offset mod 4
    spec = REG.lookup(mid)
    for kind, samples in (("pretrain", sd.gen_pretrain_stream(spec, 1, 3, size=8)),
                          ("cls", sd.gen_cls_dataset(spec, 3, 2, 1, size=8)),
                          ("seg", sd.gen_seg_dataset(spec, 3, 2, 1, size=8))):
        path = tmp_path / f"{kind}.ofad"
        sd.save_dataset(path, sd.stack_samples(mid, samples))
        images = sd.load_dataset(path).images
        assert images.dtype == np.float32
        assert images.flags.c_contiguous and images.flags.aligned and images.flags.writeable
        # every kind's images are read straight into their own array
        assert images.flags.owndata


@pytest.mark.parametrize("kind", ["pretrain", "cls", "seg"])
def test_ofad_load_peaks_at_one_copy_of_the_images(tmp_path, traced_peak, kind):
    # no file-sized buffer beside the images, and no copy out of the records
    samples = {"pretrain": lambda: sd.gen_pretrain_stream(ENMAP, 1, 4),
               "cls": lambda: sd.gen_cls_dataset(ENMAP, 4, 2, 1),
               "seg": lambda: sd.gen_seg_dataset(ENMAP, 4, 2, 1)}[kind]()
    path = tmp_path / f"{kind}.ofad"
    sd.save_dataset(path, sd.stack_samples("enmap", samples))
    image_bytes = 4 * 32 * 32 * ENMAP.channels * 4
    assert traced_peak(lambda: sd.load_dataset(path)) <= 1.05 * image_bytes


@pytest.mark.parametrize("shape, field", [((2**32, 1, 1, 1), "n"), ((1, 2**16, 1, 1), "h"),
                                          ((1, 1, 2**16, 1), "w"), ((1, 1, 1, 2**16), "c")])
def test_ofad_save_names_a_shape_beyond_the_header(tmp_path, shape, field):
    # u32 n and u16 h, w, c; a zero-stride view gives the shape without its bytes
    limit = max(shape) - 1
    images = np.broadcast_to(np.float32(0), shape)
    with pytest.raises(ValueError, match=f"^OFAD header field {field} must be <= {limit}, got {limit + 1}$"):
        sd.save_dataset(tmp_path / "wide.ofad", sd.LoadedDataset("naip", images))
    assert list(tmp_path.iterdir()) == []
    sd._check_ofad_shape(*(min(x, limit) for x in shape))


def test_ofad_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ofad"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="OFAD"):
        sd.load_dataset(bad)


@pytest.fixture(scope="module")
def small_ofad_files(tmp_path_factory):
    """Valid OFAD bytes per label kind, and a directory for cut copies."""
    where = tmp_path_factory.mktemp("ofad")
    sets = {
        "pretrain": sd.gen_pretrain_stream(S1, 1, 3, size=8),
        "cls": sd.gen_cls_dataset(S1, 3, 2, 1, size=8),
        "seg": sd.gen_seg_dataset(S1, 3, 2, 1, size=8),
    }
    full = {}
    for kind, samples in sets.items():
        sd.save_dataset(where / f"{kind}.ofad", sd.stack_samples("sentinel1", samples))
        full[kind] = (where / f"{kind}.ofad").read_bytes()
    return full, where


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pretrain", "cls", "seg"]), data=st.data())
def test_ofad_truncated_anywhere_names_path_and_offset(small_ofad_files, kind, data):
    full, where = small_ofad_files
    raw = full[kind]
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path = where / "cut.ofad"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path)) + r": truncated OFAD file: .* at byte offset \d+$"):
        sd.load_dataset(path)


# magic, version, id length, "sentinel1", then u32 n and u16 h, w, c before the kind byte
_H_AT = 4 + 2 + 4 + len("sentinel1") + 4
_KIND_AT = _H_AT + 2 + 2 + 2


@pytest.mark.parametrize(
    "at, value, message",
    [
        (_KIND_AT, 7, f"unknown label kind 7 at byte offset {_KIND_AT}"),
        (_H_AT, 0, f"empty image shape 0x8x2 at byte offset {_KIND_AT + 1}"),
    ],
)
def test_ofad_rejects_corrupt_header(small_ofad_files, at, value, message):
    full, where = small_ofad_files
    raw = bytearray(full["pretrain"])
    assert raw[_KIND_AT] == sd.LABEL_NONE and raw[_H_AT] == 8
    raw[at] = value
    path = where / "corrupt.ofad"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        sd.load_dataset(path)


def test_ofad_size_is_checked_before_anything_is_allocated(tmp_path, traced_peak):
    # a header that claims 2**32 - 1 samples over a one-sample body
    path = tmp_path / "claims.ofad"
    sd.save_dataset(path, sd.stack_samples("sentinel1", sd.gen_pretrain_stream(S1, 1, 1, size=8)))
    raw = bytearray(path.read_bytes())
    raw[_H_AT - 4 : _H_AT] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(raw))
    record = 4 * 8 * 8 * 2
    message = (f"{path}: truncated OFAD file: {2**32 - 1} samples of {record} bytes needs "
               f"{(2**32 - 1) * record} bytes, {record} left at byte offset {_KIND_AT + 1}")

    def load():
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            sd.load_dataset(path)

    assert traced_peak(load) < 1_000_000


def test_ofad_header_bit_flips_load_or_name_the_path(small_ofad_files):
    # every bit of every header byte, for each label kind
    full, where = small_ofad_files
    path = where / "flipped.ofad"
    for kind, raw in full.items():
        for at in range(_KIND_AT + 1):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[at] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                try:
                    sd.load_dataset(path)
                except ValueError as exc:
                    assert str(exc).startswith(f"{path}: "), (kind, at, bit, exc)
                except Exception as exc:
                    pytest.fail(f"{kind} byte {at} bit {bit}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("kind", ["pretrain", "cls", "seg"])
@pytest.mark.parametrize("value, shown", [(1e20, "1e+20"), (-3.5, "-3.5")])
def test_ofad_rejects_out_of_range_pixels_with_sample_index(small_ofad_files, kind, value, shown):
    # finite, but outside the [-3, 3] the generator clamps to
    full, where = small_ofad_files
    loaded = sd.load_dataset(where / f"{kind}.ofad")
    loaded.images[2, 5, 1, 1] = value
    path = where / "out_of_range.ofad"
    sd.save_dataset(path, loaded)
    record = 4 * 8 * 8 * 2 + {"pretrain": 0, "cls": 2, "seg": 8 * 8}[kind]
    at = _KIND_AT + 1 + 2 * record
    message = f"{path}: sample 2 has pixel {shown} outside [-3, 3] at byte offset {at}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sd.load_dataset(path)
    # the edges of the range load
    loaded.images[2, 5, 1, 1] = sd.IMAGE_CLAMP
    loaded.images[1, 0, 0, 0] = -sd.IMAGE_CLAMP
    sd.save_dataset(path, loaded)
    assert sd.load_dataset(path).images.tobytes() == loaded.images.tobytes()


def test_ofad_empty_set_loads(tmp_path):
    path = tmp_path / "empty.ofad"
    sd.save_dataset(path, sd.LoadedDataset("sentinel1", np.zeros((0, 8, 8, 2), dtype=np.float32)))
    assert sd.load_dataset(path).images.shape == (0, 8, 8, 2)


@pytest.mark.parametrize("kind", ["pretrain", "cls", "seg"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ofad_rejects_non_finite_pixels_with_sample_index(small_ofad_files, kind, value):
    full, where = small_ofad_files
    loaded = sd.load_dataset(where / f"{kind}.ofad")
    loaded.images[2, 5, 1, 1] = value
    path = where / "non_finite.ofad"
    sd.save_dataset(path, loaded)
    record = 4 * 8 * 8 * 2 + {"pretrain": 0, "cls": 2, "seg": 8 * 8}[kind]
    at = _KIND_AT + 1 + 2 * record
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample 2 has non-finite pixels at byte offset {at}")):
        sd.load_dataset(path)
