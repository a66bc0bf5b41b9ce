import pytest

from ofanet.modalities import (
    ModalityRegistry,
    ModalitySpec,
    builtin_modalities,
    default_registry,
)


EXPECTED = {
    "sentinel1": (2, 512),
    "sentinel2": (9, 512),
    "gaofen": (4, 512),
    "naip": (3, 512),
    "enmap": (224, 128),
}


def test_builtins_match_published_channel_counts_and_sizes():
    specs = {s.id: s for s in builtin_modalities()}
    assert set(specs) == set(EXPECTED)
    for mid, (channels, native) in EXPECTED.items():
        assert specs[mid].channels == channels
        assert specs[mid].native_size == native


def test_builtin_lookups():
    reg = default_registry()
    assert reg.lookup("sentinel1").channels == 2
    enmap = reg.lookup("enmap")
    assert enmap.channels == 224
    assert enmap.native_size == 128


def test_corpus_counts_metadata():
    reg = default_registry()
    assert reg.lookup("sentinel1").corpus_count == 4_642_353
    assert reg.lookup("sentinel2").corpus_count == 977_774
    assert reg.lookup("gaofen").corpus_count == 117_450
    assert reg.lookup("naip").corpus_count == 2_332_351
    assert reg.lookup("enmap").corpus_count == 11_483


def test_builtins_stable_across_calls():
    assert builtin_modalities() == builtin_modalities()


def test_register_roundtrip():
    reg = default_registry()
    reg.register(ModalitySpec("thermal", channels=1, native_size=64))
    spec = reg.lookup("thermal")
    assert spec.channels == 1
    assert spec.native_size == 64


def test_register_duplicate_rejected():
    reg = default_registry()
    with pytest.raises(ValueError, match="naip"):
        reg.register(ModalitySpec("naip", channels=3, native_size=512))


def test_register_zero_channels_rejected():
    reg = default_registry()
    with pytest.raises(ValueError, match="channels"):
        reg.register(ModalitySpec("broken", channels=0, native_size=64))


def test_register_dotted_id_rejected():
    # "naip.x" would share the "embedder.naip." parameter-name prefix
    with pytest.raises(ValueError, match="dot-free"):
        default_registry().register(ModalitySpec("naip.x", channels=3, native_size=64))


def test_unknown_lookup_names_candidates():
    with pytest.raises(KeyError, match="thermal"):
        default_registry().lookup("thermal")
