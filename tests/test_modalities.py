import pytest

from ofanet.modalities import (
    ModalityRegistry,
    ModalitySpec,
    builtin_modalities,
    default_registry,
)


EXPECTED = {"sentinel1": 2, "sentinel2": 9, "gaofen": 4, "naip": 3, "enmap": 224}


def test_builtins_match_published_channel_counts_and_sizes():
    specs = {s.id: s for s in builtin_modalities()}
    assert list(specs) == list(EXPECTED)
    for mid, channels in EXPECTED.items():
        assert specs[mid] == ModalitySpec(mid, channels)


def test_builtin_lookups():
    reg = default_registry()
    assert reg.lookup("sentinel1").channels == 2
    assert reg.lookup("enmap").channels == 224


def test_builtins_stable_across_calls():
    assert builtin_modalities() == builtin_modalities()


def test_register_roundtrip():
    reg = default_registry()
    reg.register(ModalitySpec("thermal", channels=1))
    assert reg.lookup("thermal") == ModalitySpec("thermal", channels=1)


def test_register_duplicate_rejected():
    reg = default_registry()
    with pytest.raises(ValueError, match="naip"):
        reg.register(ModalitySpec("naip", channels=3))


def test_register_zero_channels_rejected():
    reg = default_registry()
    with pytest.raises(ValueError, match="channels"):
        reg.register(ModalitySpec("broken", channels=0))


def test_register_dotted_id_rejected():
    # "naip.x" would share the "embedder.naip." parameter-name prefix
    with pytest.raises(ValueError, match="dot-free"):
        default_registry().register(ModalitySpec("naip.x", channels=3))


def test_unknown_lookup_names_candidates():
    with pytest.raises(KeyError, match="thermal"):
        default_registry().lookup("thermal")
