import pytest

from ofanet.runconfig import (
    ConfigError,
    ProbeConfig,
    RunConfig,
    TrainConfig,
    parse_config,
    serialize_config,
)


MINIMAL = "[train]\nseed = 7\n"


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.train.seed == 7
    assert cfg.train.input_size == 32
    assert cfg.train.patch_size == 4
    assert cfg.train.embed_dim == 64
    assert cfg.train.depth == 4
    assert cfg.train.mask_ratio == 0.75
    assert cfg.train.samples_per_modality == 512
    assert cfg.train.batch_size == 16
    assert cfg.train.epochs == 30
    assert cfg.train.base_lr == 1.5e-4
    assert cfg.train.weight_decay == 0.05
    assert cfg.train.modalities == (
        "sentinel1", "sentinel2", "gaofen", "naip", "enmap",
    )


def test_probe_lr_defaults_by_task():
    assert ProbeConfig(task="classification").resolved_lr == 1e-2
    assert ProbeConfig(task="segmentation").resolved_lr == 1e-4
    assert ProbeConfig(task="segmentation", lr=0.5).resolved_lr == 0.5


def test_mask_ratio_violation_names_invariant_and_line():
    text = "[train]\nseed = 1\nmask_ratio = 1.5\n"
    with pytest.raises(ConfigError, match="mask_ratio") as err:
        parse_config(text)
    assert "line 3" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="unknown key 'bogus'") as err:
        parse_config("[train]\nseed = 1\nbogus = 2\n")
    assert "line 3" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[wat\]"):
        parse_config("[wat]\nx = 1\n")


def test_type_error_reports_line():
    with pytest.raises(ConfigError, match="seed") as err:
        parse_config("[train]\nseed = banana\n")
    assert "line 2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[train]\nseed = 1\nseed = 2\n")


def test_empty_config_rejected():
    with pytest.raises(ConfigError, match="empty"):
        parse_config("\n\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="section"):
        parse_config("seed = 1\n")


def test_indivisible_input_size_rejected():
    with pytest.raises(ConfigError, match="divisible"):
        parse_config("[train]\ninput_size = 30\npatch_size = 4\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n[train]\n# note\nseed = 3\n")
    assert cfg.train.seed == 3


def test_roundtrip_parse_serialize_parse():
    text = (
        "[train]\n"
        "seed = 5\n"
        "epochs = 2\n"
        "base_lr = 0.004\n"
        "modalities = sentinel1, naip\n"
        "\n"
        "[modality.thermal]\n"
        "channels = 1\n"
    )
    cfg = parse_config(text)
    assert cfg.train.modalities == ("sentinel1", "naip")
    assert cfg.modality_overrides[0].id == "thermal"
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_serialize_config_text_is_pinned():
    # checkpoints embed this text, so it must not drift byte for byte
    assert serialize_config(RunConfig()) == (
        "[train]\nseed = 42\ninput_size = 32\npatch_size = 4\nembed_dim = 64\ndepth = 4\n"
        "heads = 4\ndecoder_embed_dim = 32\ndecoder_depth = 2\nmask_ratio = 0.75\n"
        "samples_per_modality = 512\nbatch_size = 16\nepochs = 30\nbase_lr = 0.00015\n"
        "weight_decay = 0.05\nwarmup_fraction = 0.05\n"
        "modalities = sentinel1, sentinel2, gaofen, naip, enmap\ndata_dir = \n"
    )
    cfg = parse_config(
        "[train]\nseed = 1\n\n"
        "[modality.enmap]\nchannels = 32\n\n[modality.thermal]\nchannels = 1\n"
    )
    assert serialize_config(cfg).endswith(
        "data_dir = \n"
        "\n[modality.enmap]\nchannels = 32\n"
        "\n[modality.thermal]\nchannels = 1\n"
    )


def test_probe_section_rejected_at_its_line():
    # probe settings come from `ofanet probe`'s flags, not from the run config
    with pytest.raises(ConfigError, match=r"^line 3: unknown section \[probe\]$"):
        parse_config("[train]\nseed = 1\n[probe]\nepochs = 30\n")


@pytest.mark.parametrize("key", ["batch_size = 0", "checkpoint = random-init"])
def test_removed_probe_keys_rejected(key):
    # a config still carrying the old probe keys fails on their section, before any key
    with pytest.raises(ConfigError, match=r"^line 1: unknown section \[probe\]$"):
        parse_config(f"[probe]\n{key}\n")


@pytest.mark.parametrize("key", ["native_size = 64", "gsd_meters = 1.0", "corpus_count = 10"])
def test_modality_metadata_keys_rejected_at_their_line(key):
    name = key.split()[0]
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{name}' in section \[modality\.naip\]$"):
        parse_config(f"[modality.naip]\nchannels = 3\n{key}\n")


def test_modality_section_needs_channels():
    with pytest.raises(ConfigError, match=r"\[modality\.thermal\] needs channels"):
        parse_config("[train]\nseed = 1\n\n[modality.thermal]\n")


def test_roundtrip_default_config():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_modality_override_replaces_builtin():
    cfg = parse_config("[train]\nseed = 1\n\n[modality.naip]\nchannels = 5\n")
    reg = cfg.build_registry()
    assert reg.lookup("naip").channels == 5
    assert reg.lookup("sentinel1").channels == 2


def test_modality_override_registers_new():
    cfg = parse_config("[train]\nseed = 1\n\n[modality.thermal]\nchannels = 1\n")
    reg = cfg.build_registry()
    assert reg.lookup("thermal").channels == 1
    assert reg.lookup("sentinel1").channels == 2


def test_modality_override_invalid_channels():
    with pytest.raises(ConfigError, match="channels"):
        parse_config("[train]\nseed = 1\n\n[modality.bad]\nchannels = 0\n")


def test_train_config_validation_direct():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError, match="zero steps"):
        TrainConfig(samples_per_modality=8, batch_size=16).validate()
    with pytest.raises(ValueError, match="duplicate"):
        TrainConfig(modalities=("naip", "naip")).validate()
    with pytest.raises(ValueError, match="heads"):
        TrainConfig(embed_dim=30).validate()


@pytest.mark.parametrize("key", ["heads", "patch_size", "embed_dim"])
@pytest.mark.parametrize("value", [0, -4])
def test_model_dims_below_one_rejected_at_their_line(key, value):
    # checked before the divisibility checks, which divide by heads and patch_size
    with pytest.raises(ConfigError, match=f"line 2: {key} must be >= 1"):
        parse_config(f"[train]\n{key} = {value}\n")


@pytest.mark.parametrize("key, message", [("base_lr", "base_lr must be positive"),
                                          ("weight_decay", "weight_decay must be >= 0")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_rates_rejected_at_their_line(key, message, value):
    # nan <= 0 is False, so a sign check alone let NaN through
    with pytest.raises(ConfigError, match=f"^line 2: {message}, got {value}$"):
        parse_config(f"[train]\n{key} = {value}\n")


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
def test_probe_lr_must_be_finite(lr):
    with pytest.raises(ValueError, match=f"^lr must be positive, got {lr}$"):
        ProbeConfig(lr=lr).validate()
