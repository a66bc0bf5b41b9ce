import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ofanet import checkpoint as ckpt
from ofanet import model as m
from ofanet import ndtensor as ndt
from ofanet import trainer
from ofanet.modalities import ModalityRegistry, ModalitySpec, builtin_modalities, default_registry
from ofanet.ndtensor import Tensor
from ofanet.runconfig import TrainConfig
from ofanet.synthdata import gen_pretrain_stream, resize_nearest, save_dataset, stack_samples
from ofanet.trainer import OptimizerState, lr_at, optimizer_step, pretrain


DESK = TrainConfig()  # 512 x 5 modalities, 30 epochs: total 4800 steps


def desk_total_steps():
    per_mod = DESK.samples_per_modality // DESK.batch_size
    return DESK.epochs * per_mod * len(DESK.modalities)


def test_lr_at_end_of_warmup_hits_base_lr():
    total = desk_total_steps()
    warmup = int(round(DESK.warmup_fraction * total))
    assert lr_at(warmup, total, DESK) == pytest.approx(DESK.base_lr)


def test_lr_at_final_step_nearly_zero():
    total = desk_total_steps()
    assert lr_at(total - 1, total, DESK) < 0.01 * DESK.base_lr


def test_lr_at_decay_midpoint_is_half():
    total = desk_total_steps()
    warmup = int(round(DESK.warmup_fraction * total))
    mid = warmup + (total - warmup) // 2
    assert lr_at(mid, total, DESK) == pytest.approx(0.5 * DESK.base_lr, rel=0.05)


def test_lr_at_warmup_is_linear_from_zero():
    total = desk_total_steps()
    warmup = int(round(DESK.warmup_fraction * total))
    assert lr_at(0, total, DESK) == 0.0
    assert lr_at(warmup // 2, total, DESK) == pytest.approx(
        DESK.base_lr * (warmup // 2) / warmup
    )


def test_lr_at_rejects_out_of_range():
    with pytest.raises(ValueError):
        lr_at(-1, 100, DESK)
    with pytest.raises(ValueError):
        lr_at(100, 100, DESK)


# ---------------------------------------------------------------------------
# optimizer


def flat_state(arrays):
    """An OptimizerState over a net whose flat buffer holds ``arrays`` (one
    dtype) in order, each parameter a view of its slice."""
    (dtype,) = {a.dtype for a in arrays.values()}
    flat = np.concatenate([a.reshape(-1) for a in arrays.values()])
    params, off = {}, 0
    with ndt.dtype_mode(dtype):
        for n, a in arrays.items():
            params[n] = Tensor(flat[off : off + a.size].reshape(a.shape), requires_grad=True)
            off += a.size
    return OptimizerState(SimpleNamespace(flat=flat, params=params)), params


def test_optimizer_zero_grad_zero_decay_is_fixed_point():
    p0 = np.array([1.0, -2.0], dtype=np.float32)
    state, params = flat_state({"p": p0})
    params["p"].grad = np.zeros(2, dtype=np.float32)
    optimizer_step(state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params["p"].data, p0)


def test_optimizer_first_step_bias_correction_cancels():
    state, params = flat_state({"p": np.array([1.0])})
    params["p"].grad = np.array([1.0])
    optimizer_step(state, lr=0.1, weight_decay=0.0)
    assert params["p"].data[0] == pytest.approx(0.9, abs=1e-6)


def test_optimizer_decoupled_decay_shrinks():
    state, params = flat_state({"p": np.array([1.0])})
    params["p"].grad = np.array([0.0])
    lr, wd = 0.1, 0.5
    optimizer_step(state, lr=lr, weight_decay=wd)
    assert params["p"].data[0] == pytest.approx(1.0 * (1.0 - lr * wd))


def test_optimizer_shape_mismatch_rejected():
    state, params = flat_state({"p": np.zeros(3)})
    params["p"].grad = np.zeros(2)
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(state, 0.1, 0.0)


def test_optimizer_step_counter_strictly_increases():
    state, params = flat_state({"p": np.array([1.0])})
    seen = []
    for _ in range(3):
        params["p"].grad = np.array([0.5])
        optimizer_step(state, 0.01, 0.0)
        seen.append(state.step)
    assert seen == [1, 2, 3]


def _optimizer_step_reference(params, grads, state, lr, weight_decay):
    # the out-of-place update optimizer_step was first written as, verbatim
    state.step += 1
    t = state.step
    bc1 = 1.0 - trainer.ADAM_BETA1**t
    bc2 = 1.0 - trainer.ADAM_BETA2**t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m = trainer.ADAM_BETA1 * m + (1.0 - trainer.ADAM_BETA1) * g
        v = trainer.ADAM_BETA2 * v + (1.0 - trainer.ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + trainer.ADAM_EPS)
        out[name] = p - lr * update - lr * weight_decay * p
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_optimizer_step_in_place_moments_match_textbook_bytes(dtype):
    rng = np.random.default_rng(67)
    # four sections in table order, with 0-d, 1-d, 2-d and 4-d parameters;
    # embedder.b never gets a gradient
    shapes = {
        "embedder.a.w": (48, 40), "embedder.a.b": (40,),
        "embedder.b.w": (5, 3),
        "backbone.s": (), "backbone.t": (2, 3, 8, 4), "backbone.b": (40,),
        "decoder.a.w": (40, 6), "decoder.a.s": (),
    }
    offsets = dict(zip(shapes, np.cumsum([0] + [int(np.prod(s)) for s in shapes.values()])))

    def arrays(names, scale):
        # read-only, so that any write into them raises
        out = {n: np.array(rng.normal(size=shapes[n]) * scale, dtype=dtype) for n in names}
        for a in out.values():
            a.flags.writeable = False
        return out

    def flat_view(buf, n):
        return buf[offsets[n] : offsets[n] + int(np.prod(shapes[n]))].reshape(shapes[n])

    ref_params = arrays(shapes, 1.0)
    state, params = flat_state(ref_params)
    datas = {n: t.data for n, t in params.items()}
    ref_state = SimpleNamespace(m={}, v={}, step=0)
    # steps touch every trained section, the backbone alone, then both
    # modality sections; the last step's large lr and decay make every
    # rounding of the decay term show in the new parameter
    schedule = [
        (("embedder.a", "backbone", "decoder.a"), 1e-3, 0.05),
        (("backbone",), 3e-4, 0.0),
        (("embedder.a", "decoder.a"), 0.3, 0.7),
    ]
    for step, (sections, lr, wd) in enumerate(schedule):
        names = [n for n in shapes if n.startswith(tuple(f"{s}." for s in sections))]
        grads = arrays(names, 10.0 ** -step)
        for n in names:
            params[n].grad = grads[n]
        snaps = {n: grads[n].tobytes() for n in names}
        optimizer_step(state, lr, wd)
        ref = _optimizer_step_reference({n: ref_params[n] for n in names}, grads, ref_state, lr, wd)
        ref_params.update(ref)
        for n in shapes:
            t = params[n]
            assert t.data is datas[n] and np.shares_memory(t.data, state.params)
            assert t.grad is None
            for got, want in ((t.data, ref_params[n]),
                              (flat_view(state.m, n), ref_state.m.get(n, np.zeros(shapes[n], dtype))),
                              (flat_view(state.v, n), ref_state.v.get(n, np.zeros(shapes[n], dtype)))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        for n in names:
            assert grads[n].tobytes() == snaps[n]
    assert state.step == ref_state.step == 3


# ---------------------------------------------------------------------------
# pretraining loop


def tiny_config(**kw):
    base = dict(
        seed=11,
        input_size=16,
        patch_size=4,
        embed_dim=32,
        depth=2,
        heads=4,
        decoder_embed_dim=16,
        decoder_depth=1,
        mask_ratio=0.75,
        samples_per_modality=32,
        batch_size=16,
        epochs=1,
        base_lr=1e-3,
        warmup_fraction=0.1,
        modalities=("sentinel1", "naip"),
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_step_setup():
    cfg = tiny_config()
    specs = [default_registry().lookup(mid) for mid in cfg.modalities]
    net = m.build_ofanet(cfg.model_dims(), specs, cfg.seed)
    images = np.stack([s.image for s in gen_pretrain_stream(specs[0], 5, 4, size=cfg.input_size)])
    return cfg, net, m.patchify(images, cfg.patch_size)


def test_train_step_updates_parameters_in_place():
    cfg, net, patches = tiny_step_setup()
    before = dict(m.named_parameters(net))
    values_before = {name: t.data.copy() for name, t in before.items()}
    state = OptimizerState(net)
    assert state.params is net.flat
    data_before = {name: t.data for name, t in before.items()}
    for name, t in before.items():
        assert np.shares_memory(t.data, state.params)
        assert t.data.tobytes() == values_before[name].tobytes()
    for step in range(2):
        trainer._train_step(net, patches, np.arange(len(patches)), "sentinel1", cfg, state, 1e-3, step)
        after = dict(m.named_parameters(net))
        assert list(after) == list(before)
        for name, t in after.items():
            assert t is before[name]
            assert t.grad is None
            assert t.data is data_before[name] and np.shares_memory(t.data, state.params)
    touched = {name for name in before if not name.startswith(("embedder.naip", "decoder.naip"))}
    off = 0
    for name, t in before.items():
        moments = state.m[off : off + t.size], state.v[off : off + t.size]
        off += t.size
        if name in touched:
            assert all(mom.any() for mom in moments)
        else:
            assert t.data.tobytes() == values_before[name].tobytes()
            assert not any(mom.any() for mom in moments)
    assert not np.array_equal(before["backbone.block0.attn.wq"].data, values_before["backbone.block0.attn.wq"])


def test_train_step_rejects_a_trained_section_missing_a_gradient():
    # the backbone trains, but one of its parameters gets no gradient:
    # updating the section anyway would decay that parameter
    cfg, net, patches = tiny_step_setup()
    state = OptimizerState(net)
    net.params["backbone.norm.beta"].requires_grad = False
    flat = state.params.copy()
    with pytest.raises(ValueError, match=r"backbone\.norm\.beta: no gradient, yet section backbone is updated"):
        trainer._train_step(net, patches, np.arange(len(patches)), "sentinel1", cfg, state, 1e-3, 0)
    assert state.step == 0
    assert state.params.tobytes() == flat.tobytes()
    assert not state.m.any() and not state.v.any()


def test_optimizer_state_rejects_a_parameter_off_the_flat_buffer():
    # a step would train the buffer while the forward reads the copy
    _, net, _ = tiny_step_setup()
    t = net.params["backbone.block0.attn.wq"]
    t.data = t.data.copy()
    with pytest.raises(ValueError, match=r"^backbone\.block0\.attn\.wq: .*flat buffer"):
        OptimizerState(net)


def test_round_robin_schedule_five_modalities():
    cfg = tiny_config(
        modalities=tuple(s.id for s in builtin_modalities()),
        samples_per_modality=64,
        batch_size=8,
        epochs=1,
        embed_dim=16,
        decoder_embed_dim=8,
        depth=1,
        decoder_depth=1,
    )
    result = pretrain(cfg)
    assert len(result.log_lines) == 40  # 8 batches x 5 modalities
    mods = [line.split("\t")[2] for line in result.log_lines]
    expected_cycle = ["sentinel1", "sentinel2", "gaofen", "naip", "enmap"]
    assert mods == expected_cycle * 8
    # fairness: every modality got exactly samples/batch steps
    assert all(mods.count(mid) == 8 for mid in expected_cycle)


def test_loss_log_format():
    result = pretrain(tiny_config())
    for line in result.log_lines:
        step, epoch, mid, loss, lr = line.split("\t")
        int(step), int(epoch), float(loss), float(lr)
        assert mid in ("sentinel1", "naip")
    steps = [int(line.split("\t")[0]) for line in result.log_lines]
    assert steps == list(range(len(steps)))


def test_pretrain_deterministic_and_thread_independent(monkeypatch):
    a = pretrain(tiny_config())
    b = pretrain(tiny_config())
    assert a.log_lines == b.log_lines
    monkeypatch.setenv("OFA_THREADS", "4")
    c = pretrain(tiny_config())
    assert a.log_lines == c.log_lines
    for (na, ta), (nc, tc) in zip(m.named_parameters(a.net), m.named_parameters(c.net)):
        assert na == nc
        np.testing.assert_array_equal(ta.data, tc.data)


def test_pretrain_loss_invariant_to_registration_order():
    extra = ModalitySpec("thermal", channels=1)
    reg_a = ModalityRegistry(builtin_modalities() + [extra])
    reg_b = ModalityRegistry([extra] + builtin_modalities())
    a = pretrain(tiny_config(), registry=reg_a)
    b = pretrain(tiny_config(), registry=reg_b)
    assert a.log_lines == b.log_lines


def test_pretrain_writes_checkpoints_and_log(tmp_path):
    cfg = tiny_config(epochs=2)
    result = pretrain(cfg, out_dir=tmp_path)
    assert (tmp_path / "checkpoint-epoch000.ofac").exists()
    assert (tmp_path / "checkpoint-epoch001.ofac").exists()
    assert result.final_checkpoint == tmp_path / "checkpoint-final.ofac"
    assert result.final_checkpoint.exists()
    logged = (tmp_path / "loss.log").read_text().splitlines()
    assert logged == result.log_lines

    restored, cfg_loaded = ckpt.load_net(result.final_checkpoint)
    assert cfg_loaded.train.modalities == cfg.modalities
    img = np.zeros((1, 16, 16, 2), dtype=np.float32)
    np.testing.assert_array_equal(
        m.forward_features(result.net, img, "sentinel1").data,
        m.forward_features(restored, img, "sentinel1").data,
    )


def test_desk_run_bytes_pinned(tmp_path):
    # the training bytes of every op, the decoder's cross-attention included;
    # a change that must keep them is checked here, at any OFA_THREADS
    pretrain(TrainConfig(seed=11, samples_per_modality=32, epochs=2), out_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "loss.log").read_bytes()).hexdigest() == \
        "9c0cbbed01b48765433d57516fd4e9b5faf9bd7406e550f1ed10b8ab526b5c1a"
    assert hashlib.sha256((tmp_path / "checkpoint-final.ofac").read_bytes()).hexdigest() == \
        "b57cf2b92b051cec17ee3c902529f2924264498fe27c3399fc391c0b554ce4bc"


def test_pretrain_checkpoint_rebuilds_custom_registry_net(tmp_path):
    # a widened builtin and an added modality reach the embedded config; a
    # builtin used as-is stays implicit
    s1 = default_registry().lookup("sentinel1")
    reg = ModalityRegistry([s1, ModalitySpec("naip", 5), ModalitySpec("thermal", 1)])
    result = pretrain(tiny_config(modalities=("sentinel1", "naip", "thermal")), registry=reg, out_dir=tmp_path)
    restored, cfg = ckpt.load_net(result.final_checkpoint)
    assert cfg.modality_overrides == (ModalitySpec("naip", 5), ModalitySpec("thermal", 1))
    assert restored.channels == result.net.channels == {"sentinel1": 2, "naip": 5, "thermal": 1}
    assert m.param_hash(restored) == m.param_hash(result.net)


def test_pretrain_rejects_unregistered_modality():
    with pytest.raises(KeyError, match="thermal"):
        pretrain(tiny_config(modalities=("thermal",)))


def test_pretrain_file_backed_missing_file(tmp_path):
    cfg = tiny_config(data_dir=str(tmp_path))
    with pytest.raises(FileNotFoundError, match="pretrain_sentinel1"):
        pretrain(cfg)


def test_pretrain_file_backed_roundtrip(tmp_path):
    reg = default_registry()
    for mid in ("sentinel1", "naip"):
        spec = reg.lookup(mid)
        samples = gen_pretrain_stream(spec, 11, 32, size=16)
        save_dataset(tmp_path / f"pretrain_{mid}.ofad", stack_samples(mid, samples))
    from_files = pretrain(tiny_config(data_dir=str(tmp_path)))
    in_memory = pretrain(tiny_config())
    # same seed generates the same stream, so the two paths coincide
    assert from_files.log_lines == in_memory.log_lines


def test_pretrain_file_backed_resizes_non_square_images(tmp_path):
    # 32x48 streams at input_size 32 (the heights agree, the widths do not)
    # train exactly as the same streams resized to 32x32 first
    reg = default_registry()
    wide, square = tmp_path / "wide", tmp_path / "square"
    wide.mkdir()
    square.mkdir()
    for mid in ("sentinel1", "naip"):
        ds = stack_samples(mid, gen_pretrain_stream(reg.lookup(mid), 11, 32, size=48))
        ds.images = ds.images[:, :32]
        save_dataset(wide / f"pretrain_{mid}.ofad", ds)
        ds.images = resize_nearest(ds.images, 32)
        save_dataset(square / f"pretrain_{mid}.ofad", ds)
    from_wide = pretrain(tiny_config(input_size=32, data_dir=str(wide)))
    assert from_wide.log_lines == pretrain(tiny_config(input_size=32, data_dir=str(square))).log_lines


def test_pretrain_file_backed_rejects_another_modalitys_file(tmp_path):
    reg = default_registry()
    save_dataset(tmp_path / "pretrain_sentinel1.ofad",
                 stack_samples("sentinel1", gen_pretrain_stream(reg.lookup("sentinel1"), 11, 32, size=16)))
    # another 3-band sensor's images, written where naip's stream belongs
    aerial = ModalitySpec("aerial", 3)
    save_dataset(tmp_path / "pretrain_naip.ofad",
                 stack_samples("aerial", gen_pretrain_stream(aerial, 11, 32, size=16)))
    with pytest.raises(ValueError, match=r"pretrain_naip\.ofad: holds modality 'aerial', expected 'naip'"):
        pretrain(tiny_config(data_dir=str(tmp_path)))


def test_pretrain_file_backed_rejects_wrong_channel_count(tmp_path):
    # a 3-band stream where sentinel1's 2-band one belongs
    reg = default_registry()
    save_dataset(tmp_path / "pretrain_sentinel1.ofad",
                 stack_samples("sentinel1", gen_pretrain_stream(reg.lookup("naip"), 11, 32, size=16)))
    with pytest.raises(ValueError, match=r"pretrain_sentinel1\.ofad: 3 channels, spec says 2"):
        pretrain(tiny_config(data_dir=str(tmp_path)))


def test_streams_are_patch_rows_of_the_resized_images(tmp_path):
    # 24px files at input_size 16: each image is resized, then patchified
    reg = default_registry()
    specs = [reg.lookup(mid) for mid in ("sentinel1", "naip")]
    stacks = {}
    for spec in specs:
        ds = stack_samples(spec.id, gen_pretrain_stream(spec, 11, 32, size=24))
        save_dataset(tmp_path / f"pretrain_{spec.id}.ofad", ds)
        stacks[spec.id] = ds.images
    streams = trainer._load_streams(tiny_config(data_dir=str(tmp_path)), specs)
    for spec in specs:
        want = m.patchify(resize_nearest(stacks[spec.id], 16), 4)
        assert streams[spec.id].shape == (32, 16, 16 * spec.channels)
        assert streams[spec.id].dtype == np.float32
        assert streams[spec.id].tobytes() == want.tobytes()


def test_pretrain_stops_on_non_finite_loss():
    # no warmup at this size: step 0 (sentinel1) moves the backbone by about
    # base_lr, and the first naip batch overflows the float32 forward
    with pytest.raises(FloatingPointError, match=r"non-finite loss nan at global step 1 \(modality naip\)"):
        pretrain(tiny_config(base_lr=1e30))


def test_pretrain_file_backed_rejects_out_of_range_pixels(tmp_path):
    # a finite pixel far outside the generator's range, which would train
    # on with losses up to 1e74
    reg = default_registry()
    for mid in ("sentinel1", "naip"):
        ds = stack_samples(mid, gen_pretrain_stream(reg.lookup(mid), 11, 32, size=16))
        if mid == "naip":
            ds.images[3, 2, 1, 0] = 1e20
        save_dataset(tmp_path / f"pretrain_{mid}.ofad", ds)
    path = tmp_path / "pretrain_naip.ofad"
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: sample 3 has pixel 1e\+20 outside \[-3, 3\] at byte offset \d+$"):
        pretrain(tiny_config(data_dir=str(tmp_path)))


def test_training_never_mixes_modalities_in_one_step():
    result = pretrain(tiny_config())
    for line in result.log_lines:
        assert len(line.split("\t")[2].split(",")) == 1


@pytest.mark.slow
def test_tiny_run_losses_halve_per_modality():
    cfg = tiny_config(
        samples_per_modality=160,
        batch_size=16,
        epochs=10,  # 10 steps/modality/epoch x 2 modalities = 200 steps
        base_lr=4e-3,
    )
    result = pretrain(cfg)
    assert len(result.log_lines) == 200
    by_mod = {}
    for line in result.log_lines:
        _, _, mid, loss, _ = line.split("\t")
        by_mod.setdefault(mid, []).append(float(loss))
    for mid, losses in by_mod.items():
        first = np.mean(losses[:20])
        last = np.mean(losses[-20:])
        assert last < 0.5 * first, f"{mid}: first20={first:.4f} last20={last:.4f}"
