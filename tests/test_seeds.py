import pytest

from ofanet import seeds


def test_derive_seed_values_are_pinned():
    # every parameter init, sample and mask derives from these; a change here changes all bytes
    assert seeds.derive_seed("init", 42, "backbone.block0.attn.wq") == 3189669502771279240
    assert seeds.derive_seed("mask", 11, 0, 0) == 14051415732695007599


def test_generator_is_keyed_by_its_parts():
    a = seeds.generator("t", 1).integers(0, 2**62, 4)
    assert (a == seeds.generator("t", 1).integers(0, 2**62, 4)).all()
    assert (a != seeds.generator("t", "1").integers(0, 2**62, 4)).any()


@pytest.mark.parametrize("part", [True, 0.5])
def test_bool_and_float_parts_raise(part):
    with pytest.raises(TypeError):
        seeds.derive_seed("init", part)


@pytest.mark.parametrize("raw, want", [(None, 1), ("abc", 1), ("0", 1), ("3", 3)])
def test_thread_count_reads_ofa_threads(monkeypatch, raw, want):
    if raw is None:
        monkeypatch.delenv("OFA_THREADS", raising=False)
    else:
        monkeypatch.setenv("OFA_THREADS", raw)
    assert seeds.thread_count() == want


def test_parallel_map_matches_a_sequential_map_in_order(monkeypatch):
    monkeypatch.setenv("OFA_THREADS", "2")
    items = list(range(17))

    def fn(i):
        return seeds.generator("pm", i).normal()

    assert seeds.parallel_map(fn, items) == [fn(i) for i in items]
