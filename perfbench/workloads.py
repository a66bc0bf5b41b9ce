"""The benchmark's workloads: pretrain, probe and datagen.

Each is a closed loop driven by one process. ``setup`` builds the inputs from
the workload seed, ``unit`` runs one pass of its pipeline stage (the timed
part) and ``check`` verifies that pass. Every check is one operation counted
into a Tally instead of aborting the run.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from ofanet import checkpoint, model, probe, synthdata, trainer
from ofanet.modalities import BUILTIN_IDS, default_registry
from ofanet.runconfig import CLS_TASK, RANDOM_INIT, SEG_TASK, ProbeConfig, RunConfig, TrainConfig, serialize_config

from tracer import swap

# per modality: pretrain samples and epochs, labeled probe sets, datagen
# program seeds and samples per seed and kind; "tiny" keeps the smoke tests short
SIZES = {
    "full": {"pretrain": 32, "epochs": 2, "cls": 32, "seg": 16, "datagen_seeds": 8, "datagen": 4},
    "tiny": {"pretrain": 16, "epochs": 1, "cls": 8, "seg": 4, "datagen_seeds": 2, "datagen": 4},
}
CLS_CLASSES = 4
SEG_CLASSES = 2
PROBE_EPOCHS = 100


def program_seed(purpose: str, seed: int) -> int:
    """Seed handed to the program, derived from the workload seed. It always
    has ten digits, so a run config, and a checkpoint embedding it, has the
    same size for every workload seed."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return 10**9 + int.from_bytes(digest[:8], "little") % (9 * 10**9)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Tally:
    """Steps timed and operations checked."""

    def __init__(self):
        self.steps: list[tuple[str, float]] = []  # (modality, seconds)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def step(self, modality: str, seconds: float) -> None:
        self.steps.append((modality, seconds))

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Workload:
    name = ""
    trains = False  # steps are training steps, the unit of per-layer figures

    def __init__(self, seed: int, size: str, work: Path):
        self.sizes = SIZES[size]
        self.work = work
        registry = default_registry()
        self.specs = [registry.lookup(mid) for mid in BUILTIN_IDS]
        self._first = None

    def same_as_first(self, tally: Tally, fingerprint, what: str) -> None:
        """Every pass of the same inputs must give the same outputs."""
        if self._first is None:
            self._first = fingerprint
        tally.op(fingerprint == self._first, what)

    def readouts(self) -> dict[str, tuple[float, str]]:
        return {}


@contextmanager
def _step_clock(modalities, tally: Tally):
    """Time training steps from outside the trainer: a step opens when the
    trainer asks ``lr_at`` for its learning rate and closes when the next one
    opens, when the epoch's checkpoint is written or when pretrain returns."""
    open_step = []

    def close():
        if open_step:
            index, t0 = open_step.pop()
            tally.step(modalities[index % len(modalities)], perf_counter() - t0)

    def timed_lr_at(lr_at):
        def wrapper(step, *args, **kwargs):
            close()
            open_step.append((step, perf_counter()))
            return lr_at(step, *args, **kwargs)

        return wrapper

    def timed_save_net(save_net):
        def wrapper(*args, **kwargs):
            close()
            return save_net(*args, **kwargs)

        return wrapper

    undo = [swap(trainer, "lr_at", timed_lr_at), swap(checkpoint, "save_net", timed_save_net)]
    try:
        yield
    finally:
        close()
        for fn in reversed(undo):
            fn()


class Pretrain(Workload):
    """trainer.pretrain round-robin over the five builtin modalities at desk
    model dims, reading OFAD streams through data_dir and writing an OFAC
    checkpoint per epoch."""

    name = "pretrain"
    trains = True

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        data_dir = work / "data"
        data_dir.mkdir()
        self.config = TrainConfig(
            seed=program_seed("pretrain", seed),
            samples_per_modality=self.sizes["pretrain"],
            epochs=self.sizes["epochs"],
            data_dir=str(data_dir),
        )
        self.result = None

    def setup(self) -> str:
        paths = []
        for spec in self.specs:
            samples = synthdata.gen_pretrain_stream(
                spec, self.config.seed, self.config.samples_per_modality, size=self.config.input_size
            )
            path = Path(self.config.data_dir) / f"pretrain_{spec.id}.ofad"
            synthdata.save_dataset(path, synthdata.stack_samples(spec.id, samples))
            paths.append(path)
        return digest_files(paths)

    def unit(self, tally: Tally) -> int:
        with _step_clock(self.config.modalities, tally):
            self.result = trainer.pretrain(self.config, out_dir=self.work / "run")
        return len(self.result.log_lines) * self.config.batch_size

    def losses(self) -> list[float]:
        return [float(line.split("\t")[3]) for line in self.result.log_lines]

    def check(self, tally: Tally) -> None:
        for step, loss in enumerate(self.losses()):
            tally.op(math.isfinite(loss), f"step {step}: non-finite loss {loss}")
        trained = model.param_hash(self.result.net)
        reloaded, _ = checkpoint.load_net(self.result.final_checkpoint)
        tally.op(model.param_hash(reloaded) == trained, "final checkpoint reloads to another param_hash")
        self.same_as_first(tally, (self.result.log_lines, trained), "pretrain passes differ")

    def readouts(self):
        last_epoch = len(self.config.modalities) * (self.config.samples_per_modality // self.config.batch_size)
        return {"trainer.loss_final": (statistics.fmean(self.losses()[-last_epoch:]), "mse")}


class Probe(Workload):
    """The Table-1/Table-2 analogue: a 4-class cls probe and a 2-class seg
    probe per modality on a random-init net loaded from an OFAC file."""

    name = "probe"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.data_seed = program_seed("probe-data", seed)
        self.train = TrainConfig(seed=program_seed("probe-net", seed))
        self.checkpoint = work / "random-init.ofac"
        # functions by name, looked up at call time, so that traced runs see the wrappers
        self.tasks = (
            ("cls", "gen_cls_dataset", "run_cls_probe",
             ProbeConfig(task=CLS_TASK, k_classes=CLS_CLASSES, epochs=PROBE_EPOCHS)),
            ("seg", "gen_seg_dataset", "run_seg_probe",
             ProbeConfig(task=SEG_TASK, k_classes=SEG_CLASSES, epochs=PROBE_EPOCHS)),
        )
        self.reports = []

    def _data(self, task: str, mid: str) -> Path:
        return self.work / f"{task}_{mid}.ofad"

    def setup(self) -> str:
        paths = []
        for spec in self.specs:
            for task, generate, _, cfg in self.tasks:
                samples = getattr(synthdata, generate)(spec, self.sizes[task], cfg.k_classes, self.data_seed)
                synthdata.save_dataset(self._data(task, spec.id), synthdata.stack_samples(spec.id, samples))
                paths.append(self._data(task, spec.id))
        net = model.build_ofanet(self.train.model_dims(), self.specs, self.train.seed)
        checkpoint.save_net(self.checkpoint, net, serialize_config(RunConfig(train=self.train)))
        return digest_files([*paths, self.checkpoint])

    def unit(self, tally: Tally) -> int:
        net, _ = checkpoint.load_net(self.checkpoint)
        self.reports = []
        items = 0
        for spec in self.specs:
            for task, _, run, cfg in self.tasks:
                t0 = perf_counter()
                data = synthdata.load_dataset(self._data(task, spec.id))
                _, report = getattr(probe, run)(net, data, cfg, RANDOM_INIT)
                tally.step(spec.id, perf_counter() - t0)
                self.reports.append(report)
                items += len(data.images)
        return items

    def check(self, tally: Tally) -> None:
        lines = []
        for report in self.reports:
            line = report.line()
            try:
                parsed = probe.parse_report_line(line)
            except ValueError:
                parsed = None
            ok = 0.0 <= report.value <= 1.0 and parsed is not None and parsed.line() == line
            tally.op(ok, f"{report.task} {report.dataset}: bad value or report line {line!r}")
            lines.append(line)
        self.same_as_first(tally, lines, "probe passes differ")

    def readouts(self):
        out = {}
        for report in self.reports:
            out[f"probe.{report.metric}.{report.dataset}"] = (report.value, "fraction")
        return out


class Datagen(Workload):
    """pretrain, cls and seg samples for every modality, written and read
    back as OFAD files the way ``ofanet gen-data`` writes them.

    A sample's cost is drawn from its seed: 2 to 6 smoothing passes per
    pretrain sample, and per class of a cls palette. So a pass generates the
    sets of several program seeds, and its cost averages over many draws
    instead of hanging on one palette."""

    name = "datagen"
    kinds = ("pretrain", "cls", "seg")

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.seeds = [program_seed(f"datagen:{i}", seed) for i in range(self.sizes["datagen_seeds"])]
        self.count = self.sizes["datagen"]
        self.loaded = {}
        self.expected = {}

    def _path(self, seed: int, kind: str, mid: str) -> Path:
        return self.work / f"{kind}_{mid}_{seed}.ofad"

    def _generate(self, seed: int, spec, kind: str):
        if kind == "pretrain":
            return synthdata.gen_pretrain_stream(spec, seed, self.count)
        if kind == "cls":
            return synthdata.gen_cls_dataset(spec, self.count, CLS_CLASSES, seed)
        return synthdata.gen_seg_dataset(spec, self.count, SEG_CLASSES, seed)

    def setup(self) -> str:
        """One pass whose files are the reference every timed pass must match."""
        self.unit(Tally())
        paths = [self._path(*key) for key in self.loaded]
        self.expected = {key: digest_files([path]) for key, path in zip(self.loaded, paths)}
        return digest_files(paths)

    def unit(self, tally: Tally) -> int:
        self.loaded = {}
        for seed in self.seeds:
            for spec in self.specs:
                for kind in self.kinds:
                    t0 = perf_counter()
                    path = self._path(seed, kind, spec.id)
                    synthdata.save_dataset(path, synthdata.stack_samples(spec.id, self._generate(seed, spec, kind)))
                    self.loaded[(seed, kind, spec.id)] = synthdata.load_dataset(path)
                    tally.step(spec.id, perf_counter() - t0)
        return len(self.loaded) * self.count

    def check(self, tally: Tally) -> None:
        for (seed, kind, mid), loaded in self.loaded.items():
            path = self._path(seed, kind, mid)
            again = path.with_name(path.stem + ".again.ofad")
            synthdata.save_dataset(again, loaded)
            written = path.read_bytes()
            tally.op(again.read_bytes() == written, f"{kind} {mid} {seed}: OFAD write-read-write differs")
            tally.op(
                hashlib.sha256(written).hexdigest() == self.expected[(seed, kind, mid)],
                f"{kind} {mid} {seed}: generated bytes differ from set-up's",
            )


WORKLOADS = {cls.name: cls for cls in (Pretrain, Probe, Datagen)}
