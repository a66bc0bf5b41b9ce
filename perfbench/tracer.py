"""Per-layer timing for traced benchmark runs, taken from outside the program.

While a Tracer is installed, each public function named in ``TRACED`` and
``OP_FAMILY`` is replaced, in every loaded ``ofanet`` module that refers to
it, by a wrapper that times the call. Uninstalling puts the originals back.
Nothing in the program knows it is traced; spans are aggregated in memory as
they close and read out once at the end.

An ndtensor op called inside another op (``mse`` calls ``sub`` and ``tmean``)
counts toward the outer op, so each op family holds whole outermost calls.
Self times are differences: a forward's time outside ndtensor ops, a training
step's time outside forward, backward, optimizer and rebind.

Model layers: at the start of an outermost forward call the tracer maps every
tensor of ``named_parameters(net)`` to its layer (again after a rebind). An op takes the layer
of the first parameter it consumes; a parameter-free op keeps the layer of the
op before it, and ``mse`` opens ``loss.<modality>``.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ofanet import checkpoint, model, ndtensor, probe, synthdata, trainer
from ofanet.modalities import BUILTIN_IDS

OP_FAMILY = {
    "matmul": "matmul",
    "softmax": "softmax",
    "layernorm": "layernorm",
    "gelu": "gelu",
    "gather_rows_batch": "gather_rows_batch",
    "gather_rows": "gather_rows",
    "concat": "concat",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "scale": "elementwise",
    "neg": "elementwise",
    "tsum": "elementwise",
    "tmean": "elementwise",
    "transpose": "movement",
    "permute": "movement",
    "reshape": "movement",
    "mse": "mse",
}
OP_FAMILIES = tuple(dict.fromkeys(OP_FAMILY.values()))

# model functions that run a forward pass; the outermost one is a forward span
FORWARD_ENTRIES = (
    "mim_forward_batch",
    "mim_forward",
    "forward_features",
    "forward_tokens",
    "embed",
    "random_mask",
    "encode",
    "decode",
    "mim_loss",
)

TRACED = {
    trainer: ("optimizer_step",),
    model: FORWARD_ENTRIES + ("rebind_parameters",),
    ndtensor: ("backward",),
    synthdata: ("gen_pretrain_stream", "gen_cls_dataset", "gen_seg_dataset", "save_dataset", "load_dataset"),
    checkpoint: ("save_net", "load_net"),
    probe: ("extract_features", "train_linear_cls", "train_linear_seg"),
}

EXACT = ("tape_nodes", "matmul_flop", "gather_bytes", "checkpoint_bytes")

GEN_KINDS = {"gen_pretrain_stream": "pretrain", "gen_cls_dataset": "cls", "gen_seg_dataset": "seg"}

LAYERS = (
    *(f"embedder.{m}" for m in BUILTIN_IDS),
    "backbone.attn",
    "backbone.mlp",
    "backbone.norm",
    "decoder.blocks",
    *(f"decoder.head.{m}" for m in BUILTIN_IDS),
    *(f"loss.{m}" for m in BUILTIN_IDS),
    "other",
)


def layer_of(param_name: str) -> str:
    """Model layer a named parameter belongs to."""
    parts = param_name.split(".")
    if parts[0] == "embedder":
        return f"embedder.{parts[1]}"
    if parts[0] == "backbone":
        if "attn" in parts:
            return "backbone.attn"
        if "mlp" in parts:
            return "backbone.mlp"
        return "backbone.norm"
    if parts[2] == "head":
        return f"decoder.head.{parts[1]}"
    return "decoder.blocks"


def swap(module, name: str, make):
    """Replace ``module.name`` by ``make(original)`` wherever an ofanet module
    refers to it (``from x import f`` copies included); returns an undo."""
    orig = getattr(module, name)
    new = make(orig)
    refs = [
        (mod, attr)
        for key, mod in list(sys.modules.items())
        if key == "ofanet" or key.startswith("ofanet.")
        for attr, value in vars(mod).items()
        if value is orig
    ]
    for mod, attr in refs:
        setattr(mod, attr, new)

    def undo():
        for mod, attr in refs:
            setattr(mod, attr, orig)

    return undo


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregated spans of one traced run; install with ``active()``."""

    def __init__(self):
        self.seconds = Counter()  # traced function -> inclusive seconds
        self.calls = Counter()
        self.op_s = Counter()  # op family -> seconds
        self.layer_s = Counter()  # model layer -> op seconds
        self.counts = Counter()  # the EXACT counts, summed
        self.forward_s = 0.0  # outermost forward spans
        self.by_key = defaultdict(lambda: [0.0, 0])  # (what, ...) -> [seconds, items]
        self.io = Counter()  # write/read seconds and bytes
        self._in_op = False
        self._forward_depth = 0
        self._labels: dict[int, str] = {}
        self._labelled = None  # the net _labels describes
        self._label = "other"
        self._modality = ""

    @contextmanager
    def active(self):
        undo = []
        try:
            for name in OP_FAMILY:
                if hasattr(ndtensor, name):
                    undo.append(swap(ndtensor, name, lambda fn, name=name: self._op(name, fn)))
            for module, names in TRACED.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for name in names:
                    if hasattr(module, name):
                        undo.append(swap(module, name, lambda fn, key=(short, name): self._span(key, fn)))
            yield self
        finally:
            for fn in reversed(undo):
                fn()

    # ------------------------------------------------------------------ spans

    def _span(self, key, fn):
        module, name = key
        is_forward = module == "model" and name in FORWARD_ENTRIES

        def wrapper(*args, **kwargs):
            outermost = is_forward and self._forward_depth == 0
            if outermost:
                self._begin_forward(args, kwargs)
            if module == "ndtensor":  # backward clears the tape; count it first
                tape = ndtensor.active_tape() if hasattr(ndtensor, "active_tape") else ndtensor._TAPE
                self.counts["tape_nodes"] += len(tape)
            self._forward_depth += is_forward
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._forward_depth -= is_forward
            dt = perf_counter() - t0
            self.seconds[key] += dt
            self.calls[key] += 1
            if outermost:
                self.forward_s += dt
            self._after(module, name, args, kwargs, dt)
            return out

        return wrapper

    def _begin_forward(self, args, kwargs) -> None:
        net = _arg(args, kwargs, 0, "net")
        self._modality = _arg(args, kwargs, 2, "modality")
        if net is not self._labelled:
            self._labels = {id(t): layer_of(name) for name, t in model.named_parameters(net)}
            self._labelled = net
        self._label = "other"

    def _after(self, module, name, args, kwargs, dt) -> None:
        if name in GEN_KINDS:
            spec = _arg(args, kwargs, 0, "spec")
            count = _arg(args, kwargs, 2, "count") if name == "gen_pretrain_stream" else _arg(args, kwargs, 1, "n")
            entry = self.by_key[("gen", GEN_KINDS[name], spec.id)]
            entry[0] += dt
            entry[1] += count
        elif name in ("save_dataset", "load_dataset"):
            side = "write" if name == "save_dataset" else "read"
            self.io[f"{side}_s"] += dt
            self.io[f"{side}_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "rebind_parameters":
            self._labelled = None
        elif module == "checkpoint" and name == "save_net":
            self.counts["checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "extract_features":
            entry = self.by_key[("extract", _arg(args, kwargs, 2, "modality"))]
            entry[0] += dt
            entry[1] += len(_arg(args, kwargs, 1, "images"))

    # -------------------------------------------------------------------- ops

    def _op(self, name, fn):
        family = OP_FAMILY[name]

        def wrapper(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_op = False
            dt = perf_counter() - t0
            self.op_s[family] += dt
            if self._forward_depth:
                self.layer_s[self._layer(name, args)] += dt
            if name == "matmul":
                self.counts["matmul_flop"] += 2 * out.size * args[0].shape[-1]
            elif family.startswith("gather_rows"):
                self.counts["gather_bytes"] += out.data.nbytes
            return out

        return wrapper

    def _layer(self, name, args) -> str:
        if name == "mse":
            self._label = f"loss.{self._modality}"
            return self._label
        for arg in args:
            for t in arg if isinstance(arg, (list, tuple)) else (arg,):
                label = self._labels.get(id(t))
                if label is not None:
                    self._label = label
                    return label
        return self._label

    # ---------------------------------------------------------------- readout

    def exact_counts(self) -> list[int]:
        """Running totals of the counts that must repeat exactly for the same work."""
        return [self.counts[name] for name in EXACT]

    def metrics(self, steps: int, step_s: float, work: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ndtensor and model figures are per unit of
        ``work`` (a training step, a probed image or a generated sample),
        trainer figures per training step (``steps`` of ``step_s`` seconds
        in all)."""

        def per(value, n):
            return value / n if n else 0.0

        out: dict[str, tuple[float, str]] = {}
        for family in OP_FAMILIES:
            out[f"ndtensor.fwd_ms.{family}"] = (per(self.op_s[family] * 1e3, work), "ms")
        out["ndtensor.tape_nodes"] = (per(self.counts["tape_nodes"], work), "count")
        out["ndtensor.matmul_gflop"] = (per(self.counts["matmul_flop"], work) / 1e9, "GFLOP")
        out["ndtensor.gather_mbytes"] = (per(self.counts["gather_bytes"], work) / 1e6, "MB")

        forward_s = self.forward_s
        for layer in LAYERS[:-1]:
            out[f"model.fwd_ms.{layer}"] = (per(self.layer_s[layer] * 1e3, work), "ms")
        glue = forward_s - sum(s for layer, s in self.layer_s.items() if layer != "other")
        out["model.fwd_ms.other"] = (per(glue * 1e3, work), "ms")

        parts = {
            "forward_ms": forward_s,
            "backward_ms": self.seconds[("ndtensor", "backward")],
            "optimizer_ms": self.seconds[("trainer", "optimizer_step")],
            "rebind_ms": self.seconds[("model", "rebind_parameters")],
        }
        for name, s in parts.items():
            out[f"trainer.{name}"] = (per(s * 1e3, steps), "ms")
        out["trainer.other_ms"] = (per((step_s - sum(parts.values())) * 1e3, steps), "ms")

        for kind in GEN_KINDS.values():
            for mid in BUILTIN_IDS:
                s, n = self.by_key[("gen", kind, mid)]
                out[f"synthdata.gen_ms.{kind}.{mid}"] = (per(s * 1e3, n), "ms")
        out["synthdata.ofad_write_mb_s"] = (per(self.io["write_bytes"] / 1e6, self.io["write_s"]), "MB/s")
        out["synthdata.ofad_read_mb_s"] = (per(self.io["read_bytes"] / 1e6, self.io["read_s"]), "MB/s")

        for name in ("save", "load"):
            key = ("checkpoint", f"{name}_net")
            out[f"checkpoint.{name}_ms"] = (per(self.seconds[key] * 1e3, self.calls[key]), "ms")
        saves = self.calls[("checkpoint", "save_net")]
        out["checkpoint.bytes"] = (per(self.counts["checkpoint_bytes"], saves), "bytes")

        for mid in BUILTIN_IDS:
            s, n = self.by_key[("extract", mid)]
            out[f"probe.extract_ms_per_image.{mid}"] = (per(s * 1e3, n), "ms")
        for task in ("cls", "seg"):
            key = ("probe", f"train_linear_{task}")
            out[f"probe.head_fit_ms.{task}"] = (per(self.seconds[key] * 1e3, self.calls[key]), "ms")
        return out
