"""Command-line surface: generate data, pretrain, probe, inspect, report.

One verb per pipeline stage. Every subcommand is deterministic given its
config and seed; every file is written through ``binread.atomic_write``
(temp + rename), so failures never leave partial outputs behind. Exit code 0
on success, 1 with a one-line diagnostic on stderr otherwise. OFA_THREADS
caps generation parallelism.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import probe as probe_mod
from . import synthdata
from .binread import atomic_write
from .runconfig import (
    CLS_TASK,
    RANDOM_INIT,
    SEG_TASK,
    ProbeConfig,
    RunConfig,
    parse_config,
)
from .trainer import pretrain

_TASK_ALIASES = {"cls": CLS_TASK, "seg": SEG_TASK, CLS_TASK: CLS_TASK, SEG_TASK: SEG_TASK}


def _read_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text())


def _cmd_gen_data(args) -> int:
    cfg = _read_run_config(args.config)
    registry = cfg.build_registry()
    spec = registry.lookup(args.modality)
    size = args.size if args.size else cfg.train.input_size
    if args.kind == "pretrain":
        samples = synthdata.gen_pretrain_stream(spec, args.seed, args.count, size=size)
    elif args.kind == "cls":
        samples = synthdata.gen_cls_dataset(spec, args.count, args.classes, args.seed, size=size)
    else:
        samples = synthdata.gen_seg_dataset(spec, args.count, args.classes, args.seed, size=size)
    synthdata.save_dataset(args.out, synthdata.stack_samples(spec.id, samples))
    print(f"wrote {args.count} {args.kind} samples for {spec.id} to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _read_run_config(args.config)
    result = pretrain(cfg.train, registry=cfg.build_registry(), out_dir=args.out_dir)
    last = result.log_lines[-1] if result.log_lines else "no steps"
    print(f"pretrained {len(result.log_lines)} steps; final checkpoint {result.final_checkpoint}")
    print(f"last step: {last}")
    return 0


def _cmd_probe(args) -> int:
    data = synthdata.load_dataset(args.data)
    task = _TASK_ALIASES[args.task]
    if task == CLS_TASK and data.labels is None:
        raise ValueError(f"{args.data} has no class labels; wrong --task?")
    if task == SEG_TASK and data.masks is None:
        raise ValueError(f"{args.data} has no masks; wrong --task?")
    if args.classes:
        k = args.classes
    elif task == CLS_TASK:
        k = int(data.labels.max()) + 1
    else:
        k = int(data.masks.max()) + 1

    probe_cfg = ProbeConfig(task=task, lr=args.lr, epochs=args.epochs, k_classes=k)
    probe_cfg.validate()

    if args.checkpoint == RANDOM_INIT:
        net = _read_run_config(args.config).build_net()
    else:
        net, _ = ckpt.load_net(args.checkpoint)  # a checkpoint brings its own config
    method = args.method or (RANDOM_INIT if args.checkpoint == RANDOM_INIT else "pretrained")
    if task == CLS_TASK:
        _, report = probe_mod.run_cls_probe(net, data, probe_cfg, method)
    else:
        _, report = probe_mod.run_seg_probe(net, data, probe_cfg, method)
    line = report.line()
    print(line)
    if args.out:
        out = Path(args.out)
        text = (out.read_bytes() if out.exists() else b"") + (line + "\n").encode("utf-8")
        atomic_write(out, lambda fh: fh.write(text))
    return 0


def _cmd_inspect(args) -> int:
    loaded = ckpt.read_checkpoint(args.checkpoint)
    print(f"checkpoint: {args.checkpoint}")
    print(f"tensors: {len(loaded.tensors)}  parameters: {loaded.total_parameters}")
    print()
    for name, arr in loaded.tensors.items():
        shape = "x".join(str(s) for s in arr.shape) or "scalar"
        print(f"  {name:48s} {shape:>14s} {arr.size:>9d}")
    print()
    print("embedded config:")
    for line in loaded.config_text.rstrip("\n").splitlines():
        print(f"  {line}")
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                reports.append(probe_mod.parse_report_line(line))
    print(probe_mod.compare_runs(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofanet",
        description="One shared Transformer backbone for five remote-sensing modalities: "
        "synthetic data, masked-reconstruction pretraining, linear probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic OFAD dataset file")
    g.add_argument("--modality", required=True)
    g.add_argument("--kind", required=True, choices=["pretrain", "cls", "seg"])
    g.add_argument("--count", required=True, type=int)
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--size", type=int, default=0, help="image size (default: config input_size)")
    g.add_argument("--config", default=None)
    g.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="run masked-reconstruction pretraining")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_pretrain)

    b = sub.add_parser("probe", help="linear-probe a frozen checkpoint on a labeled set")
    b.add_argument("--task", required=True, choices=sorted(_TASK_ALIASES))
    b.add_argument("--checkpoint", required=True, help=f"OFAC path or {RANDOM_INIT!r}")
    b.add_argument("--data", required=True, help="labeled OFAD file")
    b.add_argument("--lr", type=float, default=None, help="head lr (default: 1e-2 cls, 1e-4 seg)")
    b.add_argument("--epochs", type=int, default=ProbeConfig.epochs)
    b.add_argument("--classes", type=int, default=0, help="class count (default: from data)")
    b.add_argument("--config", default=None, help=f"run config for the {RANDOM_INIT!r} net")
    b.add_argument("--method", default=None, help="method label for reports")
    b.add_argument("--out", default=None, help="append the report line to this file")
    b.set_defaults(fn=_cmd_probe)

    i = sub.add_parser("inspect", help="print checkpoint tensors and embedded config")
    i.add_argument("--checkpoint", required=True)
    i.set_defaults(fn=_cmd_inspect)

    r = sub.add_parser("report", help="comparison table from probe report lines")
    r.add_argument("--inputs", required=True, nargs="+")
    r.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
