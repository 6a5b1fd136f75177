"""Command-line surface tying the pipeline together.

Every subcommand reads the experiment config, writes its CSV/checkpoint
artifacts into the config's output directory and prints a one-line
summary.  Exit status 0 on success (and on ``-h``), 1 with a one-line
diagnostic on any failure, a usage error included.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import checkpoint as ckpt_io
from . import metrics, pipeline
from .config import load_experiment
from .errors import ConfigError, JointPruneError
from .fields import AT_LEAST_ONE, check
from .sparsity import PREDICTED_THRESHOLD

MODES = ["dense", "jp"]  # the models a command can read: see _load_net


def _out(exp, name):
    os.makedirs(exp.out_dir, exist_ok=True)
    return os.path.join(exp.out_dir, name)


def _load_net(exp, args):
    """The network of ``--checkpoint``, else of ``<outputs>/<mode>.ckpt``,
    for ``args.mode``, the model the command reads: ``dense`` runs with no
    activation masks, ``jp`` with the checkpoint's winner rates, or the
    experiment's when the checkpoint has none."""
    path = args.checkpoint or os.path.join(exp.out_dir, f"{args.mode}.ckpt")
    net = ckpt_io.network_from_checkpoint(ckpt_io.load_checkpoint(path))
    net.set_mask_cfg(None if args.mode == "dense" else net.mask_cfg or exp.mask_cfg)
    return net


def cmd_train_dense(exp, args):
    net = exp.preset.build(seed=exp.train_cfg.seed)
    train, val, test = exp.load_data()
    history = pipeline.train_dense(net, exp.train_cfg, train, val)
    acc, _ = pipeline.evaluate(net, test, mode="dense")
    path = _out(exp, "dense.ckpt")
    ckpt_io.save_checkpoint(
        ckpt_io.checkpoint_from_network(net, meta={"seed": exp.train_cfg.seed,
                                                   "epochs": exp.train_cfg.baseline_epochs}),
        path,
    )
    metrics.emit_report(pipeline.history_rows(history), _out(exp, "dense_history.csv"))
    print(f"train-dense: model={exp.preset.name} test_acc={acc:.4f} checkpoint={path}")
    return 0


def cmd_sweep_sensitivity(exp, args):
    net = _load_net(exp, args)
    _, val, _ = exp.load_data()
    curve = pipeline.sensitivity_sweep(net, val, exp.rate_grid, exp.preset.mask_layers)
    rows = [
        [layer, f"{rate:.4f}", f"{drop:.6f}"]
        for layer, pts in sorted(curve.points.items())
        for rate, drop in pts
    ]
    path = _out(exp, "sensitivity.csv")
    metrics.emit_report((["layer_index", "winner_rate", "accuracy_drop"], rows), path)
    chosen = pipeline.choose_winner_rates(curve, exp.tolerable_drop, exp.mask_cfg)
    print(f"sweep-sensitivity: baseline={curve.baseline_accuracy:.4f} "
          f"rows={len(rows)} chosen_rates={chosen.per_layer_rate} out={path}")
    return 0


def cmd_prune(exp, args):
    net = _load_net(exp, args)
    train, val, test = exp.load_data()
    history = pipeline.joint_finetune(net, exp.mask_cfg, exp.train_cfg, train, val)
    acc, stats = pipeline.evaluate(net, test, mode="jp")
    path = _out(exp, "jp.ckpt")
    ckpt_io.save_checkpoint(
        ckpt_io.checkpoint_from_network(net, meta={"seed": exp.train_cfg.seed}),
        path,
    )
    metrics.emit_report(pipeline.history_rows(history), _out(exp, "prune_history.csv"))
    print(f"prune: test_acc={acc:.4f} weight_density={net.weight_density():.4f} "
          f"acti_percent={stats.activation_percent:.2f} checkpoint={path}")
    return 0


def cmd_eval(exp, args):
    net = _load_net(exp, args)
    test = exp.load_test()
    acc, stats = pipeline.evaluate(net, test, mode=args.mode, stat_layers=exp.preset.mask_layers)
    metrics.emit_report(stats.table(), _out(exp, f"sparsity_{args.mode}.csv"))
    print(f"eval: mode={args.mode} test_acc={acc:.4f} "
          f"acti_percent={stats.activation_percent:.2f}")
    return 0


def cmd_report_macs(exp, args):
    check("--batch", args.batch, int, **AT_LEAST_ONE)
    net = _load_net(exp, args)
    batch = exp.load_test().images[: args.batch]
    report = metrics.count_effective_macs(net, batch)
    path = _out(exp, "macs.csv")
    metrics.emit_report(report.table(), path)
    print(f"report-macs: mac_percent={report.mac_percent:.2f} "
          f"weight_density={report.weight_density:.4f} out={path}")
    return 0


def cmd_bench_fc(exp, args):
    record = metrics.bench_condensed_fc(args.n_in, args.n_out, args.rate,
                                        trials=args.trials, seed=exp.train_cfg.seed)
    path = _out(exp, "bench_fc.csv")
    metrics.emit_report(record.table(), path)
    flag = " (unstable)" if record.unstable else ""
    print(f"bench-fc: {args.n_in}x{args.n_out} rate={args.rate} "
          f"speedup={record.speedup:.2f}x{flag} out={path}")
    return 0


def cmd_threshold_prediction_study(exp, args):
    net = _load_net(exp, args)
    test = exp.load_test()
    acc_exact, _ = pipeline.evaluate(net, test, mode="jp")
    rows = []
    for eps in args.eps_grid:
        predicted = replace(net.mask_cfg, downsample_rate=eps,
                            selection_mode=PREDICTED_THRESHOLD)
        with net.masks(predicted):
            acc, _ = pipeline.evaluate(net, test, mode="jp")
        rows.append([f"{eps:.4f}", f"{acc:.6f}", f"{acc_exact - acc:.6f}"])
    path = _out(exp, "threshold_prediction.csv")
    metrics.emit_report((["downsample_rate", "accuracy", "drop_vs_exact"], rows), path)
    print(f"predict-threshold-study: exact_acc={acc_exact:.4f} points={len(rows)} out={path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser (and subparsers) whose usage errors raise ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="jointprune", description="joint weight/activation pruning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, mode=None):
        """Subcommand ``name``; ``mode`` names the model it reads (see
        ``_load_net``) and is the default of a ``--mode`` added to it."""
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config YAML")
        p.set_defaults(fn=fn, mode=mode)
        if mode:
            p.add_argument("--checkpoint")
        return p

    add("train-dense", cmd_train_dense)
    add("sweep-sensitivity", cmd_sweep_sensitivity, mode="dense")
    add("prune", cmd_prune, mode="dense")
    p = add("eval", cmd_eval, mode="jp")
    p.add_argument("--mode", choices=MODES, help="model to read (default: %(default)s)")
    p = add("report-macs", cmd_report_macs, mode="jp")
    p.add_argument("--mode", choices=MODES, help="model to read (default: %(default)s)")
    p.add_argument("--batch", type=int, default=256)
    p = add("bench-fc", cmd_bench_fc)
    p.add_argument("--n-in", type=int, default=4096)
    p.add_argument("--n-out", type=int, default=4096)
    p.add_argument("--rate", type=float, default=0.10)
    p.add_argument("--trials", type=int, default=100)
    p = add("predict-threshold-study", cmd_threshold_prediction_study, mode="jp")
    p.add_argument("--eps-grid", type=float, nargs="+",
                   default=[1.0, 0.5, 0.2, 0.1, 0.05])
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        exp = load_experiment(args.config)
        return args.fn(exp, args)
    except (JointPruneError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
