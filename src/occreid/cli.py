"""Command-line entry point.

Subcommands: simulate, train, eval, sweep-alpha, saliency, report.
Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numeric
failure. The OCCREID_OUT environment variable overrides the output
directory; the --out flag overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import NonFiniteGradient, NonFiniteParameter, OccReidError
from .pipeline import (
    run_ablation,
    run_alpha_sweep,
    run_eval,
    run_saliency,
    run_simulate,
    run_train,
)

_ENV_OUT = "OCCREID_OUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="occreid", description=__doc__)
    parser.set_defaults(no_os=False, no_obc=False)  # only train takes the ablation switches
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="INI experiment config")
        p.add_argument("--seed", type=int, help="override run seed")
        p.add_argument("--out", type=Path, help="output directory")

    common(sub.add_parser("simulate", help="write the artificial occlusion set"))
    p_train = sub.add_parser("train", help="train and write a checkpoint")
    common(p_train)
    p_train.add_argument("--no-os", action="store_true", help="disable the occlusion simulator")
    p_train.add_argument("--no-obc", action="store_true", help="disable the occlusion loss (alpha=1)")
    p_eval = sub.add_parser("eval", help="CMC evaluation of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_sweep = sub.add_parser("sweep-alpha", help="train/eval per loss weight")
    common(p_sweep)
    p_sweep.add_argument(
        "--alphas", default="0.5,0.6,0.7,0.8,0.9", help="comma-separated weights"
    )
    p_sal = sub.add_parser("saliency", help="saliency maps and detection precision")
    common(p_sal)
    p_sal.add_argument("--checkpoint", type=Path, required=True)
    p_sal.add_argument("--compare", type=Path, help="second checkpoint for a comparison table")
    common(sub.add_parser("report", help="run the ablation grid and write the comparison table"))
    return parser


def _resolve(args) -> tuple[ExperimentConfig, Path]:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.run.seed = args.seed
    if args.no_os:
        cfg.run.use_os = False
    if args.no_obc:
        cfg.run.use_obc = False
    out = args.out or os.environ.get(_ENV_OUT) or cfg.run.out
    cfg.run.out = str(out)
    return cfg, Path(out)


def _dispatch(args) -> int:
    cfg, out = _resolve(args)
    if args.command == "simulate":
        stats = run_simulate(cfg, out / "simulate")
        print(f"wrote {stats['count']} occluded images, mean area ratio "
              f"{stats['mean_area_ratio']:.4f} -> {out / 'simulate'}")
    elif args.command == "train":
        ckpt = run_train(cfg, out / "train")
        print(f"checkpoint -> {ckpt}")
    elif args.command == "eval":
        reports = run_eval(cfg, args.checkpoint, out / "eval")
        for n, rep in sorted(reports.items()):
            print(f"N={n}: rank1={rep.rank1:.2f} rank5={rep.rank5:.2f} rank10={rep.rank10:.2f}")
    elif args.command == "sweep-alpha":
        try:
            alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        except ValueError:
            raise _UsageError(f"bad --alphas value {args.alphas!r}") from None
        results = run_alpha_sweep(cfg, alphas, out / "sweep")
        for a in sorted(results):
            first = min(results[a])
            print(f"alpha={a}: rank1@N={first} = {results[a][first].rank1:.2f}")
    elif args.command == "saliency":
        summary = run_saliency(cfg, args.checkpoint, out / "saliency", args.compare)
        for name, info in summary.items():
            mean = info["mean_precision"]
            suffix = f", mean precision {mean:.4f}" if mean is not None else ""
            print(f"{name}: {info['maps']} maps{suffix}")
    elif args.command == "report":
        results = run_ablation(cfg, out / "report")
        for name, reports in results.items():
            first = min(reports)
            print(f"{name}: rank1@N={first} = {reports[first].rank1:.2f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteGradient, NonFiniteParameter) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (OccReidError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
