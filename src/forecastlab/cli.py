"""Command line entry point.

    forecastlab run     --config cfg.json [--seed N] [--out DIR]
    forecastlab sweep   --config cfg.json [--seed N] [--out DIR]
    forecastlab explain --config cfg.json --model ID [--seed N] [--out DIR]
    forecastlab synth   --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 data error. A model
family failing to fit is a warning on stderr, not a failure; its metric
row is blank.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .dataset import DataError
from .pipeline import cmd_explain, cmd_run, cmd_sweep, cmd_synth


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forecastlab",
        description="Train, compare, and explain forecasting models on "
                    "monthly multivariate series.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in [
            ("run", "tune, refit, and score every roster model on the "
                    "primary split"),
            ("sweep", "re-score every model across all test-window lengths"),
            ("explain", "emit Shapley attribution products for one model"),
            ("synth", "write the configured synthetic dataset as CSV")]:
        cmd = sub.add_parser(name, help=brief)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's master seed")
        cmd.add_argument("--out", default=None,
                         help="override the config's output directory")
        if name == "explain":
            cmd.add_argument("--model", required=True,
                             help="roster model id to explain")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, config_hash = load_config(args.config, args.seed, args.out)
        if args.command == "run":
            forecasts = cmd_run(config, config_hash)
            ok = sum(1 for f in forecasts.values() if f is not None)
            print(f"run complete: {ok}/{len(forecasts)} models "
                  f"scored on the {config.primary_split}-month split; "
                  f"outputs in {config.out_dir}")
        elif args.command == "sweep":
            records = cmd_sweep(config, config_hash)
            print(f"sweep complete: {len(records)} rows across splits "
                  f"{list(config.split_months)}; outputs in {config.out_dir}")
        elif args.command == "explain":
            result = cmd_explain(config, config_hash, args.model)
            top = ", ".join(name for name, _ in result["importance"][:3])
            print(f"explained {args.model}: top features {top}; "
                  f"outputs in {config.out_dir}")
        else:
            path = cmd_synth(config, config_hash)
            print(f"synthetic dataset written to {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
