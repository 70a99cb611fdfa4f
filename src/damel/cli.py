"""Command-line driver.

    damel run    --config cfg.json --seed 3
    damel sweep  --config cfg.json --seeds 0,1,2 [--workers 4]
    damel ablate --config cfg.json --suite table7 [--workers 4]
    damel report --dir runs/

Exit codes: 0 success, 1 configuration/usage error, 2 run failure.
The DAMEL_WORKERS environment variable overrides any --workers value; either
must be >= 1, and seeds must be non-negative and must not repeat.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DamelError
from .experiment import (
    aggregate_report,
    load_config,
    run_ablation_suite,
    run_seed_sweep,
    run_single,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="damel", description="Config-driven training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train and evaluate one seed")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, required=True)

    sweep = sub.add_parser("sweep", help="seed sweep with bias/variance summary")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seeds", required=True, help="comma-separated seed list")
    sweep.add_argument("--workers", type=int, default=None)

    ablate = sub.add_parser("ablate", help="run a named ablation suite")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--suite", required=True)
    ablate.add_argument("--workers", type=int, default=None)

    report = sub.add_parser("report", help="re-aggregate run records into a CSV")
    report.add_argument("--dir", required=True)
    return parser


def _parse_seeds(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be a comma-separated integer list, got {text!r}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            cfg = load_config(args.config)
            record = run_single(cfg, args.seed)
            print(json.dumps(record.to_json_dict(), sort_keys=True, indent=1))
        elif args.command == "sweep":
            cfg = load_config(args.config)
            seeds = _parse_seeds(args.seeds)
            summary, records = run_seed_sweep(cfg, seeds=seeds, workers=args.workers)
            print(json.dumps(dict(summary.to_json_dict(), seeds=seeds), sort_keys=True, indent=1))
        elif args.command == "ablate":
            cfg = load_config(args.config)
            csv_path, rows = run_ablation_suite(cfg, args.suite, workers=args.workers)
            print(f"wrote {csv_path} ({len(rows)} cells)")
        else:
            csv_path, rows = aggregate_report(args.dir)
            print(f"wrote {csv_path} ({len(rows)} cells)")
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {_one_line(err)}", file=sys.stderr)
        return 1
    except (DamelError, OSError) as err:
        print(f"run failed: {_one_line(err)}", file=sys.stderr)
        return 2
    except Exception as err:  # anything else is a failed run too, never a traceback
        print(f"run failed: {type(err).__name__}: {_one_line(err)}", file=sys.stderr)
        return 2
    return 0


def _one_line(err: BaseException) -> str:
    return " ".join(str(err).split())


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
