"""Command-line entry point.

Pipeline stages run as subcommands sharing --config/--out/--stage-override;
`fixture` materializes the bundled three-taxi demo and `fit` runs the
distribution comparison on a one-value-per-line sample file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import stats


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, raw_value = text.split("=", 1)
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cityregions",
        description="Taxi-GPS mobility toolkit: trips, quad-tree regions, "
                    "functional labels, DTN target-set simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    stage_help = {
        "ingest": "parse raw traces into the canonical clipped stream",
        "trips": "segment trajectories, detect stops, extract trips",
        "regions": "build the visit-density quad-tree and map events",
        "stats": "fit trip/stay distributions and grid correlation",
        "functions": "mine frequent itemsets and label regions",
        "dtn": "run the target-set delivery simulation",
        "all": "run every stage in order",
    }
    for name, text in stage_help.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", help="override the config's output directory")
        p.add_argument("--stage-override", action="append", default=[],
                       type=_parse_override, metavar="KEY=VALUE",
                       help="override a config field (dotted keys, JSON values)")
        p.set_defaults(run=_cmd_stage)

    fx = sub.add_parser("fixture", help="write the bundled three-taxi demo fixture")
    fx.add_argument("--out", required=True, help="directory for trace + config")
    fx.set_defaults(run=_cmd_fixture)

    fit = sub.add_parser("fit", help="compare distribution fits on a sample file")
    fit.add_argument("samples",
                     help="file with one value per line (non-positive and NaN ones dropped)")
    fit.add_argument("--x-min", type=float, default=None,
                     help="lower cutoff for the power-law family (default: sample min)")
    fit.add_argument("--out-prefix", default=None,
                     help="also write PREFIX_fits.txt and PREFIX_ccdf.txt")
    fit.set_defaults(run=_cmd_fit)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call in a process: parsing
    leaves no state in it, so later calls reuse it."""
    return build_parser()


def _cmd_stage(args: argparse.Namespace) -> int:
    from . import pipeline

    overrides = list(args.stage_override)
    if args.out:
        overrides.append(("out_dir", args.out))
    try:
        cfg = pipeline.load_config(args.config, overrides)
        pipeline.run(cfg, args.command)
    except pipeline.ConfigError as exc:
        print("config error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except pipeline.MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"stage '{args.command}' complete; artifacts in {cfg.out_dir}")
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    from . import fixtures

    trace_path, config_path = fixtures.write_fixture(args.out)
    print(f"wrote {trace_path}\nwrote {config_path}")
    return 0


def _read_samples(path: str) -> list[float]:
    """The values of a one-value-per-line file, blank lines skipped. The
    lines are converted in one pass; only when a line is no number, or is
    +inf, are they walked one by one to name the first such line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:  # name the first byte that is not UTF-8, and its line
        # surrogateescape reads each such byte as a lone surrogate, which UTF-8 never gives
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        at = re.search("[\udc80-\udcff]", text).start()
        raise ValueError(f"{path}:{text.count(chr(10), 0, at) + 1}: not UTF-8: "
                         f"byte {ord(text[at]) - 0xdc00:#04x}") from None
    try:
        values = list(map(float, filter(str.strip, lines)))
    except ValueError:
        values = None
    if values is None or math.inf in values:
        values = []
        for number, line in enumerate(lines, 1):
            if line.strip():
                try:
                    value = float(line)
                except ValueError:
                    raise ValueError(f"{path}:{number}: not a number: "
                                     f"{line.strip()!r}") from None
                if value == math.inf:  # NaN and the non-positive are dropped by the fit
                    raise ValueError(f"{path}:{number}: not a finite number: "
                                     f"{line.strip()!r}")
                values.append(value)
    return values


def _cmd_fit(args: argparse.Namespace) -> int:
    values = _read_samples(args.samples)
    cmp, writers = stats.fit_sample_set(values, args.x_min)
    print(stats.comparison_table(cmp))
    if args.out_prefix:
        for kind, write in writers.items():
            with open(f"{args.out_prefix}_{kind}.txt", "w", encoding="utf-8") as fh:
                write(fh)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
