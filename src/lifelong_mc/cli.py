"""Command line front end.

Four subcommands: gen (materialize an instance to disk), run (seeded trials
of one algorithm), sweep (success grid over rank and sample fractions), and
compare-mixture (full-rank versus sparsity-bounded test on shared mixture
instances). Every subcommand reads a key = value config file and accepts
--seed / --out / --trials overrides.

Exit codes: 0 on a completed command (recovery failures are data, not
errors), 2 for configuration problems, 1 for I/O problems.
"""

import argparse
import inspect
import sys
from dataclasses import fields

from .datagen import MatrixFormatError
from .harness import RunConfig, SweepGrid, cmd_compare_mixture, cmd_gen, cmd_run, cmd_sweep


class ConfigError(ValueError):
    pass


def parse_config_file(path):
    """Read a key = value config file. Blank lines and lines starting with
    '#' are skipped; values keep internal whitespace."""
    with open(path) as fh:
        text = fh.read()
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _s0(raw):
    return raw if raw == "auto" else int(raw)


def _float_list(raw):
    return [float(x) for x in raw.split(",") if x.strip()]


def _int_list(raw):
    return [int(x) for x in raw.split(",") if x.strip()]


# value parser per dataclass field type; s0 is the one `object` field
_PARSERS = {int: int, float: float, str: str, list: _float_list, object: _s0}


def _field_keys(cls):
    return {f.name: _PARSERS[f.type] for f in fields(cls)}


def _command_keys(func, **extra):
    """Keys for a command's keyword arguments: a RunConfig field's parser for
    an argument of the same name, plus the extra ones."""
    keys = {k: _RUN_KEYS[k] for k in inspect.signature(func).parameters if k in _RUN_KEYS}
    keys.update(extra)
    return keys


_RUN_KEYS = _field_keys(RunConfig)
_SWEEP_KEYS = {**_field_keys(SweepGrid), **_command_keys(cmd_sweep, workers=int)}
_COMPARE_KEYS = _command_keys(cmd_compare_mixture, d_values=_int_list, workers=int)
# compare-mixture arguments the CLI may omit, which the command itself requires
_COMPARE_DEFAULTS = {"m": 50, "trials": 10}


def _coerce(pairs, table, path):
    out = {}
    for key, raw in pairs.items():
        if key not in table:
            known = ", ".join(sorted(table))
            raise ConfigError(f"{path}: unknown key {key!r} (known: {known})")
        try:
            out[key] = table[key](raw)
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key!r}: {raw!r}")
    return out


def _load(args, table, trials_key="trials"):
    """The config file's values, parsed by table, with the --seed, --out and
    --trials overrides applied."""
    values = _coerce(parse_config_file(args.config), table, args.config)
    overrides = {"seed": args.seed, "out": args.out, trials_key: args.trials}
    values.update((key, v) for key, v in overrides.items() if v is not None)
    return values


def _run(args):
    cfg = RunConfig(**_load(args, _RUN_KEYS))
    path, fraction = cmd_run(cfg)
    print(f"wrote {path} ({cfg.trials} trials, success fraction {fraction:g})")
    return 0


def _gen(args):
    values = _load(args, _RUN_KEYS)
    values.setdefault("out", "instance")
    paths = cmd_gen(RunConfig(**values))
    print(f"wrote {paths['L']} {paths['M']} {paths['meta']}")
    return 0


def _sweep(args):
    values = _load(args, _SWEEP_KEYS, trials_key="trials_per_cell")
    grid_keys = [f.name for f in fields(SweepGrid) if f.name in values]
    grid = SweepGrid(**{key: values.pop(key) for key in grid_keys})
    path, rows = cmd_sweep(grid, **values)
    print(f"wrote {path} ({len(rows)} cells)")
    return 0


def _compare(args):
    values = {**_COMPARE_DEFAULTS, **_load(args, _COMPARE_KEYS)}
    for p in inspect.signature(cmd_compare_mixture).parameters.values():
        if p.default is p.empty and p.name not in values:
            raise ConfigError(f"{args.config}: missing key {p.name!r}")
    path, rows = cmd_compare_mixture(**values)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lifelong-mc",
        description="Streaming low-rank completion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gen", _gen, "write one instance (clean + observed + metadata) to disk"),
        ("run", _run, "seeded trials of one algorithm, results to CSV"),
        ("sweep", _sweep, "success grid over rank and sample fractions"),
        ("compare-mixture", _compare, "full-rank vs sparsity-bounded test curves"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output path")
        p.add_argument(
            "--trials", type=int, default=None,
            help="override trial count (trials_per_cell for sweep; unused by gen)",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MatrixFormatError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, TypeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
