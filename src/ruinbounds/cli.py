"""Command-line front end.

Subcommands
-----------
classify     regime classification per configured shock spec
moments      series and/or fixed-horizon moment tables as CSV/JSON
bounds       survival lower bounds over the configured x grid
boundaries   bound switch boundaries by horizon (one row per order)
simulate     seeded sampling of the discounted shock series
reproduce    regenerate a reference table plus a cell-by-cell delta report

Shock specs and run settings come from an INI-style config file; command
line flags override the ``[run]`` section.  Each subcommand takes only the
flags it reads (see ``_COMMANDS``); one config file serves them all.

Each setting is declared once, as a row of ``_SETTINGS``: its field, its
default and its admission, which turns the setting's text into its value
through the setting's rule.  A ``[run]`` value is admitted as the file
loads, and a flag by the same row as it is parsed.  So a setting reads the
same from either source, and a flag replaces a valid ``[run]`` value but
never hides an invalid one.  Only the checks that span settings or specs
wait for ``ExperimentConfig.validate``.
Example::

    [spec:heavy]
    family = pareto
    beta = 0.1
    k = 0.9

    [run]
    c = 1.0
    x = 1.2 1.4 2.0
    horizons = 10 20 inf
    rmax = 6
    replicates = 3000
    truncation = adaptive
    seed = 42
    format = csv
    out = results/

Every output follows one rule.  Without an output path, ``classify``,
``moments``, ``bounds`` and ``boundaries`` print CSV to stdout.  An output
path that is a directory, or ends in '/' or '\\', takes each table as
``NAME.FORMAT``; any other path is one file, which takes one table.
``simulate`` and ``reproduce`` always write into a directory (``reproduce``
into ``.`` without ``--out``).  ``_paths`` resolves where each output goes
before anything is computed, and ``_emit`` writes the outputs and prints
one ``wrote A`` or ``wrote A and B`` line per call.

Exit codes: 0 success, 2 configuration/usage error, 3 domain error
(for example adaptive simulation of a shock whose mean log is not
positive), 4 I/O error.

At import the module loads only the standard library and the package's
numpy-free ``__init__`` and ``errors``; each command imports the computing
modules it uses, so ``--version``, ``--help`` and usage errors run without numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import _DEFAULT_REPLICATES, _DEFAULT_SEED, __version__
from .errors import (ConfigError, DomainError, _require_consumption, _require_horizon,
                     _require_integer, _require_seed, _require_stock, _require_truncation)


# [run] key -> (ExperimentConfig field, default, admission).  The admission
# turns the setting's text into its value through the setting's rule and
# raises ValueError for a bad one; the flag named after the key is admitted
# by the same row as argparse parses it (see _admitted_by).
_SETTINGS = {
    "c": ("c", 1.0, lambda text: _require_consumption(float(text))),
    "x": ("x_grid", (), lambda text: _items(
        text, lambda token: _require_stock(float(token), positive=True))),
    "horizons": ("horizons", (math.inf,), lambda text: _items(
        text, lambda token: _require_horizon(math.inf if token.lower() == "inf" else int(token)),
        required=True)),
    "rmax": ("rmax", 6, lambda text: _require_integer("rmax", int(text), 1)),
    "replicates": ("replicates", _DEFAULT_REPLICATES,
                   lambda text: _require_integer("replicates", int(text), 1)),
    "truncation": ("truncation", "adaptive", lambda text: _require_truncation(
        "adaptive" if text.lower() == "adaptive" else int(text))),
    "seed": ("seed", 0, lambda text: _require_seed(int(text))),
    "format": ("fmt", "csv", lambda text: _csv_or_json(text.strip().lower())),
    "out": ("out", None, lambda text: _nonblank_path(text.strip())),
}


def _items(text: str, admit, required: bool = False) -> tuple:
    """A list setting's items, split at commas or blanks, each admitted by ``admit``."""
    items = tuple(admit(token) for token in text.replace(",", " ").split())
    if required and not items:
        raise ConfigError("needs at least one value")
    return items


def _nonblank_path(out: str) -> str:
    if not out:  # Path("") would name the current directory
        raise ConfigError("out must name a file or directory, got a blank value")
    return out


def _csv_or_json(fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return fmt


class ExperimentConfig:
    """Shock specs and run settings of one command, each setting at its default.

    A plain class, not a dataclass, so that loading the CLI for
    ``--version`` or ``--help`` imports neither ``dataclasses`` nor
    ``inspect``.
    """

    def __init__(self):
        self.specs = []  # [(name, ShockSpec)]
        for field, default, _ in _SETTINGS.values():
            setattr(self, field, default)

    def validate(self) -> None:
        """Check what spans specs or settings; each setting was admitted where it entered."""
        if not self.specs:
            raise ConfigError("no shock specs configured; add a [spec:NAME] section")
        if len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {self.horizons}")
        if self.fmt == "json" and self.out is None:  # moments may write two tables
            raise ConfigError("format json writes files only; set --out or [run] out")


def load_config_file(path: str) -> ExperimentConfig:
    from configparser import ConfigParser, Error as ConfigParserError

    from .shocks import spec_from_record

    cfg = ExperimentConfig()
    parser = ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except ConfigParserError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section.lower().startswith("spec:"):
            name = section[len("spec:"):].strip()
            if not name or "/" in name or "\\" in name:  # the name is part of output file names
                raise ConfigError(f"{path} [{section}]: spec name {name!r} is empty or holds "
                                  "'/' or '\\'")
            if any(name == seen for seen, _ in cfg.specs):  # one spec would overwrite the other
                raise ConfigError(f"{path} [{section}]: spec name {name!r} repeats")
            record = dict(parser.items(section))
            try:
                cfg.specs.append((name, spec_from_record(record)))
            except ConfigError as exc:
                raise ConfigError(f"{path} [{section}]: {exc}") from exc
        elif section.lower() == "run":
            for key, text in parser.items(section):
                if key not in _SETTINGS:
                    raise ConfigError(
                        f"{path} [run]: unknown key {key!r}; expected one of "
                        f"{sorted(_SETTINGS)}"
                    )
                field, _, admit = _SETTINGS[key]
                try:
                    setattr(cfg, field, admit(text))
                except ValueError as exc:  # the rule's error, or int()/float() on bad text
                    raise ConfigError(f"{path} [run] {key}: {exc}") from exc
        else:
            raise ConfigError(f"{path}: unknown section [{section}]; expected [run] or "
                              "[spec:NAME]")
    cfg.specs.sort(key=lambda item: item[0])
    return cfg


def _load_experiment(args: argparse.Namespace) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config_file(args.config)
    for field, _, _ in _SETTINGS.values():
        value = getattr(args, field, None)  # None: the command has no such flag, or it was not set
        if value is not None:
            setattr(cfg, field, value)
    cfg.validate()
    return cfg


def _paths(cfg, command: str, *names: str) -> list:
    """Where each of the outputs ``names`` of ``command`` goes: a path, or None for stdout.

    ``cfg`` is the command's settings, or the parsed flags of ``reproduce``;
    only its ``out`` and ``fmt`` are read.  ``simulate`` and ``reproduce``
    write every output into the directory ``out``, under its name as given;
    ``reproduce`` writes into ``.`` without one.  The other commands write
    CSV to stdout without an output path, and ``NAME.FORMAT`` inside a
    directory, which ``out`` names when it is one or ends in '/' or '\\';
    any other path is a file, which holds one table.  Each command calls
    this before it computes anything, so outputs with no place to go exit 2
    first.
    """
    if cfg.out is None and command == "simulate":
        raise ConfigError("simulate writes sample files; --out DIR is required")
    if command in ("simulate", "reproduce"):
        return [Path(cfg.out or ".") / name for name in names]
    if cfg.out is None:
        return [None] * len(names)
    if Path(cfg.out).is_dir() or cfg.out.endswith(("/", "\\")):
        return [Path(cfg.out) / f"{name}.{cfg.fmt}" for name in names]
    if len(names) > 1:
        raise ConfigError(f"{command} writes two tables, {' and '.join(names)}, but the output "
                          f"path {cfg.out!r} names one file; set --out or [run] out to a directory")
    return [Path(cfg.out)]


def _table(cfg: ExperimentConfig, columns, records, **extra):
    """A table of ``records`` as ``_emit`` takes it, with the run's metadata and ``extra``.

    CSV rows hold the ``columns`` of each record; under ``format = json`` a
    JSON document keeps every key.
    """
    metadata = {"version": __version__, "c": cfg.c, "seed": cfg.seed, **extra}
    if cfg.fmt == "json":
        return {"metadata": metadata, "rows": records}
    return columns, [tuple(record[col] for col in columns) for record in records], metadata


def _emit(*outputs) -> None:
    """Write each ``(path, content)`` pair, then print one line naming the files written.

    A tuple ``(columns, rows, metadata)`` is a CSV table, which goes to stdout
    where the path is None; a dict is a JSON document.
    """
    from .tableio import render_csv, write_csv_table, write_json

    for path, content in outputs:
        if path is None:
            text = render_csv(*content)
            if hasattr(sys.stdout, "buffer"):  # UTF-8 like every output file, whatever the locale
                sys.stdout.flush()
                sys.stdout.buffer.write(text.encode("utf-8"))
            else:  # a text-only stream, such as a redirect to StringIO
                print(text, end="")
        elif isinstance(content, dict):
            write_json(path, content)
        else:
            write_csv_table(path, *content)
    written = [str(path) for path, _ in outputs if path is not None]
    if written:
        print(f"wrote {' and '.join(written)}")


# ----------------------------------------------------------------- commands

def cmd_classify(args: argparse.Namespace) -> int:
    from .regimes import classify

    cfg = _load_experiment(args)
    path, = _paths(cfg, "classify", "classify")
    columns = ("spec", "elog", "m", "M", "d1", "d2",
               "certain_ruin_threshold", "certain_survival_threshold", "regime")
    records = []
    for name, spec in cfg.specs:
        regime = classify(spec)
        records.append({"spec": name, **spec.to_record(), **regime.to_record(),
                        "regime": regime.describe()})
    _emit((path, _table(cfg, columns, records)))
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    from .moments import finite_moments, first_infinite_order, infinite_moments

    cfg = _load_experiment(args)
    finite_hs = sorted(h for h in cfg.horizons if h != math.inf)
    want_series = math.inf in cfg.horizons
    paths = _paths(cfg, "moments",
                   *["moments_series"] * want_series, *["moments_horizons"] * bool(finite_hs))
    outputs = []  # every table is computed before any is written
    if want_series:
        records = []
        first_infinite = {}
        for name, spec in cfg.specs:
            table = infinite_moments(spec, cfg.rmax)
            # scan past rmax so the metadata names the order even when it is not printed
            first_infinite[f"first_infinite_{name}"] = first_infinite_order(spec, 1024)
            for r in range(1, cfg.rmax + 1):
                records.append({"spec": name, "r": r, "gamma_r": table.gamma(r),
                                "beta_r": table.beta(r)})
        outputs.append(_table(cfg, ("spec", "r", "gamma_r", "beta_r"), records, **first_infinite))
    if finite_hs:
        records = []
        for name, spec in cfg.specs:
            grid = finite_moments(spec, cfg.rmax, max(finite_hs))
            for r in range(1, cfg.rmax + 1):
                for n in finite_hs:
                    records.append({"spec": name, "r": r, "n": n,
                                    "beta_r_n": grid.beta(r, n)})
        outputs.append(_table(cfg, ("spec", "r", "n", "beta_r_n"), records))
    for output in zip(paths, outputs):  # one wrote line per table
        _emit(output)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import evaluate_bound, schedules

    cfg = _load_experiment(args)
    path, = _paths(cfg, "bounds", "bounds")
    if not cfg.x_grid:
        raise ConfigError("an x grid is required; set x in [run] or the config file")
    columns = ("spec", "horizon", "x", "order", "survival_lower",
               "ruin_upper", "ruin_raw", "vacuous")
    horizons = sorted(cfg.horizons)  # series last
    records = []
    for name, spec in cfg.specs:
        for h, sched in zip(horizons, schedules(spec, cfg.c, horizons, cfg.rmax)):
            for x in sorted(cfg.x_grid):
                res = evaluate_bound(sched, x)
                records.append({"spec": name, "horizon": h, "x": x,
                                "order": res.order,
                                "survival_lower": res.survival_lower,
                                "ruin_upper": res.ruin_upper,
                                "ruin_raw": res.ruin_raw,
                                "vacuous": res.vacuous})
    _emit((path, _table(cfg, columns, records, rmax=cfg.rmax)))
    return 0


def cmd_boundaries(args: argparse.Namespace) -> int:
    from .bounds import boundary_table

    cfg = _load_experiment(args)
    path, = _paths(cfg, "boundaries", "boundaries")
    labels = tuple("Z" if h == math.inf else f"Z_{h}" for h in cfg.horizons)
    columns = ("spec", "r") + labels
    records = []
    for name, spec in cfg.specs:
        bt = boundary_table(spec, cfg.c, cfg.horizons, cfg.rmax)
        for r, row in zip(bt.orders, bt.values):
            records.append({"spec": name, "r": r, **dict(zip(labels, row))})
    _emit((path, _table(cfg, columns, records, rmax=cfg.rmax)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import SimConfig, derive_seed, ecdf_survival, sample_Z

    cfg = _load_experiment(args)
    paths = _paths(cfg, "simulate", *(f"{kind}_{name}.{ext}" for name, _ in cfg.specs
                                      for kind, ext in (("samples", "csv"), ("estimate", "json"))))
    Path(cfg.out).mkdir(parents=True, exist_ok=True)  # before sampling: a bad --out fails first
    for index, (name, spec) in enumerate(cfg.specs):
        sim = SimConfig(replicates=cfg.replicates, truncation=cfg.truncation,
                        seed=derive_seed(cfg.seed, index))
        est = sample_Z(spec, sim)
        meta = {**est.metadata(), "master_seed": cfg.seed, "version": __version__}
        estimate = {
            "metadata": meta,
            "c": cfg.c,
            "x": list(cfg.x_grid),
            "survival": [ecdf_survival(est, x, cfg.c) for x in cfg.x_grid],
        }
        _emit((paths[2 * index], (("sample",), zip(est.samples), meta)),  # rows made lazily
              (paths[2 * index + 1], estimate))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reference import build_table

    paths = _paths(args, "reproduce", f"table_{args.table}.csv",
                   f"table_{args.table}_deltas.json")
    seed = args.seed if args.seed is not None else _DEFAULT_SEED
    replicates = args.replicates if args.replicates is not None else _DEFAULT_REPLICATES
    result = build_table(args.table, seed=seed, replicates=replicates)
    ref = result.reference
    meta = {"table_id": ref.table_id, "title": ref.title,
            "version": __version__, **result.metadata}
    report = result.delta_report()
    _emit((paths[0], (ref.columns, result.rows, meta)), (paths[1], report))
    print(f"table {ref.table_id}: max analytic |delta| = "
          f"{report['max_abs_delta_analytic']:.2e}, "
          f"max monte-carlo |delta| = {report['max_abs_delta_mc']:.3f}")
    return 0


# ----------------------------------------------------------------- plumbing

def _admitted_by(key: str):
    """The argparse type of the flag of ``[run]`` key ``key``: that setting's admission."""
    admit = _SETTINGS[key][2]

    def admit_flag(text: str):
        try:
            return admit(text)
        except ValueError as exc:  # argparse prints the rule's message after the flag
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return admit_flag


# Every flag, declared once: option string -> add_argument keywords.
_FLAGS = {
    "--table": {"type": int, "required": True, "metavar": "1..9",
                "help": "reference table number"},
    "--config": {"metavar": "PATH", "help": "experiment config file"},
    "--format": {"dest": "fmt", "type": _admitted_by("format"), "metavar": "csv|json",
                 "help": "output format (default csv)"},
    "--out": {"type": _admitted_by("out"), "metavar": "PATH",
              "help": "output file or directory"},
    "--seed": {"type": _admitted_by("seed"), "metavar": "U64", "help": "master seed"},
    "--replicates": {"type": _admitted_by("replicates"), "metavar": "N",
                     "help": f"Monte Carlo replicates (default {_DEFAULT_REPLICATES})"},
    "--truncation": {"type": _admitted_by("truncation"), "metavar": "N|adaptive",
                     "help": "series truncation: term count or 'adaptive'"},
    "--rmax": {"type": _admitted_by("rmax"), "metavar": "R", "help": "largest moment order"},
}

# the flags of moments, bounds and boundaries
_ANALYTIC_FLAGS = ("--config", "--format", "--out", "--rmax")

# command -> (handler, help, the flags its code reads)
_COMMANDS = {
    "classify": (cmd_classify, "classify the survival regime of each spec",
                 ("--config", "--format", "--out")),
    "moments": (cmd_moments, "emit moment tables", _ANALYTIC_FLAGS),
    "bounds": (cmd_bounds, "evaluate survival lower bounds on the x grid", _ANALYTIC_FLAGS),
    "boundaries": (cmd_boundaries, "emit bound switch boundaries by horizon", _ANALYTIC_FLAGS),
    "simulate": (cmd_simulate, "sample the discounted shock series",
                 ("--config", "--out", "--seed", "--replicates", "--truncation")),
    "reproduce": (cmd_reproduce, "regenerate a reference table with deltas",
                  ("--table", "--seed", "--replicates", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinbounds",
        description="Survival/ruin probabilities for consumption under "
                    "multiplicative shocks: regimes, moments, Chebyshev "
                    "bounds, and seeded simulation.",
    )
    parser.add_argument("--version", action="version", version=f"ruinbounds {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
