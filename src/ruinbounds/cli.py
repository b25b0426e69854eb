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
line flags override the ``[run]`` section.  Example::

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

Exit codes: 0 success, 2 configuration/usage error, 3 domain error
(for example adaptive simulation of a shock whose mean log is not
positive), 4 I/O error.

At import the module loads only the standard library and the numpy-free
``errors`` and ``_defaults``; each command imports the computing modules
it uses, so ``--version``, ``--help`` and usage errors run without numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from ._defaults import DEFAULT_REPLICATES, DEFAULT_SEED
from .errors import ConfigError, DomainError


class ExperimentConfig:
    """Shock specs and run settings of one command.

    A plain class, not a dataclass, so that loading the CLI for
    ``--version`` or ``--help`` imports neither ``dataclasses`` nor
    ``inspect``.
    """

    c: float = 1.0
    x_grid: tuple = ()
    horizons: tuple = (math.inf,)
    rmax: int = 6
    replicates: int = DEFAULT_REPLICATES
    truncation: int | str = "adaptive"
    seed: int = 0
    fmt: str = "csv"
    out: str | None = None

    def __init__(self):
        self.specs = []  # [(name, ShockSpec)]

    def validate(self) -> None:
        if not self.specs:
            raise ConfigError("no shock specs configured; add a [spec:NAME] section")
        if not 0 < self.c < math.inf:
            raise ConfigError(f"c must be positive and finite, got {self.c}")
        if not all(x > 0 for x in self.x_grid):
            raise ConfigError(f"x grid values must be positive, got {self.x_grid}")
        if self.rmax < 1:
            raise ConfigError(f"rmax must be >= 1, got {self.rmax}")
        for h in self.horizons:
            if h != math.inf and (int(h) != h or h < 1):
                raise ConfigError(f"horizons must be positive integers or inf, got {h}")
        if len(set(self.horizons)) != len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {self.horizons}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")


def _parse_floats(text: str) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        try:
            out.append(float(token))
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {token!r}") from exc
    return tuple(out)


def _parse_horizons(text: str) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        if token.lower() == "inf":
            out.append(math.inf)
            continue
        try:
            out.append(int(token))
        except ValueError as exc:
            raise ConfigError(f"horizon must be an integer or 'inf', got {token!r}") from exc
    return tuple(out)


def _parse_truncation(text: str):
    if text.lower() == "adaptive":
        return "adaptive"
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"truncation must be an integer or 'adaptive', got {text!r}") from exc


# [run] key -> (ExperimentConfig field, parser of the raw config text)
_RUN_FIELDS = {
    "c": ("c", float),
    "x": ("x_grid", _parse_floats),
    "horizons": ("horizons", _parse_horizons),
    "rmax": ("rmax", int),
    "replicates": ("replicates", int),
    "truncation": ("truncation", _parse_truncation),
    "seed": ("seed", int),
    "format": ("fmt", lambda text: text.strip().lower()),
    "out": ("out", str.strip),
}


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
        if section.lower().startswith("spec"):
            name = section.split(":", 1)[1].strip() if ":" in section else section
            record = dict(parser.items(section))
            try:
                cfg.specs.append((name, spec_from_record(record)))
            except ConfigError as exc:
                raise ConfigError(f"{path} [{section}]: {exc}") from exc
        elif section.lower() == "run":
            for key, value in parser.items(section):
                if key not in _RUN_FIELDS:
                    raise ConfigError(
                        f"{path} [run]: unknown key {key!r}; expected one of "
                        f"{sorted(_RUN_FIELDS)}"
                    )
                name, parse = _RUN_FIELDS[key]
                try:
                    setattr(cfg, name, parse(value))
                except ConfigError as exc:
                    raise ConfigError(f"{path} [run] {key}: {exc}") from exc
        else:
            raise ConfigError(f"{path}: unknown section [{section}]")
    cfg.specs.sort(key=lambda item: item[0])
    return cfg


def _merge_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    for name in ("seed", "out", "fmt", "replicates", "truncation", "rmax"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, _parse_truncation(value) if name == "truncation" else value)
    return cfg


def _load_experiment(args: argparse.Namespace) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = _merge_flags(load_config_file(args.config), args)
    cfg.validate()
    return cfg


def _emit(cfg: ExperimentConfig, columns, records, metadata, default_name: str) -> None:
    """Write records as CSV or JSON to cfg.out, or CSV text to stdout.

    CSV rows hold the ``columns`` of each record; JSON keeps every key.
    """
    from .tableio import render_csv, write_csv_table, write_json

    rows = [tuple(record[col] for col in columns) for record in records]
    if cfg.out is None:
        text = render_csv(columns, rows, metadata)
        stdout = getattr(sys.stdout, "buffer", None)
        if stdout is None:  # a text-only stream, such as a redirect to StringIO
            print(text, end="")
        else:  # UTF-8 like every output file, whatever the locale
            sys.stdout.flush()
            stdout.write(text.encode("utf-8"))
        return
    path = Path(cfg.out)
    if path.is_dir() or str(cfg.out).endswith(("/", "\\")):
        path = path / f"{default_name}.{cfg.fmt}"
    if cfg.fmt == "json":
        write_json(path, {"metadata": metadata, "rows": records})
    else:
        write_csv_table(path, columns, rows, metadata)
    print(f"wrote {path}")


def _base_metadata(cfg: ExperimentConfig) -> dict:
    return {"version": __version__, "c": cfg.c, "seed": cfg.seed}


# ----------------------------------------------------------------- commands

def cmd_classify(args: argparse.Namespace) -> int:
    from .regimes import classify

    cfg = _load_experiment(args)
    columns = ("spec", "elog", "m", "M", "d1", "d2",
               "certain_ruin_threshold", "certain_survival_threshold", "regime")
    records = []
    for name, spec in cfg.specs:
        regime = classify(spec)
        records.append({"spec": name, **spec.to_record(), **regime.to_record(),
                        "regime": regime.describe()})
    _emit(cfg, columns, records, _base_metadata(cfg), "classify")
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    from .moments import finite_moments, first_infinite_order, infinite_moments

    cfg = _load_experiment(args)
    finite_hs = sorted(int(h) for h in cfg.horizons if h != math.inf)
    want_series = math.inf in cfg.horizons
    outputs = []
    if want_series:
        records = []
        meta = _base_metadata(cfg)
        for name, spec in cfg.specs:
            table = infinite_moments(spec, cfg.rmax)
            # scan past rmax so the metadata names the order even when it is not printed
            meta[f"first_infinite_{name}"] = first_infinite_order(spec, 1024)
            for r in range(1, cfg.rmax + 1):
                records.append({"spec": name, "r": r, "gamma_r": table.gamma(r),
                                "beta_r": table.beta(r)})
        outputs.append(("moments_series", ("spec", "r", "gamma_r", "beta_r"), records, meta))
    if finite_hs:
        records = []
        for name, spec in cfg.specs:
            grid = finite_moments(spec, cfg.rmax, max(finite_hs))
            for r in range(1, cfg.rmax + 1):
                for n in finite_hs:
                    records.append({"spec": name, "r": r, "n": n,
                                    "beta_r_n": grid.beta(r, n)})
        outputs.append(("moments_horizons", ("spec", "r", "n", "beta_r_n"), records,
                        _base_metadata(cfg)))
    if not outputs:
        raise ConfigError("horizons selected neither 'inf' nor any finite horizon")
    for default_name, columns, records, meta in outputs:
        _emit(cfg, columns, records, meta, default_name)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import evaluate_bound, schedules

    cfg = _load_experiment(args)
    if not cfg.x_grid:
        raise ConfigError("an x grid is required; set x in [run] or the config file")
    columns = ("spec", "horizon", "x", "order", "survival_lower",
               "ruin_upper", "ruin_raw", "vacuous")
    horizons = sorted(h if h == math.inf else int(h) for h in cfg.horizons)  # series last
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
    _emit(cfg, columns, records, {**_base_metadata(cfg), "rmax": cfg.rmax}, "bounds")
    return 0


def cmd_boundaries(args: argparse.Namespace) -> int:
    from .bounds import boundary_table

    cfg = _load_experiment(args)
    labels = tuple("Z" if h == math.inf else f"Z_{int(h)}" for h in cfg.horizons)
    columns = ("spec", "r") + labels
    records = []
    for name, spec in cfg.specs:
        bt = boundary_table(spec, cfg.c, cfg.horizons, cfg.rmax)
        for i, r in enumerate(bt.orders):
            records.append({"spec": name, "r": r,
                            **{lab: float(v) for lab, v in zip(labels, bt.values[i])}})
    _emit(cfg, columns, records, {**_base_metadata(cfg), "rmax": cfg.rmax}, "boundaries")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import SimConfig, ecdf_survival, sample_Z
    from .reference import derive_seed
    from .tableio import write_csv_table, write_json

    cfg = _load_experiment(args)
    if cfg.out is None:
        raise ConfigError("simulate writes sample files; --out DIR is required")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (name, spec) in enumerate(cfg.specs):
        sim = SimConfig(replicates=cfg.replicates, truncation=cfg.truncation,
                        seed=derive_seed(cfg.seed, index))
        est = sample_Z(spec, sim)
        meta = est.metadata()
        meta["master_seed"] = cfg.seed
        meta["version"] = __version__
        samples_path = out_dir / f"samples_{name}.csv"
        write_csv_table(samples_path, ("sample",), [(v,) for v in est.samples], meta)
        estimate = {
            "metadata": meta,
            "c": cfg.c,
            "x": list(cfg.x_grid),
            "survival": [ecdf_survival(est, x, cfg.c) for x in cfg.x_grid],
        }
        est_path = out_dir / f"estimate_{name}.json"
        write_json(est_path, estimate)
        print(f"wrote {samples_path} and {est_path}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reference import TABLE_IDS, build_table
    from .tableio import write_csv_table, write_json

    if args.table not in TABLE_IDS:
        raise ConfigError(f"--table must be one of {TABLE_IDS}, got {args.table}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    replicates = args.replicates if args.replicates is not None else DEFAULT_REPLICATES
    result = build_table(args.table, seed=seed, replicates=replicates)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = result.reference
    meta = {"table_id": ref.table_id, "title": ref.title,
            "version": __version__, **result.metadata}
    csv_path = out_dir / f"table_{ref.table_id}.csv"
    write_csv_table(csv_path, ref.columns, result.rows, meta)
    json_path = out_dir / f"table_{ref.table_id}_deltas.json"
    report = result.delta_report()
    write_json(json_path, report)
    print(f"wrote {csv_path} and {json_path}")
    print(f"table {ref.table_id}: max analytic |delta| = "
          f"{report['max_abs_delta_analytic']:.2e}, "
          f"max monte-carlo |delta| = {report['max_abs_delta_mc']:.3f}")
    return 0


# ----------------------------------------------------------------- plumbing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="experiment config file")
    sub.add_argument("--seed", type=int, metavar="U64", help="master seed")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     help="output format (default csv)")
    sub.add_argument("--out", metavar="PATH", help="output file or directory")
    sub.add_argument("--replicates", type=int, metavar="N",
                     help=f"Monte Carlo replicates (default {DEFAULT_REPLICATES})")
    sub.add_argument("--truncation", metavar="N|adaptive",
                     help="series truncation: term count or 'adaptive'")
    sub.add_argument("--rmax", type=int, metavar="R", help="largest moment order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinbounds",
        description="Survival/ruin probabilities for consumption under "
                    "multiplicative shocks: regimes, moments, Chebyshev "
                    "bounds, and seeded simulation.",
    )
    parser.add_argument("--version", action="version", version=f"ruinbounds {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "classify": (cmd_classify, "classify the survival regime of each spec"),
        "moments": (cmd_moments, "emit moment tables"),
        "bounds": (cmd_bounds, "evaluate survival lower bounds on the x grid"),
        "boundaries": (cmd_boundaries, "emit bound switch boundaries by horizon"),
        "simulate": (cmd_simulate, "sample the discounted shock series"),
        "reproduce": (cmd_reproduce, "regenerate a reference table with deltas"),
    }
    for name, (handler, help_text) in handlers.items():
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "reproduce":
            sub.add_argument("--table", type=int, required=True,
                             metavar="1..9", help="reference table number")
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
