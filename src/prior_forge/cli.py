"""Command-line interface.

Subcommands: pool, holder, sparse-mn, compare, poisson-equiv, ordered-mn.
Every subcommand takes --seed, --tol, --out, and --format; the full
effective configuration (defaults included) is echoed into the output
header so results are self-describing. Output files are written
atomically. Exit codes: 0 success (improper or inconclusive findings are
still success), 1 invalid input, 2 numerical failure.

Each handler imports the modules it runs, so a call loads only what its
subcommand needs: poisson-equiv and ordered-mn, for instance, never load
the quadrature stack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .errors import InputError, NumericalError, PriorForgeError
from .util import fmt_value, write_text_atomic


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _config_line(config: dict) -> str:
    parts = [f"{k}={fmt_value(v)}" for k, v in config.items()]
    return "# config: " + " ".join(parts)


def _emit_table(rows, columns, config, extra_comments=()):
    """Render rows as CSV: config echo comment, optional extra comments,
    header line, then data rows at 17 significant digits."""
    lines = [_config_line(config)]
    for comment in extra_comments:
        lines.append(f"# {comment}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt_value(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _emit_json(payload: dict) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(payload, indent=2, default=default) + "\n"


def _write_out(text: str, out_path):
    if out_path:
        write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, extras, rows, columns, **scalars) -> int:
    """Write a row table in the requested format: JSON holds the effective
    config (with the handler's extras), the summary scalars and the rows;
    CSV echoes the scalars as comments above the table."""
    config = _effective_config(args, extras)
    if args.format == "json":
        text = _emit_json({"config": config, **scalars, "rows": rows})
    else:
        text = _emit_table(rows, columns, config, extra_comments=[
            f"{k}={fmt_value(v)}" for k, v in scalars.items()])
    _write_out(text, args.out)
    return 0


def _parse_kv_spec(spec: str):
    """Parse 'family:key=value,key=value' density/component specs."""
    family, _, rest = spec.partition(":")
    family = family.strip()
    params = {}
    if rest:
        if family == "grid-file" and "=" not in rest:
            params["path"] = rest
        else:
            for item in rest.split(","):
                if "=" not in item:
                    raise InputError(f"malformed spec item {item!r} in {spec!r}")
                key, _, value = item.partition("=")
                params[key.strip()] = value.strip()
    return family, params


def _spec_float(params, key, spec, default=None):
    if key not in params:
        if default is None:
            raise InputError(f"spec {spec!r} is missing {key!r}")
        return default
    value = params[key]
    # float() would take JSON true and false as 1.0 and 0.0
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InputError(f"spec {spec!r}: {key} must be a number")


def _build_components(specs: list) -> list:
    """Tabulate component densities on one shared grid.

    All components must declare the same support. When grid files are
    present the first file's grid is the shared one; otherwise the
    default grid for the common domain type is built once and every
    analytic family is tabulated on it.
    """
    from . import density as dens

    # (label, support, grid-file density or (log_pdf, normalized) recipe)
    entries = []
    for i, spec in enumerate(specs):
        if isinstance(spec, str):
            family, params = _parse_kv_spec(spec)
            label = spec
        elif not isinstance(spec, dict):
            raise InputError(f"component {i} must be a spec string or a JSON "
                             f"object, got {spec!r}")
        else:
            family = spec.get("family")
            params = {k: v for k, v in spec.items() if k != "family"}
            label = f"component {i}"
        fam = dens.FAMILIES.get(family) if isinstance(family, str) else None
        if fam is None and family != "grid-file":
            raise InputError(f"unknown density family {family!r} in {label}")
        keys = tuple(fam.params) if fam else ("path",)
        unknown = sorted(set(params) - set(keys))
        if unknown:
            raise InputError(f"spec {label!r}: unknown key(s) {', '.join(unknown)}; "
                             f"{family} takes {', '.join(keys)}")
        if fam is None:
            path = params.get("path")
            if not path:
                raise InputError(f"{label}: grid-file needs a path")
            d = dens.read_density(path)
            entries.append((label, (d.domain_lo, d.domain_hi), d))
            continue
        values = {key: _spec_float(params, key, label, default)
                  for key, default in fam.params.items()}
        try:
            support, log_pdf, normalized = fam.build(**values)
        except InputError as exc:
            raise InputError(f"{label}: {exc}") from None
        entries.append((label, support, (log_pdf, normalized)))

    domains = {support for _, support, _ in entries}
    if len(domains) != 1:
        raise InputError(
            "all pool components must share one support; got "
            + ", ".join(sorted(f"[{lo}, {hi}]" for lo, hi in domains))
        )
    files = [(label, s) for label, _, s in entries if isinstance(s, dens.GridDensity)]
    template = files[0][1] if files else dens.improper_flat(*domains.pop())
    for label, d in files[1:]:
        if not template.same_grid(d):
            raise InputError(f"{label}: grid differs from the first grid file")
    return [s if isinstance(s, dens.GridDensity) else dens._tabulate(template, *s)
            for _, _, s in entries]


def _binomial_data(lk, items):
    if len(items) != 2:
        raise InputError("binomial data must be 'successes,trials'")
    return lk.binomial_counts(int(items[0]), int(items[1]))


def _grid_file_data(lk, items):
    from .density import read_density
    table = read_density(",".join(items))  # the path, commas and all
    return lk.tabulated_likelihood(table.nodes, table.log_values,
                                   table.domain_lo, table.domain_hi)


def _data_reader(build):
    """The constructor of a --likelihood from the --data string: build gets
    the likelihoods module and the comma-split data."""
    def read(data: str):
        from . import likelihoods
        return build(likelihoods, data.split(","))
    return read


# --likelihood name -> constructor from the --data string
_LIKELIHOODS = {name: _data_reader(build) for name, build in (
    ("normal", lambda lk, items: lk.normal_location([float(v) for v in items])),
    ("binomial", _binomial_data),
    ("poisson", lambda lk, items: lk.poisson_counts([int(v) for v in items])),
    ("multinomial", lambda lk, items: lk.multinomial_counts([int(v) for v in items])),
    ("grid-file", _grid_file_data),
)}


def _effective_config(args, extras):
    return {"command": args.command, "seed": args.seed, "tol": args.tol,
            "format": args.format, **extras}


def _input_name(path):
    """File-argument form for the config echo: base name only, so output
    bytes do not depend on where the caller keeps the input file."""
    return os.path.basename(path) if path else path


def _hyper_from_args(args):
    from .sparse_multinomial import HyperPriorSpec
    return HyperPriorSpec(
        kind=args.hyperprior,
        a_max=args.a_max,
        path=getattr(args, "hyper_file", None),
    )


def _counts_from_args(args):
    from .sparse_multinomial import CountVector, canonical_counts
    if getattr(args, "counts", None):
        return CountVector(tuple(int(v) for v in args.counts.split(",")))
    missing = [name for name in ("m", "n", "r0") if getattr(args, name) is None]
    if missing:
        raise InputError(
            "provide either --counts or all of --m/--n/--r0 (missing: "
            + ", ".join("--" + v for v in missing) + ")"
        )
    return canonical_counts(args.m, args.n, args.r0)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_pool(args) -> int:
    from .density import header_line, write_density
    from .pooling import (PoolProblem, PoolWeights, arithmetic_pool,
                          equal_weights, geometric_pool)

    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or not isinstance(spec.get("components"), list) \
            or not spec["components"]:
        raise InputError("pool spec must list at least one component")
    components = _build_components(spec["components"])
    if "weights" in spec:
        if isinstance(spec["weights"], list) \
                and any(isinstance(w, bool) for w in spec["weights"]):
            raise InputError("pool weights must be numbers, not true or false")
        try:
            alphas = np.asarray(spec["weights"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"pool weights must be a list of numbers ({exc})") from None
        weights = PoolWeights(alphas)
    else:
        weights = equal_weights(len(components))
    problem = PoolProblem(tuple(components), weights)
    pooled = geometric_pool(problem, args.tol) if args.kind == "geometric" \
        else arithmetic_pool(problem)
    config = _effective_config(args, {
        "spec": _input_name(args.spec), "kind": args.kind,
        "weights": ",".join(fmt_value(float(w)) for w in weights.alphas),
    })
    if args.format == "json":
        payload = {
            "config": config,
            "domain_lo": pooled.domain_lo,
            "domain_hi": pooled.domain_hi,
            "normalized": pooled.normalized,
            "note": pooled.note,
            "nodes": pooled.nodes,
            "log_values": pooled.log_values,
        }
        _write_out(_emit_json(payload), args.out)
    else:
        notes = [f"note: {pooled.note}"] if pooled.note else []
        if args.out:
            write_density(pooled, args.out,
                          extra_header=[_config_line(config).lstrip("# ")] + notes)
        else:
            rows = [{"abscissa": float(x), "log_density": float(lv)}
                    for x, lv in zip(pooled.nodes, pooled.log_values)]
            text = _emit_table(rows, ["abscissa", "log_density"], config,
                               extra_comments=[header_line(pooled)] + notes)
            _write_out(text, None)
    return 0


def _cmd_holder(args) -> int:
    from .propriety import holder_check

    components = _build_components([args.mu, args.nu])
    likelihood = _LIKELIHOODS[args.likelihood](args.data)
    report = holder_check(components[0], components[1], args.alpha,
                          likelihood, args.tol)
    config = _effective_config(args, {
        "mu": args.mu, "nu": args.nu, "alpha": args.alpha,
        "likelihood": args.likelihood, "data": args.data,
    })
    row = {
        "lhs": report.lhs, "rhs": report.rhs,
        "lhs_error": report.lhs_error, "rhs_error": report.rhs_error,
        "holds": report.holds, "inconclusive": report.inconclusive,
        "mu_posterior_mass": report.mu_mass.mass.value,
        "nu_posterior_mass": report.nu_mass.mass.value,
    }
    if args.format == "json":
        _write_out(_emit_json({"config": config, **row}), args.out)
    else:
        _write_out(_emit_table([row], list(row.keys()), config), args.out)
    if not report.holds:
        raise NumericalError(
            "interpolation inequality violated beyond quadrature error; "
            "this indicates an internal numerical fault"
        )
    return 0


def _json_int(value, what: str) -> int:
    """int(value) for a count read from JSON. true, false and fractions are
    refused, which int() would take as 1, 0 and a truncation."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise InputError(f"{what} must be an integer, got {json.dumps(value)}")
    return int(value)


def _read_configs(path: str) -> list:
    """(m, n, r0) triples from a JSON list of {"m", "n", "r0"} objects."""
    with open(path) as fh:
        configs = json.load(fh)
    if not isinstance(configs, list):
        raise InputError(f"{path}: configs must be a JSON list")
    try:
        return [tuple(_json_int(c[key], f"{path}: config {i}: {key}")
                      for key in ("m", "n", "r0"))
                for i, c in enumerate(configs)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: every config needs integer m, n and r0 "
                         f"({type(exc).__name__}: {exc})") from None


def _cmd_sparse_mn(args) -> int:
    from .sparse_multinomial import (SUMMARY_COLUMNS, v_summary_row,
                                     v_summary_table)

    hyper = _hyper_from_args(args)
    if args.configs:
        rows = v_summary_table(_read_configs(args.configs), hyper,
                               tolerance=args.tol)
    else:
        rows = [v_summary_row(_counts_from_args(args), hyper, args.tol)]
    return _emit_rows(args, {
        "hyperprior": hyper.kind,
        "a_max": hyper.a_max,
        "hyper_file": _input_name(hyper.path),
        "configs": _input_name(args.configs),
    }, rows, SUMMARY_COLUMNS)


def _cmd_compare(args) -> int:
    from .sparse_multinomial import COMPARE_COLUMNS, compare_priors

    data = _counts_from_args(args)
    hyper = _hyper_from_args(args)
    a_point = args.a_point if args.a_point is not None else 1.0 / data.m
    rows = compare_priors(data, hyper, a_point, tolerance=args.tol)
    return _emit_rows(args, {
        "m": data.m, "n": data.n, "r0": data.r0,
        "hyperprior": hyper.kind, "a_point": a_point,
    }, rows, COMPARE_COLUMNS)


def _cmd_poisson_equiv(args) -> int:
    from .reparam import MarginalCheck, dirichlet_equivalence_report
    from .streams import RandomStream

    betas = [float(v) for v in args.betas.split(",")]
    stream = RandomStream(args.seed, 0)
    report = dirichlet_equivalence_report(args.a, args.m, args.count, betas,
                                          stream)
    rows = [asdict(check) for check in report.checks]
    columns = [f.name for f in fields(MarginalCheck)]
    extras = {"a": args.a, "m": args.m, "count": args.count, "betas": args.betas}
    return _emit_rows(args, extras, rows, columns,
                      exact_invariance_sup=report.exact_invariance_sup,
                      all_ok=report.all_ok)


def _cmd_ordered_mn(args) -> int:
    from .reparam import OrderedCellRow, ordered_prior_diagnostics
    from .streams import RandomStream

    stream = RandomStream(args.seed, 0)
    report = ordered_prior_diagnostics(args.m, args.count, stream)
    rows = [asdict(r) for r in report.rows]
    columns = [f.name for f in fields(OrderedCellRow)]
    return _emit_rows(args, {"m": args.m, "count": args.count}, rows, columns,
                      k_star=report.k_star, mean_sum=report.mean_sum)


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser(command=None) -> _Parser:
    """The CLI parser. The arguments of sparse-mn and compare are added only
    when command is that subcommand or None: their --hyperprior choices are
    sparse_multinomial.HYPER_KINDS, and no other subcommand imports that
    module."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed for all randomized work (default 0)")
    common.add_argument("--tol", type=float, default=1e-8,
                        help="relative quadrature tolerance (default 1e-8)")
    common.add_argument("--out", default=None,
                        help="output file (atomic write); stdout when omitted")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")

    parser = _Parser(prog="prior-forge",
                     description="pool priors, check propriety, summarize "
                                 "sparse multinomial posteriors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", parents=[common],
                       help="pool component densities from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON file with components and weights")
    p.add_argument("--kind", choices=("geometric", "arithmetic"),
                   default="geometric")
    p.set_defaults(handler=_cmd_pool)

    p = sub.add_parser("holder", parents=[common],
                       help="interpolation-inequality check for two priors")
    p.add_argument("--mu", required=True, help="density spec, e.g. beta:a=0.5,b=0.5")
    p.add_argument("--nu", required=True, help="density spec, e.g. exp-tilt:b=1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--likelihood", required=True, choices=tuple(_LIKELIHOODS))
    p.add_argument("--data", required=True,
                   help="comma-separated data (or a file path for grid-file)")
    p.set_defaults(handler=_cmd_holder)

    def add_count_args(p, with_configs):
        from .sparse_multinomial import HYPER_KINDS

        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r0", type=int, default=None)
        p.add_argument("--counts", default=None,
                       help="explicit comma-separated cell counts")
        p.add_argument("--hyperprior", default="pareto-v", choices=HYPER_KINDS)
        p.add_argument("--a-max", type=float, default=None, dest="a_max")
        p.add_argument("--hyper-file", default=None, dest="hyper_file",
                       help="density file for --hyperprior grid-file")
        if with_configs:
            p.add_argument("--configs", default=None,
                           help="JSON list of {m,n,r0} sweep configurations")

    p = sub.add_parser("sparse-mn", parents=[common],
                       help="v-posterior summaries for sparse count tables")
    if command in (None, "sparse-mn"):
        add_count_args(p, with_configs=True)
    p.set_defaults(handler=_cmd_sparse_mn)

    p = sub.add_parser("compare", parents=[common],
                       help="cell-probability table: reference, fixed-a, hierarchical")
    if command in (None, "compare"):
        add_count_args(p, with_configs=False)
        p.add_argument("--a-point", type=float, default=None, dest="a_point",
                       help="fixed concentration for the conditional column "
                            "(default 1/m)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("poisson-equiv", parents=[common],
                       help="normalized-gamma vs Dirichlet equivalence report")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--betas", default="0.1,1,10")
    p.set_defaults(handler=_cmd_poisson_equiv)

    p = sub.add_parser("ordered-mn", parents=[common],
                       help="ordered stick-breaking prior diagnostics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=100000)
    p.set_defaults(handler=_cmd_ordered_mn)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first argument that does not start with "-" as the
    # subcommand, as the main parser has no option but --help; "" names none
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (PriorForgeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
