"""Command-line interface.

Subcommands map one-to-one onto the library: exact MGF/cumulants, asymptotic
coefficients and predictions, partition function expansion, Monte Carlo
sampling, and the verification experiments.  Output is JSON (stable field
order, shortest round-trip floats) or CSV ('.' decimal, ',' separator,
header row) on stdout or --out; diagnostics go to stderr.  Exit codes:
0 success, 2 input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import asymptotics, verify
from .exact import (
    Disk,
    DiskSystem,
    EnsembleParams,
    joint_cumulants_exact,
    log_mgf_exact,
    log_partition_exact,
)
from .sampler import mc_cumulants, sample_counts

__all__ = ["build_parser", "main"]


def _emit(args, payload) -> None:
    if isinstance(payload, tuple):  # (header, rows) of a CSV table
        header, rows = payload
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        # ndarrays and numpy integers reach `default`: tolist gives Python numbers
        text = json.dumps(payload, allow_nan=False, default=lambda o: o.tolist()) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_disk(spec: str) -> Disk:
    fields: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"disk field {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("r", "s", "u"):
            raise ValueError(f"unknown disk field {key!r} (expected r, s or u)")
        if key in fields:
            raise ValueError(f"duplicate disk field {key!r}")
        fields[key] = float(value)
    u = fields.pop("u", 0.0)
    if set(fields) == {"r"}:
        return Disk.fixed(fields["r"], u)
    if set(fields) == {"s"}:
        return Disk.edge(fields["s"], u)
    raise ValueError(f"disk {spec!r} needs exactly one of r=<radius> or s=<edge param>")


def _disks_from(args) -> DiskSystem:
    if not args.disk:
        raise ValueError("at least one --disk is required")
    return DiskSystem([_parse_disk(d) for d in args.disk])


def _params_from(args, n: int | None = None) -> EnsembleParams:
    return EnsembleParams(b=args.b, alpha=args.alpha, n=args.n if n is None else n)


def _list(text: str, kind=int) -> list:
    return [kind(v) for v in text.split(",") if v.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _describe_disks(params: EnsembleParams, disks: DiskSystem) -> list[dict]:
    return [{"radius": float(r), "kind": kind, "u": float(u)}
            for r, (kind, _), u in zip(disks.resolve(params), disks.classify(params.b), disks.u)]


def _describe_params(params: EnsembleParams) -> dict:
    return {"b": params.b, "alpha": params.alpha, "n": params.n}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns its output: a JSON payload (dict) or a
# CSV table (header, rows)


def _cmd_mgf_exact(args) -> dict:
    params = _params_from(args)
    disks = _disks_from(args)
    return {
        "params": _describe_params(params),
        "disks": _describe_disks(params, disks),
        "log_mgf": log_mgf_exact(params, disks),
    }


def _cmd_coeffs(args) -> dict:
    # the coefficients do not depend on n; --n adds the prediction at that n
    params = _params_from(args, n=1 if args.n is None else args.n)
    disks = _disks_from(args)
    coeffs = asymptotics.theorem_coefficients(params, disks)
    payload = {
        "params": _describe_params(params),
        "C1": coeffs.C1,
        "C2": coeffs.C2,
        "C3": coeffs.C3,
        "C4": coeffs.C4,
        "quad_error": coeffs.quad_error,
        "per_disk_breakdown": [
            {"index": d.index, "kind": d.kind, "C1": d.C1, "C2": d.C2, "C3": d.C3, "C4": d.C4}
            for d in coeffs.per_disk
        ],
    }
    if args.n is not None:
        payload["log_mgf_predicted"] = coeffs.evaluate(params.n)
    return payload


def _cmd_cumulants(args) -> dict | tuple:
    params = _params_from(args)
    disks = _disks_from(args)
    orders = _list(args.orders)
    if args.mode == "exact" and args.format == "csv":
        raise ValueError("--format csv needs --mode asymptotic")
    if args.mode == "asymptotic" and args.joint:
        raise ValueError("--joint needs --mode exact")
    if args.mode == "exact":
        p = len(disks.disks)
        marginal = [(order, disk_idx) for order in orders for disk_idx in range(p)]
        joint = [tuple(_list(j)) for j in args.joint or []]
        multis = [tuple(order if i == disk_idx else 0 for i in range(p))
                  for order, disk_idx in marginal] + joint
        values = joint_cumulants_exact(params, disks, multis)
        entries = [{"disk": disk_idx, "order": order, "value": value}
                   for (order, disk_idx), value in zip(marginal, values)]
        entries += [{"multi_index": list(multi), "value": value}
                    for multi, value in zip(joint, values[len(marginal):])]
        return {
            "params": _describe_params(params),
            "disks": _describe_disks(params, disks),
            "cumulants": entries,
        }
    # asymptotic coefficient tables, one row per (disk, order); r_or_s is classify's x
    per_disk = zip(*(asymptotics.cumulant_coeffs(order, params, disks) for order in orders))
    rows = [(params.b, params.alpha, x, kind, order, series.leading, series.c, series.d,
             series.e, series.evaluate(params.n))
            for (kind, x), by_order in zip(disks.classify(params.b), per_disk)
            for order, series in zip(orders, by_order)]
    header = ("b", "alpha", "r_or_s", "kind", "order", "leading", "c", "d", "e", "value_at_n")
    if args.format == "csv":
        return header, rows
    return {"params": _describe_params(params), "series": [dict(zip(header, row)) for row in rows]}


def _cmd_zn(args) -> dict:
    params = _params_from(args)
    expansion = asymptotics.zn_expansion(params)
    exact = log_partition_exact(params)
    return {
        "params": _describe_params(params),
        "log_zn_exact": exact,
        "expansion": expansion.value,
        "includes_constant": expansion.includes_constant,
        "constant": expansion.constant,
        "residual": exact - expansion.value,
    }


def _cmd_sample(args) -> dict | tuple:
    params = _params_from(args)
    disks = _disks_from(args)
    batch = sample_counts(params, disks, args.num_samples, args.seed, threads=args.threads)
    if args.format == "csv":
        p = batch.counts.shape[1]
        header = ["sample"] + [f"count_{i + 1}" for i in range(p)]
        return header, [[idx, *counts] for idx, counts in enumerate(batch.counts.tolist())]
    stats = mc_cumulants(batch, max_order=4)
    return {
        "params": _describe_params(params),
        "disks": _describe_disks(params, disks),
        "seed": batch.seed,
        "num_samples": batch.num_samples,
        "mean": stats.values[:, 0],
        "var": stats.values[:, 1],
        "cumulants": stats.values,
        "se": stats.se,
    }


def _cmd_verify_residual(args) -> dict:
    n_values = _list(args.n_values)
    params = _params_from(args, n=max(n_values))
    disks = _disks_from(args)
    scan = verify.residual_scan(params, disks, n_values)
    magnitudes = [abs(r) for r in scan.residuals]
    monotone = all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
    return {
        "experiment": "residual_scan",
        "inputs": {
            "params": _describe_params(params),
            "n_values": list(scan.n_values),
        },
        "outputs": {
            "residuals": list(scan.residuals),
            "fitted_rate": scan.fitted_rate,
            "fitted_K": scan.fitted_K,
            "quad_error": scan.quad_error,
            "monotone_decreasing": monotone,
        },
        "tolerances": {"rate_lo": args.rate_lo, "rate_hi": args.rate_hi},
        "pass": args.rate_lo <= scan.fitted_rate <= args.rate_hi and monotone,
    }


def _cmd_verify_clt(args) -> dict:
    params = _params_from(args)
    bulk_r = _list(args.bulk_r, float)
    result = verify.clt_experiment(
        params, bulk_r, args.s, args.num_samples, args.seed, threads=args.threads
    )
    return {
        "experiment": "clt",
        "inputs": {
            "params": _describe_params(params),
            "bulk_r": bulk_r,
            "s": args.s,
            "num_samples": args.num_samples,
            "seed": args.seed,
        },
        "outputs": {
            "covariance": result.covariance,
            "max_abs_deviation": result.max_abs_deviation,
            "means": result.means,
        },
        "tolerances": {"max_abs_deviation": args.tol},
        "pass": result.max_abs_deviation <= args.tol,
    }


_NEGATIVE_FLOAT = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """Reads any negative float literal after an option as its value, where
    argparse alone takes only -<digits> and -<digits>.<digits> ("--alpha -1e-05"
    failed while "--alpha=-1e-05" worked).  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT


def _add_common(sub, n=True, disks=True) -> None:
    sub.add_argument("--b", type=float, required=True, help="potential exponent b > 0")
    sub.add_argument("--alpha", type=float, default=0.0, help="charge at the origin (> -1)")
    if n:
        sub.add_argument("--n", type=int, required=True, help="particle count")
    if disks:
        sub.add_argument(
            "--disk",
            action="append",
            metavar="SPEC",
            help="disk as r=<radius>[,u=<weight>] or s=<edge param>[,u=<weight>]; repeatable",
        )
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _add_threads(sub) -> None:
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="worker cap for sampling (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlcounts",
        description="Disk counting statistics of the Mittag-Leffler ensemble",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("mgf-exact", help="exact log moment generating function")
    _add_common(s)
    s.set_defaults(handler=_cmd_mgf_exact)

    # mgf-asymptotic, the old name, stays while perfbench's cli-session calls it
    # and goes once cli-session calls `coeffs --n`
    s = subs.add_parser("coeffs", aliases=["mgf-asymptotic"],
                        help="expansion coefficients C1..C4, with --n the predicted log-MGF")
    _add_common(s, n=False)
    s.add_argument("--n", type=int, help="also predict the log-MGF at this particle count")
    s.set_defaults(handler=_cmd_coeffs)

    s = subs.add_parser("cumulants", help="disk count cumulants")
    _add_common(s)
    s.add_argument("--orders", default="1,2", help="comma-separated marginal orders")
    s.add_argument("--joint", action="append",
                   help="joint cumulant multi-index, e.g. 1,1; repeatable (exact mode)")
    s.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    s.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv: the asymptotic coefficient table")
    s.set_defaults(handler=_cmd_cumulants)

    s = subs.add_parser("zn", help="partition function: exact vs expansion")
    _add_common(s, disks=False)
    s.set_defaults(handler=_cmd_zn)

    s = subs.add_parser("sample", help="Monte Carlo disk counts")
    _add_common(s)
    _add_threads(s)
    s.add_argument("--num-samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=("csv", "json"), default="json",
                   help="csv: one row per sample; json: summary statistics")
    s.set_defaults(handler=_cmd_sample)

    s = subs.add_parser("verify-residual", help="remainder scaling of the log-MGF expansion")
    _add_common(s, n=False)
    s.add_argument("--n-values", required=True, help="comma-separated increasing n list")
    s.add_argument("--rate-lo", type=float, default=-1.35)
    s.add_argument("--rate-hi", type=float, default=-0.75)
    s.set_defaults(handler=_cmd_verify_residual)

    s = subs.add_parser("verify-clt", help="joint Gaussian fluctuation check")
    _add_common(s, disks=False)
    _add_threads(s)
    s.add_argument("--bulk-r", default="", help="comma-separated bulk radii")
    s.add_argument("--s", type=float, default=None, help="edge parameter (omit for no edge disk)")
    s.add_argument("--num-samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=0.05)
    s.set_defaults(handler=_cmd_verify_clt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        _emit(args, payload)
    # a Warning is raised only where warnings are errors (python -W error)
    except (ValueError, ArithmeticError, Warning, verify.BelowNoiseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 3 if isinstance(payload, dict) and payload.get("pass") is False else 0


if __name__ == "__main__":
    raise SystemExit(main())
