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
import sys

import numpy as np

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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit(args, payload=None, csv_rows=None, csv_header=None) -> None:
    if csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonable(payload), allow_nan=False) + "\n"
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


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _describe_disks(params: EnsembleParams, disks: DiskSystem) -> list[dict]:
    res = disks.resolve(params)
    return [
        {"radius": float(r), "kind": k, "u": float(u)}
        for r, k, u in zip(res.radii, res.kinds, res.u)
    ]


def _describe_params(params: EnsembleParams) -> dict:
    return {"b": params.b, "alpha": params.alpha, "n": params.n}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the process exit code


def _cmd_mgf_exact(args) -> int:
    params = _params_from(args)
    disks = _disks_from(args)
    payload = {
        "params": _describe_params(params),
        "disks": _describe_disks(params, disks),
        "log_mgf": log_mgf_exact(params, disks),
    }
    _emit(args, payload)
    return 0


def _cmd_mgf_asymptotic(args) -> int:
    params = _params_from(args)
    disks = _disks_from(args)
    coeffs = asymptotics.theorem_coefficients(params, disks)
    payload = {
        "params": _describe_params(params),
        "disks": _describe_disks(params, disks),
        "C1": coeffs.C1,
        "C2": coeffs.C2,
        "C3": coeffs.C3,
        "C4": coeffs.C4,
        "quad_error": coeffs.quad_error,
        "log_mgf_predicted": coeffs.evaluate(params.n),
    }
    _emit(args, payload)
    return 0


def _cmd_coeffs(args) -> int:
    params = _params_from(args, n=1)  # the coefficients do not depend on n
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
    _emit(args, payload)
    return 0


def _cmd_cumulants(args) -> int:
    params = _params_from(args)
    disks = _disks_from(args)
    orders = _int_list(args.orders)
    if args.mode == "exact":
        p = len(disks.disks)
        marginal = [(order, disk_idx) for order in orders for disk_idx in range(p)]
        joint = [tuple(_int_list(j)) for j in args.joint or []]
        multis = [tuple(order if i == disk_idx else 0 for i in range(p))
                  for order, disk_idx in marginal] + joint
        values = joint_cumulants_exact(params, disks, multis)
        entries = [{"disk": disk_idx, "order": order, "value": value}
                   for (order, disk_idx), value in zip(marginal, values)]
        entries += [{"multi_index": list(multi), "value": value}
                    for multi, value in zip(joint, values[len(marginal):])]
        payload = {
            "params": _describe_params(params),
            "disks": _describe_disks(params, disks),
            "cumulants": entries,
        }
        _emit(args, payload)
        return 0
    # asymptotic coefficient tables, one row per (disk, order)
    kinds, s_frak = disks.classify(params.b)
    rows = []
    for disk, kind in zip(disks.disks, kinds):
        for order in orders:
            if kind == "bulk":
                series = asymptotics.bulk_cumulant_coeffs(order, params.b, params.alpha, disk.r)
                key = disk.r
            elif kind == "edge":
                series = asymptotics.edge_cumulant_coeffs(order, params.b, params.alpha, s_frak)
                key = s_frak
            else:
                series = asymptotics.outside_cumulant_coeffs(order)
                key = disk.r
            rows.append(
                (params.b, params.alpha, key, kind, order, series.leading, series.c,
                 series.d, series.e, series.evaluate(params.n))
            )
    header = ("b", "alpha", "r_or_s", "kind", "order", "leading", "c", "d", "e", "value_at_n")
    if args.format == "csv":
        _emit(args, csv_rows=rows, csv_header=header)
    else:
        _emit(args, {"params": _describe_params(params),
                     "series": [dict(zip(header, row)) for row in rows]})
    return 0


def _cmd_zn(args) -> int:
    params = _params_from(args)
    expansion = asymptotics.zn_expansion(params, max_denominator=args.max_denominator)
    exact = log_partition_exact(params)
    payload = {
        "params": _describe_params(params),
        "log_zn_exact": exact,
        "expansion": expansion.value,
        "includes_constant": expansion.includes_constant,
        "constant": expansion.constant,
        "residual": exact - expansion.value,
    }
    _emit(args, payload)
    return 0


def _cmd_sample(args) -> int:
    params = _params_from(args)
    disks = _disks_from(args)
    batch = sample_counts(params, disks, args.num_samples, args.seed, threads=args.threads)
    if args.format == "csv":
        p = batch.counts.shape[1]
        header = ["sample"] + [f"count_{i + 1}" for i in range(p)]
        rows = [[idx, *counts] for idx, counts in enumerate(batch.counts.tolist())]
        _emit(args, csv_rows=rows, csv_header=header)
        return 0
    stats = mc_cumulants(batch, max_order=4)
    payload = {
        "params": _describe_params(params),
        "disks": _describe_disks(params, disks),
        "seed": batch.seed,
        "num_samples": batch.num_samples,
        "mean": stats.values[:, 0],
        "var": stats.values[:, 1],
        "cumulants": stats.values,
        "se": stats.se,
    }
    _emit(args, payload)
    return 0


def _cmd_verify_residual(args) -> int:
    params = _params_from(args, n=max(_int_list(args.n_values)))
    disks = _disks_from(args)
    scan = verify.residual_scan(params, disks, _int_list(args.n_values))
    magnitudes = [abs(r) for r in scan.residuals]
    monotone = all(m2 < m1 for m1, m2 in zip(magnitudes, magnitudes[1:]))
    ok = args.rate_lo <= scan.fitted_rate <= args.rate_hi and monotone
    payload = {
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
        "pass": ok,
    }
    _emit(args, payload)
    return 0 if ok else 3


def _cmd_verify_clt(args) -> int:
    params = _params_from(args, n=args.n)
    result = verify.clt_experiment(
        params,
        _float_list(args.bulk_r) if args.bulk_r else [],
        args.s,
        args.n,
        args.num_samples,
        args.seed,
        threads=args.threads,
    )
    ok = result.max_abs_deviation <= args.tol
    payload = {
        "experiment": "clt",
        "inputs": {
            "params": _describe_params(params),
            "bulk_r": _float_list(args.bulk_r) if args.bulk_r else [],
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
        "pass": ok,
    }
    _emit(args, payload)
    return 0 if ok else 3


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
    parser = argparse.ArgumentParser(
        prog="mlcounts",
        description="Disk counting statistics of the Mittag-Leffler ensemble",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("mgf-exact", help="exact log moment generating function")
    _add_common(s)
    s.set_defaults(handler=_cmd_mgf_exact)

    s = subs.add_parser("mgf-asymptotic", help="asymptotic log-MGF prediction")
    _add_common(s)
    s.set_defaults(handler=_cmd_mgf_asymptotic)

    s = subs.add_parser("coeffs", help="expansion coefficients C1..C4")
    _add_common(s, n=False)
    s.set_defaults(handler=_cmd_coeffs)

    s = subs.add_parser("cumulants", help="disk count cumulants")
    _add_common(s)
    s.add_argument("--orders", default="1,2", help="comma-separated marginal orders")
    s.add_argument("--joint", action="append",
                   help="joint cumulant multi-index, e.g. 1,1; repeatable")
    s.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(handler=_cmd_cumulants)

    s = subs.add_parser("zn", help="partition function: exact vs expansion")
    _add_common(s, disks=False)
    s.add_argument("--max-denominator", type=int, default=64,
                   help="cap on n1, n2 when writing b = n1/n2 for the constant term")
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
        return args.handler(args)
    except (ValueError, ArithmeticError, verify.BelowNoiseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
