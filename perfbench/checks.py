"""Checks of every operation's output against the reference module or a
property the method must have.

`Checker.check(ops, outputs)` returns a list of problems; an empty list means
every output that was produced is correct.  Operations that raised are not
checked here: they are counted as failed by the caller.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.stats import kstat

import reference as R

# Monte Carlo estimates must lie within this many jackknife standard errors
# of the exact cumulants.
MC_SE_BOUND = 5.0
# Remainder of the four-term expansion: |exact - predicted| ~ K n^rate with
# rate in this window (the paper's O(1/n) up to logarithms).
RESIDUAL_RATE = (-1.35, -0.75)
# log Z_n expansion carries the O(1/n) term, so the remainder is O(n^-2):
# halving n multiplies it by ~4.
ZN_RATIO = (3.0, 5.0)


def _basis(n: float) -> np.ndarray:
    rn = math.sqrt(n)
    return np.array([n, rn, 1.0, 1.0 / rn])


def _close(name: str, got, want, tol: float, problems: list[str]) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{name}: got {got!r}, reference {want!r} (tolerance {tol:.2e})")


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


class Checker:
    def __init__(self) -> None:
        self._profiles: dict = {}

    def profile(self, b: float, alpha: float, n: int, disks: list[dict]) -> R.Profile:
        key = (b, alpha, n, tuple(tuple(sorted((k, v) for k, v in d.items() if k != "u")) for d in disks))
        if key not in self._profiles:
            self._profiles[key] = R.Profile(b, alpha, n, disks)
        return self._profiles[key]

    # -- exact engine -------------------------------------------------------

    def log_mgf(self, op: dict, n: int | None = None) -> tuple[float, float]:
        n = op["n"] if n is None else n
        prof = self.profile(op["b"], op["alpha"], n, op["disks"])
        u = [d["u"] for d in op["disks"]]
        ref = R.log_mgf(prof, u)
        return ref, R.log_mgf_tol(prof, u, ref)

    def _cumulants(self, tag, b, alpha, n, disks, orders, got, problems) -> None:
        prof = self.profile(b, alpha, n, disks)
        for multi, value in zip(orders, got):
            ref = R.cumulant(prof, tuple(multi))
            _close(f"{tag} kappa{tuple(multi)}", value, ref, R.cumulant_tol(prof, tuple(multi), ref), problems)

    def check(self, ops: list[dict], outputs: list) -> list[str]:
        problems: list[str] = []
        for op, out in zip(ops, outputs):
            if out is not None:
                getattr(self, "_" + op["call"])(op, out, ops, outputs, problems)
        self._zn_rates(ops, outputs, problems)
        if self._profiles:
            try:
                R.gamma_self_check(max(prof.a_max for prof in self._profiles.values()))
            except ArithmeticError as exc:
                problems.append(f"reference incomplete gamma: {exc}")
        return problems

    def _log_mgf_exact(self, op, out, ops, outputs, problems) -> None:
        tag = f"{op['id']} n={op['n']}"
        ref, tol = self.log_mgf(op)
        _close(f"{tag} log-MGF", out, ref, tol, problems)
        if op.get("prop") == "zero" and out != 0.0:
            problems.append(f"{tag}: log-MGF at u = 0 is {out!r}, not exactly 0")
        if op.get("prop") == "monotone":
            base = next(o for o, v in zip(ops, outputs)
                        if o.get("cfg") == op["cfg"] and o["n"] == op["n"] and "prop" not in o
                        and o["call"] == "log_mgf_exact")
            base_value = outputs[ops.index(base)]
            if base_value is not None and not out > base_value:
                problems.append(f"{tag}: log-MGF not increasing in u ({base_value!r} -> {out!r})")

    def _mean_var_exact(self, op, out, ops, outputs, problems) -> None:
        p = len(op["disks"])
        orders = [[1 if i == l else 0 for i in range(p)] for l in range(p)]
        orders += [[(i == l1) + (i == l2) for i in range(p)] for l1 in range(p) for l2 in range(l1, p)]
        got = list(out["means"]) + [out["cov"][l1][l2] for l1 in range(p) for l2 in range(l1, p)]
        self._cumulants(op["id"], op["b"], op["alpha"], op["n"], op["disks"], orders, got, problems)

    def _joint_cumulants_exact(self, op, out, ops, outputs, problems) -> None:
        self._cumulants(op["id"], op["b"], op["alpha"], op["n"], op["disks"], op["orders"], out, problems)

    def _residual_scan(self, op, out, ops, outputs, problems) -> None:
        C = R.theorem_C(op["b"], op["alpha"], op["disks"])
        ctol = np.array([R.coeff_tol(c) for c in C])
        refs, tols = [], []
        for n, got in zip(op["n_values"], out["residuals"]):
            lm, tol = self.log_mgf(op, n)
            refs.append(lm - float(C @ _basis(n)))
            tols.append(tol + float(ctol @ _basis(n)))
            _close(f"{op['id']} residual n={n}", got, refs[-1], tols[-1], problems)
        mags = [abs(r) for r in out["residuals"]]
        if not all(m2 < m1 for m1, m2 in zip(mags, mags[1:])):
            problems.append(f"{op['id']}: residuals {mags} do not shrink with n")
        if not RESIDUAL_RATE[0] <= out["fitted_rate"] <= RESIDUAL_RATE[1]:
            problems.append(f"{op['id']}: fitted rate {out['fitted_rate']!r} outside {RESIDUAL_RATE}")
        if all(out["used"]):
            x = np.log(op["n_values"])
            dx = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
            slope = float(np.polyfit(x, np.log(np.abs(refs)), 1)[0])
            tol = float(np.sum(np.abs(dx) * np.array(tols) / np.abs(refs))) + 1e-12
            _close(f"{op['id']} fitted rate", out["fitted_rate"], slope, tol, problems)

    def _coefficient_fit(self, op, out, ops, outputs, problems) -> None:
        ns = np.array(op["n_values"], dtype=float)
        ys, tols = zip(*(self.log_mgf(op, int(n)) for n in ns))
        basis = np.column_stack([ns, np.sqrt(ns), np.ones_like(ns), 1.0 / np.sqrt(ns)])
        scale = np.linalg.norm(basis, axis=0)
        pinv = np.linalg.pinv(basis / scale) / scale[:, None]
        ref_fit = pinv @ np.array(ys)
        fit_tol = np.abs(pinv) @ np.array(tols) + 1e-9 * np.abs(ref_fit)
        C = R.theorem_C(op["b"], op["alpha"], op["disks"])
        for i in range(4):
            _close(f"{op['id']} fitted C{i + 1}", out["fitted"][i], ref_fit[i], fit_tol[i], problems)
            _close(f"{op['id']} predicted C{i + 1}", out["predicted"][i], C[i], R.coeff_tol(C[i]), problems)
            _close(f"{op['id']} deviation C{i + 1}", out["deviations"][i],
                   out["fitted"][i] - out["predicted"][i], 1e-15 * max(1.0, abs(C[i])), problems)
        if abs(out["deviations"][0]) > 1e-6 * abs(C[0]):
            problems.append(f"{op['id']}: fit misses C1 by {out['deviations'][0]!r}")

    # -- expansion coefficients ------------------------------------------------

    def _coeffs(self, tag, got, want, problems) -> None:
        for name, g, w in zip(("C1/leading", "C2/c", "C3/d", "C4/e"), got, want):
            _close(f"{tag} {name}", g, float(w), R.coeff_tol(float(w)), problems)

    def _theorem_coefficients(self, op, out, ops, outputs, problems) -> None:
        self._coeffs(op["id"], out[:4], R.theorem_C(op["b"], op["alpha"], op["disks"]), problems)
        if not (math.isfinite(out[4]) and out[4] >= 0.0):
            problems.append(f"{op['id']}: quad_error {out[4]!r}")

    def _bulk_cumulant_coeffs(self, op, out, ops, outputs, problems) -> None:
        want = R.bulk_cumulant_coeffs(op["j"], op["b"], op["alpha"], op["r"])
        self._coeffs(op["id"], out[:4], want, problems)

    def _edge_cumulant_coeffs(self, op, out, ops, outputs, problems) -> None:
        want = R.edge_cumulant_coeffs(op["j"], op["b"], op["alpha"], op["s"])
        self._coeffs(op["id"], out[:4], want, problems)

    def _outside_cumulant_coeffs(self, op, out, ops, outputs, problems) -> None:
        want = [1.0 if op["j"] == 1 else 0.0, 0.0, 0.0, 0.0]
        if out[:4] != want:
            problems.append(f"{op['id']}: outside coefficients {out[:4]} != {want}")

    def _edge_mean_coeffs(self, op, out, ops, outputs, problems, order: int = 1) -> None:
        """Closed forms (c, d, e) against the quadrature of the same order."""
        want = R.edge_cumulant_coeffs(order, op["b"], op["alpha"], op["s"])[1:]
        for name, g, w in zip(("c", "d", "e"), out, want):
            _close(f"{op['id']} {name}", g, float(w), R.coeff_tol(float(w)), problems)

    def _edge_var_coeffs(self, *args) -> None:
        self._edge_mean_coeffs(*args, order=2)

    def _zn_expansion(self, op, out, ops, outputs, problems) -> None:
        if out[1] is not True:
            problems.append(f"{op['id']}: b = {op['b']} is rational but the constant is missing")

    def _zn_rates(self, ops, outputs, problems) -> None:
        groups: dict = {}
        for op, out in zip(ops, outputs):
            if op["call"] == "zn_expansion" and out is not None:
                groups.setdefault((op["b"], op["alpha"]), []).append((op["n"], out[0]))
        for (b, alpha), pts in groups.items():
            pts.sort()
            resid = [R.log_partition(b, alpha, n) - v for n, v in pts]
            for (n1, _), (n2, _), r1, r2 in zip(pts, pts[1:], resid, resid[1:]):
                ratio = r1 / r2 if r2 else math.inf
                if not (n2 == 2 * n1 and ZN_RATIO[0] <= ratio <= ZN_RATIO[1]):
                    problems.append(f"zn b={b} alpha={alpha}: remainder ratio {ratio!r} "
                                    f"from n={n1} to {n2} is not ~4 (residuals {resid})")

    # -- Monte Carlo -------------------------------------------------------------

    def _mc_against_exact(self, tag, values, se, prof, problems) -> None:
        for l, (vals, errs) in enumerate(zip(values, se)):
            for j, (v, e) in enumerate(zip(vals, errs), start=1):
                ref = R.marginal_cumulant(prof, l, j)
                if not (math.isfinite(v) and e >= 0.0 and abs(v - ref) <= MC_SE_BOUND * e):
                    problems.append(f"{tag} disk {l} kappa{j}: {v!r} +- {e!r} vs exact {ref!r}")

    @staticmethod
    def _counts_in_range(tag, counts, n, problems) -> None:
        if counts.min() < 0 or counts.max() > n:
            problems.append(f"{tag}: counts outside [0, {n}]")
        if np.any(np.diff(counts, axis=1) < 0):
            problems.append(f"{tag}: counts not nested across disks")

    def _monte_carlo(self, op, out, ops, outputs, problems) -> None:
        counts = np.array(out["counts"])
        n, p = op["n"], len(op["disks"])
        if counts.shape != (op["num_samples"], p):
            problems.append(f"{op['id']}: counts have shape {counts.shape}")
            return
        self._counts_in_range(op["id"], counts, n, problems)
        for l in range(p):
            x = counts[:, l].astype(float)
            # k-statistics of order >= 2 are shift-invariant; centring keeps
            # scipy's power sums of counts^4 well inside double precision
            mine = [float(np.mean(x))] + [float(kstat(x - np.mean(x), k)) for k in (2, 3, 4)]
            for j, (got, want) in enumerate(zip(out["values"][l], mine), start=1):
                _close(f"{op['id']} disk {l} k-statistic {j}", got, want,
                       1e-9 * max(1.0, abs(want)) + 1e-6 * np.var(counts[:, l]) ** (j / 2), problems)
        prof = self.profile(op["b"], op["alpha"], n, op["disks"])
        self._mc_against_exact(op["id"], out["values"], out["se"], prof, problems)

    # -- CLI ---------------------------------------------------------------------

    def _cli(self, op, out, ops, outputs, problems) -> None:
        tag = f"{op['id']} {op['sub']}"
        if out["rc"] != 0:
            return  # counted as a failed operation
        text = out["stdout"]
        if "NaN" in text or "Infinity" in text:
            problems.append(f"{tag}: output contains NaN/Infinity")
            return
        try:
            if "--format" in op["argv"] and op["argv"][op["argv"].index("--format") + 1] == "csv":
                rows = list(csv.DictReader(io.StringIO(text)))
                payload = [{k: (v if k == "kind" else float(v)) for k, v in row.items()} for row in rows]
            else:
                payload = _strict_json(text)
        except ValueError as exc:
            problems.append(f"{tag}: output does not parse: {exc}")
            return
        getattr(self, "_cli_" + op["sub"].replace("-", "_"))(tag, op, payload, problems)

    def _cli_mgf_exact(self, tag, op, payload, problems) -> None:
        ref, tol = self.log_mgf(op["expect"])
        _close(f"{tag} log_mgf", payload["log_mgf"], ref, tol, problems)

    def _cli_mgf_asymptotic(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        C = R.theorem_C(e["b"], e["alpha"], e["disks"])
        self._coeffs(tag, [payload[f"C{i}"] for i in range(1, 5)], C, problems)
        pred = float(C @ _basis(e["n"]))
        _close(f"{tag} prediction", payload["log_mgf_predicted"], pred, 1e-9 * max(1.0, abs(pred)), problems)

    def _cli_coeffs(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        self._coeffs(tag, [payload[f"C{i}"] for i in range(1, 5)], R.theorem_C(e["b"], e["alpha"], e["disks"]),
                     problems)
        for d, disk in zip(payload["per_disk_breakdown"], e["disks"]):
            self._coeffs(f"{tag} disk {d['index']}", [d[f"C{i}"] for i in range(1, 5)],
                         R.theorem_C(e["b"], e["alpha"], [disk]), problems)

    def _cli_cumulants(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        if isinstance(payload, list):  # asymptotic table as CSV
            for row in payload:
                want = R.bulk_cumulant_coeffs(int(row["order"]), e["b"], e["alpha"], e["r"])
                self._coeffs(f"{tag} order {int(row['order'])}",
                             [row["leading"], row["c"], row["d"], row["e"]], want, problems)
            if len(payload) != 2:
                problems.append(f"{tag}: {len(payload)} rows, expected 2")
            return
        p = len(e["disks"])
        orders, got = [], []
        for entry in payload["cumulants"]:
            if "multi_index" in entry:
                orders.append(entry["multi_index"])
            else:
                orders.append([entry["order"] if i == entry["disk"] else 0 for i in range(p)])
            got.append(entry["value"])
        if len(orders) != 3 * p + 1:
            problems.append(f"{tag}: {len(orders)} cumulants, expected {3 * p + 1}")
        self._cumulants(tag, e["b"], e["alpha"], e["n"], e["disks"], orders, got, problems)

    def _cli_zn(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        ref = R.log_partition(e["b"], e["alpha"], e["n"])
        _close(f"{tag} log_zn_exact", payload["log_zn_exact"], ref, 1e-13 * abs(ref), problems)
        if not (payload["includes_constant"] and abs(payload["residual"]) < 1e-6):
            problems.append(f"{tag}: expansion residual {payload['residual']!r} is not O(n^-2)")

    def _cli_sample(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        prof = self.profile(e["b"], e["alpha"], e["n"], e["disks"])
        if isinstance(payload, list):  # one CSV row of counts per sample
            p = len(e["disks"])
            counts = np.array([[row[f"count_{l + 1}"] for l in range(p)] for row in payload])
            if counts.shape != (e["num_samples"], p):
                problems.append(f"{tag}: counts have shape {counts.shape}")
                return
            self._counts_in_range(tag, counts, e["n"], problems)
            # mean and variance against the exact values, with their
            # standard errors from the sample: var(k2) ~ (k4 + 2 k2^2) / N
            N = len(counts)
            values, se = [], []
            for l in range(p):
                x = counts[:, l] - np.mean(counts[:, l])
                k2, k4 = float(kstat(x, 2)), float(kstat(x, 4))
                values.append([float(np.mean(counts[:, l])), k2])
                se.append([math.sqrt(k2 / N), math.sqrt(max(k4 + 2.0 * k2 * k2, 0.0) / N)])
            self._mc_against_exact(tag, values, se, prof, problems)
            return
        self._mc_against_exact(tag, payload["cumulants"], payload["se"], prof, problems)

    def _cli_verify_residual(self, tag, op, payload, problems) -> None:
        e = op["expect"]
        if payload["pass"] is not True:
            problems.append(f"{tag}: verification did not pass")
        used = [True] * len(e["n_values"])  # residuals here are far above the quadrature floor
        self._residual_scan({"id": tag, **e}, {**payload["outputs"], "used": used}, [], [], problems)

    def _cli_verify_clt(self, tag, op, payload, problems) -> None:
        cov = np.array(payload["outputs"]["covariance"])
        if payload["pass"] is not True or not np.allclose(cov, cov.T):
            problems.append(f"{tag}: CLT check failed or covariance not symmetric: {cov.tolist()}")
