#!/usr/bin/env python3
"""Freeze the slow mpmath oracle values that the test suite checks against.

Writes tests/data/mp_oracles.json with five tables:

* ``bulk_coeffs``: (C2, C3, C4) of one bulk disk (b = 1, alpha = 0, r = 0.6)
  at large |u|, from the 30-digit whole-line quadrature
  ``tests/oracles.py::mp_bulk_coeffs``;
* ``bulk_derivatives``: the cumulant coefficients (c_j, d_j, e_j) of the
  same disk at j = 7, 9, 12, as u-derivatives at 0 of the whole bulk
  formulas: ``tests/oracles.py::mp_bulk_coeff_derivatives``, a 50-digit
  Cauchy integral over 64 points of |u| = 1.5, plus the formulas at one of
  those points (``node``) for the live check;
* ``edge_derivatives``: the edge cumulant coefficients (c_j, d_j, e_j) at
  b = 1.5, alpha = 0.5, j = 7, 9, 12 and s = -1, 0.7, the same Cauchy
  integral of the whole edge formulas written in their literal two-interval
  form (``tests/oracles.py::mp_edge_coeff_derivatives``), plus the formulas
  at one node at s = -1;
* ``exact_cumulants``: joint cumulants of orders 7-12 for two overlapping
  disks (b = 1, alpha = 0, n = 1000, r = 0.6, 0.63), 50-digit ``mp.diff``
  derivatives from ``tests/oracles.py::mp_joint_cumulants`` on the window
  rows of the exact engine's profile;
* ``erfcx``: e^(t^2) erfc(t) at 50 digits for t from 0 to 1e4
  (``tests/oracles.py::mp_erfcx``).

The tests keep one live spot check of each slow table, so a stale file fails.

Run from the repository root:  python3 scripts/make_mp_oracles.py
"""

import cmath
import json
import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from mlcounts.exact import Disk, DiskSystem, EnsembleParams, bernoulli_profile  # noqa: E402

BULK = {"b": 1.0, "alpha": 0.0, "r": 0.6, "u": [-30.0, -40.0, -50.0, 710.0, -710.0, 800.0, -800.0]}
DERIVATIVES = {"b": 1.0, "alpha": 0.0, "r": 0.6, "orders": [7, 9, 12], "rho": 1.5, "points": 64}
EDGE = {"b": 1.5, "alpha": 0.5, "s": [-1.0, 0.7], "orders": [7, 9, 12], "rho": 1.5,
        "points": 64}
EXACT = {
    "b": 1.0,
    "alpha": 0.0,
    "n": 1000,
    "radii": [0.6, 0.63],
    "orders": [[7, 0], [0, 8], [9, 0], [12, 0], [0, 12], [3, 4], [5, 5], [2, 9], [1, 11], [4, 8],
               [6, 6]],
}


ERFCX_T = [0.0, 0.1, 0.25, 0.46875, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.99, 4.0, 4.01,
           5.0, 6.0, 8.0, 10.0, 12.5, 15.0, 20.0, 26.0, 27.5, 30.0, 50.0, 100.0, 300.0, 1e3, 3e3,
           1e4]


def _key(values) -> str:
    return ",".join(repr(v) for v in values)


def _bulk_coeffs(t0):
    bulk = {}
    for u in BULK["u"]:
        bulk[repr(u)] = oracles.mp_bulk_coeffs(BULK["b"], BULK["alpha"], BULK["r"], u)
        print(f"bulk u = {u} done ({time.time() - t0:.1f}s)", flush=True)
    return {**{k: v for k, v in BULK.items() if k != "u"}, "dps": 30, "values": bulk}


def _bulk_derivatives(t0):
    d = DERIVATIVES
    derivs = oracles.mp_bulk_coeff_derivatives(d["b"], d["alpha"], d["r"], d["orders"],
                                               rho=d["rho"], points=d["points"], dps=50)
    node = d["rho"] * cmath.exp(2j * math.pi / d["points"])
    node_values = oracles.mp_bulk_node(d["b"], d["alpha"], d["r"], node, dps=50)
    print(f"bulk derivatives done ({time.time() - t0:.1f}s)", flush=True)
    return {
        **{k: v for k, v in d.items() if k != "orders"}, "dps": 50,
        "values": {str(j): list(v) for j, v in derivs.items()},
        "node": {"u": [node.real, node.imag],
                 "values": [[v.real, v.imag] for v in node_values]},
    }


def _edge_derivatives(t0):
    d = EDGE
    values = {}
    for sf in d["s"]:
        derivs = oracles.mp_edge_coeff_derivatives(d["b"], d["alpha"], sf, d["orders"],
                                                   rho=d["rho"], points=d["points"], dps=50)
        values[repr(sf)] = {str(j): list(v) for j, v in derivs.items()}
        print(f"edge derivatives s = {sf} done ({time.time() - t0:.1f}s)", flush=True)
    node = d["rho"] * cmath.exp(2j * math.pi / d["points"])
    node_values = oracles.mp_edge_node(d["b"], d["alpha"], d["s"][0], node, dps=50)
    return {
        **{k: v for k, v in d.items() if k not in ("s", "orders")}, "dps": 50, "values": values,
        "node": {"s": d["s"][0], "u": [node.real, node.imag],
                 "values": [[v.real, v.imag] for v in node_values]},
    }


def _exact_cumulants(t0):
    params = EnsembleParams(b=EXACT["b"], alpha=EXACT["alpha"], n=EXACT["n"])
    profile = bernoulli_profile(params, DiskSystem([Disk.fixed(r) for r in EXACT["radii"]]))
    exact = {}
    for k in EXACT["orders"]:
        exact[_key(k)] = oracles.mp_joint_cumulants(profile.Pw, [k])[0]
        print(f"exact {k} done ({time.time() - t0:.1f}s)", flush=True)
    return {**{k: v for k, v in EXACT.items() if k != "orders"}, "dps": 50, "values": exact}


def _erfcx():
    return {"dps": 50, "t": ERFCX_T, "values": [oracles.mp_erfcx(t, dps=50) for t in ERFCX_T]}


def main() -> None:
    t0 = time.time()
    out = {
        "bulk_coeffs": _bulk_coeffs(t0),
        "bulk_derivatives": _bulk_derivatives(t0),
        "edge_derivatives": _edge_derivatives(t0),
        "exact_cumulants": _exact_cumulants(t0),
        "erfcx": _erfcx(),
    }
    target = ROOT / "tests" / "data" / "mp_oracles.json"
    target.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote", target)


if __name__ == "__main__":
    main()
