#!/usr/bin/env python3
"""Generate the frozen regularized-incomplete-gamma oracle grid.

Writes tests/data/gammainc_grid.json: 40 log-spaced a in [1, 1e6] x 40
linearly spaced lambda in [0.25, 4], each entry P(a, lambda*a) evaluated by a
50-digit series/continued-fraction computation (mpmath,
``tests/oracles.py::reference_reg_lower_gamma``).  mpmath's own
gammainc is not used because its hypergeometric route stalls for a >~ 1e4.

Run from the repository root:  python3 scripts/make_gammainc_oracle.py
"""

import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import reference_reg_lower_gamma  # noqa: E402

A_POINTS = 40
LAM_POINTS = 40


def main() -> None:
    a_values = np.logspace(0.0, 6.0, A_POINTS)
    lam_values = np.linspace(0.25, 4.0, LAM_POINTS)
    t0 = time.time()
    values = []
    for i, a in enumerate(a_values):
        row = [reference_reg_lower_gamma(float(a), float(lam * a), dps=50) for lam in lam_values]
        values.append(row)
        print(f"a[{i}] = {a:.6g} done ({time.time() - t0:.1f}s)", flush=True)
    out = {
        "a": [float(a) for a in a_values],
        "lambda": [float(l) for l in lam_values],
        "p": values,
        "dps": 50,
    }
    target = ROOT / "tests" / "data"
    target.mkdir(parents=True, exist_ok=True)
    with open(target / "gammainc_grid.json", "w") as fh:
        json.dump(out, fh)
    print("wrote", target / "gammainc_grid.json")


if __name__ == "__main__":
    main()
