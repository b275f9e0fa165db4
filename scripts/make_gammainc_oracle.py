#!/usr/bin/env python3
"""Generate the frozen regularized-incomplete-gamma oracle grids.

Writes tests/data/gammainc_grid.json: a list of grids, each entry
P(a, lambda*a) evaluated by a 50-digit series/continued-fraction computation
(mpmath, ``tests/oracles.py::reference_reg_lower_gamma``).  mpmath's own
gammainc is not used because its hypergeometric route stalls for a >~ 1e4.

1. 40 log-spaced a in [1, 1e6] x 40 linearly spaced lambda in [0.25, 4];
2. shapes below 1, down to 1e-3 (alpha near -1 gives a = (1 + alpha)/b);
3. a dense band of shapes around 20, where the evaluator's uniform
   expansion takes over from the series and the continued fraction;
4. the shapes of grid 1 at lambda in 1 +- 0.05, where P moves fastest.

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

LAMBDAS = np.linspace(0.25, 4.0, 40)
GRIDS = (
    (np.logspace(0.0, 6.0, 40), LAMBDAS),
    (np.logspace(-3.0, 0.0, 13), LAMBDAS),
    (np.linspace(10.0, 40.0, 31), LAMBDAS),
    (np.logspace(0.0, 6.0, 40), np.linspace(0.95, 1.05, 21)),
)


def main() -> None:
    t0 = time.time()
    grids = []
    for g, (a_values, lam_values) in enumerate(GRIDS):
        values = []
        for a in a_values:
            values.append([reference_reg_lower_gamma(float(a), float(lam * a), dps=50)
                           for lam in lam_values])
        grids.append({"a": [float(a) for a in a_values],
                      "lambda": [float(l) for l in lam_values], "p": values})
        print(f"grid {g} done ({time.time() - t0:.1f}s)", flush=True)
    target = ROOT / "tests" / "data"
    target.mkdir(parents=True, exist_ok=True)
    with open(target / "gammainc_grid.json", "w") as fh:
        json.dump({"grids": grids, "dps": 50}, fh)
    print("wrote", target / "gammainc_grid.json")


if __name__ == "__main__":
    main()
