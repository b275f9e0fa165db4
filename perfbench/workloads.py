"""The four workloads: a fixed list of operations drawn from a seed.

Every operation is plain data (a dict) so that the worker process, which
imports mlcounts, and the checking process, which does not, read the same
list.  The seed jitters radii, edge parameters and weights by a few percent
and picks sampler seeds; sizes, orders and the number of operations are
fixed, so every seed asks for the same amount of work.  The two operations
kept because they fail today use fixed inputs.
"""

from __future__ import annotations

import random

NAMES = ("exact-mgf", "coeff-tables", "monte-carlo", "cli-session")


def _jit(rng: random.Random, x: float, rel: float = 0.01) -> float:
    return x * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _near(rng: random.Random, x: float, half: float = 0.01) -> float:
    return x + half * rng.uniform(-1.0, 1.0)


def _disk(r=None, s=None, u=0.0) -> dict:
    return {"r": r, "u": u} if r is not None else {"s": s, "u": u}


def _configs(rng: random.Random) -> dict:
    """Disk configurations shared by the in-process workloads."""
    return {
        # one bulk disk, Ginibre
        "A": (1.0, 0.0, [_disk(r=_jit(rng, 0.6), u=rng.uniform(0.6, 1.2))]),
        # four disks, one of them at the edge (b = 2, alpha = 1/2)
        "B": (2.0, 0.5, [
            _disk(r=_jit(rng, 0.45), u=rng.uniform(0.1, 0.4)),
            _disk(r=_jit(rng, 0.55), u=rng.uniform(0.1, 0.4)),
            _disk(s=rng.uniform(0.2, 0.4), u=rng.uniform(0.1, 0.4)),
            _disk(r=_jit(rng, 1.2), u=rng.uniform(0.1, 0.4)),
        ]),
        # one edge disk with b = 1/2: shape parameters up to 2n
        "C": (0.5, 0.25, [_disk(s=rng.uniform(-0.6, -0.4), u=rng.uniform(0.5, 1.0))]),
        # two close bulk disks whose windows overlap: non-trivial mixed cumulants
        "D": (1.0, 0.0, [_disk(r=_jit(rng, 0.6, 0.005)), _disk(r=_jit(rng, 0.63, 0.005))]),
    }


def _op(call: str, **kw) -> dict:
    return {"call": call, **kw}


def _exact_mgf(rng: random.Random) -> list[dict]:
    cfg = _configs(rng)
    ops = []

    def with_cfg(call, key, n, **kw):
        b, alpha, disks = cfg[key]
        ops.append(_op(call, cfg=key, b=b, alpha=alpha, n=n, disks=disks, **kw))

    for key, sizes in (("A", (10**3, 10**4, 10**5, 10**6)),
                       ("B", (10**3, 10**4, 10**5, 10**6)),
                       ("C", (10**5,))):
        for n in sizes:
            with_cfg("log_mgf_exact", key, n)
    # properties: exactly 0 at u = 0, increasing in each u_l
    b, alpha, disks = cfg["B"]
    zero = [dict(d, u=0.0) for d in disks]
    ops.append(_op("log_mgf_exact", cfg="B", b=b, alpha=alpha, n=10**4, disks=zero, prop="zero"))
    for l in range(len(disks)):
        bumped = [dict(d, u=d["u"] + 0.05) if i == l else d for i, d in enumerate(disks)]
        ops.append(_op("log_mgf_exact", cfg="B", b=b, alpha=alpha, n=10**4, disks=bumped,
                       prop="monotone"))
    with_cfg("mean_var_exact", "B", 10**4)
    with_cfg("mean_var_exact", "B", 10**5)
    with_cfg("mean_var_exact", "A", 10**6)
    with_cfg("joint_cumulants_exact", "A", 10**4, orders=[[k] for k in range(1, 7)])
    with_cfg("joint_cumulants_exact", "A", 10**6, orders=[[2], [4]])
    with_cfg("joint_cumulants_exact", "B", 10**4,
             orders=[[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 3], [1, 0, 1, 0]])
    mixed = [[1, 1], [2, 1], [1, 2], [2, 2], [3, 3], [1, 4], [6, 0], [0, 5]]
    with_cfg("joint_cumulants_exact", "D", 10**3, orders=mixed)
    with_cfg("joint_cumulants_exact", "D", 10**4, orders=mixed)
    with_cfg("residual_scan", "A", 4000, n_values=[500, 1000, 2000, 4000])
    with_cfg("coefficient_fit", "A", 32000, n_values=[1000, 2000, 4000, 8000, 16000, 32000])
    # known fault: the MGF factor underflows to a non-positive value
    ops.append(_op("log_mgf_exact", cfg="fault", b=1.0, alpha=0.0, n=10**4,
                   disks=[_disk(r=0.6, u=-40.0)], fault="ArithmeticError"))
    return ops


def _coeff_tables(rng: random.Random) -> list[dict]:
    ops = []
    r1, s1 = _jit(rng, 0.6), _near(rng, 0.3)
    u_grid = [rng.uniform(lo, lo + 1.0) for lo in (-3.0, -1.5, 0.5, 2.0)]
    for u in u_grid:
        ops.append(_op("theorem_coefficients", b=1.0, alpha=0.0, disks=[_disk(r=r1, u=u)]))
        ops.append(_op("theorem_coefficients", b=1.0, alpha=0.0, disks=[_disk(s=s1, u=u)]))
        ops.append(_op("theorem_coefficients", b=2.0, alpha=0.5,
                       disks=[_disk(r=_jit(rng, 0.5), u=u)]))
    for u in u_grid[1:3]:
        ops.append(_op("theorem_coefficients", b=1.0, alpha=0.0, disks=[_disk(r=_jit(rng, 1.2), u=u)]))
    for _ in range(2):
        ops.append(_op("theorem_coefficients", b=2.0, alpha=0.5, disks=[
            _disk(r=_jit(rng, 0.45), u=rng.uniform(-1.0, 1.0)),
            _disk(r=_jit(rng, 0.55), u=rng.uniform(-1.0, 1.0)),
            _disk(s=rng.uniform(0.2, 0.4), u=rng.uniform(-1.0, 1.0)),
            _disk(r=_jit(rng, 1.2), u=rng.uniform(-1.0, 1.0)),
        ]))
    bulk = [(1.0, 0.0, _jit(rng, 0.6)), (2.0, 0.5, _jit(rng, 0.5)), (0.5, 0.25, _jit(rng, 1.5)),
            (1.5, -0.4, _jit(rng, 0.45))]
    # the quadrature's cost depends on the edge parameter s, and these
    # operations sit at the median latency: s moves by +-0.01 only
    edge = [(1.0, 0.0, _near(rng, 0.3)), (2.0, 0.5, _near(rng, -0.7)),
            (0.5, 0.25, _near(rng, 1.0)), (1.5, -0.4, _near(rng, 0.0))]
    for j in range(1, 7):
        for b, alpha, r in bulk:
            ops.append(_op("bulk_cumulant_coeffs", j=j, b=b, alpha=alpha, r=r))
        for b, alpha, s in edge:
            ops.append(_op("edge_cumulant_coeffs", j=j, b=b, alpha=alpha, s=s))
    for b, alpha, s in edge[:2]:
        ops.append(_op("edge_mean_coeffs", b=b, alpha=alpha, s=s))
        ops.append(_op("edge_var_coeffs", b=b, alpha=alpha, s=s))
    for j in (1, 2):
        ops.append(_op("outside_cumulant_coeffs", j=j))
    for b, alpha in ((1.0, 0.0), (2.0, 0.5), (0.5, 0.3), (1.5, -0.4)):
        for n in (100, 200, 400):
            ops.append(_op("zn_expansion", b=b, alpha=alpha, n=n))
    # known fault: G_func divides by 1 + (s-1) erfc(t)/2, which rounds to 0
    ops.append(_op("theorem_coefficients", b=1.0, alpha=0.0, disks=[_disk(r=0.6, u=-40.0)],
                   fault="ZeroDivisionError"))
    return ops


def _monte_carlo(rng: random.Random) -> list[dict]:
    cfg = _configs(rng)
    ops = []
    # sample counts grow with the cost per sample so that the operation
    # latencies are well apart and the median sits on one configuration
    for key, n, samples in (("A", 1000, 1000), ("B", 1000, 1500), ("D", 2000, 1500),
                            ("A", 4000, 2000), ("B", 4000, 2000)):
        b, alpha, disks = cfg[key]
        ops.append(_op("monte_carlo", cfg=key, b=b, alpha=alpha, n=n, disks=disks,
                       num_samples=samples, sample_seed=rng.randrange(2**31)))
    return ops


def _disk_flag(d: dict) -> str:
    key = "r" if "r" in d else "s"
    return f"{key}={d[key]!r},u={d['u']!r}"


def _cli_session(rng: random.Random) -> list[dict]:
    r = _jit(rng, 0.6)
    u = rng.uniform(0.6, 1.2)
    s = rng.uniform(0.2, 0.4)
    seed = rng.randrange(2**31)
    base = ["--b", "1", "--alpha", "0"]
    a_disk = {"r": r, "u": u}
    runs = [
        ("mgf-exact", base + ["--n", "1000", "--disk", _disk_flag(a_disk)],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "disks": [a_disk]}),
        ("mgf-asymptotic", base + ["--n", "1000", "--disk", _disk_flag(a_disk)],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "disks": [a_disk]}),
        ("coeffs", base + ["--disk", _disk_flag(a_disk), "--disk", _disk_flag({"s": s, "u": 0.5})],
         {"b": 1.0, "alpha": 0.0, "disks": [a_disk, {"s": s, "u": 0.5}]}),
        ("cumulants", base + ["--n", "1000", "--disk", f"r={r!r}", "--disk", f"r={r + 0.03!r}",
                              "--orders", "1,2,3", "--joint", "1,1"],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "disks": [{"r": r, "u": 0.0}, {"r": r + 0.03, "u": 0.0}]}),
        ("cumulants", base + ["--n", "1000", "--disk", f"r={r!r}", "--orders", "1,2",
                              "--mode", "asymptotic", "--format", "csv"],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "r": r}),
        ("zn", ["--b", "0.5", "--alpha", "0", "--n", "1000"], {"b": 0.5, "alpha": 0.0, "n": 1000}),
        ("sample", base + ["--n", "1000", "--disk", f"r={r!r}", "--num-samples", "1000",
                           "--seed", str(seed)],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "disks": [{"r": r, "u": 0.0}]}),
        # one row of counts per sample: checked for range and nesting
        ("sample", base + ["--n", "1000", "--disk", f"r={r!r}", "--disk", f"r={r + 0.2!r}",
                           "--num-samples", "1000", "--seed", str(seed + 1), "--format", "csv"],
         {"b": 1.0, "alpha": 0.0, "n": 1000, "num_samples": 1000,
          "disks": [{"r": r, "u": 0.0}, {"r": r + 0.2, "u": 0.0}]}),
        ("verify-residual", base + ["--disk", _disk_flag(a_disk), "--n-values", "500,1000,2000,4000"],
         {"b": 1.0, "alpha": 0.0, "disks": [a_disk], "n_values": [500, 1000, 2000, 4000]}),
        ("verify-clt", base + ["--n", "1000", "--bulk-r", f"{r!r}", "--s", "0",
                               "--num-samples", "2000", "--seed", str(seed), "--tol", "0.25"],
         {}),
    ]
    return [_op("cli", sub=sub, argv=[sub] + argv, expect=expect) for sub, argv, expect in runs]


_MAKERS = {
    "exact-mgf": _exact_mgf,
    "coeff-tables": _coeff_tables,
    "monte-carlo": _monte_carlo,
    "cli-session": _cli_session,
}


def build(name: str, seed: int) -> list[dict]:
    """The operations of one round of workload `name` for `seed`."""
    ops = _MAKERS[name](random.Random(f"{name}:{seed}"))
    for i, op in enumerate(ops):
        op["id"] = f"{i:02d}-{op['call']}"
    return ops
