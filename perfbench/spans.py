"""Spans and counters around the public entry points of each mlcounts layer.

Layers reach each other through module-level names (``exact`` calls
``reg_lower_gamma`` and ``bernoulli_profile``, ``asymptotics`` calls scipy's
``quad``, ``verify`` calls ``log_mgf_exact``, ``theorem_coefficients`` and
``sample_counts``), so replacing those names in every loaded ``mlcounts``
module with a timing wrapper traces the program without editing it.  A
span's self time is its duration minus the time of the traced spans it
contains.  Everything is kept in memory and summarised once per round.
"""

from __future__ import annotations

import sys
import time

# (module, function): the spans the per-layer metrics are built from
SPANS = (
    ("specfun", "reg_lower_gamma"),
    ("exact", "bernoulli_profile"),
    ("exact", "log_mgf_exact"),
    ("exact", "joint_cumulants_exact"),
    ("exact", "mean_var_exact"),
    ("asymptotics", "theorem_coefficients"),
    ("asymptotics", "bulk_cumulant_coeffs"),
    ("asymptotics", "edge_cumulant_coeffs"),
    ("sampler", "sample_counts"),
    ("sampler", "mc_cumulants"),
    ("verify", "residual_scan"),
    ("verify", "coefficient_fit"),
)

REGIMES = ("series_small_z", "continued_fraction", "temme_uniform", "fixed_a_large_z")


class Tracer:
    """Installs wrappers once; `reset` starts a round, `summary` ends it."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.reset()
        for module, name in SPANS:
            orig = getattr(sys.modules[f"mlcounts.{module}"], name)
            self._replace(orig, self._span(f"{module}.{name}", orig))
        orig_quad = sys.modules["mlcounts.asymptotics"].quad
        self._replace(orig_quad, self._quad(orig_quad))

    def reset(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.gamma_args: list[tuple[float, float]] = []
        self.entries = 0
        self.samples = 0
        self.integrand_evals = 0
        self.quad_error_max = 0.0

    @staticmethod
    def _replace(orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "mlcounts" or modname.startswith("mlcounts."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    def _record(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "specfun.reg_lower_gamma":
                self.gamma_args.append((args[0], args[1]))
            result = self._record(name, fn, args, kwargs)
            if name == "exact.bernoulli_profile":
                self.entries += result.P.size
            elif name == "sampler.sample_counts":
                self.samples += result.num_samples
            elif name.startswith("asymptotics."):
                self.quad_error_max = max(self.quad_error_max, float(result.quad_error))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad(self, quad):
        def integrand_counter(f):
            def counted(*args):
                self.integrand_evals += 1
                return f(*args)

            return counted

        def wrapper(f, *args, **kwargs):
            return self._record("asymptotics.quad", quad, (integrand_counter(f), *args), kwargs)

        wrapper.__wrapped__ = quad
        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the round since the last `reset`."""
        from mlcounts.specfun import gamma_regime

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def ms(name):
            return 1e3 * self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_ms(name):
            return 1e3 * self.spans.get(name, [0, 0.0, 0.0])[2]

        regimes = dict.fromkeys(REGIMES, 0)
        for a, z in self.gamma_args:
            regimes[gamma_regime(a, z).value] += 1
        out = {
            "specfun.reg_lower_gamma.calls": calls("specfun.reg_lower_gamma"),
            "specfun.reg_lower_gamma.ms": ms("specfun.reg_lower_gamma"),
            **{f"specfun.regime.{k}": v for k, v in regimes.items()},
            "exact.bernoulli_profile.calls": calls("exact.bernoulli_profile"),
            "exact.bernoulli_profile.ms": ms("exact.bernoulli_profile"),
            "exact.profile.entries": self.entries,
            "exact.profile.evaluated_ratio": (
                calls("specfun.reg_lower_gamma") / self.entries if self.entries else 0.0
            ),
            "asymptotics.quad.calls": calls("asymptotics.quad"),
            "asymptotics.integrand.evals": self.integrand_evals,
            "asymptotics.quad.ms": ms("asymptotics.quad"),
            "asymptotics.quad_error.max": self.quad_error_max,
            "sampler.sample_counts.ms": ms("sampler.sample_counts"),
            "sampler.us_per_sample": (
                1e3 * ms("sampler.sample_counts") / self.samples if self.samples else 0.0
            ),
            "sampler.mc_cumulants.ms": ms("sampler.mc_cumulants"),
        }
        for name in ("log_mgf_exact", "joint_cumulants_exact", "mean_var_exact"):
            out[f"exact.{name}.self_ms"] = self_ms(f"exact.{name}")
        for name in ("theorem_coefficients", "bulk_cumulant_coeffs", "edge_cumulant_coeffs"):
            out[f"asymptotics.{name}.ms"] = ms(f"asymptotics.{name}")
        for name in ("residual_scan", "coefficient_fit"):
            out[f"verify.{name}.self_ms"] = self_ms(f"verify.{name}")
        return out
