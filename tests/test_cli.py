import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcounts
from mlcounts.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mgf_exact_trivial(capsys):
    code, out, _ = run(
        capsys, "mgf-exact", "--b", "1", "--alpha", "0", "--n", "100", "--disk", "r=0.5,u=0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log_mgf"] == 0.0
    assert payload["disks"][0]["radius"] == 0.5
    assert payload["params"] == {"b": 1.0, "alpha": 0.0, "n": 100}


def test_coeffs_c1(capsys):
    code, out, _ = run(capsys, "coeffs", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["C1"] == pytest.approx(0.36, rel=1e-12)
    assert payload["per_disk_breakdown"][0]["kind"] == "bulk"
    assert payload["quad_error"] < 1e-9


def test_cumulants_exact_values(capsys):
    code, out, _ = run(
        capsys,
        "cumulants", "--b", "1", "--alpha", "0", "--n", "10000",
        "--disk", "r=0.6", "--orders", "1,2",
    )
    assert code == 0
    payload = json.loads(out)
    values = {e["order"]: e["value"] for e in payload["cumulants"]}
    assert values[1] == pytest.approx(0.36e4, abs=0.01)
    assert values[2] == pytest.approx(0.6 * math.sqrt(1e4 / math.pi), abs=0.05)


def test_cumulants_joint_and_asymptotic(capsys):
    code, out, _ = run(
        capsys,
        "cumulants", "--b", "1", "--alpha", "0", "--n", "500",
        "--disk", "r=0.4", "--disk", "r=0.7", "--orders", "1", "--joint", "1,1",
    )
    assert code == 0
    payload = json.loads(out)
    joint = [e for e in payload["cumulants"] if "multi_index" in e]
    assert joint and joint[0]["multi_index"] == [1, 1]

    code, out, _ = run(
        capsys,
        "cumulants", "--b", "1", "--alpha", "0", "--n", "10000",
        "--disk", "r=0.6", "--orders", "1,2", "--mode", "asymptotic", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,alpha,r_or_s,kind,order,leading,c,d,e,value_at_n"
    assert len(lines) == 3


def test_json_output_byte_identical(capsys):
    # mgf-asymptotic is an alias of coeffs: the same bytes
    args = ["--b", "2", "--alpha", "0.5", "--n", "4000",
            "--disk", "r=0.45,u=0.3", "--disk", "s=0.3,u=0.3"]
    code1, out1, _ = run(capsys, "coeffs", *args)
    code2, out2, _ = run(capsys, "coeffs", *args)
    code3, out3, _ = run(capsys, "mgf-asymptotic", *args)
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


def test_coeffs_n_adds_prediction(capsys):
    args = ["coeffs", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=1"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    bare = json.loads(out)
    code, out, _ = run(capsys, *args, "--n", "4000")
    assert code == 0
    with_n = json.loads(out)
    predicted = with_n.pop("log_mgf_predicted")
    assert with_n.pop("params") == {**bare.pop("params"), "n": 4000}
    assert with_n == bare
    rn = math.sqrt(4000)
    assert predicted == bare["C1"] * 4000 + bare["C2"] * rn + bare["C3"] + bare["C4"] / rn


def test_unknown_flag_exits_2(capsys):
    code = main(["mgf-exact", "--b", "1", "--n", "5", "--disk", "r=0.5", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_bad_disk_spec_exits_2(capsys):
    code, _, err = run(capsys, "mgf-exact", "--b", "1", "--n", "5", "--disk", "q=0.5")
    assert code == 2
    assert "disk" in err

    code, _, _ = run(capsys, "mgf-exact", "--b", "1", "--n", "5", "--disk", "r=0.5,s=1")
    assert code == 2


def test_missing_disk_exits_2(capsys):
    code, _, err = run(capsys, "mgf-exact", "--b", "1", "--n", "5")
    assert code == 2
    assert "disk" in err


def test_two_edges_rejected(capsys):
    code, _, _ = run(
        capsys, "coeffs", "--b", "1", "--disk", "s=0,u=0.1", "--disk", "s=1,u=0.1"
    )
    assert code == 2


def test_zn_subcommand(capsys):
    code, out, _ = run(capsys, "zn", "--b", "1", "--alpha", "0", "--n", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["includes_constant"] is True
    assert abs(payload["residual"]) < 1e-6


def test_sample_csv_and_json(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "sample", "--b", "1", "--alpha", "0", "--n", "20", "--disk", "r=0.5",
        "--disk", "r=0.9", "--num-samples", "8", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample,count_1,count_2"
    assert len(lines) == 9

    out_path = tmp_path / "summary.json"
    code, _, _ = run(
        capsys,
        "sample", "--b", "1", "--alpha", "0", "--n", "20", "--disk", "r=0.5",
        "--num-samples", "200", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["num_samples"] == 200
    assert len(payload["mean"]) == 1
    assert len(payload["se"]) == 1


def test_verify_residual_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        "verify-residual", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=1",
        "--n-values", "200,400,800,1600",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["experiment"] == "residual_scan"

    # impossible rate window forces a verification failure (exit 3)
    code, out, _ = run(
        capsys,
        "verify-residual", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=1",
        "--n-values", "200,400,800,1600", "--rate-lo", "-0.2", "--rate-hi", "-0.1",
    )
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_verify_clt_small(capsys):
    code, out, _ = run(
        capsys,
        "verify-clt", "--b", "1", "--alpha", "0", "--n", "400", "--bulk-r", "0.6",
        "--num-samples", "3000", "--seed", "5", "--tol", "0.2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    cov = payload["outputs"]["covariance"]
    assert len(cov) == 1 and len(cov[0]) == 1


def test_threads_flag_keeps_output(capsys):
    # three blocks of samples, spread over two workers or run on one
    argv = ["sample", "--b", "1", "--alpha", "0", "--n", "10", "--disk", "r=0.5",
            "--num-samples", "600", "--seed", "1", "--format", "csv"]
    code, out, _ = run(capsys, *argv, "--threads", "2")
    assert code == 0
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0 and out2 == out


def test_non_finite_parameters_exit_2(capsys):
    code, out, err = run(
        capsys, "mgf-exact", "--b", "inf", "--alpha", "0", "--n", "100", "--disk", "r=0.5,u=1"
    )
    assert code == 2
    assert out == ""
    assert "b must be finite" in err
    code, _, _ = run(capsys, "zn", "--b", "1", "--alpha", "nan", "--n", "100")
    assert code == 2


def test_support_radius_overflow_exits_2(capsys):
    # b^(-1/(2b)) leaves double range at b = 1e-5: a ValueError naming b,
    # not the bare OverflowError of the power
    code, out, err = run(
        capsys, "mgf-exact", "--b", "1e-5", "--n", "10", "--disk", "r=0.5,u=1"
    )
    assert code == 2 and out == ""
    assert "b = 1e-05" in err


@pytest.mark.parametrize("sub", ["mgf-exact", "cumulants"])
def test_edge_radius_overflow_exits_2(capsys, sub):
    # b^(-1/(2b)) is finite at b = 0.00395, but the radius of the edge disk
    # at s = 3 is not: a ValueError naming the disk, not a JSON encoder error
    code, out, err = run(capsys, sub, "--b", "0.00395", "--n", "10", "--disk", "s=3,u=1")
    assert code == 2 and out == ""
    assert "s = 3.0" in err and "b = 0.00395" in err


@pytest.mark.parametrize("mode", ["exact", "asymptotic"])
def test_cumulant_orders_up_to_max_order(capsys, mode):
    from mlcounts.series import MAX_ORDER

    argv = ["cumulants", "--b", "1", "--n", "1000", "--disk", "r=0.6", "--mode", mode]
    code, out, _ = run(capsys, *argv, "--orders", str(MAX_ORDER))
    assert code == 0
    payload = json.loads(out)
    rows = payload["cumulants"] if mode == "exact" else payload["series"]
    assert [row["order"] for row in rows] == [MAX_ORDER]
    code, out, err = run(capsys, *argv, "--orders", str(MAX_ORDER + 1))
    assert code == 2 and out == ""
    assert str(MAX_ORDER) in err


def test_non_positive_threads_exit_2(capsys):
    argv = ["sample", "--b", "1", "--n", "10", "--disk", "r=0.5", "--num-samples", "4"]
    code, out, _ = run(capsys, *argv, "--threads", "-3")
    assert code == 2 and out == ""
    code, _, _ = run(capsys, *argv, "--threads", "0")
    assert code == 2


@st.composite
def _argv(draw):
    """argv of one computing subcommand over the documented input ranges: b in
    [0.05, 5] half the time and in [5, 1e4] otherwise, where r^b and the
    e^(-s^2) factors leave double range; 1-3 disks, increasing fixed radii
    and at most one edge disk, placed anywhere.  Half the examples write each
    option as "--name=value", the other half as two tokens, where a value
    such as -1e-05 must still be read as a value."""
    sub = draw(st.sampled_from(["mgf-exact", "mgf-asymptotic", "coeffs", "cumulants", "zn",
                                "sample", "verify-residual", "verify-clt"]))
    split = draw(st.booleans())

    def opt(name, value):
        return [f"--{name}", value] if split else [f"--{name}={value}"]

    b = draw(st.floats(5.0, 1e4) if draw(st.booleans()) else st.floats(0.05, 5.0))
    argv = [sub, *opt("b", repr(b)),
            *opt("alpha", repr(draw(st.floats(-1.0, 3.0, exclude_min=True))))]
    if sub == "verify-residual":
        n0 = draw(st.integers(50, 250))
        argv += opt("n-values", ",".join(str(n0 * k) for k in (1, 2, 4, 8)))
    elif sub != "coeffs" or draw(st.booleans()):
        # small n often: there an edge disk's 1 + sqrt(2b) s/sqrt(n) can reach 0
        argv += opt("n", str(draw(st.one_of(st.integers(1, 20), st.integers(1, 2000)))))
    if sub == "verify-clt":
        radii = draw(st.lists(st.floats(1e-3, 3.0), max_size=2, unique=True))
        if radii:
            argv += opt("bulk-r", ",".join(map(repr, sorted(radii))))
        if draw(st.booleans()):
            argv += opt("s", repr(draw(st.floats(-30.0, 30.0))))
    elif sub != "zn":
        has_edge = draw(st.booleans())
        radii = draw(st.lists(st.floats(1e-3, 3.0), min_size=1 - has_edge, max_size=3 - has_edge,
                              unique=True))
        disks = [f"r={r!r}" for r in sorted(radii)]
        if has_edge:
            disks.insert(draw(st.integers(0, len(disks))), f"s={draw(st.floats(-6.0, 6.0))!r}")
        for where in disks:
            argv += opt("disk", f"{where},u={draw(st.floats(-60.0, 60.0))!r}")
    if sub == "cumulants":
        orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        argv += opt("orders", ",".join(map(str, orders)))
        argv += opt("mode", draw(st.sampled_from(["exact", "asymptotic"])))
    if sub in ("sample", "verify-clt"):
        argv += opt("num-samples", str(draw(st.integers(100 if sub == "verify-clt" else 40, 300))))
        argv += opt("seed", str(draw(st.integers(0, 2**32))))
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_exit_code_property(argv):
    # on any input in range a subcommand either prints strict JSON on stdout,
    # exiting 3 exactly when it reports a failed verification, or rejects the
    # input (exit 2) with nothing on stdout and a message that names it, not
    # a bare arithmetic or encoder error; it never dies with a traceback or
    # leaks a warning (warnings are errors here)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        for bare in ("division by zero", "JSON compliant", "math domain error"):
            assert bare not in err.getvalue()
    else:
        payload = json.loads(out.getvalue(),
                             parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
        assert payload.get("pass", True) is (code == 0)


_RESIDUAL = ["verify-residual", "--b", "1", "--disk", "r=0.6,u=1", "--n-values", "200,400,800,1600"]


@pytest.mark.parametrize("argv, option, value, want_code", [
    (["zn", "--b", "1", "--n", "10"], "--alpha", "-1e-05", 0),
    (["zn", "--b", "1", "--n", "10"], "--alpha", "-.5E0", 0),
    (["zn", "--b", "1", "--n", "10"], "--alpha", "-inf", 2),
    (["zn", "--alpha", "0.5", "--n", "10"], "--b", "-2e+1", 2),
    (["verify-clt", "--b", "1", "--n", "400", "--bulk-r", "0.6", "--num-samples", "300",
      "--seed", "5", "--tol", "10"], "--s", "-5e-1", 0),
    (_RESIDUAL, "--rate-lo", "-1.35e0", 0),
    (_RESIDUAL, "--rate-hi", "-7.5e-1", 0),
])
def test_negative_float_as_separate_value(capsys, argv, option, value, want_code):
    # argparse alone reads "-1e-05" after an option as an unknown option
    # (exit 2, "expected one argument"); both spellings must mean the same
    code1, out1, _ = run(capsys, *argv, option, value)
    code2, out2, _ = run(capsys, *argv, f"{option}={value}")
    assert code1 == code2 == want_code
    assert out1 == out2 and bool(out1) == (want_code == 0)


def test_unread_options_exit_2(capsys):
    # coeffs reads --n for its prediction; n = 0 is no particle count
    code, out, _ = run(capsys, "coeffs", "--b", "1", "--n", "0", "--disk", "r=0.6,u=1")
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "zn", "--b", "1", "--n", "10", "--max-denominator", "5")
    assert code == 2 and out == ""
    code, out, _ = run(
        capsys, "mgf-exact", "--b", "1", "--n", "10", "--disk", "r=0.5,u=1", "--threads", "2"
    )
    assert code == 2 and out == ""


def test_sample_huge_radius_counts_every_particle(capsys):
    # n r^(2b) overflows to inf: the threshold that counts every particle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(
            capsys,
            "sample", "--b", "2", "--n", "100", "--disk", "r=1e200",
            "--num-samples", "4", "--format", "csv",
        )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[1] == "100" for row in rows)


def test_large_weight_is_finite(capsys):
    code, out, _ = run(
        capsys, "mgf-exact", "--b", "1", "--alpha", "0", "--n", "10000", "--disk", "r=0.6,u=800"
    )
    assert code == 0
    value = json.loads(out, parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
    assert math.isfinite(value["log_mgf"]) and value["log_mgf"] > 800 * 3600


def test_edge_coefficients_out_of_range_exit_2(capsys):
    # (2b)^1.5 used to raise OverflowError("Numerical result out of range")
    code, out, err = run(capsys, "coeffs", "--b", "1e300", "--alpha", "0", "--disk", "s=0,u=1")
    assert code == 2 and out == ""
    assert "edge coefficients not finite at b = 1e+300, s = 0.0" in err


def test_warning_as_error_exits_2(capsys):
    # under warnings-as-errors (python -W error, and this suite) the extreme-s
    # RuntimeWarning is raised; it used to escape main as a traceback (exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "coeffs", "--b", "1", "--alpha", "0", "--disk", "s=40,u=1")
    assert code == 2 and out == ""
    assert err.startswith("error: edge parameter s = 40.0 ")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "coeffs", "--b", "1", "--alpha", "0", "--disk", "s=40,u=1")
    assert code == 0 and json.loads(out)
    assert [w.category for w in caught] == [RuntimeWarning]


def test_arithmetic_errors_exit_2(capsys, monkeypatch):
    import mlcounts.cli as cli

    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "log_mgf_exact", overflow)
    code, out, err = run(capsys, "mgf-exact", "--b", "1", "--n", "10", "--disk", "r=0.5,u=1")
    assert code == 2 and out == ""
    assert "math range error" in err


def test_cumulants_exact_one_profile(capsys, monkeypatch):
    import mlcounts.exact as exact

    calls = []
    real = exact.bernoulli_profile

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exact, "bernoulli_profile", counting)
    code, out, _ = run(
        capsys,
        "cumulants", "--b", "1", "--alpha", "0", "--n", "500",
        "--disk", "r=0.4", "--disk", "r=0.7", "--orders", "1,2,3", "--joint", "1,1", "--joint", "2,1",
    )
    assert code == 0
    assert len(calls) == 1
    entries = json.loads(out)["cumulants"]
    assert [(e.get("order"), e.get("disk")) for e in entries[:6]] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)
    ]
    assert [e["multi_index"] for e in entries[6:]] == [[1, 1], [2, 1]]


# Run in a fresh interpreter: neither the package nor any subcommand loads a
# scipy module; the runtime depends on numpy alone.
_SCIPY_GUARD = r"""
import contextlib, importlib, io, pkgutil, sys


def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


import mlcounts

assert not scipy_loaded(), "import mlcounts"
for info in pkgutil.iter_modules(mlcounts.__path__):
    if info.name != "__main__":
        importlib.import_module("mlcounts." + info.name)
assert not scipy_loaded(), "importing every mlcounts module"

from mlcounts.cli import main

base = ["--b", "1", "--alpha", "0", "--n", "1000"]
runs = [
    ["mgf-exact", *base, "--disk", "r=0.6,u=0.8"],
    ["mgf-exact", "--b", "1.5", "--alpha", "0.5", "--n", "10000", "--disk", "r=0.5,u=-40",
     "--disk", "r=0.7,u=2"],
    ["coeffs", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=0.8", "--disk", "s=0.3,u=0.5"],
    ["coeffs", *base, "--disk", "r=0.6,u=0.8"],
    ["cumulants", *base, "--disk", "r=0.6", "--disk", "r=0.63", "--orders", "1,2,3",
     "--joint", "1,1"],
    ["cumulants", *base, "--disk", "r=0.6", "--orders", "1,2", "--mode", "asymptotic",
     "--format", "csv"],
    ["verify-residual", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=0.8",
     "--n-values", "500,1000,2000,4000"],
    ["sample", *base, "--disk", "r=0.6", "--num-samples", "300", "--seed", "3"],
    ["sample", *base, "--disk", "r=0.6", "--disk", "r=0.8", "--num-samples", "300",
     "--seed", "4", "--format", "csv"],
    ["zn", "--b", "0.5", "--alpha", "0", "--n", "1000"],
    ["verify-clt", *base, "--bulk-r", "0.6", "--s", "0", "--num-samples", "600",
     "--seed", "5", "--tol", "10"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert not scipy_loaded(), (argv, scipy_loaded())
"""

# stdout of these subcommands when scipy evaluated the incomplete gamma
# function and erfc; the numpy evaluators reproduce every value to 1e-13
# (log_mgf relative, C1..C4 absolute on max(1, |v|))
_SCIPY_OUTPUTS = {
    ("mgf-exact", "--b", "1", "--alpha", "0", "--n", "1000", "--disk", "r=0.6,u=0.8"):
        '{"params": {"b": 1.0, "alpha": 0.0, "n": 1000}, "disks": [{"radius": 0.6, "kind": '
        '"bulk", "u": 0.8}], "log_mgf": 291.4231425827725}\n',
    ("mgf-exact", "--b", "1.5", "--alpha", "0.5", "--n", "10000", "--disk", "r=0.5,u=-40",
     "--disk", "r=0.7,u=2"):
        '{"params": {"b": 1.5, "alpha": 0.5, "n": 10000}, "disks": [{"radius": 0.5, "kind": '
        '"bulk", "u": -40.0}, {"radius": 0.7, "kind": "bulk", "u": 2.0}], "log_mgf": '
        '-53378.21712752413}\n',
    ("coeffs", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=0.8", "--disk", "s=0.3,u=0.5"):
        '{"params": {"b": 1.0, "alpha": 0.0, "n": 1}, "C1": 0.788, "C2": 0.017108227013463498, '
        '"C3": -0.01453660649992583, "C4": -0.004372502965520893, "quad_error": '
        '5.58887246378259e-15, "per_disk_breakdown": [{"index": 0, "kind": "bulk", "C1": 0.288, '
        '"C2": 0.10802163821933415, "C3": 0.00779786394093529, "C4": -0.019052313702068224}, '
        '{"index": 1, "kind": "edge", "C1": 0.5, "C2": -0.09091341120587065, "C3": '
        '-0.02233447044086112, "C4": 0.014679810736547332}]}\n',
}


def _assert_scipy_era_values(got, want, key=None):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _assert_scipy_era_values(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_scipy_era_values(g, w, key)
    elif key == "log_mgf":
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    elif key in ("C1", "C2", "C3", "C4"):
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (key, got, want)
    elif key == "quad_error":
        assert 0.0 <= got <= 1e-13
    else:
        assert got == want, key


def test_scipy_special_loaded_only_by_its_evaluators():
    # no evaluator loads scipy any more (see _SCIPY_GUARD), and the numpy
    # ones reproduce the scipy-era outputs
    src = os.path.dirname(os.path.dirname(mlcounts.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    guard = subprocess.run([sys.executable, "-c", _SCIPY_GUARD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert guard.returncode == 0, guard.stderr
    for argv, want in _SCIPY_OUTPUTS.items():
        proc = subprocess.run([sys.executable, "-m", "mlcounts", *argv], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        _assert_scipy_era_values(json.loads(proc.stdout), json.loads(want))
