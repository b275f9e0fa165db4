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
from mlcounts.asymptotics import bulk_cumulant_coeffs, cumulant_coeffs
from mlcounts.cli import main
from mlcounts.exact import Disk, DiskSystem, EnsembleParams, support_radius


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
    [0.05, 5], in [5, 1e4], where r^b and the e^(-s^2) factors leave double
    range, or up to 1e300, where b^1.5 does; n past 2^63 some of the time (but
    for zn, whose exact sum is O(n)); 1-3 disks, increasing fixed radii, some
    at r* (1 +- 1e-13), which classify calls the edge, and at most one edge
    disk, placed anywhere.  Half the examples write each option as
    "--name=value", the other half as two tokens, where a value such as
    -1e-05 must still be read as a value."""
    sub = draw(st.sampled_from(["mgf-exact", "mgf-asymptotic", "coeffs", "cumulants", "zn",
                                "sample", "verify-residual", "verify-clt"]))
    split = draw(st.booleans())

    def opt(name, value):
        return [f"--{name}", value] if split else [f"--{name}={value}"]

    b = draw(st.one_of(st.floats(0.05, 5.0), st.floats(5.0, 1e4), st.floats(1e4, 1e300)))
    rstar = b ** (-1.0 / (2.0 * b))
    radius = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([rstar * (1 - 1e-13),
                                                              rstar * (1 + 1e-13)]))
    argv = [sub, *opt("b", repr(b)),
            *opt("alpha", repr(draw(st.floats(-1.0, 3.0, exclude_min=True))))]
    if sub == "verify-residual":
        n0 = draw(st.integers(50, 250))
        argv += opt("n-values", ",".join(str(n0 * k) for k in (1, 2, 4, 8)))
    elif sub != "coeffs" or draw(st.booleans()):
        # small n often: there an edge disk's 1 + sqrt(2b) s/sqrt(n) can reach 0;
        # past 2^63 n is no int64 row index; sample and verify-clt keep n small
        # otherwise, as their window grows like sqrt(n)
        huge = st.integers(2**63, 2**70) if sub != "zn" else st.nothing()
        argv += opt("n", str(draw(st.one_of(st.integers(1, 20), st.integers(1, 2000), huge))))
    if sub == "verify-clt":
        radii = draw(st.lists(radius, max_size=2, unique=True))
        if radii:
            argv += opt("bulk-r", ",".join(map(repr, sorted(radii))))
        if draw(st.booleans()):
            argv += opt("s", repr(draw(st.floats(-30.0, 30.0))))
    elif sub != "zn":
        has_edge = draw(st.booleans())
        radii = draw(st.lists(radius, min_size=1 - has_edge, max_size=3 - has_edge, unique=True))
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
        for bare in ("division by zero", "JSON compliant", "math domain error", "out of range",
                     "too large to convert"):
            assert bare not in err.getvalue()
    else:
        payload = json.loads(out.getvalue(),
                             parse_constant=lambda token: pytest.fail(f"non-finite {token}"))
        assert payload.get("pass", True) is (code == 0)


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.05, 5.0), alpha=st.floats(-0.9, 2.0),
       ratios=st.lists(st.one_of(st.floats(0.05, 1.5), st.just(1 - 1e-13)), min_size=1,
                       max_size=2, unique=True),
       orders=st.lists(st.integers(1, 6), min_size=1, max_size=2))
def test_cumulant_table_agrees_with_cumulant_coeffs(b, alpha, ratios, orders):
    # every row of the asymptotic table is cumulant_coeffs of its disk, with
    # classify's kind and x; bulk_cumulant_coeffs gives the same series for a
    # bulk disk and raises for any other, r* (1 - 1e-13) included
    radii = [support_radius(b) * q for q in sorted(ratios)]
    argv = ["cumulants", "--b", repr(b), "--alpha", repr(alpha), "--n", "1000",
            "--orders", ",".join(map(str, orders)), "--mode", "asymptotic"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + [f"--disk=r={r!r}" for r in radii])
    params, disks = EnsembleParams(b, alpha, 1000), DiskSystem([Disk.fixed(r) for r in radii])
    try:
        table = [cumulant_coeffs(j, params, disks) for j in orders]
    except ValueError:
        assert code == 2 and out.getvalue() == ""
        return
    assert code == 0
    rows = iter(json.loads(out.getvalue())["series"])
    for i, (r, (kind, x)) in enumerate(zip(radii, disks.classify(b))):
        for j, per_disk in zip(orders, table):
            want, row = per_disk[i], next(rows)
            assert (row["kind"], row["r_or_s"], row["order"]) == (kind, x, j)
            assert [row[k] for k in ("leading", "c", "d", "e", "value_at_n")] == [
                want.leading, want.c, want.d, want.e, want.evaluate(1000)]
            if kind == "bulk":
                assert bulk_cumulant_coeffs(j, b, alpha, r) == want
            else:
                with pytest.raises(ValueError, match="bulk radius must satisfy"):
                    bulk_cumulant_coeffs(j, b, alpha, r)


def test_cumulant_table_at_support_edge_is_the_edge_row(capsys):
    # r = 1 - 1e-13 is within 1e-12 of r* = 1: the table printed this row with
    # kind edge while bulk_cumulant_coeffs returned the bulk c = 0.5642
    r = 1.0 - 1e-13
    code, out, _ = run(capsys, "cumulants", "--b", "1", "--n", "1000", "--disk", f"r={r!r}",
                       "--orders", "2", "--mode", "asymptotic")
    assert code == 0
    (row,) = json.loads(out)["series"]
    (want,) = cumulant_coeffs(2, EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.fixed(r)]))
    assert (row["kind"], row["r_or_s"]) == ("edge", 0.0)
    assert [row[k] for k in ("leading", "c", "d", "e")] == [want.leading, want.c, want.d, want.e]
    assert row["c"] == pytest.approx(0.2821, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["mgf-exact", "--disk", "r=0.5,u=1"],
    ["sample", "--disk", "r=0.5", "--num-samples", "5"],
    ["coeffs", "--disk", "r=0.5,u=1"],
    ["cumulants", "--disk", "r=0.5", "--mode", "asymptotic"],
], ids=["mgf-exact", "sample", "coeffs", "cumulants"])
@pytest.mark.parametrize("n", [2**63, 10**19, 10**400], ids=["2^63", "1e19", "1e400"])
def test_n_past_int64_exits_2(capsys, argv, n):
    # mgf-exact and sample used to fail on "Python int too large to convert to
    # C ssize_t", coeffs on "int too large to convert to float"
    code, out, err = run(capsys, *argv, "--b", "1", "--n", str(n))
    assert code == 2 and out == ""
    assert f"n must be an integer in [1, 2^63), got {n}" in err


def test_verify_clt_huge_b_names_inputs(capsys):
    # b^1.5 in the edge closed forms used to exit 2 on a bare
    # "(34, 'Numerical result out of range')"; the edge series names b and s
    code, out, err = run(capsys, "verify-clt", "--b", "1e300", "--n", "1000", "--s", "0.5",
                         "--num-samples", "200", "--seed", "1")
    assert code == 2 and out == ""
    assert "edge coefficients not finite at b = 1e+300, s = 0.5" in err


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


def test_cumulants_options_of_the_other_mode_exit_2(capsys):
    # --format csv is the asymptotic table and --joint an exact-mode index:
    # each used to be dropped without a word, with exit 0
    argv = ["cumulants", "--b", "1", "--n", "100", "--disk", "r=0.5", "--disk", "r=0.7"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert "--format csv" in err
    code, out, err = run(capsys, *argv, "--joint", "1,1", "--mode", "asymptotic")
    assert code == 2 and out == ""
    assert "--joint" in err


def test_unconverged_coefficients_exit_2(capsys):
    # at u = 1e5 the bulk quadrature misses its tolerance at the last rule:
    # it used to print C4 = -6996401447488.0 with quad_error 3.4e14
    code, out, err = run(capsys, "coeffs", "--b", "1", "--alpha", "0", "--disk", "r=0.5,u=1e5")
    assert code == 2 and out == ""
    assert "not converged" in err and "r = 0.5, u = 100000.0" in err


def test_mgf_exact_weight_sums_past_double_range_name_u(capsys):
    # u_1 + u_2 overflows: an input error naming u, with no numpy warning on
    # stderr (it used to exit 2 with "Out of range float values are not JSON
    # compliant" after an overflow warning)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "mgf-exact", "--b", "1", "--n", "5",
                             "--disk", "r=0.5,u=1e308", "--disk", "r=0.6,u=1e308")
    assert code == 2 and out == "" and not caught
    assert "u = [1e+308, 1e+308]" in err


@pytest.mark.parametrize("mode", ["coeffs", "cumulants"])
def test_edge_overflow_warns_only_the_flag(capsys, mode):
    # s = 1e300 overflows in the integrands and the point values; only the
    # extreme-s flag and the error line reach stderr, no numpy RuntimeWarning
    argv = (["coeffs", "--b", "1", "--alpha", "0", "--disk", "s=1e300,u=1"] if mode == "coeffs"
            else ["cumulants", "--b", "1", "--n", "100", "--disk", "s=1e300", "--mode", "asymptotic"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: edge coefficients not finite at b = 1.0, s = 1e+300")
    assert [str(w.message).split(";")[0] for w in caught] == [
        "edge parameter s = 1e+300 is far outside the Gaussian window"
    ]


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


def test_mgf_exact_past_the_row_cap(capsys):
    # n = 1e12 at r = 0.6 has 1.45e7 window rows, past MAX_WINDOW_ROWS, where
    # this exited 2: the window integral returns the log-MGF, which agrees
    # with the four-term expansion to its last bits
    from mlcounts.asymptotics import theorem_coefficients

    code, out, err = run(capsys, "mgf-exact", "--b", "1", "--alpha", "0", "--n", "1000000000000",
                         "--disk", "r=0.6,u=0.9")
    assert code == 0 and err == ""
    params, disks = EnsembleParams(1.0, 0.0, 10**12), DiskSystem([Disk.fixed(0.6, 0.9)])
    value = json.loads(out)["log_mgf"]
    assert math.isfinite(value)
    assert value == pytest.approx(theorem_coefficients(params, disks).evaluate(params.n), rel=1e-15)


def test_cumulants_exact_one_profile(capsys, monkeypatch):
    # every order of one command sums over one window
    import mlcounts.exact as exact

    calls = []
    real = exact._window

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exact, "_window", counting)
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
# scipy module; the runtime depends on numpy alone.  Importing the package
# loads neither module that the sampler (concurrent.futures) and the
# partition-function constant (fractions) import only when they run.  Nor
# does anything load numpy.polynomial: the Gauss-Legendre table is built in
# specfun (its import cost 3-4.5 ms and ~0.8 MB in every process that ran a
# quadrature).
_SCIPY_GUARD = r"""
import contextlib, importlib, io, pkgutil, sys


def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


def polynomial_loaded():
    return "numpy.polynomial" in sys.modules


def deferred_loaded():
    return sorted(name for name in ("concurrent.futures", "fractions") if name in sys.modules)


import mlcounts

assert not scipy_loaded(), "import mlcounts"
assert not deferred_loaded(), ("import mlcounts", deferred_loaded())
assert not polynomial_loaded(), "import mlcounts"
for info in pkgutil.iter_modules(mlcounts.__path__):
    if info.name != "__main__":
        importlib.import_module("mlcounts." + info.name)
assert not scipy_loaded(), "importing every mlcounts module"
assert not deferred_loaded(), ("importing every mlcounts module", deferred_loaded())
assert not polynomial_loaded(), "importing every mlcounts module"

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
    assert not polynomial_loaded(), argv
    # one worker samples in the calling thread, without a pool
    assert "concurrent.futures" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sample", *base, "--disk", "r=0.6", "--num-samples", "600", "--seed", "3",
                 "--threads", "2"]) == 0
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
