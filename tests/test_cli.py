import json
import math
import warnings

import pytest

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
    argv = ["mgf-asymptotic", "--b", "2", "--alpha", "0.5", "--n", "4000",
            "--disk", "r=0.45,u=0.3", "--disk", "s=0.3,u=0.3"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_specfun_test_csv(capsys):
    code, out, _ = run(
        capsys, "specfun-test", "--a-points", "3", "--lam-points", "3", "--dps", "30"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,lambda,regime,abs_err_vs_oracle"
    assert len(lines) == 10
    worst = max(float(line.split(",")[3]) for line in lines[1:])
    assert worst < 1e-13


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ML_COUNTS_THREADS", "2")
    code, out, _ = run(
        capsys,
        "sample", "--b", "1", "--alpha", "0", "--n", "10", "--disk", "r=0.5",
        "--num-samples", "64", "--seed", "1", "--format", "csv",
    )
    assert code == 0
    monkeypatch.setenv("ML_COUNTS_THREADS", "1")
    code2, out2, _ = run(
        capsys,
        "sample", "--b", "1", "--alpha", "0", "--n", "10", "--disk", "r=0.5",
        "--num-samples", "64", "--seed", "1", "--format", "csv",
    )
    assert out == out2


def test_non_finite_parameters_exit_2(capsys):
    code, out, err = run(
        capsys, "mgf-exact", "--b", "inf", "--alpha", "0", "--n", "100", "--disk", "r=0.5,u=1"
    )
    assert code == 2
    assert out == ""
    assert "b must be finite" in err
    code, _, _ = run(capsys, "zn", "--b", "1", "--alpha", "nan", "--n", "100")
    assert code == 2


def test_non_positive_threads_exit_2(capsys, monkeypatch):
    argv = ["sample", "--b", "1", "--n", "10", "--disk", "r=0.5", "--num-samples", "4"]
    code, out, _ = run(capsys, *argv, "--threads", "-3")
    assert code == 2 and out == ""
    code, _, _ = run(capsys, *argv, "--threads", "0")
    assert code == 2
    monkeypatch.setenv("ML_COUNTS_THREADS", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_unread_options_exit_2(capsys):
    code, out, _ = run(capsys, "coeffs", "--b", "1", "--n", "5", "--disk", "r=0.6,u=1")
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
