import json
import math

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HAWKES = ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2,x0=1"]


def test_moments_csv_at_time_zero(capsys):
    code, out, _ = run(
        capsys, "moments", *HAWKES, "--order", "1", "--time", "0", "--format", "csv"
    )
    assert code == 0
    assert out == "order,value\n1,1.0\n"


def test_moments_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys, "moments", *HAWKES, "--order", "4", "--time", "2.5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"metadata", "payload"}
    assert doc["metadata"]["process"] == "hawkes"
    assert json.dumps(doc, separators=(",", ":")) + "\n" == out


def test_moments_match_library(capsys):
    code, out, _ = run(
        capsys, "moments", *HAWKES, "--order", "3", "--time", "1.5", "--format", "json"
    )
    payload = json.loads(out)["payload"]
    system, init = mk.build(mk.HawkesSpec(1, 1, 2, 1), 3)
    expected = mk.transient_vector(system, init, 1.5).values
    assert [p["value"] for p in payload] == pytest.approx(list(expected), rel=1e-15)


def test_steady_growth_collapse(capsys):
    code, out, _ = run(
        capsys,
        "steady",
        "--process",
        "growthcollapse",
        "--params",
        "lambda=1,mu=0.5",
        "--order",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "order,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    # generator-derived stationary moments (n+1)! (lambda/mu)^n
    assert values == pytest.approx([4.0, 24.0, 192.0], rel=1e-12)


def test_moments_at_large_time_match_steady(capsys):
    _, out_m, _ = run(
        capsys, "moments", *HAWKES, "--order", "5", "--time", "1e9", "--format", "csv"
    )
    _, out_s, _ = run(capsys, "steady", *HAWKES, "--order", "5", "--format", "csv")
    moments = [float(r.split(",")[1]) for r in out_m.strip().split("\n")[1:]]
    steady = [float(r.split(",")[1]) for r in out_s.strip().split("\n")[1:]]
    assert moments == pytest.approx(steady, rel=1e-6)


def test_csv_reemission_is_byte_identical(capsys):
    code, out, _ = run(
        capsys, "moments", *HAWKES, "--order", "5", "--time", "3.7", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    rebuilt = [lines[0]]
    for line in lines[1:]:
        order, value = line.split(",")
        rebuilt.append(f"{int(order)},{repr(float(value))}")
    assert "\n".join(rebuilt) + "\n" == out


def test_bench_csv_schema(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        *HAWKES,
        "--order",
        "3",
        "--time",
        "1.0",
        "--deltas",
        "1e-2",
        "--trials",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,delta,run_time_seconds,abs_error,rel_error"
    assert len(lines) == 3
    closed = lines[1].split(",")
    assert closed[0] == "closed-form" and closed[1] == ""
    assert closed[3] == "0.0" and closed[4] == "0.0"
    euler = lines[2].split(",")
    assert euler[0] == "euler" and float(euler[1]) == 1e-2


def test_bench_table_format(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        *HAWKES,
        "--order",
        "2",
        "--time",
        "1.0",
        "--deltas",
        "1e-2,1e-3",
        "--trials",
        "1",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("method")
    assert "closed-form" in out and "1.0e-02" in out


@pytest.mark.filterwarnings("ignore::matryoshkan.errors.EstimatePrecisionWarning")
def test_simulate_csv_and_determinism(capsys):
    args = [
        "simulate",
        "--process",
        "ephemeral",
        "--params",
        "nu-star=1,alpha=2,mu=3",
        "--order",
        "2",
        "--time",
        "2.0",
        "--paths",
        "400",
        "--seed",
        "9",
        "--format",
        "csv",
    ]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert out1.startswith("order,estimate,std_error\n")
    assert len(out1.strip().split("\n")) == 3
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_generic_process_with_descriptors(capsys):
    code, out, _ = run(
        capsys,
        "steady",
        "--process",
        "generic",
        "--params",
        "a0=1,a5=-4",
        "--jumps-A",
        "lognormal:0,1",
        "--order",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    values = [float(r.split(",")[1]) for r in out.strip().split("\n")[1:]]
    # same system as the shot-noise fixture
    assert values[0] == pytest.approx(math.exp(0.5) / 4.0, rel=1e-12)


def test_exit_code_2_on_parameter_errors(capsys):
    code, _, err = run(capsys, "moments", "--process", "hawkes", "--params", "alpha=1,beta=2", "--order", "1", "--time", "1")
    assert code == 2 and "lambda-star" in err
    code, _, err = run(capsys, "moments", "--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2,bogus=3", "--order", "1", "--time", "1")
    assert code == 2 and "bogus" in err
    code, _, err = run(capsys, "moments", "--process", "hawkes", "--params", "lambda-star=x,alpha=1,beta=2", "--order", "1", "--time", "1")
    assert code == 2 and "lambda-star" in err
    code, _, err = run(capsys, "simulate", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--order", "1", "--time", "1", "--paths", "10", "--seed", "1")
    assert code == 2 and "--jumps" in err
    code, _, _ = run(capsys, "moments", "--process", "nosuch", "--params", "a=1", "--order", "1", "--time", "1")
    assert code == 2
    for bad in ("nan", "inf", "-inf"):
        code, _, err = run(capsys, "moments", "--process", "hawkes", "--params", f"lambda-star={bad},alpha=1,beta=2", "--order", "1", "--time", "1")
        assert code == 2 and "lambda-star" in err and "finite" in err


def test_ephemeral_fractional_initial_count_is_rejected(capsys):
    args = ["moments", "--process", "ephemeral", "--order", "2", "--time", "1", "--params"]
    code, out, err = run(capsys, *args, "nu-star=1,alpha=2,mu=3,x0=1.5")
    assert code == 2 and out == "" and "1.5" in err
    code, out, _ = run(capsys, *args, "nu-star=1,alpha=2,mu=3,x0=1")
    assert code == 0
    system, init = mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0, 1), 2)
    expected = mk.transient_vector(system, init, 1.0).values
    assert [p["value"] for p in json.loads(out)["payload"]] == list(expected)


def test_exit_code_2_on_unstable_steady(capsys):
    code, _, err = run(
        capsys, "steady", "--process", "ito", "--params", "mu=1,theta=1,sigma=1,gamma=1", "--order", "2"
    )
    assert code == 2 and "stationary" in err


def test_exit_code_3_on_numerical_failures(capsys):
    # Coincident, zero and all-zero diagonals solve: the augmented
    # exponential needs no distinct spectrum and no inverse.  Each payload
    # equals the library's transient moments.
    solvable = [
        # gamma = 2 with theta = -1.5 makes orders 1 and 3 collide
        (
            ["--process", "ito", "--params", "mu=0,theta=-1.5,sigma=1,gamma=2,x0=1", "--order", "3"],
            mk.ItoSpec(mu=0.0, theta=-1.5, sigma=1.0, gamma=2.0, x0=1.0),
        ),
        # a zero pivot: growth plus uniform collapse tuned so the first diagonal vanishes
        (
            ["--process", "generic", "--params", "a4=1,a5=0.5,a9=1,x0=1", "--jumps-C", "uniform", "--order", "2"],
            mk.GenericGeneratorSpec(
                coeffs=(0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 1.0),
                collapse=mk.UniformJumps(),
                x0=1.0,
            ),
        ),
        # drift-free diffusion: every diagonal is zero
        (
            ["--process", "ito", "--params", "mu=1,theta=0,sigma=1,gamma=1,x0=0", "--order", "2"],
            mk.ItoSpec(mu=1.0, theta=0.0, sigma=1.0, gamma=1.0, x0=0.0),
        ),
    ]
    for argv, spec in solvable:
        code, out, err = run(capsys, "moments", *argv, "--time", "1", "--format", "json")
        assert code == 0 and err == "", (argv, err)
        system, init = mk.build(spec, len(json.loads(out)["payload"]))
        expected = mk.transient_vector(system, init, 1.0).values
        assert [p["value"] for p in json.loads(out)["payload"]] == list(expected)

    # explosive diffusion far out in time: the moments leave the double range
    code, _, err = run(
        capsys,
        "moments",
        "--process",
        "ito",
        "--params",
        "mu=1,theta=1,sigma=1,gamma=1,x0=1",
        "--order",
        "10",
        "--time",
        "100",
    )
    assert code == 3 and "Overflow" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_steady_overflow_exits_three(capsys):
    code, out, err = run(
        capsys, "steady", "--process", "growthcollapse", "--params", "lambda=1e30,mu=1", "--order", "12"
    )
    assert code == 3 and out == "" and "Overflow" in err


def test_bench_rejects_non_finite_deltas(capsys):
    for bad in ("nan", "inf"):
        code, out, err = run(
            capsys, "bench", *HAWKES, "--order", "3", "--time", "1", "--deltas", f"1e-2,{bad}"
        )
        assert code == 2 and out == "" and "--deltas" in err and bad in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_bad_flag_exits_two(capsys):
    assert cli.main(["moments", "--nope"]) == 2
    capsys.readouterr()
