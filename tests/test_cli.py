import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan import cli
from matryoshkan.core import _MAX_ORDER

SRC = Path(mk.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HAWKES = ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2,x0=1"]
# transient moments past the double range: exit 3
OVERFLOW = ["moments", "--process", "ito", "--params", "mu=1,theta=1,sigma=1,gamma=1,x0=1",
            "--order", "30", "--time", "50"]


# Every family with a non-default x0 and each of its descriptor flags, next
# to the record built directly from the library.
FAMILY_CASES = {
    "hawkes": (
        ["--params", "lambda-star=1,alpha=1,beta=2,x0=1.5"],
        mk.HawkesSpec(1.0, 1.0, 2.0, x0=1.5),
    ),
    "shotnoise": (
        ["--params", "lambda=1,beta=4,x0=0.5", "--jumps", "exponential:2"],
        mk.ShotNoiseSpec(1.0, 4.0, mk.ExponentialJumps(2.0), x0=0.5),
    ),
    "ito": (
        ["--params", "mu=1,theta=-1,sigma=0.5,gamma=1,x0=2"],
        mk.ItoSpec(1.0, -1.0, 0.5, 1.0, x0=2.0),
    ),
    "growthcollapse": (
        ["--params", "lambda=1,mu=0.5,x0=1", "--collapse", "deterministic:0.5"],
        mk.GrowthCollapseSpec(1.0, 0.5, x0=1.0, collapse=mk.DeterministicJumps(0.5)),
    ),
    "ephemeral": (
        ["--params", "nu-star=1,alpha=2,mu=3,x0=2"],
        mk.EphemeralSpec(1.0, 2.0, 3.0, x0=2),
    ),
    "generic": (
        [
            "--params", "a0=1,a2=0.5,a3=1,a5=-4,a9=0.5,x0=0.1",
            "--jumps-A", "lognormal:0,0.5",
            "--jumps-B", "deterministic:0.2",
            "--jumps-C", "uniform",
        ],
        mk.GenericGeneratorSpec(
            coeffs=(1.0, 0.0, 0.5, 1.0, 0.0, -4.0, 0.0, 0.0, 0.0, 0.5),
            up=mk.LogNormalJumps(0.0, 0.5),
            down=mk.DeterministicJumps(0.2),
            collapse=mk.UniformJumps(),
            x0=0.1,
        ),
    ),
}


@pytest.mark.parametrize("family", FAMILY_CASES)
def test_every_family_matches_library(capsys, family):
    flags, spec = FAMILY_CASES[family]
    code, out, err = run(
        capsys, "moments", "--process", family, *flags, "--order", "4", "--time", "1.5"
    )
    assert code == 0 and err == ""
    system, init = mk.build(spec, 4)
    expected = mk.transient_vector(system, init, 1.5).values
    assert [p["value"] for p in json.loads(out)["payload"]] == list(expected)


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
    code, out, _ = run(
        capsys, "moments", "--process", "shotnoise", "--params", "lambda=1,beta=4",
        "--jumps", "explicit:1,2,6", "--order", "3", "--time", "1",
    )
    system, init = mk.build(mk.ShotNoiseSpec(1.0, 4.0, mk.ExplicitJumps((1.0, 2.0, 6.0))), 3)
    expected = mk.transient_vector(system, init, 1.0).values
    assert code == 0 and [p["value"] for p in json.loads(out)["payload"]] == list(expected)


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
    # a descriptor the record rejects reports the record's reason
    code, _, err = run(capsys, "moments", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", "exponential:-1", "--order", "1", "--time", "1")
    assert code == 2 and err == "error: --jumps: rate must be > 0, got -1.0\n"
    code, _, err = run(capsys, "moments", *HAWKES, "--order", "0", "--time", "1")
    assert code == 2 and "--order" in err
    code, _, err = run(capsys, "bench", *HAWKES, "--order", "1", "--time", "1", "--deltas", "1e-2", "--trials", "0")
    assert code == 2 and "--trials" in err
    code, _, err = run(capsys, "simulate", *HAWKES, "--order", "1", "--time", "1", "--paths", "0", "--seed", "1")
    assert code == 2 and "--paths" in err
    # one path passes the simulator, but a standard error needs two
    code, out, err = run(capsys, "simulate", *HAWKES, "--order", "1", "--time", "1", "--paths", "1", "--seed", "1")
    assert code == 2 and out == "" and err == "error: --paths must be >= 2, got 1\n"
    # a value the library refuses is named by its flag, not by the parameter
    code, out, err = run(capsys, "moments", *HAWKES, "--order", "1", "--time", "-1")
    assert code == 2 and out == "" and err == "error: --time must be >= 0, got -1.0\n"
    code, out, err = run(capsys, "bench", *HAWKES, "--order", "1", "--time", "nan", "--deltas", "1e-2")
    assert code == 2 and out == "" and err == "error: --time must be finite, got nan\n"
    code, out, err = run(capsys, "simulate", *HAWKES, "--order", "1", "--time", "1", "--paths", "10", "--seed", "1",
                         "--sim-step", "0")
    assert code == 2 and out == "" and err == "error: --sim-step must be > 0, got 0.0\n"
    code, _, err = run(capsys, "moments", "--process", "hawkes", "--params", "lambda-star,alpha=1,beta=2", "--order", "1", "--time", "1")
    assert code == 2 and "expected key=value" in err
    code, _, err = run(capsys, "bench", *HAWKES, "--order", "1", "--time", "1", "--deltas", "1e-2,x")
    assert code == 2 and "--deltas" in err and "not a list of numbers" in err
    code, out, err = run(capsys, "bench", *HAWKES, "--order", "1", "--time", "1", "--deltas", ",")
    assert code == 2 and out == "" and err == "error: --deltas: the list of step sizes is empty: ','\n"
    for descriptor, reason in (("lognormal:x,1", "malformed descriptor"), ("gamma:1", "unknown descriptor")):
        code, out, err = run(capsys, "moments", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", descriptor, "--order", "1", "--time", "1")
        assert code == 2 and out == "" and f"--jumps: {reason} '{descriptor}'" in err
    # an active jump term without its law is rejected by the record
    code, out, err = run(capsys, "moments", "--process", "generic", "--params", "a0=1", "--order", "1", "--time", "1")
    assert code == 2 and out == "" and "a0/a1" in err
    # uniform takes no values, so a value would silently be ignored
    code, out, err = run(capsys, "moments", "--process", "growthcollapse", "--params", "lambda=1,mu=0.5", "--collapse", "uniform:0.5", "--order", "1", "--time", "1")
    assert code == 2 and out == "" and "--collapse: unknown descriptor 'uniform:0.5'" in err
    # a repeated key would silently keep its last value
    code, out, err = run(capsys, "moments", "--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2,alpha=1.5", "--order", "1", "--time", "1")
    assert code == 2 and out == "" and err == "error: --params: key 'alpha' is given more than once\n"


FOREIGN_FLAGS = [
    (family, flag)
    for family, (_, _, descriptors) in cli._FAMILIES.items()
    for flag in ("--jumps", "--collapse", "--jumps-A", "--jumps-B", "--jumps-C")
    if flag not in descriptors
]


@pytest.mark.parametrize("family,flag", FOREIGN_FLAGS)
def test_descriptor_flag_of_another_family_is_rejected(capsys, family, flag):
    flags, _ = FAMILY_CASES[family]
    code, out, err = run(
        capsys, "moments", "--process", family, *flags, flag, "uniform", "--order", "2", "--time", "1"
    )
    assert code == 2 and out == ""
    assert err == f"error: {flag} does not apply to process {family}\n"


WARNING_CASES = {
    "EstimatePrecisionWarning": [
        "simulate", "--process", "shotnoise", "--params", "lambda=1,beta=4",
        "--jumps", "exponential:2", "--order", "2", "--time", "1", "--paths", "20", "--seed", "1",
    ],
}


@pytest.mark.parametrize("category", sorted(WARNING_CASES))
def test_library_warning_is_one_stderr_line(capsys, category):
    argv = WARNING_CASES[category]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "matryoshkan", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    code, out, err = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out and proc.stderr == err
    lines = err.splitlines()
    assert lines and all(line.startswith(f"warning: {category}: ") for line in lines)
    assert "cli.py" not in err and str(SRC) not in err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(capsys, *argv)[1] == out


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


def test_fractional_gamma_simulates_only(capsys):
    ito = ["--process", "ito", "--params", "mu=1,theta=-1,sigma=0.5,gamma=1.5,x0=1", "--order", "2"]
    err = "error: exact systems need gamma in {0, 1, 2}, got 1.5; fractional gamma can only be simulated\n"
    for argv in (["moments", *ito, "--time", "1"], ["steady", *ito]):
        assert run(capsys, *argv) == (2, "", err)
    code, out, err = run(capsys, "simulate", *ito, "--time", "1", "--paths", "200", "--seed", "1")
    assert code == 0 and err == "" and len(json.loads(out)["payload"]) == 2


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
def test_initial_moment_overflow_exits_three(capsys):
    params = ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2,x0=1e200", "--order", "2"]
    for t in ("0", "1"):
        code, out, err = run(capsys, "moments", *params, "--time", t)
        assert code == 3 and out == "", t
        assert err == "error: Overflow: initial moment of order 2 leaves the double range\n", t
    code, out, err = run(capsys, "steady", *params)
    assert code == 0 and err == ""
    assert [p["value"] for p in json.loads(out)["payload"]] == [2.0, 5.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_steady_overflow_exits_three(capsys):
    code, out, err = run(
        capsys, "steady", "--process", "growthcollapse", "--params", "lambda=1e30,mu=1", "--order", "12"
    )
    assert code == 3 and out == "" and "Overflow" in err


def test_bench_of_finite_moments_past_1e300_exits_zero(capsys):
    # the closed form and Euler both reach 3.99e307 at order 10, and both
    # report it, as `moments` does
    code, out, err = run(
        capsys, "bench", "--process", "growthcollapse", "--params", "lambda=1e30,mu=1",
        "--order", "10", "--time", "200", "--deltas", "1e-2", "--trials", "1",
    )
    assert code == 0 and err == "" and out.splitlines()[2].startswith("euler")


@pytest.mark.parametrize(
    "args",
    [
        ["moments", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", "exponential:1", "--order", "171", "--time", "1"],
        ["moments", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", "exponential:1e-200", "--order", "3", "--time", "1"],
        ["moments", "--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", "deterministic:1e200", "--order", "3", "--time", "1"],
        ["moments", "--process", "generic", "--params", "a0=1,a5=-1", "--jumps-A", "exponential:1", "--order", "171", "--time", "1"],
        ["steady", "--process", "generic", "--params", "a0=1,a5=-1", "--jumps-A", "exponential:1", "--order", "171"],
        ["simulate", "--process", "ito", "--params", "mu=1,theta=1,sigma=1,gamma=2", "--order", "3", "--time", "1e9", "--paths", "10", "--seed", "1", "--sim-step", "1e8"],
    ],
)
def test_moments_outside_the_double_range_exit_three(capsys, args):
    # jump moments and sample moments past the double range are reported,
    # not printed as Infinity and not a traceback
    code, out, err = run(capsys, *args)
    assert code == 3 and out == "" and err.startswith("error: Overflow: ") and "order" in err
    assert "warning" not in err


def test_time_past_1e300_gives_the_stationary_moments(capsys):
    # the smallest Taylor degree's norm ratio overflows there; the kernel
    # skips it rather than raise OverflowError
    params = ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2", "--order", "5"]
    code, out, err = run(capsys, "moments", *params, "--time", "1e301")
    assert code == 0 and err == ""
    _, steady, _ = run(capsys, "steady", *params)
    assert json.loads(out)["payload"] == json.loads(steady)["payload"]


@pytest.mark.parametrize(
    "args, code, err",
    [
        (
            ["moments", "--process", "ito", "--params", "mu=1,theta=-1,sigma=1e200,gamma=1",
             "--order", "2", "--time", "1"],
            2,
            "error: sigma**2 / 2 must be finite, got inf\n",
        ),
        (
            ["steady", "--process", "shotnoise", "--params", "lambda=1,beta=4",
             "--jumps", "explicit:1e200,1e300", "--order", "2"],
            3,
            "warning: MomentSequenceWarning: explicit moment sequence is not log-convex at order 1\n"
            "error: Overflow: stationary moment of order 2 leaves the double range\n",
        ),
        (
            ["simulate", "--process", "ito", "--params", "mu=1,theta=-1,sigma=1e-200,gamma=1,x0=1",
             "--order", "2", "--time", "1", "--paths", "10", "--seed", "1"],
            3,
            "error: Overflow: transition law at t = 1.0 leaves the double range\n",
        ),
        # coefficients and paths past the double range, each once preceded
        # by numpy RuntimeWarnings
        (
            ["moments", "--process", "growthcollapse", "--params", "lambda=1e308,mu=1",
             "--order", "3", "--time", "1"],
            3,
            "error: Overflow: generator times t leaves the double range\n",
        ),
        (
            ["simulate", "--process", "ito", "--params", "mu=0,theta=100,sigma=1,gamma=2,x0=1",
             "--order", "2", "--time", "10", "--paths", "10", "--seed", "1"],
            3,
            "error: Overflow: simulated path leaves the double range\n",
        ),
        # sizes past the address space, which the allocator refuses at once
        (
            ["moments", "--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2",
             "--order", "10000000", "--time", "1"],
            2,
            "error: --order must fit in memory, got 10000000\n",
        ),
        (
            ["steady", "--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2",
             "--order", "10000000000"],
            2,
            f"error: --order must be <= {_MAX_ORDER}, got 10000000000\n",
        ),
        (
            ["simulate", "--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2",
             "--order", "2", "--time", "1", "--paths", "1000000000000000", "--seed", "1"],
            2,
            "error: --paths must fit in memory, got 1000000000000000\n",
        ),
    ],
    ids=["sigma-squared-overflows", "explicit-square-overflows", "sigma-squared-underflows",
         "growth-collapse-coefficients", "euler-maruyama-path", "order-unallocatable",
         "order-unaddressable", "paths-unallocatable"],
)
def test_extreme_numeric_input_is_a_library_error(capsys, args, code, err):
    # each once escaped as a raw OverflowError, ZeroDivisionError or numpy
    # allocation error (exit 1)
    assert run(capsys, *args) == (code, "", err)


def test_bench_rejects_non_finite_deltas(capsys):
    for bad in ("nan", "inf"):
        code, out, err = run(
            capsys, "bench", *HAWKES, "--order", "3", "--time", "1", "--deltas", f"1e-2,{bad}"
        )
        assert code == 2 and out == "" and "--deltas" in err and bad in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", *HAWKES, "--order", "3", "--time", "1", "--deltas", "1e-300"],
        ["simulate", "--process", "hawkes", "--params", "lambda-star=1e200,alpha=0.5,beta=2",
         "--order", "3", "--time", "1", "--paths", "20", "--seed", "1"],
        ["simulate", "--process", "hawkes", "--params", "lambda-star=1,alpha=1e200,beta=2",
         "--order", "3", "--time", "1", "--paths", "20", "--seed", "1"],
        ["simulate", "--process", "ito", "--params", "mu=1,theta=-1,sigma=1,gamma=2,x0=1",
         "--order", "3", "--time", "1", "--paths", "20", "--seed", "1", "--sim-step", "1e-300"],
    ],
    ids=["euler-step", "hawkes-baseline", "hawkes-jump", "euler-maruyama-step"],
)
def test_runs_past_the_step_bound_exit_two_at_once(argv):
    # each once ran without end; a child process with a timeout keeps a
    # regression from hanging the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "matryoshkan", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("per path exceed the limit of 1e+09")


def test_module_entry_point_matches_main(capsys, monkeypatch):
    # --help wraps to the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv, expected_code in (
        (["moments", *HAWKES, "--order", "3", "--time", "1.5", "--format", "json"], 0),
        (["--help"], 0),
        (["moments", *HAWKES, "--order", "0", "--time", "1"], 2),
        (OVERFLOW, 3),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "matryoshkan", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert code == expected_code
    assert err == "error: Overflow: transient flow leaves the double range\n"


def test_run_freezes_the_heap_after_the_command(capsys, monkeypatch):
    # the freeze is stubbed here, since a real one would keep this process's
    # later cyclic garbage alive
    frozen = []
    monkeypatch.setattr(sys, "argv", ["matryoshkan", "moments", *HAWKES, "--order", "0", "--time", "1"])
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr().err))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2 and frozen == ["error: --order must be >= 1, got 0\n"]


def test_main_leaves_the_collector_alone(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["moments", *HAWKES, "--order", "3", "--time", "1"], OVERFLOW, ["--help"]):
        run(capsys, *argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_bad_flag_exits_two(capsys):
    assert cli.main(["moments", "--nope"]) == 2
    capsys.readouterr()
