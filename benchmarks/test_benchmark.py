"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import math
import time

import mpmath
import pytest

import cells
import reference
import run
import spans
from cells import Cell


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture(scope="module")
def refs():
    return reference.load()


@pytest.fixture(scope="module")
def bench(lib, refs):
    return run.Bench(lib, refs, seed=1, in_process_cli=True)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(samples) == (90.0, 90.0)
    pct, value = run.tail_percentile([float(v) for v in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]
    summary = tracer.summary()
    assert summary["root"]["self_s"] == 3 and summary["a"]["durations"] == [3]
    tracer.check_accounting(10.0)


def test_wall_time_the_root_spans_leave_uncovered_is_refused():
    # two root spans cover 9 s of a 10 s traced run
    tracer = spans.Tracer(clock=FakeClock([0, 4, 5, 10]))
    for _ in range(2):
        with tracer.span("bench.op"):
            pass
    tracer.check_accounting(9.0 / (1 - spans.UNACCOUNTED_MAX) - 1e-9)
    with pytest.raises(RuntimeError, match="root spans cover"):
        tracer.check_accounting(10.0)


def test_span_records_errors_and_broken_accounting_is_refused():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3]))
    with pytest.raises(KeyError):
        with tracer.span("root"):
            with tracer.span("child"):
                raise KeyError("x")
    assert [s.error for s in tracer.spans] == [True, True]
    tracer.spans[1].end = 5.0  # a child outliving its parent
    with pytest.raises(RuntimeError, match="ends after its parent"):
        tracer.check_accounting(3.0)


def test_patched_traces_nested_library_calls_and_restores(lib):
    original = lib.core.exp_scaled
    tracer = spans.Tracer()
    with tracer.patched():
        start = time.perf_counter()
        with tracer.span("bench.op"):
            system, init = lib.processes.build(lib.mk.HawkesSpec(1.0, 1.0, 2.0), 4)
            lib.engine.transient_vector(system, init, 1.0)
        wall = time.perf_counter() - start
    assert lib.core.exp_scaled is original
    names = [s.name for s in tracer.spans]
    assert names[:4] == ["bench.op", "processes.build", "engine.transient_vector", "core.exp_scaled"]
    assert [s.parent for s in tracer.spans[:4]] == [-1, 0, 0, 2]
    tracer.check_accounting(wall)


def test_perturbed_result_and_raised_exception_both_fail(bench, monkeypatch):
    cell = Cell("transient", "hawkes", 10, 0.1)
    good = bench.run(cell)
    assert good.ok and good.rel_err < 1e-12

    values = bench.call(cell).copy()
    values[-1] *= 1 + 1e-7
    perturbed = bench.check(cell, values, 0.001)
    assert not perturbed.ok and perturbed.rel_err == pytest.approx(1e-7, rel=1e-3)

    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(bench, "call", boom)
    raised = bench.run(cell)
    assert not raised.ok and raised.error.startswith("ZeroDivisionError")

    outcomes = [good, perturbed, raised] + [good] * 8
    metrics, detail = run.end_to_end(outcomes, [0.1], 40_000)
    assert detail["failed_ratio"]["failed"] == 2
    assert metrics["pass_ratio"][0] == pytest.approx(9 / 11)
    assert metrics["max_rel_err"][0] == perturbed.rel_err
    assert run.failure(raised).startswith("ZeroDivisionError") and run.failure(perturbed) == "rel_err 1.00e-07"
    assert run.unexpected(raised, {}) and not run.unexpected(raised, {cell.id: "known"})


def test_errors_within_the_tolerance_read_as_the_tolerance(bench):
    good = bench.run(Cell("steady", "hawkes", 10, None))
    metrics, detail = run.end_to_end([good] * 11, [0.1], 40_000)
    assert metrics["max_rel_err"][0] == run.REL_TOL
    assert detail["max_rel_err_raw"] == good.rel_err < 1e-12


def test_cli_process_reports_its_own_exit_code_output_and_memory(bench):
    cell = Cell("cli", "hawkes", 4, 0.1, "json")
    code, out, err, rss_kb = run.run_cli_process(run.cli_argv(cell))
    assert code == 0 and rss_kb > 0 and bench.check(cell, out, 0.001).ok
    code, out, err, _ = run.run_cli_process(["moments", "--no-such-flag"])
    assert code != 0 and out == "" and err


def test_cli_output_that_cannot_be_parsed_fails(bench):
    cell = Cell("cli", "hawkes", 4, 0.1, "csv")
    assert not bench.check(cell, "not,a,table\n", 0.001).ok


def test_monte_carlo_z_failure_counts_but_is_not_a_deterministic_failure(bench):
    cell = Cell("mc", "hawkes", cells.MC_ORDER, cells.MC_TIME)
    result = bench.call(cell, paths=500)
    result.means[0] += 10.0
    outcome = bench.check(cell, result, 0.001)
    assert outcome.z > run.Z_MAX and not outcome.ok and not run.unexpected(outcome, {})


def test_stale_cache_is_refused(tmp_path, monkeypatch):
    with pytest.raises(reference.StaleReference):
        reference.load(tmp_path / "missing.json")
    stale = json.loads(reference.CACHE.read_text())
    monkeypatch.setitem(cells.FAMILIES["hawkes"], "beta", 3.0)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(stale))
    with pytest.raises(reference.StaleReference):
        reference.load(path)


def test_cached_reference_matches_a_recomputation_at_twice_the_digits(lib, refs):
    for key in ("hawkes:n=10:t=0.01", "growthcollapse:n=30:t=5", "ephemeral:n=30:steady"):
        family, order, time = cells.parse_ref_key(key)
        system, init = lib.mk.build(cells.make_spec(lib.mk, family), order)
        assert reference.input_digest(system, init) == refs[key]["inputs_sha256"]
        digits = 2 * refs[key]["digits"]
        again = reference._evaluate(system, init, time, digits)
        with mpmath.workdps(digits):
            for (hi, lo), exact in zip(refs[key]["values"], again):
                assert abs(exact - hi - lo) <= mpmath.mpf("1e-28") * abs(exact)


def test_cli_arguments_give_the_library_moments(bench):
    for family in cells.CLI_ARGS:
        for time in (0.1, None):
            if time is None and family == "cir":
                continue
            cli_values = run.parse_cli_output(bench.call(Cell("cli", family, 4, time, "json")), "json")
            kind = "transient" if time is not None else "steady"
            assert list(bench.call(Cell(kind, family, 4, time))) == cli_values


def test_small_gap_share_separates_the_transient_workloads(bench):
    clustered = [c for c in cells.grid("transient_clustered") if bench.available(c)]
    separated = [c for c in cells.grid("transient_separated") if bench.available(c)]
    assert run.small_gap_row_share(bench, clustered) >= 0.6
    assert run.small_gap_row_share(bench, separated) == 0.0


def test_every_cell_has_a_finite_reference_or_is_marked_overflow(refs):
    for key in cells.reference_keys():
        entry = refs[key]
        assert entry.get("overflow") or all(math.isfinite(h) for h, _ in entry["values"])
