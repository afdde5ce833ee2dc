"""Command-line interface: moments, steady states, benchmarks, simulation.

Each process family is one entry of ``_FAMILIES``: its parameter record, the
``--params`` keys it requires with the record field each fills, and the
descriptor flags it reads; a descriptor flag of another family is an
error.  ``x0`` is optional everywhere; generic's ``a0..a9`` fill its
coefficient tuple.  Whatever is omitted takes the record's own default.

Documents go to standard output as JSON ({"metadata": ..., "payload": ...})
or CSV with fixed schemas; diagnostics go to standard error, one line per
library warning or error.  Exit codes:
0 success, 2 invalid parameters (a size that cannot be allocated among them),
3 Overflow (moments left the double range).

``run`` is the process entry of ``python -m matryoshkan`` and of the
``matryoshkan`` script; ``main`` is the same command called in process.

Floats are serialized with repr, which round-trips exactly (up to 17
significant digits), so re-parsing and re-emitting a document is a byte
identity.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import warnings

from . import __version__, engine, processes
from .core import _MAX_ENTRIES, _MAX_ORDER, _integer, _real
from .errors import InvalidInput, MatryoshkanError, Overflow

# --process name -> (parameter record, required --params key -> record field,
# descriptor flag -> record field).
_FAMILIES = {
    "hawkes": (processes.HawkesSpec,
               {"lambda-star": "lambda_star", "alpha": "alpha", "beta": "beta"}, {}),
    "shotnoise": (processes.ShotNoiseSpec,
                  {"lambda": "rate", "beta": "decay"}, {"--jumps": "jumps"}),
    "ito": (processes.ItoSpec,
            {"mu": "mu", "theta": "theta", "sigma": "sigma", "gamma": "gamma"}, {}),
    "growthcollapse": (processes.GrowthCollapseSpec,
                       {"lambda": "growth", "mu": "collapse_rate"}, {"--collapse": "collapse"}),
    "ephemeral": (processes.EphemeralSpec,
                  {"nu-star": "baseline", "alpha": "jump", "mu": "expiry"}, {}),
    "generic": (processes.GenericGeneratorSpec,
                {}, {"--jumps-A": "up", "--jumps-B": "down", "--jumps-C": "collapse"}),
}
_DESCRIPTOR_FLAGS = [flag for _, _, flags in _FAMILIES.values() for flag in flags]
_BENCH_COLUMNS = ["method", "delta", "run_time_seconds", "abs_error", "rel_error"]


class _CLIError(MatryoshkanError):
    """Invalid command-line input; the message names the offending flag."""


def run() -> None:
    """Run the command of ``sys.argv`` and exit the process with its code.

    The heap is frozen first, so the two collections of interpreter
    finalization skip numpy's objects and the library's; stdout and stderr
    are still flushed, and the CLI makes no object with a finalizer.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            text = _dispatch(args)
    except Overflow as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MatryoshkanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # simulate's arrays hold one entry per path; every other command's
        # hold a system of order --order
        flag = "--paths" if args.command == "simulate" else "--order"
        print(f"error: {flag} must fit in memory, got {_flag_value(args, flag)}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per library warning, without its source location."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matryoshkan",
        description="Transient and stationary Markov process moments in closed form",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_time):
        p.add_argument("--process", required=True, choices=_FAMILIES)
        p.add_argument(
            "--params",
            required=True,
            help="comma-separated key=value pairs, e.g. lambda-star=1,alpha=1,beta=2",
        )
        p.add_argument("--order", required=True, type=int)
        if with_time:
            p.add_argument("--time", required=True, type=float)
        p.add_argument("--jumps", help="jump-size descriptor (shotnoise)")
        p.add_argument("--collapse", help="collapse-fraction descriptor (growthcollapse)")
        p.add_argument("--jumps-A", dest="jumps_a", help="up-jump descriptor (generic)")
        p.add_argument("--jumps-B", dest="jumps_b", help="down-jump descriptor (generic)")
        p.add_argument("--jumps-C", dest="jumps_c", help="collapse descriptor (generic)")

    p = sub.add_parser("moments", help="transient moments at one time point")
    common(p, with_time=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("steady", help="stationary moments")
    common(p, with_time=False)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bench", help="closed form vs Euler stepping comparison")
    common(p, with_time=True)
    p.add_argument("--deltas", required=True, help="comma-separated step sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p = sub.add_parser("simulate", help="Monte Carlo moment estimates")
    common(p, with_time=True)
    p.add_argument("--paths", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--sim-step", dest="sim_step", type=float, default=1e-3)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


# -- parameter handling -------------------------------------------------------


def _parse_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for piece in text.split(","):
        if not piece:
            continue
        if "=" not in piece:
            raise _CLIError(f"--params: expected key=value, got '{piece}'")
        key, _, raw = piece.partition("=")
        key = key.strip()
        if key in out:
            raise _CLIError(f"--params: key '{key}' is given more than once")
        try:
            value = float(raw)
        except ValueError:
            raise _CLIError(f"--params: value for '{key}' is not a number: '{raw}'")
        out[key] = _real(key, value)
    return out


def _parse_descriptor(flag: str, text: str) -> processes.JumpMoments:
    name, colon, raw = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "uniform" and not colon:
            return processes.UniformJumps()
        values = [float(v) for v in raw.split(",") if v != ""]
        if name == "deterministic" and len(values) == 1:
            return processes.DeterministicJumps(values[0])
        if name == "exponential" and len(values) == 1:
            return processes.ExponentialJumps(values[0])
        if name == "lognormal" and len(values) == 2:
            return processes.LogNormalJumps(values[0], values[1])
        if name == "explicit" and values:
            return processes.ExplicitJumps(tuple(values))
    except InvalidInput as exc:  # a subclass of ValueError, so it goes first
        raise _CLIError(f"{flag}: {exc}")
    except ValueError:
        raise _CLIError(f"{flag}: malformed descriptor '{text}'")
    raise _CLIError(
        f"{flag}: unknown descriptor '{text}' (expected deterministic:c, "
        "exponential:r, lognormal:m,s, uniform, or explicit:m1,m2,...)"
    )


def _flag_value(args, flag: str) -> str | None:
    return getattr(args, flag[2:].lower().replace("-", "_"))


def _make_spec(args, params: dict[str, float]) -> processes.ProcessSpec:
    record, keys, descriptors = _FAMILIES[args.process]
    for flag in _DESCRIPTOR_FLAGS:
        if flag not in descriptors and _flag_value(args, flag):
            raise _CLIError(f"{flag} does not apply to process {args.process}")
    coeff_keys = [f"a{i}" for i in range(10)] if args.process == "generic" else []
    for key in params:
        if key not in keys and key != "x0" and key not in coeff_keys:
            raise _CLIError(
                f"--params: unknown key '{key}' for process {args.process}"
            )
    missing = sorted(keys.keys() - params.keys())
    if missing:
        raise _CLIError(f"--params: missing key(s) {missing} for {args.process}")
    if args.process == "shotnoise" and not args.jumps:
        raise _CLIError("--jumps is required for shotnoise")

    fields = {field: params[key] for key, field in keys.items()}
    if "x0" in params:
        fields["x0"] = params["x0"]
    if coeff_keys:
        fields["coeffs"] = tuple(params.get(key, 0.0) for key in coeff_keys)
    for flag, field in descriptors.items():
        text = _flag_value(args, flag)
        if text:
            fields[field] = _parse_descriptor(flag, text)
    try:
        return record(**fields)
    except InvalidInput as exc:
        raise _CLIError(f"--params: {exc}")


def _metadata(args, params: dict[str, float], extra: dict) -> dict:
    meta = {
        "tool": "matryoshkan",
        "version": __version__,
        "command": args.command,
        "process": args.process,
        "params": params,
        "order": args.order,
    }
    for flag in _DESCRIPTOR_FLAGS:
        value = _flag_value(args, flag)
        if value:
            meta[flag[2:].lower()] = value
    # Echo --time as given (so -0 stays -0.0); steady runs have no --time.
    meta["time"] = getattr(args, "time", "stationary")
    meta.update(extra)
    return meta


# -- dispatch -------------------------------------------------------------------


def _dispatch(args) -> str:
    _integer("--order", args.order, 1, _MAX_ORDER)
    if args.command != "steady":
        _real("--time", args.time, 0)
    params = _parse_params(args.params)
    spec = _make_spec(args, params)

    # euler and mc load only for the commands that run them
    if args.command == "simulate":
        from . import mc
        _integer("--paths", args.paths, 2, _MAX_ENTRIES)
        _real("--sim-step", args.sim_step, 0, above=True)
        cfg = mc.SimConfig(
            paths=args.paths, horizon=args.time, seed=args.seed, sim_step=args.sim_step
        )
        terminals = mc.simulate(spec, cfg)
        estimates = mc.estimate_moments(terminals, args.order)
        payload = [
            {"order": k, "estimate": e.mean, "std_error": e.std_error}
            for k, e in enumerate(estimates, start=1)
        ]
        extra = {"paths": args.paths, "seed": args.seed, "sim_step": args.sim_step}
    elif args.command == "bench":
        from . import euler
        deltas = _parse_deltas(args.deltas)
        _integer("--trials", args.trials, 1)
        system, init = processes.build(spec, args.order)
        records = euler.bench(system, init, args.time, deltas, args.trials)
        payload = [dataclasses.asdict(r) for r in records]
        extra = {"deltas": deltas, "trials": args.trials}
    else:
        system, init = processes.build(spec, args.order)
        if args.command == "moments":
            result = engine.transient_vector(system, init, args.time)
        else:
            result = engine.steady_vector(system)
        payload = [
            {"order": k + 1, "value": float(v)} for k, v in enumerate(result.values)
        ]
        extra = {}

    if args.format == "table":
        return _table(payload)
    if args.format == "csv":
        columns = _BENCH_COLUMNS if args.command == "bench" else list(payload[0])
        return _csv(columns, payload)
    doc = {"metadata": _metadata(args, params, extra), "payload": payload}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise _CLIError(f"--deltas: not a list of numbers: '{text}'")
    if not deltas:
        raise _CLIError(f"--deltas: step sizes must be > 0: '{text}'")
    return [_real("--deltas", d, 0, above=True) for d in deltas]


# -- serialization ---------------------------------------------------------------


def _num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(columns: list[str], payload: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in payload:
        lines.append(",".join(_num(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _table(payload: list[dict]) -> str:
    body = []
    for r in payload:
        body.append(
            [
                r["method"],
                "-" if r["delta"] is None else f"{r['delta']:.1e}",
                f"{r['run_time_seconds']:.1e}",
                f"{r['abs_error']:.1e}",
                "-" if r["rel_error"] is None else f"{r['rel_error']:.1e}",
            ]
        )
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(_BENCH_COLUMNS)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(_BENCH_COLUMNS))]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    run()
