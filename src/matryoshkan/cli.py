"""Command-line interface: moments, steady states, benchmarks, simulation.

Documents go to standard output as JSON ({"metadata": ..., "payload": ...})
or CSV with fixed schemas; diagnostics go to standard error.  Exit codes:
0 success, 2 invalid parameters, 3 numerical failure (DegenerateSpectrum,
SingularMatrix or Overflow, named in the message).

Floats are serialized with repr, which round-trips exactly (up to 17
significant digits), so re-parsing and re-emitting a document is a byte
identity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, engine, euler, mc, processes
from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    MatryoshkanError,
    Overflow,
    SingularMatrix,
)

_PROCESSES = ("hawkes", "shotnoise", "ito", "growthcollapse", "ephemeral", "generic")

_PARAM_KEYS = {
    "hawkes": ({"lambda-star", "alpha", "beta"}, {"x0"}),
    "shotnoise": ({"lambda", "beta"}, {"x0"}),
    "ito": ({"mu", "theta", "sigma", "gamma"}, {"x0"}),
    "growthcollapse": ({"lambda", "mu"}, {"x0"}),
    "ephemeral": ({"nu-star", "alpha", "mu"}, {"x0"}),
    "generic": (set(), {f"a{i}" for i in range(10)} | {"x0"}),
}


class _CLIError(Exception):
    """Invalid command-line input; the message names the offending flag."""


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        text = _dispatch(args)
    except _CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateSpectrum, SingularMatrix, Overflow) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MatryoshkanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matryoshkan",
        description="Transient and stationary Markov process moments in closed form",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_time):
        p.add_argument("--process", required=True, choices=_PROCESSES)
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
        try:
            out[key] = float(raw)
        except ValueError:
            raise _CLIError(f"--params: value for '{key}' is not a number: '{raw}'")
        if not math.isfinite(out[key]):
            raise _CLIError(f"--params: value for '{key}' must be finite, got '{raw}'")
    return out


def _parse_descriptor(flag: str, text: str) -> processes.JumpMoments:
    name, _, raw = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "uniform":
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
    except ValueError:
        raise _CLIError(f"{flag}: malformed descriptor '{text}'")
    except InvalidInput as exc:
        raise _CLIError(f"{flag}: {exc}")
    raise _CLIError(
        f"{flag}: unknown descriptor '{text}' (expected deterministic:c, "
        "exponential:r, lognormal:m,s, uniform, or explicit:m1,m2,...)"
    )


def _make_spec(args) -> processes.ProcessSpec:
    params = _parse_params(args.params)
    required, optional = _PARAM_KEYS[args.process]
    for key in params:
        if key not in required and key not in optional:
            raise _CLIError(
                f"--params: unknown key '{key}' for process {args.process}"
            )
    missing = sorted(required - params.keys())
    if missing:
        raise _CLIError(f"--params: missing key(s) {missing} for {args.process}")

    try:
        if args.process == "hawkes":
            return processes.HawkesSpec(
                lambda_star=params["lambda-star"],
                alpha=params["alpha"],
                beta=params["beta"],
                x0=params.get("x0"),
            )
        if args.process == "shotnoise":
            if not args.jumps:
                raise _CLIError("--jumps is required for shotnoise")
            return processes.ShotNoiseSpec(
                rate=params["lambda"],
                decay=params["beta"],
                jumps=_parse_descriptor("--jumps", args.jumps),
                x0=params.get("x0", 0.0),
            )
        if args.process == "ito":
            return processes.ItoSpec(
                mu=params["mu"],
                theta=params["theta"],
                sigma=params["sigma"],
                gamma=params["gamma"],
                x0=params.get("x0", 0.0),
            )
        if args.process == "growthcollapse":
            collapse = (
                _parse_descriptor("--collapse", args.collapse)
                if args.collapse
                else processes.UniformJumps()
            )
            return processes.GrowthCollapseSpec(
                growth=params["lambda"],
                collapse_rate=params["mu"],
                x0=params.get("x0", 0.0),
                collapse=collapse,
            )
        if args.process == "ephemeral":
            return processes.EphemeralSpec(
                baseline=params["nu-star"],
                jump=params["alpha"],
                expiry=params["mu"],
                x0=params.get("x0", 0),
            )
        coeffs = tuple(params.get(f"a{i}", 0.0) for i in range(10))
        return processes.GenericGeneratorSpec(
            coeffs=coeffs,
            up=_parse_descriptor("--jumps-A", args.jumps_a) if args.jumps_a else None,
            down=_parse_descriptor("--jumps-B", args.jumps_b) if args.jumps_b else None,
            collapse=_parse_descriptor("--jumps-C", args.jumps_c) if args.jumps_c else None,
            x0=params.get("x0", 0.0),
        )
    except InvalidInput as exc:
        raise _CLIError(f"--params: {exc}")


def _metadata(args, extra: dict) -> dict:
    meta = {
        "tool": "matryoshkan",
        "version": __version__,
        "command": args.command,
        "process": args.process,
        "params": _parse_params(args.params),
        "order": args.order,
    }
    for flag in ("jumps", "collapse", "jumps_a", "jumps_b", "jumps_c"):
        value = getattr(args, flag, None)
        if value:
            meta[flag.replace("_", "-")] = value
    meta.update(extra)
    return meta


# -- dispatch -------------------------------------------------------------------


def _dispatch(args) -> str:
    if args.order < 1:
        raise _CLIError(f"--order must be >= 1, got {args.order}")
    spec = _make_spec(args)

    if args.command == "moments":
        system, init = processes.build(spec, args.order)
        result = engine.transient_vector(system, init, args.time)
        payload = [
            {"order": k + 1, "value": float(v)} for k, v in enumerate(result.values)
        ]
        doc = {"metadata": _metadata(args, {"time": args.time}), "payload": payload}
        if args.format == "csv":
            return _csv(["order", "value"], [[p["order"], p["value"]] for p in payload])

    elif args.command == "steady":
        system, _ = processes.build(spec, args.order)
        result = engine.steady_vector(system)
        payload = [
            {"order": k + 1, "value": float(v)} for k, v in enumerate(result.values)
        ]
        doc = {"metadata": _metadata(args, {"time": "stationary"}), "payload": payload}
        if args.format == "csv":
            return _csv(["order", "value"], [[p["order"], p["value"]] for p in payload])

    elif args.command == "bench":
        deltas = _parse_deltas(args.deltas)
        if args.trials < 1:
            raise _CLIError(f"--trials must be >= 1, got {args.trials}")
        system, init = processes.build(spec, args.order)
        records = euler.bench(
            system, init, args.time, args.order, deltas, args.trials
        )
        payload = [
            {
                "method": r.method,
                "delta": r.delta,
                "run_time_seconds": r.run_time_seconds,
                "run_time_median_seconds": r.run_time_median_seconds,
                "abs_error": r.abs_error,
                "rel_error": r.rel_error,
            }
            for r in records
        ]
        meta = _metadata(
            args, {"time": args.time, "deltas": deltas, "trials": args.trials}
        )
        doc = {"metadata": meta, "payload": payload}
        if args.format == "csv":
            rows = [
                [r.method, r.delta, r.run_time_seconds, r.abs_error, r.rel_error]
                for r in records
            ]
            return _csv(
                ["method", "delta", "run_time_seconds", "abs_error", "rel_error"], rows
            )
        if args.format == "table":
            return _table(records)

    else:  # simulate
        if args.paths < 1:
            raise _CLIError(f"--paths must be >= 1, got {args.paths}")
        cfg = mc.SimConfig(
            paths=args.paths, horizon=args.time, seed=args.seed, sim_step=args.sim_step
        )
        terminals = mc.simulate(spec, cfg)
        estimates = mc.estimate_moments(terminals, args.order)
        payload = [
            {"order": e.order, "estimate": e.mean, "std_error": e.std_error}
            for e in estimates
        ]
        meta = _metadata(
            args,
            {
                "time": args.time,
                "paths": args.paths,
                "seed": args.seed,
                "sim_step": args.sim_step,
            },
        )
        doc = {"metadata": meta, "payload": payload}
        if args.format == "csv":
            return _csv(
                ["order", "estimate", "std_error"],
                [[p["order"], p["estimate"], p["std_error"]] for p in payload],
            )

    return json.dumps(doc, separators=(",", ":")) + "\n"


def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise _CLIError(f"--deltas: not a list of numbers: '{text}'")
    if not deltas or any(d <= 0 for d in deltas):
        raise _CLIError(f"--deltas: step sizes must be > 0: '{text}'")
    return deltas


# -- serialization ---------------------------------------------------------------


def _num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) for v in row))
    return "\n".join(lines) + "\n"


def _table(records) -> str:
    headers = ["method", "delta", "run_time_seconds", "abs_error", "rel_error"]
    body = []
    for r in records:
        body.append(
            [
                r.method,
                "-" if r.delta is None else f"{r.delta:.1e}",
                f"{r.run_time_seconds:.1e}",
                f"{r.abs_error:.1e}",
                "-" if r.rel_error is None else f"{r.rel_error:.1e}",
            ]
        )
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
