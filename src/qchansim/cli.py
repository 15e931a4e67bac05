"""Command-line front end: decompose, simulate, sweep and validate.

Angles cross this boundary in degrees; everything inside is radians.
Each command resolves its options in one pass: each as CLI flag > QCHANSIM_*
environment variable > config file (plain key=value lines) > built-in
default.  A channel comes either from --channel (with --lambda) or from
--kraus-file, and sweep takes --channel and --lambda-grid only.  Without
--outdir, stdout carries the plan JSON or the sweep CSV, so --gates and
--formats (which name files in the output directory) need --outdir.  RULES
lists these combinations.  A command with several faults reports the first
of: the config file, the RULES in order, the values in OPTIONS order, the
noise options' ranges, the channel (its file, its lambda range, CPTP and
the fit), then --outdir, which is made before any output or measurement.
Exit codes: 0 ok, 1 validation failure, 2 parse error, 3 fit
non-convergence, 4 measurement failed (intensity noise left a tomography
basis dark).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .channels import (
    ChannelKind,
    KrausChannel,
    builtin_channel,
    channel_from_json,
    transfer,
    validate_channel,
)
from .circuit import NoiseParams, gates_for_branch, prepare_initial, simulate_channel
from .decompose import DecompositionPlan, closed_form_plan, fit_plan, plan_to_json
from .matops import bloch_vector, complex_to_pairs
from .optics import _is_identity_up_to_phase, gate_list_to_json
from .tomography import (
    DarkBasisError,
    coherence,
    fidelity,
    forward_intensities,
    reconstruct,
    reconstruction_to_json,
)

ENV_PREFIX = "QCHANSIM_"
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_MEASUREMENT = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_config(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(EXIT_PARSE, f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(EXIT_PARSE, f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


_EVERY = ("decompose", "simulate", "sweep", "validate")
_SINGLE = ("decompose", "simulate", "validate")  # the commands that take one channel: named at one lambda, or a file
_RUNS = ("simulate", "sweep")


def _as_float(value, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise CliError(EXIT_PARSE, f"{name} must be finite, got {value!r}")
    return number


def _as_int(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{name} must be an integer, got {value!r}") from exc


def _as_kind(value: str, name: str) -> ChannelKind:
    try:
        return ChannelKind(value.upper())
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"unknown channel kind {value!r}") from exc


def _parse_lambda_grid(text: str, _name: str) -> list:
    """Accept 'start:stop:count' or a comma-separated list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_PARSE, f"bad lambda grid {text!r}; use start:stop:count")
        start = _as_float(parts[0], "lambda grid start")
        stop = _as_float(parts[1], "lambda grid stop")
        count = _as_int(parts[2], "lambda grid count")
        if count < 1:
            raise CliError(EXIT_PARSE, f"lambda grid count must be positive, got {parts[2]!r}")
        values = np.linspace(start, stop, count).tolist()
    else:
        values = [_as_float(v, "lambda value") for v in text.split(",") if v.strip()]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise CliError(EXIT_PARSE, f"lambda value {v} outside [0, 1]")
    if not values:
        raise CliError(EXIT_PARSE, "empty lambda grid")
    return values


def _parse_formats(text: str, _name: str) -> list:
    formats = [f.strip().lower() for f in text.split(",") if f.strip()]
    if not formats:
        raise CliError(EXIT_PARSE, "--formats names no output format")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise CliError(EXIT_PARSE, f"unknown output format {fmt!r}")
    return formats


# Every option but decompose's --gates switch, in --help order: name -> (help, default, subcommands, parser).  The
# name gives the flag (--name, with - for _), the config key and the QCHANSIM_NAME environment variable; --config
# names the file and is a flag only.  The parser turns a set value into what the commands read; None keeps the text.
OPTIONS = {
    "config": ("key=value config file", None, _EVERY, None),
    "channel": ("one of AD, PD, BF, PF, BPF", None, _EVERY, _as_kind),
    "kraus_file": ("channel JSON {label, kraus}", None, _EVERY, None),
    "outdir": ("output directory", None, ("decompose", "simulate", "sweep"), None),
    "lambda": ("decoherence parameter in [0, 1]", None, _EVERY, _as_float),
    "lambda_grid": ("comma list or start:stop:count", "0:1:21", ("sweep",), _parse_lambda_grid),
    "phi_deg": ("preparation waveplate angle in degrees", 22.5, _RUNS, _as_float),
    "visibility": ("interferometer visibility in [0, 1]", 1.0, _RUNS, _as_float),
    "intensity_sigma": ("relative intensity noise", 0.0, _RUNS, _as_float),
    "seed": ("noise RNG seed", 0, _RUNS, _as_int),
    "formats": ("comma list of csv, json", None, ("sweep",), _parse_formats),
}
CONFIG_KEYS = tuple(name for name in OPTIONS if name != "config")
# The refused combinations and the requirements, checked in this order on the resolved text, before any parser runs:
# (subcommands, options that are set, options that are not, message).
RULES = (
    (_EVERY, ("kraus_file", "channel"), (), "--kraus-file and --channel are mutually exclusive"),
    (_EVERY, ("kraus_file", "lambda"), (), "--kraus-file and --lambda are mutually exclusive"),
    (("sweep",), ("kraus_file",), (), "sweep takes --channel, not --kraus-file"),
    (("sweep",), ("lambda",), (), "sweep takes --lambda-grid, not --lambda"),
    (("decompose",), ("gates",), ("outdir",), "--gates needs --outdir; without it stdout carries the plan JSON"),
    (("sweep",), ("formats",), ("outdir",), "--formats needs --outdir; without it stdout carries the sweep CSV"),
    (("sweep",), (), ("channel",), "--channel is required for sweep"),
    (_SINGLE, (), ("channel", "kraus_file"), "either --channel or --kraus-file is required"),
    (_SINGLE, ("channel",), ("lambda",), "--lambda is required with --channel"),
)


def _settings(args) -> dict:
    """Each option the command takes, resolved once as flag > QCHANSIM_* variable > config file > default, checked
    against RULES, then parsed in OPTIONS order; unset options are None, and ``gates`` is True or None."""
    config = _read_config(args.config) if args.config else {}
    settings = {}
    for name, (_, default, commands, _) in OPTIONS.items():
        if args.command in commands and name != "config":
            sources = (getattr(args, name), os.environ.get(ENV_PREFIX + name.upper()), config.get(name), default)
            settings[name] = next((value for value in sources if value is not None), None)
    settings["gates"] = getattr(args, "gates", False) or None
    for commands, present, absent, message in RULES:
        if (args.command in commands and all(settings[k] is not None for k in present)
                and all(settings[k] is None for k in absent)):
            raise CliError(EXIT_PARSE, message)
    for name, value in settings.items():
        parse = OPTIONS[name][3] if name in OPTIONS else None
        if value is not None and parse is not None:
            settings[name] = parse(value, name)
    return settings


def _fmt_angle(x: float) -> str:
    """Render simple rational multiples of pi, k pi / q with q <= 24, symbolically.

    Two such fractions lie at least 1 / 576 apart, so the one within 1e-9 of
    ``x / pi`` is also the closest, and the smallest q finds it in lowest terms.
    """
    for den in range(1, 25):
        num = round(float(x) / np.pi * den)  # a Python int, also for a numpy x
        if abs(x - num / den * np.pi) < 1e-9:
            if num == 0:
                return "0"
            sign = "-" if num < 0 else ""
            head = "pi" if abs(num) == 1 else f"{abs(num)}pi"
            return f"{sign}{head}/{den}" if den != 1 else f"{sign}{head}"
    return f"{x:.10g}"


def _noise_from(s) -> NoiseParams | None:
    try:
        noise = NoiseParams(visibility=s["visibility"], intensity_sigma=s["intensity_sigma"], rng_seed=s["seed"])
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc
    return None if noise.visibility == 1.0 and noise.intensity_sigma == 0.0 else noise


def _channel(s) -> KrausChannel:
    """The channel in --kraus-file, or the named --channel at --lambda."""
    if s["kraus_file"] is not None:
        try:
            return channel_from_json(Path(s["kraus_file"]).read_text())
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_PARSE, f"cannot load Kraus file: {exc}") from exc
    try:
        return builtin_channel(s["channel"], s["lambda"])
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _channel_source(s) -> tuple:
    """(channel, plan, fit residual): a named channel's closed-form plan, or a --kraus-file channel's fitted one."""
    ch = _channel(s)
    if s["kraus_file"] is None:
        return ch, closed_form_plan(s["channel"], s["lambda"]), None
    report = validate_channel(ch)
    if not report.ok:
        raise CliError(
            EXIT_VALIDATION,
            f"channel is not CPTP (trace residual {report.trace_residual:.3g}, "
            f"min Choi eigenvalue {report.min_choi_eig:.3g})",
        )
    result = fit_plan(ch)
    if not result.converged:
        raise CliError(EXIT_FIT, f"decomposition fit did not converge (residual {result.residual:.3g})")
    return ch, result.plan, result.residual


def _outdir(s) -> Path | None:
    if s["outdir"] is None:
        return None
    path = Path(s["outdir"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot make output directory: {exc}") from exc
    return path


def _write(outdir: Path, name: str, text: str) -> None:
    with open(outdir / name, "w", newline="\n") as fh:
        fh.write(text)


def _state_json(rho) -> str:
    payload = {
        "rho": complex_to_pairs(rho),
        "bloch": [float(x) for x in bloch_vector(rho)],
    }
    return json.dumps(payload, sort_keys=True)


def _echo_plan(plan: DecompositionPlan, residual) -> None:
    def describe_unitary(u):  # the gate compiler's decision: no waveplates for the identity up to phase
        return "none" if _is_identity_up_to_phase(*u.ravel().tolist()) else "waveplate triple"

    print("branch  weight  alpha     beta      gamma1    gamma2    U                 U'")
    rows = [("a", plan.p, plan.branch_a)]
    if plan.branch_b is not None:
        rows.append(("b", 1.0 - plan.p, plan.branch_b))
    for name, weight, br in rows:
        print(
            f"{name:<7} {weight:<7.4g} {_fmt_angle(br.alpha):<9} {_fmt_angle(br.beta):<9} "
            f"{_fmt_angle(br.gamma1):<9} {_fmt_angle(br.gamma2):<9} "
            f"{describe_unitary(br.U):<17} {describe_unitary(br.Uprime)}"
        )
    if residual is not None:
        print(f"fit residual: {residual:.3g}")


def cmd_decompose(s) -> int:
    ch, plan, residual = _channel_source(s)
    outdir = _outdir(s)
    _echo_plan(plan, residual)
    if outdir is not None:
        _write(outdir, "plan.json", plan_to_json(plan))
        if s["gates"]:
            _write(outdir, "gates_a.json", gate_list_to_json(gates_for_branch(plan.branch_a)))
            if plan.branch_b is not None:
                _write(outdir, "gates_b.json", gate_list_to_json(gates_for_branch(plan.branch_b)))
        print(f"wrote {outdir / 'plan.json'}")
    else:
        print(plan_to_json(plan))
    return EXIT_OK


def _measure(rho_in, plans, oracles, noise: NoiseParams | None) -> tuple:
    """Circuit, Kraus oracle and tomography at n points, each a stack over the
    points: (rho_sim, rho_oracle, reconstruction, fidelity).

    ``oracles`` holds the n transfer matrices of the target channels.  Point
    i draws its intensity noise from seed + i.
    """
    rho_sim = simulate_channel(rho_in, plans, noise=noise)
    rho_oracle = (oracles @ rho_in.reshape(4)).reshape(-1, 2, 2)
    recon = reconstruct(forward_intensities(rho_sim, noise=noise))
    return rho_sim, rho_oracle, recon, fidelity(recon.rho, rho_oracle)


def cmd_simulate(s) -> int:
    rho_in = prepare_initial(np.deg2rad(s["phi_deg"]))
    noise = _noise_from(s)
    ch, plan, _ = _channel_source(s)
    outdir = _outdir(s)
    rho_sim, _, recon, fid = _measure(rho_in, [plan], transfer(ch)[None], noise)
    rho_sim, recon, fid = rho_sim[0], recon[0], fid[0]
    coh = coherence(recon.rho)
    # + 0.0 turns a round-off -0.0 into 0.0.
    print(f"bloch (reconstructed): {(np.round(recon.bloch, 10) + 0.0).tolist()}")
    print(f"fidelity vs Kraus oracle: {fid:.10f}")
    print(f"coherence c_l1={coh.c_l1:.10f} c_max={coh.c_max:.10f} clamped={recon.clamped}")
    if outdir is not None:
        _write(outdir, "state.json", _state_json(rho_sim))
        _write(outdir, "reconstruction.json", reconstruction_to_json(recon))
        print(f"wrote {outdir / 'state.json'}")
    return EXIT_OK


SWEEP_COLUMNS = ("lambda", "c_l1_sim", "c_max_sim", "c_l1_oracle", "c_max_oracle", "fidelity_sim_vs_oracle")
# Grid rows per stacked pass.  Each stage stack of a pass takes about 1 KB
# per row, so the block bounds the working memory of a long grid.
SWEEP_BLOCK = 64


def _sweep_rows(kind: ChannelKind, grid, rho_in, noise: NoiseParams | None):
    """One row per grid value, measured in stacked passes of at most SWEEP_BLOCK rows."""
    rows = []
    for start in range(0, len(grid), SWEEP_BLOCK):
        block = grid[start : start + SWEEP_BLOCK]
        block_noise = None if noise is None else NoiseParams(
            noise.visibility, noise.intensity_sigma, noise.rng_seed + start)
        plans = [closed_form_plan(kind, lam) for lam in block]
        oracles = np.array([transfer(builtin_channel(kind, lam)) for lam in block])
        _, rho_oracle, recon, fid = _measure(rho_in, plans, oracles, block_noise)
        c_sim = coherence(recon.rho)
        c_oracle = coherence(rho_oracle)
        cells = np.column_stack([c_sim.c_l1, c_sim.c_max, c_oracle.c_l1, c_oracle.c_max, fid]).tolist()
        rows.extend(dict(zip(SWEEP_COLUMNS, (float(lam), *values))) for lam, values in zip(block, cells))
    return rows


def _write_sweep_csv(fh, rows) -> None:
    """Write the sweep CSV row by row, so no second copy of a long sweep is held."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([repr(row[c]) for c in SWEEP_COLUMNS] for row in rows)


def cmd_sweep(s) -> int:
    rho_in = prepare_initial(np.deg2rad(s["phi_deg"]))
    noise = _noise_from(s)
    outdir = _outdir(s)
    rows = _sweep_rows(s["channel"], s["lambda_grid"], rho_in, noise)
    formats = s["formats"] or ["csv"]
    if outdir is None:
        _write_sweep_csv(sys.stdout, rows)
        return EXIT_OK
    if "csv" in formats:
        with open(outdir / "sweep.csv", "w", newline="\n") as fh:
            _write_sweep_csv(fh, rows)
        print(f"wrote {outdir / 'sweep.csv'}")
    if "json" in formats:
        _write(outdir, "sweep.json", json.dumps(rows, sort_keys=True))
        print(f"wrote {outdir / 'sweep.json'}")
    return EXIT_OK


def cmd_validate(s) -> int:
    report = validate_channel(_channel(s))
    print(f"trace_residual: {report.trace_residual:.6g}")
    print(f"min_choi_eig: {report.min_choi_eig:.6g}")
    print(f"ok: {str(report.ok).lower()}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchansim",
        description="Decompose single-qubit channels into two quasiextreme branches, "
        "compile and simulate the spin-orbit optical circuit, and verify by tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, command_help, func in (
        ("decompose", "emit the two-branch plan for a channel", cmd_decompose),
        ("simulate", "run the circuit once and report fidelity", cmd_simulate),
        ("sweep", "coherence and fidelity versus the decoherence parameter", cmd_sweep),
        ("validate", "CPTP diagnostics for a channel", cmd_validate),
    ):
        p = sub.add_parser(command, help=command_help)
        for name, (option_help, _, commands, _) in OPTIONS.items():
            if command in commands:
                p.add_argument("--" + name.replace("_", "-"), help=option_help)
        if command == "decompose":
            p.add_argument("--gates", action="store_true", help="also write per-branch optical gate lists")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.func(_settings(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DarkBasisError as exc:
        print(f"error: measurement failed: {exc}", file=sys.stderr)
        return EXIT_MEASUREMENT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
