"""Command-line front end: decompose, simulate, sweep and validate.

Angles cross this boundary in degrees; everything inside is radians.
Options resolve as CLI flag > QCHANSIM_* environment variable > config
file (plain key=value lines) > built-in default.  A channel comes either
from --channel (with --lambda) or from --kraus-file; both set, from any
of those sources, is a parse error.  Exit codes: 0 ok, 1 validation
failure, 2 parse error, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channels import (
    ChannelKind,
    KrausChannel,
    apply_channel,
    builtin_channel,
    channel_from_json,
    validate_channel,
)
from .circuit import NoiseParams, gates_for_branch, simulate_channel
from .decompose import DecompositionPlan, closed_form_plan, fit_plan, plan_to_json
from .matops import ID2, bloch_vector, frob_dist
from .optics import gate_list_to_json
from .tomography import coherence, fidelity, forward_intensities, reconstruct, reconstruction_to_json

ENV_PREFIX = "QCHANSIM_"
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_FIT = 3

CONFIG_KEYS = (
    "channel",
    "lambda",
    "lambda_grid",
    "phi_deg",
    "visibility",
    "intensity_sigma",
    "seed",
    "outdir",
    "formats",
    "kraus_file",
)


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


def _resolve(args, key: str, config: dict, default=None):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    env_value = os.environ.get(ENV_PREFIX + key.upper())
    if env_value is not None:
        return env_value
    if key in config:
        return config[key]
    return default


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


def _parse_lambda_grid(text: str) -> list:
    """Accept 'start:stop:count' or a comma-separated list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_PARSE, f"bad lambda grid {text!r}; use start:stop:count")
        start = _as_float(parts[0], "lambda grid start")
        stop = _as_float(parts[1], "lambda grid stop")
        count = _as_int(parts[2], "lambda grid count")
        values = np.linspace(start, stop, count).tolist()
    else:
        values = [_as_float(v, "lambda value") for v in text.split(",") if v.strip()]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise CliError(EXIT_PARSE, f"lambda value {v} outside [0, 1]")
    if not values:
        raise CliError(EXIT_PARSE, "empty lambda grid")
    return values


def _fmt_angle(x: float) -> str:
    """Render simple rational multiples of pi symbolically."""
    frac = Fraction(x / np.pi).limit_denominator(24)
    if abs(x - float(frac) * np.pi) < 1e-9:
        if frac == 0:
            return "0"
        sign = "-" if frac < 0 else ""
        num, den = abs(frac.numerator), frac.denominator
        head = "pi" if num == 1 else f"{num}pi"
        return f"{sign}{head}/{den}" if den != 1 else f"{sign}{head}"
    return f"{x:.10g}"


def _noise_from(args, config) -> NoiseParams | None:
    visibility = _as_float(_resolve(args, "visibility", config, 1.0), "visibility")
    sigma = _as_float(_resolve(args, "intensity_sigma", config, 0.0), "intensity_sigma")
    seed = _as_int(_resolve(args, "seed", config, 0), "seed")
    if visibility >= 1.0 and sigma <= 0.0:
        return None
    try:
        return NoiseParams(visibility=visibility, intensity_sigma=sigma, rng_seed=seed)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _load_kraus_file(args, config) -> KrausChannel | None:
    """The channel in the resolved --kraus-file, or None when none is set."""
    kraus_file = _resolve(args, "kraus_file", config)
    if kraus_file is None:
        return None
    if _resolve(args, "channel", config) is not None:
        raise CliError(EXIT_PARSE, "--kraus-file and --channel are mutually exclusive")
    try:
        return channel_from_json(Path(kraus_file).read_text())
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot load Kraus file: {exc}") from exc


def _channel_source(args, config) -> tuple:
    """Resolve (channel, plan, fitted) from --channel/--lambda or --kraus-file."""
    ch = _load_kraus_file(args, config)
    if ch is not None:
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
    kind = _resolve(args, "channel", config)
    if kind is None:
        raise CliError(EXIT_PARSE, "either --channel or --kraus-file is required")
    try:
        kind = ChannelKind(kind.upper() if isinstance(kind, str) else kind)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"unknown channel kind {kind!r}") from exc
    lam = _resolve(args, "lambda", config)
    if lam is None:
        raise CliError(EXIT_PARSE, "--lambda is required with --channel")
    lam = _as_float(lam, "lambda")
    try:
        return builtin_channel(kind, lam), closed_form_plan(kind, lam), None
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _outdir(args, config) -> Path | None:
    value = _resolve(args, "outdir", config)
    if value is None:
        return None
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(outdir: Path, name: str, text: str) -> None:
    with open(outdir / name, "w", newline="\n") as fh:
        fh.write(text)


def _state_json(rho) -> str:
    payload = {
        "rho": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
        "bloch": [float(x) for x in bloch_vector(rho)],
    }
    return json.dumps(payload, sort_keys=True)


def _echo_plan(plan: DecompositionPlan, residual) -> None:
    def describe_unitary(u):
        return "none" if frob_dist(u, ID2) <= 1e-12 else "waveplate triple"

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


def cmd_decompose(args) -> int:
    config = _read_config(args.config) if args.config else {}
    ch, plan, residual = _channel_source(args, config)
    _echo_plan(plan, residual)
    outdir = _outdir(args, config)
    if outdir is not None:
        _write(outdir, "plan.json", plan_to_json(plan))
        if args.gates:
            _write(outdir, "gates_a.json", gate_list_to_json(gates_for_branch(plan.branch_a)))
            if plan.branch_b is not None:
                _write(outdir, "gates_b.json", gate_list_to_json(gates_for_branch(plan.branch_b)))
        print(f"wrote {outdir / 'plan.json'}")
    else:
        print(plan_to_json(plan))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _read_config(args.config) if args.config else {}
    ch, plan, _ = _channel_source(args, config)
    phi = np.deg2rad(_as_float(_resolve(args, "phi_deg", config, 22.5), "phi_deg"))
    noise = _noise_from(args, config)
    psi = np.array([np.cos(2.0 * phi), np.sin(2.0 * phi)], dtype=complex)
    rho_in = np.outer(psi, psi.conj())
    rho_sim = simulate_channel(rho_in, plan, noise=noise)
    rho_oracle = apply_channel(ch, rho_in)
    record = forward_intensities(rho_sim, noise=noise)
    recon = reconstruct(record)
    fid = fidelity(recon.rho, rho_oracle)
    coh = coherence(recon.rho)
    print(f"bloch (reconstructed): {np.round(recon.bloch, 10).tolist()}")
    print(f"fidelity vs Kraus oracle: {fid:.10f}")
    print(f"coherence c_l1={coh.c_l1:.10f} c_max={coh.c_max:.10f} clamped={recon.clamped}")
    outdir = _outdir(args, config)
    if outdir is not None:
        _write(outdir, "state.json", _state_json(rho_sim))
        _write(outdir, "reconstruction.json", reconstruction_to_json(recon))
        print(f"wrote {outdir / 'state.json'}")
    return EXIT_OK


def _sweep_rows(kind: ChannelKind, grid, phi: float, noise: NoiseParams | None):
    psi = np.array([np.cos(2.0 * phi), np.sin(2.0 * phi)], dtype=complex)
    rho_in = np.outer(psi, psi.conj())
    rows = []
    for index, lam in enumerate(grid):
        row_noise = None
        if noise is not None:
            row_noise = NoiseParams(
                visibility=noise.visibility,
                intensity_sigma=noise.intensity_sigma,
                rng_seed=noise.rng_seed + index,
            )
        plan = closed_form_plan(kind, lam)
        rho_sim = simulate_channel(rho_in, plan, noise=row_noise)
        recon = reconstruct(forward_intensities(rho_sim, noise=row_noise))
        rho_oracle = apply_channel(builtin_channel(kind, lam), rho_in)
        c_sim = coherence(recon.rho)
        c_oracle = coherence(rho_oracle)
        rows.append(
            {
                "lambda": float(lam),
                "c_l1_sim": c_sim.c_l1,
                "c_max_sim": c_sim.c_max,
                "c_l1_oracle": c_oracle.c_l1,
                "c_max_oracle": c_oracle.c_max,
                "fidelity_sim_vs_oracle": fidelity(recon.rho, rho_oracle),
            }
        )
    return rows


SWEEP_COLUMNS = ("lambda", "c_l1_sim", "c_max_sim", "c_l1_oracle", "c_max_oracle", "fidelity_sim_vs_oracle")


def _sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue()


def cmd_sweep(args) -> int:
    config = _read_config(args.config) if args.config else {}
    if _load_kraus_file(args, config) is not None:
        raise CliError(EXIT_PARSE, "sweep takes --channel, not --kraus-file")
    kind_raw = _resolve(args, "channel", config)
    if kind_raw is None:
        raise CliError(EXIT_PARSE, "--channel is required for sweep")
    try:
        kind = ChannelKind(kind_raw.upper())
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"unknown channel kind {kind_raw!r}") from exc
    grid_raw = _resolve(args, "lambda_grid", config, "0:1:21")
    grid = _parse_lambda_grid(grid_raw)
    phi = np.deg2rad(_as_float(_resolve(args, "phi_deg", config, 22.5), "phi_deg"))
    noise = _noise_from(args, config)
    formats = [f.strip().lower() for f in str(_resolve(args, "formats", config, "csv")).split(",") if f.strip()]
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise CliError(EXIT_PARSE, f"unknown output format {fmt!r}")
    rows = _sweep_rows(kind, grid, phi, noise)
    csv_text = _sweep_csv(rows)
    outdir = _outdir(args, config)
    if outdir is not None:
        if "csv" in formats:
            _write(outdir, "sweep.csv", csv_text)
            print(f"wrote {outdir / 'sweep.csv'}")
        if "json" in formats:
            _write(outdir, "sweep.json", json.dumps(rows, sort_keys=True))
            print(f"wrote {outdir / 'sweep.json'}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _read_config(args.config) if args.config else {}
    ch = _load_kraus_file(args, config)
    if ch is None:
        ch, _, _ = _channel_source(args, config)
    report = validate_channel(ch)
    print(f"trace_residual: {report.trace_residual:.6g}")
    print(f"min_choi_eig: {report.min_choi_eig:.6g}")
    print(f"ok: {str(report.ok).lower()}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _add_common(parser: argparse.ArgumentParser, *, lam: bool) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--channel", help="one of AD, PD, BF, PF, BPF")
    parser.add_argument("--kraus-file", dest="kraus_file", help="channel JSON {label, kraus}")
    parser.add_argument("--outdir", help="output directory")
    if lam:
        parser.add_argument("--lambda", dest="lambda", help="decoherence parameter in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchansim",
        description="Decompose single-qubit channels into two quasiextreme branches, "
        "compile and simulate the spin-orbit optical circuit, and verify by tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="emit the two-branch plan for a channel")
    _add_common(p, lam=True)
    p.add_argument("--gates", action="store_true", help="also write per-branch optical gate lists")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="run the circuit once and report fidelity")
    _add_common(p, lam=True)
    p.add_argument("--phi-deg", dest="phi_deg", help="preparation waveplate angle in degrees")
    p.add_argument("--visibility", help="interferometer visibility in [0, 1]")
    p.add_argument("--intensity-sigma", dest="intensity_sigma", help="relative intensity noise")
    p.add_argument("--seed", help="noise RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="coherence and fidelity versus the decoherence parameter")
    _add_common(p, lam=False)
    p.add_argument("--lambda-grid", dest="lambda_grid", help="comma list or start:stop:count")
    p.add_argument("--phi-deg", dest="phi_deg", help="preparation waveplate angle in degrees")
    p.add_argument("--visibility", help="interferometer visibility in [0, 1]")
    p.add_argument("--intensity-sigma", dest="intensity_sigma", help="relative intensity noise")
    p.add_argument("--seed", help="noise RNG seed")
    p.add_argument("--formats", help="comma list of csv, json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="CPTP diagnostics for a channel")
    _add_common(p, lam=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
