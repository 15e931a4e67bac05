"""Command-line front end: decompose, simulate, sweep and validate.

Angles cross this boundary in degrees; everything inside is radians.
Options resolve as CLI flag > QCHANSIM_* environment variable > config
file (plain key=value lines) > built-in default.  A channel comes either
from --channel (with --lambda) or from --kraus-file; --kraus-file together
with --channel or --lambda, from any of those sources, is a parse error, and
so is a --lambda for sweep, which takes --lambda-grid.  Without --outdir,
stdout carries the plan JSON or the sweep CSV, so --gates and --formats
(which name files in the output directory) need --outdir, and --formats
must name at least one format.
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
from dataclasses import replace
from fractions import Fraction
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
from .matops import ID2, bloch_vector, complex_to_pairs, frob_dist
from .optics import gate_list_to_json
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
    try:
        noise = NoiseParams(visibility=visibility, intensity_sigma=sigma, rng_seed=seed)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc
    return None if visibility == 1.0 and sigma == 0.0 else noise


def _kraus_file(args, config) -> str | None:
    """The resolved --kraus-file path, or None; with --channel or --lambda it is a parse error."""
    kraus_file = _resolve(args, "kraus_file", config)
    if kraus_file is not None:
        for key in ("channel", "lambda"):
            if _resolve(args, key, config) is not None:
                raise CliError(EXIT_PARSE, f"--kraus-file and --{key} are mutually exclusive")
    return kraus_file


def _load_kraus_file(args, config) -> KrausChannel | None:
    """The channel in the resolved --kraus-file, or None when none is set."""
    kraus_file = _kraus_file(args, config)
    if kraus_file is None:
        return None
    try:
        return channel_from_json(Path(kraus_file).read_text())
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot load Kraus file: {exc}") from exc


def _channel_kind(args, config, missing: str) -> ChannelKind:
    kind = _resolve(args, "channel", config)
    if kind is None:
        raise CliError(EXIT_PARSE, missing)
    try:
        return ChannelKind(kind.upper())
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"unknown channel kind {kind!r}") from exc


def _named_channel(args, config) -> tuple:
    """Resolve (channel, kind, lambda) from --channel and --lambda."""
    kind = _channel_kind(args, config, "either --channel or --kraus-file is required")
    lam = _resolve(args, "lambda", config)
    if lam is None:
        raise CliError(EXIT_PARSE, "--lambda is required with --channel")
    lam = _as_float(lam, "lambda")
    try:
        return builtin_channel(kind, lam), kind, lam
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _channel_source(args, config) -> tuple:
    """Resolve (channel, plan, fitted) from --channel/--lambda or --kraus-file."""
    ch = _load_kraus_file(args, config)
    if ch is None:
        ch, kind, lam = _named_channel(args, config)
        return ch, closed_form_plan(kind, lam), None
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
        "rho": complex_to_pairs(rho),
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
    if args.gates and _resolve(args, "outdir", config) is None:
        raise CliError(EXIT_PARSE, "--gates needs --outdir; without it stdout carries the plan JSON")
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


def _prepared_state(args, config) -> np.ndarray:
    """cos(2 phi) |H> + sin(2 phi) |V> from the preparation half-wave plate at --phi-deg."""
    return prepare_initial(np.deg2rad(_as_float(_resolve(args, "phi_deg", config, 22.5), "phi_deg")))


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


def cmd_simulate(args) -> int:
    config = _read_config(args.config) if args.config else {}
    rho_in = _prepared_state(args, config)
    noise = _noise_from(args, config)
    ch, plan, _ = _channel_source(args, config)
    rho_sim, _, recon, fid = _measure(rho_in, [plan], transfer(ch)[None], noise)
    rho_sim, recon, fid = rho_sim[0], recon[0], fid[0]
    coh = coherence(recon.rho)
    # + 0.0 turns a round-off -0.0 into 0.0.
    print(f"bloch (reconstructed): {(np.round(recon.bloch, 10) + 0.0).tolist()}")
    print(f"fidelity vs Kraus oracle: {fid:.10f}")
    print(f"coherence c_l1={coh.c_l1:.10f} c_max={coh.c_max:.10f} clamped={recon.clamped}")
    outdir = _outdir(args, config)
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
        block_noise = None if noise is None else replace(noise, rng_seed=noise.rng_seed + start)
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


def cmd_sweep(args) -> int:
    config = _read_config(args.config) if args.config else {}
    if _kraus_file(args, config) is not None:
        raise CliError(EXIT_PARSE, "sweep takes --channel, not --kraus-file")
    if _resolve(args, "lambda", config) is not None:
        raise CliError(EXIT_PARSE, "sweep takes --lambda-grid, not --lambda")
    kind = _channel_kind(args, config, "--channel is required for sweep")
    grid_raw = _resolve(args, "lambda_grid", config, "0:1:21")
    grid = _parse_lambda_grid(grid_raw)
    rho_in = _prepared_state(args, config)
    noise = _noise_from(args, config)
    formats_raw = _resolve(args, "formats", config)
    if formats_raw is not None and _resolve(args, "outdir", config) is None:
        raise CliError(EXIT_PARSE, "--formats needs --outdir; without it stdout carries the sweep CSV")
    formats = [f.strip().lower() for f in ("csv" if formats_raw is None else formats_raw).split(",") if f.strip()]
    if not formats:
        raise CliError(EXIT_PARSE, "--formats names no output format")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise CliError(EXIT_PARSE, f"unknown output format {fmt!r}")
    rows = _sweep_rows(kind, grid, rho_in, noise)
    outdir = _outdir(args, config)
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


def cmd_validate(args) -> int:
    config = _read_config(args.config) if args.config else {}
    ch = _load_kraus_file(args, config)
    if ch is None:
        ch, _, _ = _named_channel(args, config)
    report = validate_channel(ch)
    print(f"trace_residual: {report.trace_residual:.6g}")
    print(f"min_choi_eig: {report.min_choi_eig:.6g}")
    print(f"ok: {str(report.ok).lower()}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--channel", help="one of AD, PD, BF, PF, BPF")
    parser.add_argument("--kraus-file", dest="kraus_file", help="channel JSON {label, kraus}")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument("--lambda", dest="lambda", help="decoherence parameter in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchansim",
        description="Decompose single-qubit channels into two quasiextreme branches, "
        "compile and simulate the spin-orbit optical circuit, and verify by tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="emit the two-branch plan for a channel")
    _add_common(p)
    p.add_argument("--gates", action="store_true", help="also write per-branch optical gate lists")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="run the circuit once and report fidelity")
    _add_common(p)
    p.add_argument("--phi-deg", dest="phi_deg", help="preparation waveplate angle in degrees")
    p.add_argument("--visibility", help="interferometer visibility in [0, 1]")
    p.add_argument("--intensity-sigma", dest="intensity_sigma", help="relative intensity noise")
    p.add_argument("--seed", help="noise RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="coherence and fidelity versus the decoherence parameter")
    _add_common(p)
    p.add_argument("--lambda-grid", dest="lambda_grid", help="comma list or start:stop:count")
    p.add_argument("--phi-deg", dest="phi_deg", help="preparation waveplate angle in degrees")
    p.add_argument("--visibility", help="interferometer visibility in [0, 1]")
    p.add_argument("--intensity-sigma", dest="intensity_sigma", help="relative intensity noise")
    p.add_argument("--seed", help="noise RNG seed")
    p.add_argument("--formats", help="comma list of csv, json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="CPTP diagnostics for a channel")
    _add_common(p)
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
    except DarkBasisError as exc:
        print(f"error: measurement failed: {exc}", file=sys.stderr)
        return EXIT_MEASUREMENT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
