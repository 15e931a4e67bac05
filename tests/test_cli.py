import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_channel, random_kraus_pair_channel
from qchansim import cli
from qchansim.channels import KrausChannel, apply_channel, builtin_channel, channel_to_json, to_choi
from qchansim.circuit import NoiseParams, prepare_initial, simulate_channel
from qchansim.cli import main
from qchansim.decompose import closed_form_plan, plan_from_json, plan_to_channel
from qchansim.matops import PAULIS, frob_dist
from qchansim.tomography import coherence, fidelity, forward_intensities, reconstruct


def run(args):
    return main(args)


def test_decompose_named_channel(tmp_path, capsys):
    code = run(["decompose", "--channel", "AD", "--lambda", "0.75", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pi/3" in out and "pi/6" in out and "-pi/6" in out
    plan = plan_from_json((tmp_path / "plan.json").read_text())
    ref = closed_form_plan("AD", 0.75)
    assert plan.p == 1.0
    assert plan.branch_a.alpha == pytest.approx(ref.branch_a.alpha, abs=1e-12)
    assert plan.branch_a.gamma1 == pytest.approx(np.pi / 6.0, abs=1e-12)


def test_decompose_identity_branch_at_zero(tmp_path):
    code = run(["decompose", "--channel", "BF", "--lambda", "0", "--outdir", str(tmp_path)])
    assert code == 0
    plan = plan_from_json((tmp_path / "plan.json").read_text())
    assert plan.branch_a.alpha == pytest.approx(0.0)
    assert plan.branch_a.gamma1 == pytest.approx(np.pi / 2.0)


def test_decompose_emits_gate_lists(tmp_path):
    code = run(["decompose", "--channel", "BPF", "--lambda", "0.5", "--outdir", str(tmp_path), "--gates"])
    assert code == 0
    gates = json.loads((tmp_path / "gates_a.json").read_text())
    assert any(g["element"] == "CNOT" for g in gates)
    assert (tmp_path / "gates_b.json").exists()


def test_decompose_fits_custom_kraus_file(tmp_path):
    ch = random_kraus_pair_channel(np.random.default_rng(60), label="custom")
    src = tmp_path / "custom.json"
    src.write_text(channel_to_json(ch))
    out = tmp_path / "out"
    code = run(["decompose", "--kraus-file", str(src), "--outdir", str(out)])
    assert code == 0
    plan = plan_from_json((out / "plan.json").read_text())
    assert frob_dist(to_choi(plan_to_channel(plan)), to_choi(ch)) <= 1e-8


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what the import really loads.
    code = "import sys, qchansim.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_decompose_requires_channel_source():
    assert run(["decompose"]) == 2


def test_decompose_rejects_bad_lambda():
    assert run(["decompose", "--channel", "AD", "--lambda", "1.4"]) == 2
    assert run(["decompose", "--channel", "XX", "--lambda", "0.4"]) == 2


def test_simulate_full_damping(tmp_path, capsys):
    code = run(
        ["simulate", "--channel", "AD", "--lambda", "1", "--phi-deg", "22.5", "--outdir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fidelity vs Kraus oracle: 1.0000000000" in out
    state = json.loads((tmp_path / "state.json").read_text())
    rho = np.array([[complex(*c) for c in row] for row in state["rho"]])
    assert np.allclose(rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    assert state["bloch"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)


def test_simulate_no_decoherence_returns_input(tmp_path):
    code = run(["simulate", "--channel", "PF", "--lambda", "0", "--phi-deg", "22.5", "--outdir", str(tmp_path)])
    assert code == 0
    state = json.loads((tmp_path / "state.json").read_text())
    assert state["bloch"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


def test_simulate_with_noise_reports_high_fidelity(capsys):
    code = run(["simulate", "--channel", "AD", "--lambda", "0.5", "--phi-deg", "22.5",
                "--visibility", "0.96", "--intensity-sigma", "0.01", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    fid = float(next(line for line in out.splitlines() if "fidelity" in line).split(":")[1])
    assert 0.95 <= fid < 1.0


def test_simulate_custom_kraus_file(tmp_path, capsys):
    ch = random_kraus_pair_channel(np.random.default_rng(62))
    path = tmp_path / "custom.json"
    path.write_text(channel_to_json(ch))
    code = run(["simulate", "--kraus-file", str(path), "--phi-deg", "22.5"])
    assert code == 0
    out = capsys.readouterr().out
    fid = float(next(line for line in out.splitlines() if "fidelity" in line).split(":")[1])
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_simulate_phase_flip_lands_on_minus(capsys):
    code = run(["simulate", "--channel", "PF", "--lambda", "1", "--phi-deg", "22.5"])
    assert code == 0
    assert "[-1.0," in capsys.readouterr().out


def _sweep_rows_from_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return rows


def test_sweep_amplitude_damping_curve(tmp_path):
    code = run(
        ["sweep", "--channel", "AD", "--phi-deg", "22.5", "--lambda-grid", "0:1:11", "--outdir", str(tmp_path)]
    )
    assert code == 0
    rows = _sweep_rows_from_csv((tmp_path / "sweep.csv").read_text())
    assert len(rows) == 11
    for row in rows:
        lam = row["lambda"]
        assert row["c_l1_sim"] == pytest.approx(np.sqrt(1.0 - lam), abs=1e-10)
        assert row["c_max_sim"] == pytest.approx(np.sqrt(1.0 - lam + lam**2), abs=1e-10)
        assert row["fidelity_sim_vs_oracle"] == pytest.approx(1.0, abs=1e-10)


def test_sweep_phase_damping_freezes(tmp_path):
    code = run(
        ["sweep", "--channel", "PD", "--phi-deg", "45", "--lambda-grid", "0:1:5", "--outdir", str(tmp_path)]
    )
    assert code == 0
    for row in _sweep_rows_from_csv((tmp_path / "sweep.csv").read_text()):
        assert row["c_l1_sim"] == pytest.approx(0.0, abs=1e-10)
        assert row["c_max_sim"] == pytest.approx(1.0, abs=1e-10)


def test_sweep_bit_flip_minimum(tmp_path):
    code = run(
        ["sweep", "--channel", "BF", "--phi-deg", "45", "--lambda-grid", "0,0.25,0.5,0.75,1",
         "--outdir", str(tmp_path), "--formats", "csv,json"]
    )
    assert code == 0
    rows = _sweep_rows_from_csv((tmp_path / "sweep.csv").read_text())
    for row in rows:
        assert row["c_max_sim"] == pytest.approx(abs(1.0 - 2.0 * row["lambda"]), abs=1e-10)
    json_rows = json.loads((tmp_path / "sweep.json").read_text())
    assert len(json_rows) == 5
    assert json_rows[2]["c_max_sim"] == pytest.approx(0.0, abs=1e-10)


def test_sweep_matches_oracle_columns_noiselessly(tmp_path):
    for kind in ("AD", "PD", "BF", "PF", "BPF"):
        out = tmp_path / kind
        code = run(["sweep", "--channel", kind, "--phi-deg", "22.5", "--lambda-grid", "0:1:9",
                    "--outdir", str(out)])
        assert code == 0
        for row in _sweep_rows_from_csv((out / "sweep.csv").read_text()):
            assert row["c_l1_sim"] == pytest.approx(row["c_l1_oracle"], abs=1e-10)
            assert row["c_max_sim"] == pytest.approx(row["c_max_oracle"], abs=1e-10)


def test_sweep_outputs_are_deterministic(tmp_path):
    args = ["sweep", "--channel", "BPF", "--phi-deg", "22.5", "--lambda-grid", "0:1:7",
            "--visibility", "0.96", "--intensity-sigma", "0.01", "--seed", "11"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--outdir", str(first), "--formats", "csv,json"]) == 0
    assert run(args + ["--outdir", str(second), "--formats", "csv,json"]) == 0
    assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()
    assert (first / "sweep.json").read_bytes() == (second / "sweep.json").read_bytes()
    for row in _sweep_rows_from_csv((first / "sweep.csv").read_text()):
        assert all(0.0 <= value <= 1.0 for value in row.values())
    third = tmp_path / "c"
    assert run(["sweep", "--channel", "BPF", "--phi-deg", "22.5", "--lambda-grid", "0:1:7",
                "--visibility", "0.96", "--intensity-sigma", "0.01", "--seed", "12",
                "--outdir", str(third)]) == 0
    assert (first / "sweep.csv").read_bytes() != (third / "sweep.csv").read_bytes()


def test_sweep_csv_uses_lf_and_header(tmp_path):
    assert run(["sweep", "--channel", "AD", "--lambda-grid", "0,1", "--outdir", str(tmp_path)]) == 0
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"lambda,c_l1_sim,c_max_sim,c_l1_oracle,c_max_oracle,fidelity_sim_vs_oracle\n")


def test_validate_builtin_ok(monkeypatch, capsys):
    import qchansim.cli as cli

    def no_plan(*_args):
        raise AssertionError("validate needs the channel, not its plan")

    monkeypatch.setattr(cli, "closed_form_plan", no_plan)
    assert run(["validate", "--channel", "BPF", "--lambda", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "ok: true" in out


def test_validate_corrupted_file(tmp_path, capsys):
    ch = builtin_channel("AD", 0.5)
    bad = {"label": "bad", "kraus": json.loads(channel_to_json(ch))["kraus"]}
    bad["kraus"][1] = [[[0.0, 0.0], [1.3 * 0.7071067811865476, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", "--kraus-file", str(path)]) == 1
    assert "ok: false" in capsys.readouterr().out


def test_validate_single_nontp_kraus(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"label": "s", "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}))
    assert run(["validate", "--kraus-file", str(path)]) == 1
    out = capsys.readouterr().out
    residual = float(out.splitlines()[0].split(":")[1])
    assert residual > 0.0


def test_validate_unparseable_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run(["validate", "--kraus-file", str(path)]) == 2


@pytest.mark.parametrize("command", ["validate", "decompose", "simulate"])
@pytest.mark.parametrize("payload", [
    {"kraus": [[1, 0], [0, 1]]},
    [1, 2],
    {"kraus": "x"},
    {"kraus": [[[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]]]},
    {"kraus": [[[[1, 0, 5, 6], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]]},
    {"kraus": 5},
], ids=["op-not-a-grid", "not-an-object", "kraus-a-string", "three-number-entry", "four-number-entries",
        "kraus-a-number"])
def test_malformed_kraus_file_is_a_parse_error(command, payload, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    assert run([command, "--kraus-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot load Kraus file:")


def _per_point_cells(kind, lam, rho_in, noise):
    """One sweep row from the per-point public functions."""
    plan, oracle = closed_form_plan(kind, lam), builtin_channel(kind, lam)
    rho_sim = simulate_channel(rho_in, plan, noise=noise)
    rho_oracle = apply_channel(oracle, rho_in)
    recon = reconstruct(forward_intensities(rho_sim, noise=noise))
    c_sim, c_oracle = coherence(recon.rho), coherence(rho_oracle)
    return {"lambda": lam, "c_l1_sim": c_sim.c_l1, "c_max_sim": c_sim.c_max, "c_l1_oracle": c_oracle.c_l1,
            "c_max_oracle": c_oracle.c_max, "fidelity_sim_vs_oracle": fidelity(recon.rho, rho_oracle)}


@pytest.mark.parametrize("kind, lam, phi, noise", [
    ("AD", "0.3", "22.5", []),
    ("BPF", "0.6", "10", ["--visibility", "0.93", "--intensity-sigma", "0.02"]),
    ("PD", "0.45", "35", ["--intensity-sigma", "0.05"]),
    ("BF", "0", "45", ["--visibility", "0.9", "--intensity-sigma", "0.01"]),  # a pure oracle state
])
def test_simulate_matches_first_sweep_row(kind, lam, phi, noise, capsys):
    common = ["--channel", kind, "--phi-deg", phi, *noise, "--seed", "11"]
    assert run(["simulate", "--lambda", lam, *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert run(["sweep", "--lambda-grid", f"{lam},1", *common]) == 0
    sweep_row = _sweep_rows_from_csv(capsys.readouterr().out)[0]
    options = dict(zip(noise[::2], map(float, noise[1::2])))
    params = NoiseParams(visibility=options.get("--visibility", 1.0),
                         intensity_sigma=options.get("--intensity-sigma", 0.0), rng_seed=11) if noise else None
    library_row = _per_point_cells(kind, float(lam), prepare_initial(np.deg2rad(float(phi))), params)
    # simulate prints exactly what row 0 of the sweep and the per-point library functions give.
    for row in (sweep_row, library_row):
        assert f"fidelity vs Kraus oracle: {row['fidelity_sim_vs_oracle']:.10f}" in lines
        assert any(line.startswith(f"coherence c_l1={row['c_l1_sim']:.10f} c_max={row['c_max_sim']:.10f} ")
                   for line in lines)


@pytest.mark.parametrize("kind", ["AD", "PD", "BF", "PF", "BPF"])
@pytest.mark.parametrize("noisy", [False, True])
def test_stacked_sweep_rows_match_per_point_functions(kind, noisy):
    # BPF with noise takes more than two SWEEP_BLOCK blocks, the last one partial.
    count = 2 * cli.SWEEP_BLOCK + 9 if (kind, noisy) == ("BPF", True) else 41
    grid = np.linspace(0.0, 1.0, count).tolist()
    rho_in = prepare_initial(np.deg2rad(31.0))
    noise = NoiseParams(visibility=0.9, intensity_sigma=0.01, rng_seed=17) if noisy else None
    rows = cli._sweep_rows(kind, grid, rho_in, noise)
    assert len(rows) == count
    for index, (lam, row) in enumerate(zip(grid, rows)):
        row_noise = None if noise is None else replace(noise, rng_seed=noise.rng_seed + index)
        expected = _per_point_cells(kind, lam, rho_in, row_noise)
        assert row["lambda"] == lam
        # Fidelity is not Lipschitz next to a pure oracle state (see tomography.fidelity).
        pure_oracle = abs(expected["c_max_oracle"] - 1.0) <= 1e-12
        for column, value in expected.items():
            tol = 1e-7 if column == "fidelity_sim_vs_oracle" and pure_oracle else 1e-14
            assert abs(row[column] - value) <= tol, (index, column)


def test_config_file_and_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel=AD\nlambda_grid=0,0.5\nphi_deg=22.5\noutdir=" + str(tmp_path / "from_cfg") + "\n")
    assert run(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg" / "sweep.csv").exists()

    monkeypatch.setenv("QCHANSIM_CHANNEL", "PD")
    monkeypatch.setenv("QCHANSIM_PHI_DEG", "45")
    out_env = tmp_path / "env"
    assert run(["sweep", "--config", str(cfg), "--outdir", str(out_env)]) == 0
    rows = _sweep_rows_from_csv((out_env / "sweep.csv").read_text())
    # PD on |V> freezes c_l1 at zero; the AD/|+> config values would not.
    assert all(row["c_l1_sim"] == pytest.approx(0.0, abs=1e-10) for row in rows)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("channel=AD\nwavelength=532\n")
    assert run(["sweep", "--config", str(cfg)]) == 2


def test_fit_nonconvergence_maps_to_exit_three(tmp_path, monkeypatch):
    import qchansim.cli as cli
    from qchansim.decompose import FitResult, closed_form_plan

    ch = random_kraus_pair_channel(np.random.default_rng(61))
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(ch))

    def fake_fit(_ch, **_kw):
        return FitResult(plan=closed_form_plan("AD", 0.5), residual=0.5, starts_used=32)

    monkeypatch.setattr(cli, "fit_plan", fake_fit)
    assert run(["decompose", "--kraus-file", str(path)]) == 3


def test_fit_without_a_plan_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    import qchansim.decompose as decompose

    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(random_channel(np.random.default_rng(62), 3)))
    monkeypatch.setattr(decompose, "_kraus_split", lambda kraus, rng: None)
    assert run(["decompose", "--kraus-file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "did not converge" in captured.err


def test_decompose_fits_a_near_extreme_kraus_file(tmp_path, capsys):
    # 1e-5 of the fully depolarizing channel mixed into a random Choi-rank-2 channel: the former 17-parameter
    # fitter left this one at a residual above CONVERGED_RESIDUAL, and decompose exited 3.
    ch = random_channel(np.random.default_rng(30049), 2)
    ops = [np.sqrt(1.0 - 1e-5) * k for k in ch.ops] + [np.sqrt(1e-5) / 2.0 * s for s in (np.eye(2), *PAULIS)]
    path = tmp_path / "near.json"
    path.write_text(channel_to_json(KrausChannel(tuple(ops), "near-extreme")))
    assert run(["decompose", "--kraus-file", str(path), "--outdir", str(tmp_path / "out")]) == 0
    plan = plan_from_json((tmp_path / "out" / "plan.json").read_text())
    assert frob_dist(to_choi(plan_to_channel(plan)), to_choi(KrausChannel(tuple(ops)))) <= 1e-9


@pytest.mark.parametrize("command", [["simulate", "--lambda", "0.5"], ["sweep", "--lambda-grid", "0.5"]])
def test_dark_basis_exits_with_measurement_code(command, capsys):
    # At sigma 100 both intensities of a basis can clamp to zero; every option still parsed.
    args = [command[0], "--channel", "AD", *command[1:], "--intensity-sigma", "100"]
    assert run([*args, "--seed", "1"]) == 0
    capsys.readouterr()
    assert run([*args, "--seed", "2"]) == 4
    err = capsys.readouterr().err
    assert err == "error: measurement failed: zero total intensity in basis DA\n"


def test_help_exits_cleanly():
    assert run(["--help"]) == 0


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_simulate_rejects_non_finite_angle_cleanly(value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["simulate", "--channel", "AD", "--lambda", "0.5", f"--phi-deg={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: phi_deg must be finite")


def test_kraus_file_and_channel_conflict(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(random_kraus_pair_channel(np.random.default_rng(63))))
    for command in ("decompose", "simulate", "validate"):
        assert run([command, "--kraus-file", str(path), "--channel", "AD", "--lambda", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mutually exclusive" in err
    assert run(["sweep", "--kraus-file", str(path), "--channel", "AD", "--lambda-grid", "0,1"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    # sweep rejects the option itself, so a file it cannot load hides nothing.
    for kraus_file in (path, tmp_path / "missing.json"):
        assert run(["sweep", "--kraus-file", str(kraus_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep takes --channel, not --kraus-file" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel=AD\nlambda=0.5\n")
    assert run(["decompose", "--config", str(cfg), "--kraus-file", str(path)]) == 2
    monkeypatch.setenv("QCHANSIM_CHANNEL", "PD")
    assert run(["validate", "--kraus-file", str(path)]) == 2


def test_lambda_resolves_from_env_and_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=1\n")
    assert run(["simulate", "--channel", "PF", "--phi-deg", "22.5", "--config", str(cfg)]) == 0
    assert "[-1.0," in capsys.readouterr().out
    monkeypatch.setenv("QCHANSIM_LAMBDA", "0")
    assert run(["simulate", "--channel", "PF", "--phi-deg", "22.5", "--config", str(cfg)]) == 0
    assert "[1.0," in capsys.readouterr().out
    assert run(["simulate", "--channel", "PF", "--phi-deg", "22.5", "--lambda", "1"]) == 0
    assert "[-1.0," in capsys.readouterr().out
    monkeypatch.delenv("QCHANSIM_LAMBDA")
    assert run(["simulate", "--channel", "PF", "--phi-deg", "22.5"]) == 2


def test_kraus_file_and_lambda_conflict(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(random_kraus_pair_channel(np.random.default_rng(64))))
    for command in ("decompose", "simulate", "validate"):
        assert run([command, "--kraus-file", str(path), "--lambda", "7"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--kraus-file and --lambda are mutually exclusive" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=0.5\n")
    assert run(["validate", "--config", str(cfg), "--kraus-file", str(path)]) == 2
    monkeypatch.setenv("QCHANSIM_LAMBDA", "0.5")
    assert run(["validate", "--kraus-file", str(path)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_sweep_rejects_lambda_from_any_source(tmp_path, monkeypatch, capsys):
    def rejected(*args):
        assert run(["sweep", "--channel", "AD", *args]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep takes --lambda-grid, not --lambda" in err

    rejected("--lambda", "0.3")
    rejected("--lambda-grid", "0,1", "--lambda", "0.3")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=0.3\n")
    rejected("--lambda-grid", "0,1", "--config", str(cfg))
    monkeypatch.setenv("QCHANSIM_LAMBDA", "0.3")
    rejected("--lambda-grid", "0,1")


@pytest.mark.parametrize("grid, message", [
    ("0:1:-3", "lambda grid count must be positive, got '-3'"),
    ("0:1:0", "lambda grid count must be positive, got '0'"),
    ("0:1:2.5", "lambda grid count must be an integer, got '2.5'"),
    ("0:1", "bad lambda grid '0:1'; use start:stop:count"),
    ("0:2:3", "lambda value 2.0 outside [0, 1]"),
    (",", "empty lambda grid"),
])
def test_sweep_rejects_a_bad_lambda_grid_in_its_own_words(grid, message, capsys):
    assert run(["sweep", "--channel", "AD", "--lambda-grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("kind, lam, phi", [("PF", "0.5", "22.5"), ("BPF", "0.25", "30"), ("BPF", "0.5", "22.5")])
def test_simulate_prints_no_negative_zero(kind, lam, phi, capsys):
    assert run(["simulate", "--channel", kind, "--lambda", lam, "--phi-deg", phi]) == 0
    head, _, values = capsys.readouterr().out.splitlines()[0].partition(": ")
    assert head == "bloch (reconstructed)"
    assert all(np.copysign(1.0, v) > 0.0 for v in json.loads(values) if v == 0.0)


# Pure outputs whose reconstructed Bloch norm lands a few ulp above 1.
@pytest.mark.parametrize("kind, lam, phi", [("PF", "1", "30"), ("BPF", "1", "15"), ("AD", "0", "60"),
                                            ("BF", "1", "27.5")])
def test_simulate_pure_output_is_not_flagged_clamped(kind, lam, phi, capsys):
    assert run(["simulate", "--channel", kind, "--lambda", lam, "--phi-deg", phi]) == 0
    assert "c_max=1.0000000000 clamped=False" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("command, key, value, extra, message", [
    ("simulate", "visibility", "1.5", [], "visibility must lie in [0, 1]"),
    ("simulate", "intensity_sigma", "-0.2", [], "intensity_sigma must be nonnegative"),
    ("sweep", "visibility", "7", [], "visibility must lie in [0, 1]"),
    ("simulate", "seed", "-3", ["--intensity-sigma", "0.1"], "rng_seed must be nonnegative"),
    ("simulate", "seed", "-3", ["--visibility", "0.9"], "rng_seed must be nonnegative"),
    ("simulate", "visibility", "1.5", ["--kraus-file", "RANK3"], "visibility must lie in [0, 1]"),
])
def test_noise_options_are_validated_from_any_source(source, command, key, value, extra, message, tmp_path,
                                                     monkeypatch, capsys):
    # A rank-3 --kraus-file needs the stage-two split, which must not run before the options are checked.
    monkeypatch.setattr(cli, "fit_plan", lambda ch: pytest.fail("fit_plan ran before the noise options"))
    if "RANK3" in extra:
        path = tmp_path / "rank3.json"
        path.write_text(channel_to_json(random_channel(np.random.default_rng(65), 3)))
        args, extra = [command], ["--kraus-file", str(path)]
    else:
        args = [command, "--channel", "AD",
                *(["--lambda", "0.5"] if command == "simulate" else ["--lambda-grid", "0,1"])]
    if source == "flag":
        args += ["--" + key.replace("_", "-"), value]
    elif source == "env":
        monkeypatch.setenv("QCHANSIM_" + key.upper(), value)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        args += ["--config", str(cfg)]
    assert run(args + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("args, message", [
    (["decompose", "--channel", "AD", "--lambda", "0.5", "--gates"], "--gates needs --outdir"),
    (["sweep", "--channel", "AD", "--formats", "json"], "--formats needs --outdir"),
    (["sweep", "--channel", "AD", "--formats", ",", "--outdir", "OUT"], "--formats names no output format"),
])
def test_output_options_are_never_dropped(args, message, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run([str(outdir) if a == "OUT" else a for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and message in err
    assert not outdir.exists()
