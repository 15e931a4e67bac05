import json
import warnings

import numpy as np
import pytest

from conftest import random_kraus_pair_channel
from qchansim.channels import builtin_channel, channel_to_json, to_choi
from qchansim.cli import main
from qchansim.decompose import closed_form_plan, plan_from_json, plan_to_channel
from qchansim.matops import frob_dist


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


def test_validate_builtin_ok(capsys):
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
        return FitResult(plan=closed_form_plan("AD", 0.5), residual=0.5, converged=False, starts_used=32)

    monkeypatch.setattr(cli, "fit_plan", fake_fit)
    assert run(["decompose", "--kraus-file", str(path)]) == 3


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
    assert run(["sweep", "--kraus-file", str(path)]) == 2
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
