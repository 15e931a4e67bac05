import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_channel, random_kraus_pair_channel
from qchansim import cli
from qchansim.channels import KrausChannel, apply_channel, builtin_channel, channel_to_json, to_choi
from qchansim.circuit import NoiseParams, apply_noise, prepare_initial, simulate_channel
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


def test_cli_import_loads_neither_fractions_nor_decimal():
    # _fmt_angle finds its fraction of pi by a loop over denominators, so a cold CLI call pays for neither module.
    code = "import sys; before = set(sys.modules); import qchansim.cli; " \
           "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["qchansim", "qchansim.cli"])
def test_import_loads_no_dataclasses(module):
    # The records are plain slotted classes on matops.Record, so no layer generates and compiles their methods; numpy
    # is imported first, so that only the package's own imports count.
    code = f"import sys, numpy; before = set(sys.modules); import {module}; " \
           "print('dataclasses' in set(sys.modules) - before)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _fraction_fmt_angle(x):
    """The angle echo as the nearest fraction of pi with denominator at most 24, read by Fraction."""
    frac = Fraction(x / np.pi).limit_denominator(24)
    if abs(x - float(frac) * np.pi) < 1e-9:
        if frac == 0:
            return "0"
        sign = "-" if frac < 0 else ""
        num, den = abs(frac.numerator), frac.denominator
        head = "pi" if num == 1 else f"{num}pi"
        return f"{sign}{head}/{den}" if den != 1 else f"{sign}{head}"
    return f"{x:.10g}"


def test_fmt_angle_matches_the_fraction_reference():
    # Every k pi / q with q <= 24 and |k| <= 48, its negative, +-0.0 and 200 random angles, also as numpy floats.
    rng = np.random.default_rng(2525)
    angles = [k * np.pi / q for q in range(1, 25) for k in range(-48, 49)]
    angles += [-x for x in angles] + [0.0, -0.0] + rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 200).tolist()
    for x in angles + [np.float64(x) for x in angles[::7]]:
        assert cli._fmt_angle(x) == _fraction_fmt_angle(x), x
    assert [cli._fmt_angle(x) for x in (np.pi / 4, -3 * np.pi / 8, 2 * np.pi, -0.0, 0.5)] == [
        "pi/4", "-3pi/8", "2pi", "0", "0.5"]


def test_measured_points_and_a_sweep_block_make_no_eigenvalue_call(monkeypatch):
    # Every qubit state check is in closed form: a clean and a noisy measured point (circuit, Kraus oracle,
    # tomography, fidelity and coherence) and a stacked sweep block make no eigvalsh or eigh call.  The 4x4 check of
    # apply_noise keeps its one eigvalsh.
    counts = {"eigvalsh": 0, "eigh": 0}

    def counting(name, function):
        def wrapper(a):
            counts[name] += 1
            return function(a)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rho_in = prepare_initial(np.deg2rad(31.0))
    plan, oracle = closed_form_plan("BPF", 0.3), builtin_channel("BPF", 0.3)
    noise = NoiseParams(visibility=0.9, intensity_sigma=0.01, rng_seed=17)
    for point_noise in (None, noise):
        rho_sim = simulate_channel(rho_in, plan, noise=point_noise)
        rho_oracle = apply_channel(oracle, rho_in)
        recon = reconstruct(forward_intensities(rho_sim, noise=point_noise))
        fidelity(recon.rho, rho_oracle)
        coherence(recon.rho)
    rows = cli._sweep_rows("AD", np.linspace(0.0, 1.0, cli.SWEEP_BLOCK).tolist(), rho_in, noise)
    assert len(rows) == cli.SWEEP_BLOCK and counts == {"eigvalsh": 0, "eigh": 0}
    apply_noise(np.kron(rho_in, np.diag([1.0, 0.0])), 0.9)
    assert counts == {"eigvalsh": 1, "eigh": 0}


def test_cli_import_and_a_split_fit_load_no_numpy_random():
    # The fit is deterministic linear algebra: importing the CLI and fitting two channels loads no numpy.random module
    # that numpy itself did not, and no scipy module.  Generalized amplitude damping at gamma = 0.3, N = 0.4 has Choi
    # rank 4, so the split fits it; its first two operators made trace preserving (amplitude damping at gamma = 0.3)
    # are read at stage one.
    code = """if True:
        import sys, numpy as np
        before = set(sys.modules)
        import qchansim.cli
        from qchansim import KrausChannel, fit_plan
        g, n = 0.3, 0.4
        ops = [np.sqrt(1 - n) * np.array([[1, 0], [0, np.sqrt(1 - g)]]),
               np.sqrt(1 - n) * np.array([[0, np.sqrt(g)], [0, 0]]),
               np.sqrt(n) * np.array([[np.sqrt(1 - g), 0], [0, 1]]),
               np.sqrt(n) * np.array([[0, 0], [np.sqrt(g), 0]])]
        for kraus in (ops, [k / np.sqrt(1 - n) for k in ops[:2]]):
            fit = fit_plan(KrausChannel(tuple(kraus)))
            print(fit.starts_used, fit.converged)
        loaded = sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random'))
        print(loaded, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split("\n")[:3] == ["1 True", "0 True", "[] []"]


def _waveplate_sides(gates) -> tuple:
    """Whether a branch's gate list holds waveplates for U, and for U': U' sits before the CNOT, U after the sorter."""
    elements = [g["element"] for g in gates]
    cnot = elements.index("CNOT")
    return "QWP" in elements[cnot:], "QWP" in elements[:cnot]


def test_decompose_echo_names_the_waveplates_the_gate_list_builds(tmp_path, capsys):
    # The echo says "none" for a dressing exactly where its branch's gate list has no waveplates for it: the gate
    # compiler skips a dressing that is the identity up to phase.  The named channels at several lambda, their Kraus
    # sets times +-1 and +-i and in both orders, fitted from a Kraus file; AD with both operators negated gives
    # U' = -I, which is not within 1e-12 of I.
    checked, phase_only = 0, 0
    for kind in ("AD", "PD", "BF", "PF", "BPF"):
        for lam in (0.2, 0.5, 0.9, 1.0):
            ops = builtin_channel(kind, lam).ops
            for factor in (1, -1, 1j, -1j):
                for order in (1, -1):
                    src = tmp_path / "kraus.json"
                    src.write_text(channel_to_json(KrausChannel(tuple(factor * k for k in ops[::order]))))
                    assert run(["decompose", "--kraus-file", str(src), "--gates", "--outdir", str(tmp_path)]) == 0
                    lines = capsys.readouterr().out.splitlines()
                    plan = plan_from_json((tmp_path / "plan.json").read_text())
                    for name, row, branch in zip("ab", lines[1:3], (plan.branch_a, plan.branch_b)):
                        if branch is None:
                            continue
                        gates = json.loads((tmp_path / f"gates_{name}.json").read_text())
                        tail = "waveplate triple" if row.endswith("waveplate triple") else "none"
                        head = row[:-len(tail)].rstrip()
                        echoed = (not head.endswith("none"), tail != "none")
                        assert row.startswith(name) and echoed == _waveplate_sides(gates), (kind, lam, factor, order)
                        checked += 1
                        phase_only += sum(not side and frob_dist(u, np.eye(2)) > 1e-12
                                          for side, u in zip(echoed, (branch.U, branch.Uprime)))
    assert checked >= 160 and phase_only > 0


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


def test_validate_takes_no_outdir(tmp_path, monkeypatch, capsys):
    # validate writes nothing, so --outdir is a parse error, not a flag it drops.  An outdir from the environment or
    # a config file is a setting shared with the other commands, and validate ignores it.
    outdir = tmp_path / "out"
    assert run(["validate", "--channel", "AD", "--lambda", "0.5", "--outdir", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --outdir" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"outdir={outdir}\n")
    assert run(["validate", "--channel", "AD", "--lambda", "0.5", "--config", str(cfg)]) == 0
    monkeypatch.setenv("QCHANSIM_OUTDIR", str(outdir))
    assert run(["validate", "--channel", "AD", "--lambda", "0.5"]) == 0
    assert capsys.readouterr().out.count("ok: true") == 2
    assert not outdir.exists()


def test_each_command_takes_exactly_its_flags_and_config_keys(capsys):
    common = ["--config", "--channel", "--kraus-file"]
    noise = ["--phi-deg", "--visibility", "--intensity-sigma", "--seed"]
    expected = {
        "decompose": [*common, "--outdir", "--lambda", "--gates"],
        "simulate": [*common, "--outdir", "--lambda", *noise],
        "sweep": [*common, "--outdir", "--lambda", "--lambda-grid", *noise, "--formats"],
        "validate": [*common, "--lambda"],
    }
    for command, flags in expected.items():
        assert run([command, "--help"]) == 0
        usage = capsys.readouterr().out.partition("\n\n")[0]
        assert list(dict.fromkeys(re.findall(r"--[a-z-]+", usage))) == flags, command
    assert set(cli.CONFIG_KEYS) == {f[2:].replace("-", "_") for flags in expected.values() for f in flags} - {
        "config", "gates"}


def test_validate_unparseable_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run(["validate", "--kraus-file", str(path)]) == 2


@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_kraus_file_whose_transfer_matrix_overflows_is_not_cptp(command, tmp_path, capsys):
    # Entries of 1e160 overflow the transfer matrix: validate prints a failing report and decompose its one-line
    # message, both with exit 1; no numpy warning or LAPACK error leaks (warnings are errors in this suite).
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"label": "huge", "kraus": [[[[1e160, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e160, 0.0]]]]}))
    assert run([command, "--kraus-file", str(path)]) == 1
    out, err = capsys.readouterr()
    if command == "validate":
        assert (out, err) == ("trace_residual: inf\nmin_choi_eig: nan\nok: false\n", "")
    else:
        assert (out, err) == ("", "error: channel is not CPTP (trace residual inf, min Choi eigenvalue nan)\n")


@pytest.mark.parametrize("command", ["validate", "decompose", "simulate"])
@pytest.mark.parametrize("payload", [
    {"kraus": [[1, 0], [0, 1]]},
    [1, 2],
    {"kraus": "x"},
    {"kraus": [[[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]]]},
    {"kraus": [[[[1, 0, 5, 6], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]]},
    {"kraus": 5},
    {"label": 5, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    {"label": ["AD"], "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    {"label": None, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
], ids=["op-not-a-grid", "not-an-object", "kraus-a-string", "three-number-entry", "four-number-entries",
        "kraus-a-number", "label-a-number", "label-a-list", "label-null"])
def test_malformed_kraus_file_is_a_parse_error(command, payload, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    assert run([command, "--kraus-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot load Kraus file:")


@pytest.mark.parametrize("args", [
    ["decompose", "--channel", "AD", "--lambda", "0.5"],
    ["decompose", "--channel", "AD", "--lambda", "0.5", "--gates"],
    ["simulate", "--channel", "AD", "--lambda", "0.5"],
    ["sweep", "--channel", "AD", "--formats", "csv,json"],
])
def test_outdir_naming_a_file_fails_before_any_output_or_measurement(args, tmp_path, monkeypatch, capsys):
    def no_measurement(*_):
        raise AssertionError("measured before --outdir was made")

    monkeypatch.setattr(cli, "_measure", no_measurement)
    path = tmp_path / "afile"
    path.write_text("kept\n")
    assert run(args + ["--outdir", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot make output directory:")
    assert path.read_text() == "kept\n"


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
        row_noise = None if noise is None else NoiseParams(
            noise.visibility, noise.intensity_sigma, noise.rng_seed + index)
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


def test_fit_nonconvergence_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    import qchansim.cli as cli
    from qchansim.decompose import FitResult, closed_form_plan

    ch = random_kraus_pair_channel(np.random.default_rng(61))
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(ch))

    def fake_fit(_ch, **_kw):
        return FitResult(plan=closed_form_plan("AD", 0.5), residual=0.5, starts_used=1)

    monkeypatch.setattr(cli, "fit_plan", fake_fit)
    assert run(["decompose", "--kraus-file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "did not converge" in captured.err


def test_fit_whose_split_misses_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    import qchansim.decompose as decompose

    # A split whose halves are the identity channel: the real fit_plan scores the plan it makes against the rank-3
    # target, finds it far off, and the CLI reports that in one line.
    identity_halves = np.array([[np.eye(2), np.zeros((2, 2))]] * 2, dtype=complex)
    monkeypatch.setattr(decompose, "_kraus_split", lambda kraus: (np.eye(4), identity_halves))
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(random_channel(np.random.default_rng(62), 3)))
    assert run(["decompose", "--kraus-file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "did not converge" in captured.err


@pytest.mark.parametrize("rank", [3, 4])
def test_decompose_writes_an_equal_mix_for_a_full_rank_kraus_file(tmp_path, rank):
    ch = random_channel(np.random.default_rng(64 + rank), rank)
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(ch))
    assert run(["decompose", "--kraus-file", str(path), "--outdir", str(tmp_path / "out")]) == 0
    plan = plan_from_json((tmp_path / "out" / "plan.json").read_text())
    assert plan.p == 0.5 and plan.branch_b is not None
    assert frob_dist(to_choi(plan_to_channel(plan)), to_choi(ch)) <= 1e-12


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


@pytest.mark.parametrize("args, message", [
    (["decompose", "--config", "BADCFG", "--channel", "XX", "--gates"], "unknown key 'wavelength'"),
    (["decompose", "--kraus-file", "MISSING", "--channel", "AD", "--gates"],
     "--kraus-file and --channel are mutually exclusive"),
    (["sweep", "--kraus-file", "MISSING", "--lambda", "0.5"], "--kraus-file and --lambda are mutually exclusive"),
    (["sweep", "--kraus-file", "MISSING", "--formats", "json"], "sweep takes --channel, not --kraus-file"),
    (["sweep", "--formats", "json", "--lambda-grid", "0:1"], "--formats needs --outdir"),
    (["simulate", "--channel", "XX", "--phi-deg", "x"], "--lambda is required with --channel"),
    (["simulate", "--phi-deg", "x", "--visibility", "2"], "either --channel or --kraus-file is required"),
    (["simulate", "--channel", "XX", "--lambda", "x", "--phi-deg", "inf"], "unknown channel kind 'XX'"),
    (["simulate", "--channel", "AD", "--lambda", "x", "--phi-deg", "inf"], "lambda must be a number, got 'x'"),
    (["sweep", "--channel", "AD", "--lambda-grid", "0:1", "--seed", "y"], "bad lambda grid '0:1'"),
    (["sweep", "--channel", "AD", "--formats", "xml", "--visibility", "2", "--outdir", "OUT"],
     "unknown output format 'xml'"),
    (["simulate", "--kraus-file", "MISSING", "--visibility", "2"], "visibility must lie in [0, 1]"),
    (["simulate", "--channel", "AD", "--lambda", "1.4", "--intensity-sigma", "-1"], "intensity_sigma must be"),
    (["simulate", "--kraus-file", "MISSING"], "cannot load Kraus file"),
    (["decompose", "--channel", "AD", "--lambda", "1.4", "--outdir", "BADCFG"], "decoherence parameter must be in"),
    (["simulate", "--kraus-file", "MISSING", "--outdir", "BADCFG"], "cannot load Kraus file"),
    (["simulate", "--channel", "AD", "--lambda", "0.5", "--outdir", "BADCFG"], "cannot make output directory"),
])
def test_a_command_with_several_faults_reports_the_first_in_the_documented_order(args, message, tmp_path, capsys):
    # The order: the config file, then RULES in order on the resolved text, then each value's parser in OPTIONS order,
    # then the noise options' ranges, the channel (its file, its lambda range, CPTP and the fit), then --outdir.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wavelength=532\n")
    paths = {"BADCFG": cfg, "MISSING": tmp_path / "missing.json", "OUT": tmp_path / "out"}
    assert run([str(paths.get(a, a)) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()
