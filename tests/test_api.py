import types

import qchansim

# The package's public names.  Removing or adding an export is an API change: it shows up as a diff here.
EXPORTS = {
    # channels
    "AffineRep", "CPTPReport", "ChannelKind", "KrausChannel", "apply_channel", "builtin_channel",
    "channel_from_json", "channel_to_json", "to_affine", "to_choi", "transfer", "validate_channel",
    # circuit
    "NoiseParams", "apply_noise", "compile_plan", "gates_for_branch", "prepare_initial", "run_branch",
    "simulate_channel", "tbs_transfer",
    # decompose
    "DecompositionPlan", "FitResult", "QuasiExtremeBranch", "U_BPF", "closed_form_plan", "fit_plan",
    "gammas_from_angles", "kraus_from_angles", "plan_from_json", "plan_to_channel", "plan_to_json",
    # optics
    "EulerAngles", "GateElement", "WaveplateTriple", "dove", "dove_pair_for_ry", "euler_from_su2", "hwp", "qwp",
    "ry_rotation", "su2_from_euler", "triple_to_unitary", "waveplates_from_euler",
    # tomography
    "Basis", "CoherencePair", "MeasurementSetting", "Reconstruction", "TomographyRecord", "coherence", "fidelity",
    "forward_intensities", "reconstruct",
}


def test_package_exports_are_pinned():
    public = {name for name, value in vars(qchansim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
