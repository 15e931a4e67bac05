"""Quasiextreme decomposition of single-qubit channels on spin-orbit optics.

The package splits into the layers

* :mod:`qchansim.matops` -- small dense complex linear algebra,
* :mod:`qchansim.channels` -- Kraus channels, transfer matrix, CPTP validation, affine/Choi forms,
* :mod:`qchansim.decompose` -- two-branch quasiextreme plans (closed form and fitted),
* :mod:`qchansim.optics` -- Jones matrices and waveplate/Dove-prism synthesis,
* :mod:`qchansim.circuit` -- exact simulation of the two-qubit optical circuit,
* :mod:`qchansim.tomography` -- intensity tomography, fidelity and coherence,
* :mod:`qchansim.cli` -- the ``qchansim`` command.
"""

from .channels import (
    AffineRep,
    ChannelKind,
    CPTPReport,
    KrausChannel,
    apply_channel,
    builtin_channel,
    channel_from_json,
    channel_to_json,
    to_affine,
    to_choi,
    transfer,
    validate_channel,
)
from .circuit import (
    BranchConfig,
    NoiseParams,
    SpinOrbitState,
    apply_noise,
    cnot_pol_controls_mode,
    gates_for_branch,
    prepare_initial,
    run_branch,
    simulate_channel,
    tbs_transfer,
)
from .decompose import (
    AngleNuMu,
    DecompositionPlan,
    FitResult,
    NotQuasiExtremeError,
    QuasiExtremeBranch,
    U_BPF,
    closed_form_plan,
    extract_nu_mu,
    fit_plan,
    gammas_from_angles,
    kraus_from_angles,
    plan_from_json,
    plan_to_channel,
    plan_to_json,
)
from .optics import (
    AxisAngle,
    DovePair,
    EulerAngles,
    GateElement,
    WaveplateTriple,
    dove,
    dove_pair_for_ry,
    euler_from_su2,
    hwp,
    qwp,
    ry_rotation,
    su2_from_axis_angle,
    su2_from_euler,
    triple_to_unitary,
    waveplates_from_euler,
)
from .tomography import (
    Basis,
    CoherencePair,
    MeasurementSetting,
    Reconstruction,
    TomographyRecord,
    coherence,
    fidelity,
    forward_intensities,
    probabilities,
    reconstruct,
)

__version__ = "0.1.0"
