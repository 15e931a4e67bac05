"""The contract of the package's 14 immutable records: repr, equality and hash, immutability, pickle and copy."""

import copy
import pickle

import numpy as np
import pytest

from conftest import random_channel
from qchansim import (
    AffineRep,
    CPTPReport,
    CoherencePair,
    DecompositionPlan,
    EulerAngles,
    FitResult,
    GateElement,
    KrausChannel,
    MeasurementSetting,
    NoiseParams,
    QuasiExtremeBranch,
    Reconstruction,
    TomographyRecord,
    WaveplateTriple,
    closed_form_plan,
    fit_plan,
    forward_intensities,
    reconstruct,
    to_affine,
    to_choi,
    validate_channel,
)

# Each record's fields, in constructor order.
FIELDS = {
    KrausChannel: ("ops", "label"),
    CPTPReport: ("trace_residual", "min_choi_eig", "ok"),
    AffineRep: ("T", "t"),
    NoiseParams: ("visibility", "intensity_sigma", "rng_seed"),
    QuasiExtremeBranch: ("alpha", "beta", "U", "Uprime", "conditional_x"),
    DecompositionPlan: ("branch_a", "branch_b", "p"),
    FitResult: ("plan", "residual", "starts_used"),
    WaveplateTriple: ("eta1", "tau", "eta2"),
    EulerAngles: ("phi", "xi", "zeta"),
    GateElement: ("element", "angle"),
    MeasurementSetting: ("theta_q", "theta_h"),
    TomographyRecord: ("hv", "da", "lr"),
    CoherencePair: ("c_l1", "c_max"),
    Reconstruction: ("rho", "bloch", "purity", "clamped"),
}

# The scalar records: one instance, its exact repr, and an instance that differs from it in the last field.
SCALARS = [
    (GateElement("HWP", 0.25), "GateElement(element='HWP', angle=0.25)", GateElement("HWP", 0.5)),
    (NoiseParams(0.9, 0.01, 3), "NoiseParams(visibility=0.9, intensity_sigma=0.01, rng_seed=3)",
     NoiseParams(0.9, 0.01, 4)),
    (CPTPReport(1e-9, -0.5, False), "CPTPReport(trace_residual=1e-09, min_choi_eig=-0.5, ok=False)",
     CPTPReport(1e-9, -0.5, True)),
    (WaveplateTriple(0.1, -0.2, 0.3), "WaveplateTriple(eta1=0.1, tau=-0.2, eta2=0.3)", WaveplateTriple(0.1, -0.2, 0.4)),
    (EulerAngles(0.1, -0.2, 0.3), "EulerAngles(phi=0.1, xi=-0.2, zeta=0.3)", EulerAngles(0.1, -0.2, 0.4)),
    (MeasurementSetting(0.5, 0.125), "MeasurementSetting(theta_q=0.5, theta_h=0.125)", MeasurementSetting(0.5, 0.25)),
    (CoherencePair(0.25, 0.75), "CoherencePair(c_l1=0.25, c_max=0.75)", CoherencePair(0.25, 0.5)),
]


def _records() -> list:
    """One instance of each of the 14 records, built the way the package builds them."""
    ch = random_channel(np.random.default_rng(3030), 3, "rank3")
    plan = closed_form_plan("BPF", 0.3)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    record = forward_intensities(rho)
    return [ch, validate_channel(ch), to_affine(ch), plan.branch_a, plan, fit_plan(ch), record, reconstruct(record),
            *(record for record, _, _ in SCALARS)]


def _same(a, b) -> bool:
    """Equal values: records field by field, tuples and arrays entry by entry."""
    if type(a) is not type(b):
        return False
    if type(a) in FIELDS:
        return all(_same(getattr(a, name), getattr(b, name)) for name in FIELDS[type(a)])
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_every_record_is_covered():
    assert {type(r) for r in _records()} == set(FIELDS)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_repr_lists_the_fields_in_constructor_order(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[type(record)])
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record, text, other", SCALARS, ids=lambda r: type(r).__name__)
def test_scalar_records_compare_and_hash_by_their_fields(record, text, other):
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in FIELDS[type(record)])
    twin = type(record)(**dict(zip(FIELDS[type(record)], values)))
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert other != record and not other == record
    # Only a record of the same class compares equal: not a tuple of its fields, nor another record with the same ones.
    assert record != values and record.__eq__(values) is NotImplemented
    assert WaveplateTriple(0.1, -0.2, 0.3) != EulerAngles(0.1, -0.2, 0.3)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment_and_deletion(record):
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert _same(twin, record)
    if isinstance(record, KrausChannel):
        assert np.array_equal(to_choi(copy.deepcopy(record)), to_choi(record))


def test_the_choi_matrix_is_neither_shown_nor_compared():
    ch = random_channel(np.random.default_rng(3031), 2, "rank2")
    assert "_choi" not in repr(ch) and "choi" not in repr(ch)
    # A twin sharing ch's operator arrays, so that == can compare them, but holding another Choi matrix.
    twin = KrausChannel(ch.ops, ch.label)
    object.__setattr__(twin, "ops", ch.ops)
    object.__setattr__(twin, "_choi", np.zeros((4, 4), dtype=complex))
    assert twin == ch and repr(twin) == repr(ch)
    relabelled = KrausChannel(ch.ops, "other")
    object.__setattr__(relabelled, "ops", ch.ops)
    assert relabelled != ch
