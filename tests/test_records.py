"""The contract of the package's 14 immutable records: construction, repr, equality and hash, immutability, pickle
and copy, and the JSON round trips of channels, plans and gate lists."""

import copy
import pickle
import re

import numpy as np
import pytest

from conftest import random_channel
from qchansim import (
    U_BPF,
    AffineRep,
    ChannelKind,
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
    builtin_channel,
    channel_from_json,
    channel_to_json,
    closed_form_plan,
    fit_plan,
    forward_intensities,
    gates_for_branch,
    plan_from_json,
    plan_to_json,
    reconstruct,
    to_affine,
    to_choi,
    validate_channel,
)
from qchansim.matops import Record
from qchansim.optics import gate_list_from_json, gate_list_to_json

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

# The records that only hold values take Record's constructor; the others check or convert their fields.
VALUE_RECORDS = (CPTPReport, FitResult, WaveplateTriple, EulerAngles, MeasurementSetting, TomographyRecord,
                 CoherencePair, Reconstruction)


def _branch(phase: float) -> QuasiExtremeBranch:
    return QuasiExtremeBranch(0.3, -0.2, np.diag([1.0, np.exp(1j * phase)]), U_BPF)


# The seven records that can hold arrays, each built from one number that sets one entry of one array: a call with the
# same number builds an independent twin, and another number a record that differs in that entry alone.
ARRAY_RECORDS = {
    KrausChannel: lambda x: KrausChannel((np.diag([1.0, x]), np.array([[0.0, 0.6], [0.0, 0.0]])), "AD"),
    AffineRep: lambda x: AffineRep(np.diag([x, 0.8, 0.64]), np.array([0.0, 0.0, 0.36])),
    QuasiExtremeBranch: _branch,
    DecompositionPlan: lambda x: DecompositionPlan(_branch(0.5), _branch(x), 0.25),
    FitResult: lambda x: FitResult(DecompositionPlan(_branch(x), None, 1.0), 1e-15, 0),
    TomographyRecord: lambda x: TomographyRecord(np.array([[0.5, 0.5], [x, 0.2]]), np.full((2, 2), 0.5),
                                                 np.array([[1.0, 0.0], [0.5, 0.5]])),
    Reconstruction: lambda x: Reconstruction(np.array([[[0.5, x], [x, 0.5]]]), np.array([[2.0 * x, 0.0, 0.0]]),
                                             np.array([0.5 + 2.0 * x * x]), np.array([False])),
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


def test_only_the_records_that_check_their_fields_have_their_own_constructor():
    for cls in FIELDS:
        assert ("__init__" in vars(cls)) is (cls not in VALUE_RECORDS), cls.__name__
    assert all(cls.__init__ is Record.__init__ for cls in VALUE_RECORDS)


@pytest.mark.parametrize("record", [r for r in _records() if isinstance(r, VALUE_RECORDS)],
                         ids=lambda r: type(r).__name__)
def test_value_records_bind_positional_then_keyword_values(record):
    cls, fields = type(record), FIELDS[type(record)]
    values = [getattr(record, name) for name in fields]
    twins = [cls(*values[:split], **dict(zip(fields[split:], values[split:]))) for split in range(len(fields) + 1)]
    twins.append(cls(**dict(reversed(list(zip(fields, values))))))  # keywords in any order
    for twin in twins:
        assert all(getattr(twin, name) is value for name, value in zip(fields, values))
        assert twin == record


@pytest.mark.parametrize("record", [r for r in _records() if isinstance(r, VALUE_RECORDS)],
                         ids=lambda r: type(r).__name__)
def test_value_records_refuse_a_missing_extra_repeated_or_unknown_value(record):
    cls, fields = type(record), FIELDS[type(record)]
    values = [getattr(record, name) for name in fields]
    calls = [
        lambda: cls(*values[:-1]),  # missing
        lambda: cls(**dict(zip(fields[1:], values[1:]))),  # missing, by keyword
        lambda: cls(*values, values[0]),  # extra
        lambda: cls(*values[:-1], **{fields[0]: values[0]}),  # repeated
        lambda: cls(*values[:-1], **{fields[-1] + "_": values[-1]}),  # unknown
    ]
    message = f"{cls.__name__} takes each of its fields ({', '.join(fields)}) once, by position or by keyword"
    for call in calls:
        with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
            call()


@pytest.mark.parametrize("cls", ARRAY_RECORDS, ids=lambda cls: cls.__name__)
def test_array_records_compare_by_value_and_are_unhashable(cls):
    # == used to raise "The truth value of an array ... is ambiguous" on two records with distinct arrays.
    build = ARRAY_RECORDS[cls]
    record, twin, other = build(0.25), build(0.25), build(0.25 + 1e-12)
    assert twin is not record and twin == record and not twin != record
    assert other != record and not other == record
    assert record.__eq__(record._values()) is NotImplemented
    for r in (record, twin, other):
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)


def test_the_package_builds_equal_records_from_equal_inputs():
    stack = np.array([[[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], [[0.5, 0.5], [0.5, 0.5]]])
    ch = random_channel(np.random.default_rng(3032), 3, "rank3")
    builders = [lambda: closed_form_plan("AD", 0.5), lambda: builtin_channel("AD", 0.5), lambda: fit_plan(ch),
                lambda: to_affine(ch), lambda: forward_intensities(stack),
                lambda: reconstruct(forward_intensities(stack))]
    for build in builders:
        assert build() == build()
    assert closed_form_plan("AD", 0.5) != closed_form_plan("AD", 0.4)
    assert builtin_channel("AD", 0.5) != builtin_channel("PD", 0.5)


def _assert_plan_round_trips(plan):
    assert plan_from_json(plan_to_json(plan)) == plan
    for branch in (plan.branch_a, plan.branch_b):
        if branch is not None:
            gates = gates_for_branch(branch)
            assert gate_list_from_json(gate_list_to_json(gates)) == gates


def test_channels_and_their_fitted_plans_survive_a_json_round_trip():
    rng = np.random.default_rng(3033)
    for rank in (1, 2, 3, 4):
        for index in range(10):
            ch = random_channel(rng, rank, f"rank{rank}-{index}")
            assert channel_from_json(channel_to_json(ch)) == ch
            _assert_plan_round_trips(fit_plan(ch).plan)


@pytest.mark.parametrize("kind", list(ChannelKind), ids=lambda kind: kind.value)
def test_named_plans_survive_a_json_round_trip(kind):
    for lam in np.linspace(0.0, 1.0, 11):
        _assert_plan_round_trips(closed_form_plan(kind, float(lam)))


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
    # A twin holding another Choi matrix.
    twin = KrausChannel(ch.ops, ch.label)
    object.__setattr__(twin, "_choi", np.zeros((4, 4), dtype=complex))
    assert twin == ch and repr(twin) == repr(ch)
    assert KrausChannel(ch.ops, "other") != ch
