"""The package's 16 frozen records keep the contract of the frozen dataclasses they were: positional
and keyword construction, the dataclass repr, == and hash over the fields in order, AttributeError
on assignment and deletion, and the same validation errors.  Each record is held to a frozen
dataclass of the same name and fields built here, its reference."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from heisenberg_cmc import (DomainError, ModelParams, Point, ProfileQuantities, RadiusField,
                            SphereSpec, TangentVector)
from heisenberg_cmc.curvature import CorrectedShapeData, ShapeData, TangentFrame
from heisenberg_cmc.foliation import CylinderSpec, FoliationConstants, VerticalBound
from heisenberg_cmc.isoperimetry import Competitor, DeficitReport, RadialBump
from heisenberg_cmc.meridians import MeridianCurve

PARAMS = ModelParams(0.5, 1.0)
SPEC = SphereSpec(PARAMS, 1.0)
CYL = CylinderSpec(SPEC, 0.3)
VEC = TangentVector(1.0, 0.0, 0.0)
BUMP = RadialBump(0.2, 0.05)
H = np.array([[2.0, 0.5], [0.5, 1.0]])
S = np.linspace(0.0, 1.0, 3)

# each record class, its fields and the values of one record, in order
RECORDS = [
    (ModelParams, ("epsilon", "sigma"), (0.5, -1.0)),
    (Point, ("x", "y", "t"), (0.04, 0.0, 0.5)),
    (TangentVector, ("aX", "aY", "aT"), (1.0, -2.0, 0.25)),
    (SphereSpec, ("params", "R"), (PARAMS, 2.0)),
    (ProfileQuantities, ("omega_r", "p", "ell", "rho"), (1.5, 0.25, 0.75, 2.0)),
    (RadiusField, ("value", "R_r", "R_t"), (1.0, 0.5, -0.25)),
    (TangentFrame, ("X1", "X2", "a", "b", "c", "p"), (VEC, -VEC, 1.0, 2.0, 3.0, 4.0)),
    (ShapeData, ("h", "kappa1", "kappa2", "beta", "K1", "K2"), (H, 2.5, 0.5, 0.1, VEC, None)),
    (CorrectedShapeData, ("k", "k0", "alpha", "k0_norm"), (H, H - 1.5 * np.eye(2), 0.1, 0.7)),
    (CylinderSpec, ("spec", "delta", "r_cut", "t_cut"), (SPEC, 0.3, 0.7, CYL.t_cut)),
    (FoliationConstants, ("k", "C", "D"), (0.125, 2.0, 3.0)),
    (VerticalBound, ("label", "deficit", "floor", "satisfied"), (1.25, 0.2, 0.1, True)),
    (RadialBump, ("center", "width"), (0.2, 0.05)),
    (Competitor, ("spec", "cyl", "add", "amp_add", "sub", "amp_sub"),
     (SPEC, CYL, BUMP, 0.01, RadialBump(0.6, 0.05), 0.02)),
    (DeficitReport, ("area_sphere", "area_competitor", "symdiff", "deficit", "bound", "slack"),
     (10.0, 10.5, 0.25, 0.5, 0.125, 0.375)),
    (MeridianCurve, ("R", "s", "points", "velocities"), (1.0, S, np.ones((3, 3)), np.eye(3))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def build(cls, values):
    """The record of `values`; a CylinderSpec takes its spec and delta and derives the rest."""
    return cls(*values[:2]) if cls is CylinderSpec else cls(*values)


def reference(cls, names, values):
    """The frozen dataclass of the record's name and fields, holding the same values."""
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*values)


def hashable(values) -> bool:
    return not any(isinstance(v, np.ndarray) for v in values)


def test_there_are_16_records():
    assert len({cls for cls, _, _ in RECORDS}) == 16


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_construction_by_position_and_by_name(cls, names, values):
    record = build(cls, values)
    assert all(getattr(record, n) is v or getattr(record, n) == v for n, v in zip(names, values))
    given = names[:2] if cls is CylinderSpec else names
    by_name = cls(**dict(zip(given, values)))
    mixed = cls(values[0], **dict(zip(given[1:], values[1:])))
    for other in (by_name, mixed):
        assert repr(other) == repr(record)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_is_the_frozen_dataclass_repr(cls, names, values):
    assert repr(build(cls, values)) == repr(reference(cls, names, values))


def test_repr_reads_as_the_error_messages_print_it():
    assert repr(Point(0.04, 0.0, 0.5)) == "Point(x=0.04, y=0.0, t=0.5)"
    assert repr(CYL) == (f"CylinderSpec(spec=SphereSpec(params=ModelParams(epsilon=0.5, "
                         f"sigma=1.0), R=1.0), delta=0.3, r_cut=0.7, t_cut={CYL.t_cut!r})")


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_eq_and_hash_run_over_the_fields(cls, names, values):
    record, twin = build(cls, values), build(cls, values)
    assert record == twin and not record != twin
    assert record != reference(cls, names, values)  # a record equals records of its class only
    assert record != values
    if hashable(values):
        assert hash(record) == hash(twin) == hash(reference(cls, names, values)) == hash(values)
        changed = build(cls, (values[0], 0.125) + values[2:])
        assert record != changed
    else:  # arrays compare elementwise: a dataclass's == and hash raise on them too
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, names, values):
    record = build(cls, values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == repr(build(cls, values))


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_the_record(cls, names, values):
    record = build(cls, values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and repr(twin) == repr(record)


@pytest.mark.parametrize("cls, names", [(cls, names) for cls, names, _ in RECORDS
                                         if cls is not CylinderSpec], ids=IDS[:9] + IDS[10:])
def test_a_wrong_field_list_raises_type_error(cls, names):
    values = (1.0,) * len(names)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 1.0)
    with pytest.raises(TypeError):
        cls(*values[:-1], nope=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ModelParams(0.0, 1.0), "epsilon must be positive and finite, got 0.0"),
    (lambda: ModelParams(-1, 1.0), "epsilon must be positive and finite, got -1"),
    (lambda: ModelParams(math.inf, 1.0), "epsilon must be positive and finite, got inf"),
    (lambda: ModelParams(1.0, math.nan), "sigma must be finite, got nan"),
    (lambda: SphereSpec(PARAMS, 0.0), "R must be positive and finite, got 0.0"),
    (lambda: SphereSpec(PARAMS, -math.inf), "R must be positive and finite, got -inf"),
    (lambda: CylinderSpec(SPEC, 1.0), r"delta must lie in \[0, R\), got 1.0"),
    (lambda: CylinderSpec(SPEC, -0.1), r"delta must lie in \[0, R\), got -0.1"),
])
def test_validation_errors_are_unchanged(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_validated_fields_are_python_floats():
    params = ModelParams(np.float64(0.5), 2)
    spec = SphereSpec(params, np.float32(1.5))
    cyl = CylinderSpec(spec, np.float64(0.25))
    fields = (params.epsilon, params.sigma, spec.R, cyl.delta, cyl.r_cut, cyl.t_cut)
    assert [type(v) for v in fields] == [float] * 6
