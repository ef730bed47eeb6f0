import numpy as np
import pytest

from gravphase.grids import GridSpec
from gravphase.opalg import (
    ProbeStressTensor,
    PropagatorComparison,
    ThetaPrediction,
    TruncatedModeSystem,
)
from gravphase.phases import PhaseMatrix
from gravphase.poisson import ScalarFieldX
from gravphase.records import frozen_record
from gravphase.sources import (
    EnergyDensity,
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
)

_NATURAL = PhysicalConstants.natural()
_ZEROS = np.zeros(2)
_PREDICTION = ThetaPrediction(_ZEROS, _ZEROS, _ZEROS, _ZEROS)

# one instance of each record type of the package, and its first field
RECORDS = {
    GridSpec: (lambda: GridSpec(8, 4.0), "n"),
    PhysicalConstants: (PhysicalConstants.natural, "G"),
    EnergyDensity: (lambda: gaussian_density(1.0, (0.0, 0.0, 0.0), 1.0), "kind"),
    QuantumSourceState: (lambda: QuantumSourceState([1.0], [gaussian_density(1.0, (0, 0, 0), 1.0)],
                                                    [0]), "amplitudes"),
    ScalarFieldX: (lambda: ScalarFieldX(GridSpec(2, 1.0), np.zeros((2, 2, 2))), "grid"),
    PhaseMatrix: (lambda: PhaseMatrix(np.zeros((2, 2))), "theta"),
    TruncatedModeSystem: (lambda: TruncatedModeSystem((1.0, 0.0, 0.0), 4, _NATURAL), "kvec"),
    ProbeStressTensor: (lambda: ProbeStressTensor(np.zeros((2, 3, 3))), "coeffs"),
    ThetaPrediction: (lambda: _PREDICTION, "phase0"),
    PropagatorComparison: (lambda: PropagatorComparison(*[_ZEROS] * 6, _PREDICTION), "times"),
}


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=[t.__name__ for t in RECORDS])
def test_a_record_refuses_assignment_and_deletion(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, field) is before


@frozen_record
class _Pair:
    first: int
    second: float = 2.0

    def __post_init__(self):
        if self.first < 0:
            raise ValueError("first must be >= 0")
        object.__setattr__(self, "second", float(self.second))


def test_a_record_binds_its_fields_by_position_keyword_and_default():
    assert vars(_Pair(1)) == {"first": 1, "second": 2.0}
    assert vars(_Pair(1, 3)) == vars(_Pair(second=3, first=1)) == {"first": 1, "second": 3.0}
    assert type(_Pair(1, 3).second) is float  # __post_init__ ran
    with pytest.raises(ValueError, match="first must be >= 0"):
        _Pair(-1)
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})]:
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)


def test_a_record_compares_hashes_and_prints_by_its_fields():
    assert _Pair(1) == _Pair(1, 2.0) and hash(_Pair(1)) == hash(_Pair(1, 2.0))
    assert _Pair(1) != _Pair(2) and _Pair(1) != (1, 2.0)
    assert len({_Pair(1), _Pair(1), _Pair(2)}) == 2
    assert repr(_Pair(1)) == "_Pair(first=1, second=2.0)"
    assert repr(GridSpec(8, 4.0)) == "GridSpec(n=8, box=4.0)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(PhaseMatrix(np.zeros((2, 2))))
