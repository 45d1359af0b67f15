"""Every validator rejects a NaN or inf entry.

Each Hermitian, trace, residue or normalization check is written as
`if not err <= tol: raise`, so an error that comes out NaN fails it
instead of passing every `err > tol` comparison.
"""

import math

import numpy as np
import pytest

from sqsplit.entangle import SchmidtSpectrum, _partial_transpose_trace_norm
from sqsplit.observables import DensityMatrix
from sqsplit.specfun import QuadratureRule
from sqsplit.wigner import _evaluate, wigner_from_density
from sqsplit.witness import hermitian_min_eigenvalue


def _diagonal(bad):
    return np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)


_CASES = {
    "hermitian_min_eigenvalue": (ValueError, lambda bad: hermitian_min_eigenvalue(_diagonal(bad))),
    "DensityMatrix": (ValueError, lambda bad: DensityMatrix(_diagonal(bad))),
    "wigner_from_density": (ValueError, lambda bad: wigner_from_density(_diagonal(bad))),
    # the harmonic sum of one spin-1/2 multipole set
    "_evaluate": (
        ValueError,
        lambda bad: _evaluate(
            np.array([[bad, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex),
            1,
            np.array([0.3, 1.2]),
            np.array([0.0, 2.0]),
        ),
    ),
    "SchmidtSpectrum": (ValueError, lambda bad: SchmidtSpectrum(np.array([1.0, bad]))),
    "_partial_transpose_trace_norm": (
        AssertionError,
        lambda bad: _partial_transpose_trace_norm(np.diag([bad, 0.5, 0.25, 0.25]), 2, 2),
    ),
    "QuadratureRule": (
        ValueError,
        lambda bad: QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, bad]), 4),
    ),
}


# inf - inf in the Hermitian checks is the NaN they are meant to catch
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_CASES))
def test_validator_rejects_non_finite_entry(name, bad):
    error, build = _CASES[name]
    with pytest.raises(error):
        build(bad)
