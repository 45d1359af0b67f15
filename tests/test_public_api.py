"""The public surface of sqsplit, and the names the benchmark looks up.

perfbench reaches the package by attribute lookups at call time (so a
traced run can patch them); a name it reads that no longer exists would
only show when the benchmark runs.  The scan below finds those lookups
in its sources.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sqsplit
import sqsplit.cli  # noqa: F401  (the benchmark imports it, making sqsplit.cli an attribute)
from sqsplit import statekit

PUBLIC = [
    "__version__",
    # states
    "StateVector",
    "ConditionalState",
    "SplitFullState",
    "SplitMixedState",
    "ZeroProbabilityError",
    "spin_coherent",
    "one_axis_twist",
    "split",
    "twisted_split",
    "project_left_number",
    "effective_evolution",
    "mixed_split_state",
    # observables
    "MomentSet",
    "DensityMatrix",
    "moments",
    "rotate_moments",
    "reduced_density_left",
    "project_right_fock",
    # entanglement
    "SchmidtSpectrum",
    "schmidt",
    "log_negativity_pure",
    "log_negativity_mixed",
    "log_negativity_bracket",
    "log_negativity_dense",
    # wigner
    "WignerGrid",
    "default_rule",
    "wigner_from_density",
    "marginal_wigner_closed",
    "conditional_wigner_closed",
    "sphere_integral",
    "negativity_volume",
    "display_lattice",
    # witnesses
    "WitnessResult",
    "UndefinedWitnessError",
    "dgcz",
    "covariance_criterion",
    "squeezing_angle",
    "giovannetti",
    "wineland_xi",
    "epr_steering",
    "witness_suite",
    "hermitian_min_eigenvalue",
    # special functions
    "QuadratureRule",
    "log_factorial",
    "log_binomial",
    "wigner_3j",
    "legendre_table",
    "spherical_harmonic",
    "gauss_legendre_sphere",
]

REMOVED = {
    "sqsplit": ["SpinLabel", "apply_spin", "right_outcome_distribution"],
    "sqsplit.observables": ["SpinLabel", "apply_spin", "right_outcome_distribution"],
}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_names_are_pinned():
    assert sqsplit.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(sqsplit, name), name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(mod, name), name


def _module_of(node):
    """The sqsplit module an expression in the perfbench sources names:
    `sq`, `self.sq` and `sqsplit` are the package, `cli` and `wit` (or
    `<package>.cli`, `<package>.witness`) its modules."""
    if isinstance(node, ast.Name):
        return {"sq": "sqsplit", "sqsplit": "sqsplit", "cli": "sqsplit.cli",
                "wit": "sqsplit.witness"}.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr == "sq":
            return "sqsplit"
        if _module_of(node.value) == "sqsplit" and node.attr in ("cli", "witness"):
            return "sqsplit." + node.attr
    return None


def _benchmark_lookups():
    """(module, name) of every attribute the benchmark reads on sqsplit:
    `<module>.name` and the (module, "name", span) patch targets."""
    found = set()
    for source in ("workloads.py", "cli_child.py"):
        tree = ast.parse((PERFBENCH / source).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                module = _module_of(node.value)
                if module is not None:
                    found.add((module, node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                module, name = _module_of(node.elts[0]), node.elts[1]
                if module is not None and isinstance(name, ast.Constant):
                    found.add((module, name.value))
    return found


def test_benchmark_lookups_exist():
    found = _benchmark_lookups()
    # the scan sees each kind of lookup the benchmark makes
    for expected in (
        ("sqsplit", "mixed_split_state"),
        ("sqsplit.cli", "main"),
        ("sqsplit.cli", "rotate_moments"),
        ("sqsplit.cli", "display_lattice"),
        ("sqsplit.witness", "covariance_criterion"),
    ):
        assert expected in found
    for module, name in sorted(found):
        assert hasattr(importlib.import_module(module), name), (module, name)
    # the layer metrics read these off the mixture
    mixture = sqsplit.mixed_split_state(20, 0.01)
    assert len(mixture.blocks) == len(mixture.sectors)
    assert 0.0 < mixture.retained_mass <= 1.0
    assert isinstance(mixture, statekit.SplitMixedState)
