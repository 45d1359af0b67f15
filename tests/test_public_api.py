"""The public surface of sqsplit, and the names the benchmark looks up.

perfbench reaches the package by attribute lookups at call time (so a
traced run can patch them); a name it reads that no longer exists would
only show when the benchmark runs.  The scan below finds those lookups
in its sources.
"""

import ast
import importlib
import os
import subprocess
import sys
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
    "spin_coherent",
    "one_axis_twist",
    "twisted_split",
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
    "log_binomial",
    "legendre_table",
    "gauss_legendre_sphere",
]

# the oracles among them live on in sqsplit._oracles
REMOVED = {
    "sqsplit": [
        "SpinLabel", "apply_spin", "right_outcome_distribution",
        "log_negativity_dense", "log_factorial", "wigner_3j", "spherical_harmonic",
        "split", "project_left_number", "ZeroProbabilityError",
    ],
    "sqsplit.statekit": ["split", "project_left_number", "ZeroProbabilityError"],
    "sqsplit.observables": [
        "SpinLabel", "apply_spin", "right_outcome_distribution", "_split_moments",
    ],
    "sqsplit.entangle": ["log_negativity_dense", "_dense_basis", "_partial_transpose_trace_norm"],
    "sqsplit.specfun": ["log_factorial", "wigner_3j", "_as_two_j", "spherical_harmonic"],
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


SRC = Path(sqsplit.__file__).resolve().parent


def test_commands_leave_the_oracles_unimported(tmp_path):
    # a fresh process runs every command but verify, each mode of
    # entanglement and criteria; nothing on any path may load the
    # oracle module
    out = {name: str(tmp_path / name) for name in (
        "s.json", "em.csv", "ec.csv", "c.csv", "cc.csv", "st.csv", "w.csv", "wc.csv",
    )}
    script = f"""
import sys
import sqsplit, sqsplit.cli
for argv in (
    ["state", "--n", "6", "--nl", "2", "--t", "0.1", "--out", {out["s.json"]!r}],
    ["entanglement", "--n", "8", "--steps", "3", "--out", {out["em.csv"]!r}],
    ["entanglement", "--mode", "conditional", "--n", "8", "--nl", "3", "--steps", "3",
     "--out", {out["ec.csv"]!r}],
    ["criteria", "--n", "20", "--steps", "3", "--out", {out["c.csv"]!r}],
    ["criteria", "--mode", "conditional", "--n", "20", "--nl", "7", "--steps", "3",
     "--out", {out["cc.csv"]!r}],
    ["steering", "--n", "20", "--steps", "3", "--out", {out["st.csv"]!r}],
    ["wigner", "--n", "6", "--nl", "3", "--t", "0.1", "--out", {out["w.csv"]!r}],
    ["wigner", "--n", "6", "--nl", "3", "--kind", "conditional", "--kr", "1", "--t", "0.1",
     "--out", {out["wc.csv"]!r}],
):
    assert sqsplit.cli.main(argv) == 0, argv
print("sqsplit._oracles" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
    for path in out.values():
        assert Path(path).exists(), path
    assert (tmp_path / "w.json").exists() and (tmp_path / "wc.json").exists()


def _oracle_imports(tree):
    """For every import of _oracles in a module's AST, the name of the
    innermost def around it, or None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] + [alias.name for alias in child.names]
            if any(name.split(".")[-1] == "_oracles" for name in names):
                found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_only_verify_imports_the_oracles():
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_oracles.py":
            found = _oracle_imports(ast.parse(path.read_text()))
            if found:
                imports[path.name] = found
    assert imports == {"cli.py": ["run_equivalence_suite"]}
