"""Structured-tensor toolkit: classification, operator-norm and eigenvalue
bounds, and tensor complementarity solving, all verifiable at desk scale.

``_EXPORTS`` is the one declaration of the public surface; no module keeps an
``__all__``.  It drives lazy loading, ``dir(btensor)`` and ``import *``: each
name resolves on first use, when its home module is imported, and is then
kept in the package, so ``import btensor`` itself loads no submodule.
"""
import importlib

__version__ = "0.1.0"

# public name -> (home module, attribute in it)
_EXPORTS = {
    "DimensionMismatch": ("core", "DimensionMismatch"),
    "Tensor": ("core", "Tensor"),
    "UnsupportedOrder": ("core", "UnsupportedOrder"),
    "contract": ("core", "contract"),
    "contract_batch": ("core", "contract_batch"),
    "contraction_jacobian": ("core", "contraction_jacobian"),
    "is_entry_symmetric": ("core", "is_entry_symmetric"),
    "root_map": ("core", "root_map"),
    "scaled_map": ("core", "scaled_map"),
    "vector_norm": ("core", "vector_norm"),
    "load_example": ("datasets", "load_example"),
    "NormBoundReport": ("opnorms", "NormBoundReport"),
    "SandwichViolation": ("opnorms", "SandwichViolation"),
    "bound_report": ("opnorms", "bound_report"),
    "closed_form_report": ("opnorms", "closed_form_report"),
    "estimate_norm": ("opnorms", "estimate_norm"),
    "f_norm_bounds": ("opnorms", "f_norm_bounds"),
    "general_upper_bound": ("opnorms", "general_upper_bound"),
    "t_norm_bounds": ("opnorms", "t_norm_bounds"),
    "EigenBoundReport": ("spectral", "EigenBoundReport"),
    "EigenPair": ("spectral", "EigenPair"),
    "eigenvalue_bounds": ("spectral", "eigenvalue_bounds"),
    "find_h_eigenpairs": ("spectral", "find_h_eigenpairs"),
    "find_z_eigenpairs": ("spectral", "find_z_eigenpairs"),
    "h_residual": ("spectral", "h_residual"),
    "verify_eigen_bounds": ("spectral", "verify_eigen_bounds"),
    "z_residual": ("spectral", "z_residual"),
    "ClassificationError": ("structure", "ClassificationError"),
    "ClassificationReport": ("structure", "ClassificationReport"),
    "DominanceDiagnostics": ("structure", "DominanceDiagnostics"),
    "GridTooLarge": ("structure", "GridTooLarge"),
    "SemiPositivityCertificate": ("structure", "SemiPositivityCertificate"),
    "classify": ("structure", "classify"),
    "membership_diagnostics": ("structure", "membership_diagnostics"),
    "random_b0_tensor": ("structure", "random_b0_tensor"),
    "random_b_tensor": ("structure", "random_b_tensor"),
    "random_tensor": ("structure", "random_tensor"),
    "row_profile": ("structure", "row_profile"),
    "semipositivity_certificate": ("structure", "semipositivity_certificate"),
    "simplex_lattice": ("structure", "simplex_lattice"),
    "SolutionBoundCertificate": ("tcp", "SolutionBoundCertificate"),
    "TcpInstance": ("tcp", "TcpInstance"),
    "TcpOutcome": ("tcp", "TcpOutcome"),
    "boundedness_probe": ("tcp", "boundedness_probe"),
    "outcome_at": ("tcp", "outcome_at"),
    "tcp_residual": ("tcp", "residual"),
    "solution_lower_bounds": ("tcp", "solution_lower_bounds"),
    "tcp_solve": ("tcp", "solve"),
    "verify_solution_bounds": ("tcp", "verify_solution_bounds"),
    "TensorFormatError": ("tensorio", "TensorFormatError"),
    "dump_tensor": ("tensorio", "dump_tensor"),
    "dumps_tensor": ("tensorio", "dumps_tensor"),
    "load_tensor": ("tensorio", "load_tensor"),
    "loads_tensor": ("tensorio", "loads_tensor"),
    "tensor_from_obj": ("tensorio", "tensor_from_obj"),
    "tensor_to_obj": ("tensorio", "tensor_to_obj"),
}
_SUBMODULES = ("cli", "core", "datasets", "opnorms", "spectral", "structure", "tcp", "tensorio")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _EXPORTS[name]
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
