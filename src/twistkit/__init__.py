"""Twisted free-boson numerics: partition functions, symmetry
implementations on truncated Fock spaces, and twisted thermal kernels.

The public names are loaded on first access (PEP 562), each from the
submodule that owns it, so ``import twistkit`` or a scalar command such as
``twistkit partition`` never imports numpy or the Fock, kernel and doubled-
field modules it does not use.
"""

import importlib

__version__ = "0.1.0"

#: Public names by owning submodule.
_EXPORTS = {
    "errors": (
        "AdmissibilityError",
        "CapacityError",
        "ConfigError",
        "DomainError",
        "InternalConsistencyError",
        "KindError",
        "PreconditionError",
        "RangeError",
        "TwistkitError",
    ),
    "spectrum": (
        "ModeSpectrum",
        "SymmetrySpec",
        "load_config",
        "parse_config",
        "principal_angle",
        "twisted_circle_spectrum",
        "validate_spectrum",
    ),
    "fock": (
        "FockSpace",
        "annihilation_functional",
        "apply_field",
        "apply_symmetry",
        "apply_tc",
        "creation",
        "creation_functional",
        "imaginary_time_field",
        "oracle_cutoff",
        "sub_commutator",
    ),
    "partition": (
        "partition_trace",
        "truncation_tail_bound",
        "positivity_lower_bound",
        "z_twisted",
        "z_untwisted",
    ),
    "correlation": (
        "SampledKernel",
        "TwistedKernel",
        "apply_inverse",
        "grid_spectrum",
        "kernel_closed_form",
        "kernel_fourier",
        "kernel_grid",
        "kernel_oracle",
        "kernel_twist_angle",
        "verify_resolvent",
    ),
    "realfield": (
        "ExtendedSpectrum",
        "extend",
        "extended_kernel",
        "extended_kernel_grid",
        "real_field_checks",
        "z_via_realfield",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
