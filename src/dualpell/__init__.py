"""Exact dual-complex k-Pell arithmetic and identity verification.

Importing the package loads none of its modules: each public name below is
imported from its home module on first use (PEP 562), so a command or a
caller pays only for the modules it reads.
"""

import importlib

_HOMES = {
    "dualcomplex": (
        "DC_EPS",
        "DC_I",
        "DC_IEPS",
        "DC_ONE",
        "DC_ZERO",
        "Conjugation",
        "DualComplex",
        "NonInvertibleError",
    ),
    "identities": ("CATALOG", "IdentityId", "as_dual_complex", "identity_sides", "required_bindings"),
    "quadext": ("QuadExt", "make_alpha_beta", "rationalize", "render_rational"),
    "quaternions": (
        "PellQuaternion",
        "binet_quaternion",
        "build_quaternion",
        "gamma_closed",
        "gamma_coefficient",
        "hat_pair",
    ),
    "scalars": ("parse_rational",),
    "sequences": (
        "Family",
        "SequenceSpec",
        "dc_number",
        "pell_term",
        "seq_binet",
        "seq_prefix_sum",
        "seq_row",
        "seq_term",
        "seq_term_fast",
        "terms",
    ),
    "verifier": (
        "Counterexample",
        "IdentityReport",
        "SweepConfig",
        "Verdict",
        "check_one",
        "default_config",
        "report_to_dict",
        "reports_to_json",
        "summary_lines",
        "sweep",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # An unknown name raises AttributeError, so `from dualpell import verifier`
    # falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
