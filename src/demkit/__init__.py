"""demkit: exact characters of current-algebra Demazure modules.

Everything is exact integer arithmetic over sparse supports; characters are
elements of the integer group ring of the weight lattice with an extra
integer grading.

Importing the package loads none of its modules: each export below, and
each of the five modules that hold them, is imported on first access.
"""

from importlib import import_module

_EXPORTS = {
    "rootsystem": ("Root", "RootSystem", "parse_system", "root_system"),
    "charalg": ("GradedCharacter",),
    "affine": (
        "AffineWeight", "Relation", "affine_irreducible_character_truncated",
        "demazure_character", "kr_character", "presentation", "straighten",
    ),
    "finite": ("surjection_exists", "tensor_decompose", "weyl_character"),
    "theorems": (
        "Certificate", "expected_minuscule_nodes", "minuscule_nodes", "scan_summary",
        "schur_scan", "twofold_corollary_thresholds", "verify_twofold_corollary",
        "verify_demprop", "verify_ev0", "verify_genschurpos", "verify_krdecom",
        "verify_mapsdem", "verify_minuscule", "verify_stabilization", "verify_twofold",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
