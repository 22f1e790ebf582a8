"""Spectra of free-form Sudoku graphs.

Construct graphs from arbitrary equal-size block partitions, compute exact
spectra over big integers, decide integrality, and analyze k-fold blow-ups
through their explicit Kronecker-structured eigenvector bases.

The blow-up names (from `blowup` and `eigenbasis`) are loaded on first
use, so importing the package, or the `spectrum` and `check` commands,
does not import those modules.
"""

import importlib

from .graph import adjacency, block_row_profile, layers, template
from .integrality import check_condition_iii, check_condition_q, check_regcommute, theorem_verdict
from .spectra import (
    Spectrum,
    exact_spectrum,
    is_integral,
    multipartite_charpoly,
    multipartite_spectrum,
    tiling_spectrum,
)
from .tiling import (
    Tiling,
    blow_up_tiling,
    classical_tiling,
    from_cell_sets,
    parse_tiling,
    random_tiling,
    render_tiling,
    row_tiling,
)

__all__ = [
    "Tiling",
    "parse_tiling",
    "render_tiling",
    "from_cell_sets",
    "classical_tiling",
    "row_tiling",
    "random_tiling",
    "blow_up_tiling",
    "layers",
    "adjacency",
    "block_row_profile",
    "template",
    "Spectrum",
    "tiling_spectrum",
    "exact_spectrum",
    "is_integral",
    "multipartite_charpoly",
    "multipartite_spectrum",
    "check_condition_q",
    "check_condition_iii",
    "check_regcommute",
    "theorem_verdict",
    "substitution_set",
    "blown_adjacency",
    "subsquare_permutation",
    "reconcile",
    "kj_basis",
    "build_families",
    "blowup_is_integral",
    "predicted_spectrum",
    "verify",
]

__version__ = "0.1.0"

# name -> submodule, for the names loaded on first use
_LAZY = {
    **dict.fromkeys(
        ("substitution_set", "blown_adjacency", "subsquare_permutation", "reconcile"), "blowup"
    ),
    **dict.fromkeys(
        ("kj_basis", "build_families", "blowup_is_integral", "predicted_spectrum", "verify"),
        "eigenbasis",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
