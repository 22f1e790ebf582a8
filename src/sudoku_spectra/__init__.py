"""Spectra of free-form Sudoku graphs.

Construct graphs from arbitrary equal-size block partitions, compute exact
spectra over big integers, decide integrality, and analyze k-fold blow-ups
through their explicit Kronecker-structured eigenvector bases.
"""

from .blowup import blown_adjacency, reconcile, subsquare_permutation, substitution_set
from .eigenbasis import blowup_is_integral, build_families, kj_basis, predicted_spectrum, verify
from .graph import adjacency, block_row_profile, layers, template
from .integrality import check_condition_iii, check_condition_q, check_regcommute, theorem_verdict
from .spectra import Spectrum, exact_spectrum, is_integral, multipartite_charpoly, multipartite_spectrum
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
