"""Brute-force certification of the polynomial atoms over small finite fields.

Punctual ideals are enumerated by one pure-Python engine
(:mod:`~motivecount.oracle._pure`) and compared with the row sums of the
tabulated stratification (:data:`~motivecount.oracle.tables.ROWS`);
Grassmannians are counted by their reduced echelon forms
(:func:`~motivecount.oracle.ideals.reduced_echelon_forms`) and plane points
by :func:`~motivecount.oracle.counting.projective_plane_count`.
"""

from .algebra import CURVES, NODE, RIBBON, LocalAlgebra, truncated_algebra
from .counting import (
    BRIDGES,
    FqCountResult,
    bridge_check_all,
    count_grassmannian,
    count_hilb2_p2,
    count_punctual_ideals,
    count_punctual_total_vs_table,
    count_sym2_p2,
    projective_plane_count,
    punctual_ideal_records,
    run_bridge,
)
from .ideals import IdealRecord, enumerate_closed_subspaces, reduced_echelon_forms
from .tables import MAX_COLENGTH, ROWS, expected_class

__all__ = [
    "BRIDGES", "CURVES", "FqCountResult", "IdealRecord", "LocalAlgebra",
    "MAX_COLENGTH", "NODE", "RIBBON", "ROWS", "bridge_check_all",
    "count_grassmannian", "count_hilb2_p2", "count_punctual_ideals",
    "count_punctual_total_vs_table", "count_sym2_p2",
    "enumerate_closed_subspaces", "expected_class", "projective_plane_count",
    "punctual_ideal_records", "reduced_echelon_forms", "run_bridge",
    "truncated_algebra",
]
