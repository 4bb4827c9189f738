"""Brute-force certification of the polynomial atoms over small finite fields.

Punctual ideals are enumerated by one pure-Python engine
(:mod:`~motivecount.oracle._pure`); Grassmannians by their reduced echelon
forms (:func:`~motivecount.oracle.ideals.reduced_echelon_forms`).
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
    punctual_ideal_records,
    result_fields,
    results_to_csv,
    run_bridge,
)
from .gf import projective_plane_count
from .ideals import IdealRecord, enumerate_closed_subspaces, reduced_echelon_forms
from .tables import MAX_COLENGTH, TableRow, expected_class, expected_count, rows_for, table_rows

__all__ = [
    "BRIDGES", "CURVES", "FqCountResult", "IdealRecord", "LocalAlgebra",
    "MAX_COLENGTH", "NODE", "RIBBON", "TableRow", "bridge_check_all",
    "count_grassmannian", "count_hilb2_p2", "count_punctual_ideals",
    "count_punctual_total_vs_table", "count_sym2_p2",
    "enumerate_closed_subspaces", "expected_class", "expected_count",
    "projective_plane_count", "punctual_ideal_records",
    "reduced_echelon_forms", "result_fields", "results_to_csv", "rows_for",
    "run_bridge", "table_rows", "truncated_algebra",
]
