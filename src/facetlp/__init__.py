"""Facet pivot simplex solver for linear programming.

Public surface: problem types and conversions (:mod:`facetlp.model`), the
facet pivot engine (:mod:`facetlp.facet`), reference solvers and the
brute-force oracle (:mod:`facetlp.reference`), instance generators
(:mod:`facetlp.generators`), and the MPS reader (:mod:`facetlp.mps`).
"""

from facetlp.facet import (
    InfeasibilityCertificate,
    PivotRule,
    SolveOutcome,
    Status,
    solve,
)
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import (
    GeneralLP,
    StandardGeneralLP,
    ViolationReport,
    default_big_m,
    general_lp_from_dict,
    general_lp_to_dict,
    load_general_lp,
    lp_dual,
    objective_value,
    save_general_lp,
    to_standard_general,
    violations,
)
from facetlp.mps import MpsDocument, parse_mps, read_mps, to_general_lp
from facetlp.reference import (
    StandardFormLP,
    brute_force_optimal,
    dantzig_solve,
    to_standard_form,
)

__version__ = "0.1.0"

__all__ = [
    "CYCLING_FIXTURE_IDS",
    "GeneralLP",
    "InfeasibilityCertificate",
    "MpsDocument",
    "PivotRule",
    "SolveOutcome",
    "StandardFormLP",
    "StandardGeneralLP",
    "Status",
    "ViolationReport",
    "brute_force_optimal",
    "cycling_fixture",
    "dantzig_solve",
    "default_big_m",
    "general_lp_from_dict",
    "general_lp_to_dict",
    "klee_minty_v1",
    "klee_minty_v2",
    "load_general_lp",
    "lp_dual",
    "objective_value",
    "parse_mps",
    "random_instance",
    "read_mps",
    "save_general_lp",
    "solve",
    "to_general_lp",
    "to_standard_form",
    "to_standard_general",
    "violations",
]
