"""The Omega test: integer linear constraint manipulation (Section 2).

Capabilities, mirroring the paper's Section 2:

* eliminating existentially quantified variables (projection) with
  real/dark shadows and exact splintering -- :mod:`repro.omega.eliminate`
* verifying the existence of integer solutions --
  :mod:`repro.omega.satisfiability`
* removing redundant constraints and the gist operator --
  :mod:`repro.omega.redundancy`
* verifying implications -- :mod:`repro.omega.verify`
"""

from repro.omega.affine import Affine
from repro.omega.constraints import EQ, GEQ, Constraint, fresh_var
from repro.omega.problem import Conjunct
from repro.omega.eliminate import (
    dark_shadow,
    eliminate_exact,
    eliminate_exact_disjoint,
    elimination_is_exact,
    project_onto,
    real_shadow,
    splinters,
)
from repro.omega.satisfiability import equivalent, implies, satisfiable
from repro.omega.redundancy import constraint_redundant, gist, remove_redundant

__all__ = [
    "Affine",
    "Conjunct",
    "Constraint",
    "EQ",
    "GEQ",
    "constraint_redundant",
    "dark_shadow",
    "eliminate_exact",
    "eliminate_exact_disjoint",
    "elimination_is_exact",
    "equivalent",
    "fresh_var",
    "gist",
    "implies",
    "project_onto",
    "real_shadow",
    "remove_redundant",
    "satisfiable",
    "splinters",
]
