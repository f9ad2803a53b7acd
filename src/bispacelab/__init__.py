"""Verification lab for preopen-set structure in bispaces.

Two interchangeable carrier backends: explicit finite models (where the
open-set axioms collapse to topologies and everything is brute-forceable)
and symbolic cardinality-tagged atom universes (where the uncountable
counterexamples live exactly). On top sit the preopenness predicates, the
continuity hierarchy for maps, a catalog of machine-checked counterexamples,
and exhaustive theorem suites over all small models.
"""

from .finite import (
    FiniteSpace,
    PointSet,
    SpaceAxiomError,
    discrete_space,
    enumerate_spaces,
    indiscrete_space,
    validate_space,
)
from .props import Bispace, Witnessed, finite_bispace
from .symbolic import (
    Atom,
    AtomUniverse,
    Cardinality,
    SchematicFamily,
    SymSet,
    countable,
    is_countable,
    singleton,
    uncountable,
)

__all__ = [
    "Atom",
    "AtomUniverse",
    "Bispace",
    "Cardinality",
    "FiniteSpace",
    "PointSet",
    "SchematicFamily",
    "SpaceAxiomError",
    "SymSet",
    "Witnessed",
    "countable",
    "discrete_space",
    "enumerate_spaces",
    "finite_bispace",
    "indiscrete_space",
    "is_countable",
    "singleton",
    "uncountable",
    "validate_space",
]

__version__ = "0.1.0"
