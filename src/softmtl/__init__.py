"""Finite-model verification workbench for MTL-algebras."""

from .algebra import (AlgebraError, AxiomReport, FiniteMtlAlgebra,
                      check_derived_laws, load_algebra, require_mtl, validate_mtl)
from .filters import (FilterClassification, classify_filter,
                      crisp_decomposition_check, enumerate_filters,
                      is_filter, labels_of, mask_of)
from .fixtures import FIXTURE_NAMES, load_fixture, resolve_algebra
from .fuzzy import FuzzySet
from .soft import ParameterInterval, SoftSet, build_soft, classify_soft
from .verifier import (TheoremSpec, VerificationReport, catalog, catalog_by_id,
                       find_strictness_witness, verify, verify_all)

__all__ = [name for name in dir() if not name.startswith("_")]
