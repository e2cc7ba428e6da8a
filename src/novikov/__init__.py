"""Exact-arithmetic toolkit for Novikov algebras given by structure
constants: second cohomology, central extensions, isomorphism search,
and the generated 5-dimensional nilpotent classification."""

from .fields import (FieldElement, Field, RationalField, GaussianRationalField,
                     QuadraticField, PrimeField, QQ, field_from_tag)
from .linalg import Matrix, Subspace
from .algebra import Algebra
from .cohomology import (Cocycle, cocycle_space, coboundary_space, h2_basis,
                         h2_dimension, h2_symmetric_dimension, in_Ts)
from .extensions import (central_extension, reconstruct,
                         extension_is_novikov_iff, extension_annihilator_law,
                         extension_is_split)
from .morphisms import (is_homomorphism, is_isomorphism, act_on_cocycle,
                        derivation_algebra, iso_search, enumerate_aut_fp)

__all__ = [
    "FieldElement", "Field", "RationalField", "GaussianRationalField",
    "QuadraticField", "PrimeField", "QQ", "field_from_tag",
    "Matrix", "Subspace", "Algebra", "Cocycle", "cocycle_space",
    "coboundary_space", "h2_basis", "h2_dimension",
    "h2_symmetric_dimension", "in_Ts", "central_extension", "reconstruct",
    "extension_is_novikov_iff", "extension_annihilator_law",
    "extension_is_split", "is_homomorphism", "is_isomorphism",
    "act_on_cocycle", "derivation_algebra", "iso_search",
    "enumerate_aut_fp",
]
