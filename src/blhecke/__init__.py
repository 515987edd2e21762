"""Exact Bernstein-Lusztig-Hecke algebras over Kac-Moody root data."""

from .coxeter import (
    WeylElement,
    WeylGroup,
    all_reduced_words,
    bruhat_leq,
    coroot_of_reflection,
    enumerate_ball,
    inversion_coroots,
)
from .hecke import HeckeAlgebra, HeckeElt, Membership, max_supp, membership
from .laurent import BinomialFactor, Character, LaurentPoly, RationalElt, evaluate
from .principal import LowerSet, ModuleVector, PrincipalSeries, VectorStats
from .rootdata import (
    Coroot,
    KacMoodyMatrix,
    ParameterSet,
    RootGeneratingSystem,
    enumerate_coroots,
    find_strictly_dominant,
    standard_system,
    validate_system,
)
from .scalars import QuadExt, quadext
from .stabilizer import (
    KatoVerdict,
    TauAnalysis,
    TauStabilizer,
    analyze,
    kato_check,
    s_tau_matrix,
    semidirect_check,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialFactor",
    "Character",
    "Coroot",
    "HeckeAlgebra",
    "HeckeElt",
    "KacMoodyMatrix",
    "KatoVerdict",
    "LaurentPoly",
    "LowerSet",
    "Membership",
    "ModuleVector",
    "ParameterSet",
    "PrincipalSeries",
    "QuadExt",
    "RationalElt",
    "RootGeneratingSystem",
    "TauAnalysis",
    "TauStabilizer",
    "VectorStats",
    "WeylElement",
    "WeylGroup",
    "all_reduced_words",
    "analyze",
    "bruhat_leq",
    "coroot_of_reflection",
    "enumerate_ball",
    "enumerate_coroots",
    "evaluate",
    "find_strictly_dominant",
    "inversion_coroots",
    "kato_check",
    "max_supp",
    "membership",
    "quadext",
    "s_tau_matrix",
    "semidirect_check",
    "standard_system",
    "validate_system",
    "__version__",
]
