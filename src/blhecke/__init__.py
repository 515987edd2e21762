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
from .hecke import HeckeAlgebra, HeckeElt, max_supp
from .laurent import BinomialFactor, Character, LaurentPoly, RationalElt, evaluate
from .principal import ModuleVector, PrincipalSeries, VectorStats
from .rootdata import (
    Coroot,
    KacMoodyMatrix,
    ParameterSet,
    RootGeneratingSystem,
    enumerate_coroots,
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
    "inversion_coroots",
    "kato_check",
    "max_supp",
    "quadext",
    "s_tau_matrix",
    "standard_system",
    "validate_system",
    "__version__",
]
