"""Bordered knot Floer computations for satellite slice disks."""

from .cfk import CfkComplex, ChainPair, EndoPair, SimplifiedBases, build_cfd
from .certificates import (
    FinitePresentation,
    LaurentPoly,
    PermutationHom,
    alexander_satellite,
    find_homs,
)
from .library import builtin, builtin_cfk, builtin_names
from .linalg import (
    F2Matrix,
    HomologySummary,
    UMatrix,
    f2_homology,
    smith_normal_form,
    u_homology,
    u_torsion_order,
)
from .pairing import BoxComplex, ChainMap, NonterminationError, box_tensor, induced_map
from .pipeline import (
    Verdict,
    distinguish,
    find_distinguished_generator,
    no_cancellation_check,
    stab_bound,
    swap_action_nontrivial,
)
from .structures import (
    AGenerator,
    TypeAFamily,
    TypeAOp,
    TypeAStructure,
    TypeDMorphism,
    TypeDStructure,
    morphism_space,
)
from .torus_algebra import idempotent_profile

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
