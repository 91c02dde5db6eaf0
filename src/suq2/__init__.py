"""Braided q-deformed SU(2) at complex parameters: an exact symbolic engine.

The package realises the presented *-algebra of the q-deformed SU(2) family
for a formal complex parameter (exact rational-function coefficients in q
and its formal conjugate), its grading, twisted tensor products, the
comultiplication and the associated representation calculus, the
circle-extended ordinary quantum group, and a numeric truncated-operator
oracle that cross-checks the normal forms.  The ``suq2`` CLI drives the
named verification checks.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless the caller
has set it, and only if numpy is not imported yet.  OpenBLAS worker threads
otherwise busy-wait for about 0.1 s after numpy loads and after each threaded
call.  On a two-core host, that spin nearly doubled the CPU time of a short
``confluence_check``, by a different amount on each run.  With the timeout,
idle workers sleep at once, while large products still run threaded.
"""

import os as _os

_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .algebra import (
    ConfluenceReport,
    Element,
    Generator,
    Presentation,
    RewriteRule,
    confluence_check,
    free_presentation,
    suq2_presentation,
    torus_presentation,
    uq2_presentation,
)
from .braided import embed, grading_flip, twisted_tensor
from .errors import (
    NotInvariantError,
    ParseError,
    PoleError,
    PresentationMismatchError,
    RewriteLimitError,
    UnverifiedMorphismError,
    ZeroDivisorError,
)
from .morphisms import (
    GenMorphism,
    cancellation_witness,
    compose,
    delta_su,
    delta_uq2,
    equal_on_generators,
    identity_morphism,
    iota1,
    iota2,
    phi_symmetry,
    q_inverse_iso,
    rho_scale,
    su_to_uq2,
    tensor_morphism,
)
from .parser import parse
from .repcalc import (
    AlgMatrix,
    GradedSpace,
    QUBIT,
    constraint_derivation,
    corep_check,
    fundamental_matrix,
    invariant_vector_check,
    matrix_apply,
    matrix_embed,
    rep_tensor,
    uq2_from_su2_rep,
    zpower_matrix,
)
from .scalars import Scalar

__version__ = "0.1.0"

__all__ = [
    "AlgMatrix",
    "ConfluenceReport",
    "Element",
    "GenMorphism",
    "GradedSpace",
    "Generator",
    "NotInvariantError",
    "ParseError",
    "PoleError",
    "Presentation",
    "PresentationMismatchError",
    "QUBIT",
    "RewriteLimitError",
    "RewriteRule",
    "Scalar",
    "UnverifiedMorphismError",
    "ZeroDivisorError",
    "cancellation_witness",
    "compose",
    "confluence_check",
    "constraint_derivation",
    "corep_check",
    "delta_su",
    "delta_uq2",
    "embed",
    "equal_on_generators",
    "free_presentation",
    "fundamental_matrix",
    "grading_flip",
    "identity_morphism",
    "invariant_vector_check",
    "iota1",
    "iota2",
    "matrix_apply",
    "matrix_embed",
    "parse",
    "phi_symmetry",
    "q_inverse_iso",
    "rep_tensor",
    "rho_scale",
    "su_to_uq2",
    "suq2_presentation",
    "tensor_morphism",
    "torus_presentation",
    "twisted_tensor",
    "uq2_from_su2_rep",
    "uq2_presentation",
    "zpower_matrix",
]
