"""Dense complex generalized eigensolver built on pole swapping.

The solver works on Hessenberg pencils with explicit poles; shifts are
installed as poles and chased through the pencil by eigenvalue swaps in the
pole pencil.  The 2x2 swap kernel keeps both matrices' residuals small
relative to their own norms, which is what makes the whole chain backward
stable even when the two matrices have wildly different scales.
"""

from .numerics import (
    CoreTransformation,
    ProjectiveValue,
    chordal_distance,
    make_projective,
)
from .pencil import (
    DeflationEvent,
    HessenbergPencil,
    PropernessReport,
    check_proper,
    detect_deflations,
    load_pencil,
    reduce_to_hessenberg_triangular,
    save_pencil,
    set_poles,
)
from .rqz import (
    SolveOptions,
    SolveResult,
    SweepRecord,
    basic_sweep,
    bidirectional_sweep,
    choose_shift,
    multishift_sweep,
    schur_residuals,
    solve,
)
from .swapkernel import SwapMethod, SwapReport, TriangularPencil2, swap2x2, swap_cores

__all__ = [
    "CoreTransformation",
    "DeflationEvent",
    "HessenbergPencil",
    "ProjectiveValue",
    "PropernessReport",
    "SolveOptions",
    "SolveResult",
    "SwapMethod",
    "SwapReport",
    "SweepRecord",
    "TriangularPencil2",
    "basic_sweep",
    "bidirectional_sweep",
    "check_proper",
    "chordal_distance",
    "choose_shift",
    "detect_deflations",
    "load_pencil",
    "make_projective",
    "multishift_sweep",
    "reduce_to_hessenberg_triangular",
    "save_pencil",
    "schur_residuals",
    "set_poles",
    "solve",
    "swap2x2",
    "swap_cores",
]

__version__ = "0.1.0"
