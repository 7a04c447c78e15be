"""Critical families of convex bodies and the hollows they enclose.

A family of n + 1 compact convex sets is n-critical when every n of them
share a point but all n + 1 do not.  With as many conditions as
dimensions, such a family traps a bounded hole in the complement of its
union; this package certifies criticality, locates and measures the
hole, and exercises the combinatorial machinery (colorings of simplicial
subdivisions, finite cover checks, crossing-flat verification) that the
geometry rests on.
"""

from .bodies import (Ball, ConvexBody, DEFAULT_TOL, HPolytope,
                     IntersectionBody, VPolytope, dykstra, feasibility_scan)
from .critical import (BORDERLINE_FACTOR, CriticalFamily, CriticalityFailure,
                       HollowSimplex, UniquenessReport, cage_margin,
                       check_critical, helly_guard, hollow_simplex,
                       recentered_witness, uniqueness_probe)
from .errors import (BorderlineCriticalError, ConvergenceError,
                     DegenerateConfigurationError, DegenerateSimplexError,
                     EmptyBodyError, GridDimensionError, GridResolutionError,
                     HollowNotFoundError, HollowkitError, KleeSolveError,
                     NoHollowError, NotSeparableError, PolytopeSizeError,
                     ProjectionError, SceneError, SpernerLegalityError,
                     SubdivisionSizeError, ToleranceAmbiguityError,
                     UnboundedBodyError)
from .geometry import (AffineSubspace, Hyperplane, RadonPartition, Simplex,
                       affine_hull, barycentric, radon_partition)
from .hollow import (Grid, HollowCertificate, StabbingPair, StabbingReport,
                     boundary_attribution, certify_hollow, hausdorff_convex,
                     hull_vs_simplex, verify_stabbing)
from .render import render_svg
from .scenes import (SCHEMA, Scene, body_from_json, body_to_json, dumps,
                     load_scene, parse_scene, serialize_scene)
from .solvers import (DistanceResult, FeasibilityReport, SeparationCertificate,
                      intersect_witness, min_distance, separating_hyperplane)
from .sperner import (KkmInstance, KkmReport, SpernerColoring,
                      SubdivisionComplex, family_kkm_instance, find_rainbow,
                      kkm_verify, klee_solve, rainbow_cells,
                      random_legal_coloring, sperner_color, subdivide)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace", "BORDERLINE_FACTOR", "Ball", "BorderlineCriticalError",
    "ConvergenceError", "ConvexBody", "CriticalFamily", "CriticalityFailure",
    "DEFAULT_TOL", "DegenerateConfigurationError", "DegenerateSimplexError",
    "DistanceResult", "EmptyBodyError", "FeasibilityReport", "Grid",
    "GridDimensionError", "GridResolutionError", "HPolytope",
    "HollowCertificate", "HollowNotFoundError", "HollowSimplex",
    "HollowkitError", "Hyperplane", "IntersectionBody", "KkmInstance",
    "KkmReport", "KleeSolveError", "NoHollowError", "NotSeparableError",
    "PolytopeSizeError", "ProjectionError", "RadonPartition", "SCHEMA",
    "Scene", "SceneError", "SeparationCertificate", "Simplex",
    "SpernerColoring", "SpernerLegalityError", "StabbingPair",
    "StabbingReport", "SubdivisionComplex", "SubdivisionSizeError",
    "ToleranceAmbiguityError", "UnboundedBodyError", "UniquenessReport",
    "VPolytope", "affine_hull", "barycentric", "body_from_json",
    "body_to_json", "boundary_attribution", "cage_margin", "certify_hollow",
    "check_critical", "dumps", "dykstra", "family_kkm_instance",
    "feasibility_scan", "find_rainbow", "hausdorff_convex", "helly_guard",
    "hollow_simplex", "hull_vs_simplex", "intersect_witness", "kkm_verify",
    "klee_solve", "load_scene", "min_distance", "parse_scene",
    "radon_partition", "rainbow_cells", "random_legal_coloring",
    "recentered_witness", "render_svg", "separating_hyperplane",
    "serialize_scene", "sperner_color", "subdivide", "uniqueness_probe",
    "verify_stabbing",
]
