"""Two-view relative pose estimation from orientation- and scale-covariant features.

The toolkit couples the classical bilinear epipolar constraint with a linear
constraint contributed by each feature's orientation and scale, halving the
sample sizes of the standard point-based minimal solvers inside a locally
optimized RANSAC.
"""

from .errors import (
    DegenerateConfigurationError,
    DegenerateSampleError,
    IllConditionedSampleError,
    NoValidFocalError,
    ParseError,
    PointAtInfinityError,
    SolverError,
)
from .geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FocalModel,
    FundamentalMatrix,
    RelativePose,
    decompose_essential,
    essential_from_fundamental,
    essential_from_pose,
    fundamental_from_essential,
    fundamental_from_pose,
    normalize_points,
    relative_focal_error,
    rotation_error,
    symmetric_epipolar_errors,
    translation_error,
)
from .constraints import epipolar_rows, sift_rows
from .solvers import (
    MINIMAL_SOLVERS,
    SolverOutput,
    normalize_sift_correspondences,
    run_minimal_solver,
    solve_e_3sift,
    solve_e_5pt,
    solve_f_4sift,
    solve_f_7pt,
    solve_f_8pt,
    solve_f_focal_3sift,
    solve_f_focal_6pt,
)
from .robust import (RansacConfig, RansacReport, local_optimize, make_problem, ransac,
                     score_msac)
from .synthetic import SyntheticConfig, SyntheticScene, add_noise, generate_scene

__version__ = "0.1.0"
