"""Active camera relocalization toolkit.

Plane-mediated two-view pose estimation, absolute motion-scale recovery
from a homogeneous linear system, and the iterative relocalization loop,
validated against a synthetic pinhole-camera simulator.
"""

from .errors import AcrError
from .geometry import (
    DirectionalPose,
    Intrinsics,
    Pose,
    Rotation,
    compose,
    direction_angle,
    rotation_angle,
)
from .pose_estimation import (
    CorrespondenceSet,
    Homography,
    PoseHypothesis,
    decompose_homography,
    estimate_epipolar,
    estimate_homography_ransac,
)
from .scale_solver import (
    ScaleSolution,
    SparseDepthMap,
    coefficient_arrays,
    depth_map_current,
    depth_map_reference,
    init_scale,
    iteration_scale,
)
from .plane_match import (
    PlaneGraph,
    PlaneSegmentMap,
    assemble_affinity,
    erode_mask,
    solve_matching,
)
from .fusion import PoseEstimate, i2pe, point_spread
from .acr_loop import (
    AcrConfig,
    AcrTrace,
    MotionExecutor,
    Observation,
    hand_motion_from_estimate,
    run_acr,
    run_bisection_baseline,
)
from .metrics import AfdReport, afd

__version__ = "0.1.0"
