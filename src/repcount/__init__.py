"""Real-time exercise recognition and repetition counting from pose
keypoint streams."""

from .counting import RepCounter, RepEvent
from .keypoints import (RawSkeleton, SkeletonFrame, load_frames, normalize_frame,
                        normalize_skeleton, parse_frame)
from .kinematics import ExerciseProfile, builtin_profiles, joint_angle
from .pipeline import EngineConfig, SessionEngine, analyze_frames
from .recognizer import MlpModel, RejectThresholds, classify_with_reject, train
from .reporting import PersonSummary, SessionResult, render_json, render_text
from .synthetic import PersonMotion, SyntheticSessionSpec, generate_session
from .tracker import PoseTracker, skeleton_distance

__version__ = "0.1.0"

__all__ = [
    "EngineConfig", "ExerciseProfile", "MlpModel", "PersonMotion",
    "PersonSummary", "PoseTracker", "RawSkeleton", "RejectThresholds",
    "RepCounter", "RepEvent", "SessionEngine", "SessionResult",
    "SkeletonFrame", "SyntheticSessionSpec", "analyze_frames",
    "builtin_profiles", "classify_with_reject", "generate_session",
    "joint_angle", "load_frames", "normalize_frame", "normalize_skeleton",
    "parse_frame", "render_json", "render_text", "skeleton_distance", "train",
]
