"""Axial-trajectory attention, clip tracking, and a desk-scale
verification harness for video segmentation."""

from .assignment import Assignment, hungarian
from .attention import (
    AttentionParams,
    ProjectionWeights,
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
    full_trajectory_reference,
    passthrough_attention_params,
    stage_one_weights,
    trajectory_pass_1d,
)
from .backward import AxialPairGrads, trajectory_backward
from .config import ModelConfig, format_config, load_config, parse_config
from .crossclip import (
    AsppParams,
    CrossClipBlock,
    cross_clip_forward,
    offline_inference,
    query_trajectory_attention,
    temporal_aspp,
    temporal_class_head,
)
from .deform import (
    DeformParams,
    FeaturePyramid,
    WithinClipBlock,
    build_pyramid,
    msdeform_simplified,
    within_clip_forward,
)
from .errors import (
    AxialtrackError,
    ConfigError,
    DimensionError,
    GenerationError,
    NumericError,
    ResourceGuardError,
)
from .macs import count_macs
from .metrics import GroundTruthSet, tube_iou, vpq
from .segmenter import (
    ClipRuns,
    LinkedVideo,
    PipelineParams,
    Tube,
    associate_clips,
    decode_clip_queries,
    link_video,
    near_online_inference,
    predict_clip_tubes,
    run_clips,
    split_into_clips,
)
from .synthetic import (
    SyntheticVideoSpec,
    build_oracle_params,
    demo_video_spec,
    generate_synthetic,
    random_pipeline_params,
)
from .tensor import (
    MacCounter,
    atrous_conv1d,
    bilinear_sample,
    softmax_last,
)

__version__ = "0.1.0"
