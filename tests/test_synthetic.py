import numpy as np
import pytest

from axialtrack.config import ModelConfig, _stages
from axialtrack.crossclip import offline_inference
from axialtrack.errors import ConfigError, GenerationError
from axialtrack.metrics import vpq
from axialtrack.segmenter import near_online_inference
from axialtrack.synthetic import (
    SyntheticVideoSpec,
    build_oracle_params,
    demo_video_spec,
    generate_synthetic,
    random_pipeline_params,
)


def _spec(**overrides):
    base = dict(
        sizes=((3, 3),),
        velocities=((0, 0),),
        colors=(0,),
        length=4,
        height=12,
        width=12,
        channels=4,
        seed=0,
    )
    base.update(overrides)
    return SyntheticVideoSpec(**base)


class TestGenerateSynthetic:
    def test_static_object_constant_tube(self):
        video, gt = generate_synthetic(_spec())
        masks = gt.tubes[0].masks
        for f in range(1, 4):
            assert np.array_equal(masks[f], masks[0])
        assert video.shape == (4, 4, 12, 12)

    def test_velocity_shifts_columns(self):
        video, gt = generate_synthetic(_spec(velocities=((0, 1),), length=3))
        masks = gt.tubes[0].masks
        for f in range(1, 3):
            assert np.array_equal(masks[f, :, 1:], masks[f - 1, :, :-1])

    def test_video_matches_masks(self):
        video, gt = generate_synthetic(_spec(colors=(2,)))
        mask = gt.tubes[0].masks.astype(bool)
        assert np.array_equal(video[:, 2] > 0, mask)
        assert np.all(video[:, [0, 1, 3]] == 0)

    def test_deterministic_in_seed(self):
        spec = _spec(sizes=((3, 3), (2, 4)), velocities=((0, 1), (1, 0)), colors=(0, 1), seed=5)
        v1, g1 = generate_synthetic(spec)
        v2, g2 = generate_synthetic(spec)
        assert np.array_equal(v1, v2)
        for a, b in zip(g1.tubes, g2.tubes):
            assert np.array_equal(a.masks, b.masks)

    def test_objects_never_overlap(self):
        spec = _spec(
            sizes=((4, 4), (4, 4), (4, 4)),
            velocities=((0, 1), (1, 0), (0, -1)),
            colors=(0, 1, 2),
            length=5,
            height=16,
            width=16,
            seed=11,
        )
        _, gt = generate_synthetic(spec)
        total = sum(t.masks for t in gt.tubes)
        assert total.max() <= 1.0

    def test_infeasible_motion_rejected(self):
        with pytest.raises(GenerationError):
            generate_synthetic(_spec(sizes=((3, 3),), velocities=((0, 10),), length=4))

    def test_overfull_layout_rejected(self):
        spec = _spec(
            sizes=((10, 10), (10, 10)),
            velocities=((0, 0), (0, 0)),
            colors=(0, 1),
            height=12,
            width=12,
        )
        with pytest.raises(GenerationError):
            generate_synthetic(spec)

    def test_channel_capacity_checked(self):
        with pytest.raises(ConfigError):
            _spec(colors=(5,), channels=4)


class TestOracleParams:
    def test_capacity_validation(self):
        cfg = ModelConfig(d=2)
        spec = demo_video_spec(ModelConfig())
        with pytest.raises(ConfigError):
            build_oracle_params(spec, cfg)
        with pytest.raises(ConfigError):
            build_oracle_params(demo_video_spec(ModelConfig(), n_objects=3), ModelConfig(n=2))

    def test_near_online_vpq_is_one(self):
        cfg = ModelConfig(l=4, h=16, w=16, seed=2)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        assert vpq(near_online_inference(video, params), gt) == 1.0

    def test_offline_vpq_is_one_without_blocks(self):
        cfg = ModelConfig(l=4, h=16, w=16, n_c=0, seed=3)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        assert vpq(offline_inference(video, params), gt) == 1.0

    def test_object_order_shuffle_keeps_vpq(self):
        cfg = ModelConfig(l=4, h=16, w=16, seed=4)
        spec = demo_video_spec(cfg)
        shuffled = SyntheticVideoSpec(
            sizes=spec.sizes[::-1],
            velocities=spec.velocities[::-1],
            colors=spec.colors[::-1],
            length=spec.length,
            height=spec.height,
            width=spec.width,
            channels=spec.channels,
            seed=spec.seed,
        )
        video, gt = generate_synthetic(shuffled)
        params = build_oracle_params(shuffled, cfg)
        assert vpq(near_online_inference(video, params), gt) == 1.0


class TestRandomParams:
    def test_pipeline_runs_and_is_deterministic(self):
        cfg = ModelConfig(l=4, h=8, w=8, d=4, n=3, n_w=1, n_c=1, seed=6)
        spec = demo_video_spec(cfg)
        video, _ = generate_synthetic(spec)
        params = random_pipeline_params(cfg)
        a = near_online_inference(video, params)
        b = near_online_inference(video, params)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.masks, tb.masks)
            ta.validate()


def _nbytes(value) -> int:
    """Bytes of every array reachable through dataclass fields and lists."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_nbytes(getattr(value, name)) for name in value.__dataclass_fields__)
    return 0


@pytest.mark.parametrize("cfg", [
    ModelConfig(),
    ModelConfig(n=5, c=6, d=6, n_w=2, n_c=3, k_sample=3, heads=2),
    ModelConfig(n=3, c=3, d=3, n_w=0, n_c=0, k_sample=1),
])
def test_param_bytes_is_the_bundle_size(cfg):
    spec = demo_video_spec(cfg, n_objects=min(3, cfg.d, cfg.n, cfg.c))
    need = next(n for stage, _, n, _, _ in _stages(cfg) if stage == "parameters")
    assert _nbytes(build_oracle_params(spec, cfg)) == need
    assert _nbytes(random_pipeline_params(cfg)) == need
