"""Generator, preprocessing, metric, and file-format tests."""

import dataclasses

import numpy as np
import pytest

from semgcn.posedata import (
    CameraConfig,
    DatasetError,
    PoseSample,
    calibrate_scale,
    centered_arrays,
    generate_synthetic,
    load_dataset,
    mpjpe,
    project,
    save_dataset,
    split_dataset,
    total_bone_length,
)
from semgcn.skeleton import build_skeleton, skeleton_hash


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


@pytest.fixture(scope="module")
def dataset(skel):
    return generate_synthetic(64, seed=11)


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(20, seed=5)
        b = generate_synthetic(20, seed=5)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.joints3d, sb.joints3d)
            assert np.array_equal(sa.joints2d, sb.joints2d)

    def test_different_seeds_differ(self):
        a = generate_synthetic(5, seed=1)
        b = generate_synthetic(5, seed=2)
        assert not np.array_equal(a.samples[0].joints3d, b.samples[0].joints3d)

    def test_bone_lengths_are_canonical(self, skel, dataset):
        target = np.array(skel.canonical_bone_lengths)
        parents = [p for p, _ in skel.edges]
        children = [c for _, c in skel.edges]
        for s in dataset.samples:
            seg = s.joints3d[parents] - s.joints3d[children]
            np.testing.assert_allclose(np.linalg.norm(seg, axis=1), target,
                                       atol=1e-6)

    def test_reprojection_is_exact(self, dataset):
        focal = dataset.camera.focal
        for s in dataset.samples:
            expected = s.joints3d[:, :2] * (focal / s.joints3d[:, 2:3])
            assert np.abs(s.joints2d - expected).max() < 1e-9

    def test_on_axis_point_projects_to_origin(self):
        out = project(np.array([[0.0, 0.0, 5000.0]]), focal=1000.0)
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_behind_camera_rejected(self):
        with pytest.raises(DatasetError):
            project(np.array([[0.0, 0.0, -1.0]]), focal=1000.0)

    def test_noise_flag(self):
        clean = generate_synthetic(5, seed=3, noise_sigma=0.0)
        noisy = generate_synthetic(5, seed=3, noise_sigma=2.0)
        for c, n in zip(clean.samples, noisy.samples):
            assert np.array_equal(c.joints3d, n.joints3d)
            assert not np.array_equal(c.joints2d, n.joints2d)

    def test_depth_range_respected(self, dataset):
        cam = dataset.camera
        for s in dataset.samples:
            pelvis_z = s.joints3d[0, 2]
            assert cam.depth_min <= pelvis_z <= cam.depth_max


def with_arrays(ds, j3, j2):
    """``ds`` with its samples replaced by the rows of ``j3`` and ``j2``."""
    return dataclasses.replace(ds, samples=[
        PoseSample(joints3d=a, joints2d=b) for a, b in zip(j3, j2)])


class TestCenterRoot:
    """Root-centering of every sample by ``centered_arrays``."""

    def test_root_maps_to_origin(self, dataset):
        for root in (0, 5):
            p2d, j3d = centered_arrays(dataset, root=root)
            np.testing.assert_array_equal(p2d[:, root], 0.0)
            np.testing.assert_array_equal(j3d[:, root], 0.0)

    def test_pairwise_differences_preserved(self, dataset):
        j3, j2 = dataset.arrays()
        p2d, j3d = centered_arrays(dataset)
        np.testing.assert_allclose(j3d[:, 3] - j3d[:, 7], j3[:, 3] - j3[:, 7],
                                   atol=1e-12)
        np.testing.assert_allclose(p2d[:, 3] - p2d[:, 7], j2[:, 3] - j2[:, 7],
                                   atol=1e-12)

    def test_idempotent(self, dataset):
        p2d, j3d = centered_arrays(dataset)
        p2d2, j3d2 = centered_arrays(with_arrays(dataset, j3d, p2d))
        np.testing.assert_array_equal(p2d, p2d2)
        np.testing.assert_array_equal(j3d, j3d2)

    def test_commutes_with_uniform_scaling(self, dataset):
        j3, j2 = dataset.arrays()
        p2d_a, j3d_a = centered_arrays(with_arrays(dataset, j3 * 2.0, j2 * 2.0))
        p2d_b, j3d_b = centered_arrays(dataset)
        np.testing.assert_allclose(j3d_a, 2.0 * j3d_b, atol=1e-9)
        np.testing.assert_allclose(p2d_a, 2.0 * p2d_b, atol=1e-9)


class TestCalibrateScale:
    def test_ratio(self, skel):
        pose = generate_synthetic(1, seed=4).samples[0].joints3d
        half = pose * 0.5  # halve all lengths: calibration must double back
        out = calibrate_scale(half, skel)
        np.testing.assert_allclose(total_bone_length(out, skel),
                                   sum(skel.canonical_bone_lengths), rtol=1e-12)
        np.testing.assert_allclose(out, half * 2.0, rtol=1e-12)

    def test_identity_when_already_calibrated(self, skel):
        pose = generate_synthetic(1, seed=5).samples[0].joints3d
        out = calibrate_scale(pose.copy(), skel)
        np.testing.assert_allclose(out, pose, rtol=1e-12)

    def test_idempotent(self, skel):
        pose = generate_synthetic(1, seed=6).samples[0].joints3d * 3.7
        once = calibrate_scale(pose, skel)
        twice = calibrate_scale(once, skel)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_preserves_ratios_exactly(self, skel):
        pose = generate_synthetic(1, seed=7).samples[0].joints3d * 0.3
        out = calibrate_scale(pose, skel)
        parents = [p for p, _ in skel.edges]
        children = [c for _, c in skel.edges]
        before = np.linalg.norm(pose[parents] - pose[children], axis=1)
        after = np.linalg.norm(out[parents] - out[children], axis=1)
        np.testing.assert_allclose(after / after.sum(), before / before.sum(),
                                   rtol=1e-12)

    def test_degenerate_prediction(self, skel):
        with pytest.raises(DatasetError, match="degenerate"):
            calibrate_scale(np.zeros((16, 3)), skel)


class TestMpjpe:
    def test_zero_for_identical(self):
        x = np.random.default_rng(0).standard_normal((4, 16, 3))
        assert mpjpe(x, x) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 16, 3))
        shift = rng.standard_normal(3) * 100
        assert abs(mpjpe(x + shift, x)) < 1e-9

    def test_hand_value_single_displacement(self):
        gt = np.zeros((1, 16, 3))
        pred = gt.copy()
        pred[0, 5, 0] = 5.0  # one joint, 5 mm
        assert abs(mpjpe(pred, gt) - 5.0 / 16.0) < 1e-12

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 16, 3))
        b = rng.standard_normal((3, 16, 3))
        assert mpjpe(a, b) == pytest.approx(mpjpe(b, a), rel=1e-12)
        assert mpjpe(a, b) > 0

    def test_shape_mismatch(self):
        with pytest.raises(DatasetError):
            mpjpe(np.zeros((2, 16, 3)), np.zeros((3, 16, 3)))


class TestFileFormat:
    def test_round_trip_bitwise(self, dataset, tmp_path):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.split == dataset.split
        assert loaded.skeleton_hash == dataset.skeleton_hash
        assert loaded.seed == dataset.seed
        for a, b in zip(dataset.samples, loaded.samples):
            assert np.array_equal(a.joints3d, b.joints3d)
            assert np.array_equal(a.joints2d, b.joints2d)

    def test_save_load_save_identical_bytes(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.poses", tmp_path / "b.poses"
        save_dataset(dataset, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_header_is_version_error(self, tmp_path):
        path = tmp_path / "bad.poses"
        path.write_bytes(b"\x00\x01 not json\n" + b"\x00" * 64)
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_wrong_version_rejected(self, dataset, tmp_path):
        path = tmp_path / "v9.poses"
        save_dataset(dataset, path)
        raw = path.read_bytes()
        header, _, blob = raw.partition(b"\n")
        patched = header.replace(b'"version": 1', b'"version": 9')
        path.write_bytes(patched + b"\n" + blob)
        with pytest.raises(DatasetError, match="version"):
            load_dataset(path)

    def test_truncated_payload_rejected(self, dataset, tmp_path):
        path = tmp_path / "trunc.poses"
        save_dataset(dataset, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DatasetError, match="truncated"):
            load_dataset(path)

    def test_empty_dataset_rejected(self, dataset, tmp_path):
        empty = dataclasses.replace(dataset, samples=[])
        with pytest.raises(DatasetError):
            save_dataset(empty, tmp_path / "empty.poses")


class TestSplits:
    def test_disjoint_and_exhaustive(self):
        ds = generate_synthetic(50, seed=8)
        train, val, test = split_dataset(ds)
        assert len(train) == 40 and len(val) == 5 and len(test) == 5
        all_ids = [id(s) for part in (train, val, test) for s in part.samples]
        assert len(set(all_ids)) == 50

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            split_dataset(generate_synthetic(5, seed=9))

    def test_centered_arrays_shapes(self, skel):
        ds = generate_synthetic(12, seed=10)
        x, y = centered_arrays(ds)
        assert x.shape == (12, 16, 2) and y.shape == (12, 16, 3)
        np.testing.assert_array_equal(x[:, 0, :], 0.0)
        np.testing.assert_array_equal(y[:, 0, :], 0.0)
