"""Generator, preprocessing, metric, and file-format tests."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from semgcn.posedata import (
    DEPTH_RANGE,
    FOCAL,
    DatasetError,
    PoseSample,
    centered_arrays,
    generate_synthetic,
    load_dataset,
    mpjpe,
    project,
    save_dataset,
    split_dataset,
)
from semgcn.skeleton import build_skeleton

SKELETON_HASH = ("2baeab24dc9d2d084e4f814e2d5f66c3"
                 "e54b35ba85ed561d00bfd64dbbfc988b")
# sha256 of the payload that save_dataset writes after the header line, by
# (n, seed, noise_sigma) of the draw: a change to the draw order, the
# kinematics or the float64 layout that moves any bit of the data shows
# here, whatever the header holds.
PAYLOAD_SHA256 = {
    (64, 11, 0.0):
        "226e8fb474a82cee215f453b0426b4a8483107574bc3f83bc2cf44df0a7cb925",
    (800, 3, 1.0):
        "406ab040b97288742b045cdbc9981e7d6170a53fbdeded401cd747903bfe0148",
    (50, 11, 2.0):
        "44055e60bd5a8aa72b0162a51952d376288937086a870ee5afd2e235d52aa847",
}


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
        for s in dataset.samples:
            expected = s.joints3d[:, :2] * (FOCAL / s.joints3d[:, 2:3])
            assert np.abs(s.joints2d - expected).max() < 1e-9

    def test_on_axis_point_projects_to_origin(self):
        out = project(np.array([[0.0, 0.0, 5000.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_behind_camera_rejected(self):
        with pytest.raises(DatasetError):
            project(np.array([[0.0, 0.0, -1.0]]))

    def test_noise_flag(self):
        clean = generate_synthetic(5, seed=3, noise_sigma=0.0)
        noisy = generate_synthetic(5, seed=3, noise_sigma=2.0)
        for c, n in zip(clean.samples, noisy.samples):
            assert np.array_equal(c.joints3d, n.joints3d)
            assert not np.array_equal(c.joints2d, n.joints2d)

    def test_depth_range_respected(self, dataset):
        for s in dataset.samples:
            pelvis_z = s.joints3d[0, 2]
            assert DEPTH_RANGE[0] <= pelvis_z <= DEPTH_RANGE[1]

    @pytest.mark.parametrize("n, seed, sigma", PAYLOAD_SHA256)
    def test_saved_payload_is_pinned(self, tmp_path, n, seed, sigma):
        path = tmp_path / "ds.poses"
        save_dataset(generate_synthetic(n, seed, noise_sigma=sigma), path)
        payload = path.read_bytes().partition(b"\n")[2]
        assert hashlib.sha256(payload).hexdigest() == \
            PAYLOAD_SHA256[n, seed, sigma]

    @pytest.mark.parametrize("n, seed, sigma", PAYLOAD_SHA256)
    def test_saved_header_is_exact(self, tmp_path, n, seed, sigma):
        path = tmp_path / "ds.poses"
        save_dataset(generate_synthetic(n, seed, noise_sigma=sigma), path)
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert header == {
            "version": 1, "count": n, "joints": 16, "split": "all",
            "skeleton_hash": SKELETON_HASH,
        }

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_rows_do_not_depend_on_n(self, sigma):
        short = generate_synthetic(7, seed=13, noise_sigma=sigma).arrays()
        long = generate_synthetic(40, seed=13, noise_sigma=sigma).arrays()
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:7])


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
        header, _, blob = path.read_bytes().partition(b"\n")
        # true and 1.0 equal 1 in Python, but the writer writes neither
        for written, shown in [(b"9", "9"), (b"true", "True"), (b"1.0", "1.0")]:
            patched = header.replace(b'"version": 1', b'"version": ' + written)
            path.write_bytes(patched + b"\n" + blob)
            with pytest.raises(DatasetError, match=f"format version {shown},"):
                load_dataset(path)

    @pytest.mark.parametrize("key", ["version", "count", "joints", "split",
                                     "skeleton_hash"])
    def test_header_without_key_rejected(self, dataset, tmp_path, key):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        del header[key]
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DatasetError, match=f"lacks.*{key}"):
            load_dataset(path)

    # camera, seed and noise_sigma are the keys the header once held
    @pytest.mark.parametrize("key", ["camera", "seed", "noise_sigma",
                                     "comment"])
    def test_header_with_extra_key_rejected(self, dataset, tmp_path, key):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header[key] = 0
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DatasetError, match=f"unknown keys.*'{key}'"):
            load_dataset(path)

    @pytest.mark.parametrize("count, joints, named", [
        (32, 8, "8 joints"), (0, 16, "0 samples")])
    def test_wrong_shape_rejected(self, dataset, tmp_path, count, joints,
                                  named):
        # the payload is cut to match the header, so only the shape is wrong
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header.update(count=count, joints=joints)
        blob = blob[:count * joints * 5 * 8]
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DatasetError, match=named):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("count", "32"), ("count", 32.0), ("count", None),
        ("joints", True), ("joints", "16"),
    ])
    def test_header_number_of_wrong_type_rejected(self, dataset, tmp_path,
                                                  key, value):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header[key] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DatasetError, match=f"'{key}'.*not an integer"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("split", 0), ("split", None), ("split", ["train"]),
        ("skeleton_hash", 5), ("skeleton_hash", None), ("skeleton_hash", True),
        ("skeleton_hash", {"sha256": "ab"}),
    ])
    def test_header_string_of_wrong_type_rejected(self, dataset, tmp_path,
                                                  key, value):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header[key] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DatasetError, match=f"'{key}'.*not a string"):
            load_dataset(path)

    def test_loaded_rows_are_read_only(self, dataset, tmp_path):
        path = tmp_path / "ds.poses"
        save_dataset(dataset, path)
        sample = load_dataset(path).samples[3]
        for rows in (sample.joints3d, sample.joints2d):
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_truncated_payload_rejected(self, dataset, tmp_path):
        path = tmp_path / "trunc.poses"
        save_dataset(dataset, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DatasetError, match="truncated"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, dataset, tmp_path):
        path = tmp_path / "long.poses"
        save_dataset(dataset, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DatasetError, match="8 trailing bytes"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, dataset, tmp_path, value):
        path = tmp_path / "bad.poses"
        save_dataset(dataset, path)
        header, _, blob = path.read_bytes().partition(b"\n")
        i = (7 * 16 + 3) * 5 + 4  # v of joint 3 of sample 7
        path.write_bytes(header + b"\n" + blob[:8 * i]
                         + np.array(value, "<f8").tobytes() + blob[8 * i + 8:])
        with pytest.raises(DatasetError,
                           match=f"non-finite value {value} at payload index "
                                 f"{i}$"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_not_written(self, dataset, tmp_path, value):
        j3, j2 = dataset.arrays()
        j2 = j2.copy()
        j2[7, 3, 1] = value
        path = tmp_path / "bad.poses"
        with pytest.raises(ValueError, match="non-finite"):
            save_dataset(with_arrays(dataset, j3, j2), path)
        assert not path.exists()

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
