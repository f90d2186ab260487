"""Edge-weight export: stochastic rows on the adjacency support, the
joint average, and the JSON and CSV reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from semgcn.analysis import (
    AnalysisError,
    average_joint_weight,
    export_weights,
    joint_weight_csv,
    report_to_json,
    uniform_deviation,
)
from semgcn.layers import SemGConv
from semgcn.network import NetworkConfig, build_network
from semgcn.skeleton import adjacency, build_skeleton


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


def semgconv_layers(net):
    return [(name, layer) for name, layer in net.named_layers()
            if isinstance(layer, SemGConv)]


def perturbed_net(skel, seed=0):
    net = build_network(NetworkConfig(variant="semgcn", channels=4, blocks=2),
                        skel)
    rng = np.random.default_rng(seed)
    for _, conv in semgconv_layers(net):
        conv.mask.data = 2.0 * rng.standard_normal(conv.mask.shape)
    return net


class TestExport:
    def test_rows_stochastic_and_zero_off_adjacency(self, skel):
        report = export_weights(perturbed_net(skel))
        off = adjacency(skel) == 0.0
        assert len(report.matrices) == 6
        for s in report.matrices:
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            assert np.all(s[off] == 0.0)
            assert np.all(s[~off] > 0.0)

    def test_matrices_come_from_the_layers(self, skel):
        net = perturbed_net(skel)
        report = export_weights(net)
        layers = semgconv_layers(net)
        assert report.layer_labels == [label for label, _ in layers]
        assert report.layer_labels == [
            "input.conv", "blocks.0.conv1", "blocks.0.conv2",
            "blocks.1.conv1", "blocks.1.conv2", "output.conv"]
        assert report.block_layer_indices == [1, 2, 3, 4]
        for matrix, (_, conv) in zip(report.matrices, layers):
            np.testing.assert_array_equal(matrix, conv.edge_weights())

    def test_reports_round_trip(self, skel):
        report = export_weights(perturbed_net(skel))
        payload = json.loads(report_to_json(report))
        assert payload["joint_names"] == list(skel.joints)
        assert [layer["label"] for layer in payload["layers"]] == \
            report.layer_labels
        largest, mean = uniform_deviation(report)
        for layer, matrix, dev_max, dev_mean in zip(
                payload["layers"], report.matrices, largest, mean):
            np.testing.assert_array_equal(np.array(layer["weights"]), matrix)
            assert layer["max_deviation_from_uniform"] == dev_max
            assert layer["mean_deviation_from_uniform"] == dev_mean
        np.testing.assert_array_equal(payload["average_joint_weight"],
                                      average_joint_weight(report))
        lines = joint_weight_csv(report).splitlines()
        assert len(lines) == skel.num_joints + 1
        assert lines[0] == "joint,average_weight"
        assert [line.split(",")[0] for line in lines[1:]] == list(skel.joints)


def test_resgcn_has_no_masks_to_export(skel):
    net = build_network(NetworkConfig(variant="resgcn", channels=4, blocks=1),
                        skel)
    with pytest.raises(AnalysisError):
        export_weights(net)


def test_average_joint_weight_at_zero_logits(skel):
    # Zero logits give every receiving joint i the weight 1/deg(i) for each
    # neighbor, deg counting the self-loop (pelvis 4, spine 5, a hip,
    # knee, neck, shoulder or elbow 3, an ankle, head or wrist 2); joint j
    # averages 1/deg(i) over its neighbors i.
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    pelvis = (third + third + fifth) / 3
    hip = (Fraction(1, 4) + third) / 2
    knee = (third + Fraction(1, 2)) / 2
    spine = (Fraction(1, 4) + 3 * third) / 4
    neck = (fifth + Fraction(1, 2)) / 2
    shoulder = (fifth + third) / 2
    expected = [pelvis, hip, knee, third, hip, knee, third, spine, neck,
                third, shoulder, knee, third, shoulder, knee, third]
    net = build_network(NetworkConfig(variant="semgcn-conv-only", channels=4,
                                      blocks=2), skel)
    report = export_weights(net)
    np.testing.assert_allclose(average_joint_weight(report),
                               [float(v) for v in expected], rtol=1e-14)
    with_self = average_joint_weight(report, include_self=True)
    np.testing.assert_allclose(with_self[0],
                               float((3 * pelvis + Fraction(1, 4)) / 4),
                               rtol=1e-14)


def test_uniform_deviation_of_a_fresh_network_is_zero(skel):
    report = export_weights(build_network(
        NetworkConfig(variant="semgcn", channels=4, blocks=2), skel))
    largest, mean = uniform_deviation(report)
    assert largest.tolist() == mean.tolist() == [0.0] * 6


def test_uniform_deviation_hand_value(skel):
    # The pelvis (joint 0) has degree 4 with its self-loop.  A logit of
    # log 3 on its edge to joint 1 gives that edge 3/6 and the pelvis's
    # other entries 1/6 each, against 1/4 uniform: deviations 1/4 and
    # twice 1/12 on its off-diagonal edges, 0 on the other rows.  The
    # skeleton's 15 bones are 30 off-diagonal entries.
    net = build_network(NetworkConfig(variant="semgcn-conv-only", channels=4,
                                      blocks=1), skel)
    conv = net.blocks[0].conv1
    assert adjacency(skel)[0].sum() == 4 and adjacency(skel)[0, 1] == 1
    conv.mask.data[0, 1] = np.log(3.0)
    largest, mean = uniform_deviation(export_weights(net))
    np.testing.assert_allclose(largest, [0, 0.25, 0, 0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(mean, [0, (0.25 + 2 / 12) / 30, 0, 0],
                               rtol=1e-14, atol=0)
