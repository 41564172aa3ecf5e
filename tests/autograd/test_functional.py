"""Functional ops: softmax family, losses, segment softmax."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy, log_softmax, segment_softmax, softmax
from repro.autograd.functional import nll_loss
from repro.autograd.grad_check import check_gradients
from repro.errors import AutogradError, ShapeError


def t(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(t((4, 5))).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_large_logits_stable(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]]))).numpy()
        assert np.allclose(out, [[0.5, 0.5, 0.0]])

    def test_grad(self):
        a = t((3, 4))
        check_gradients(lambda: (softmax(a) ** 2).sum(), [a])

    def test_log_softmax_consistency(self):
        a = t((3, 4))
        assert np.allclose(log_softmax(a).numpy(), np.log(softmax(a).numpy()))

    def test_log_softmax_grad(self):
        a = t((2, 5))
        check_gradients(lambda: log_softmax(a).sum(), [a])

    def test_softmax_axis0(self):
        out = softmax(t((3, 4)), axis=0).numpy()
        assert np.allclose(out.sum(axis=0), 1.0)


class TestLosses:
    def test_nll_matches_manual(self):
        logp = log_softmax(t((4, 3)))
        labels = np.array([0, 2, 1, 1])
        expected = -logp.numpy()[np.arange(4), labels].mean()
        assert nll_loss(logp, labels).item() == pytest.approx(expected)

    def test_nll_reductions(self):
        logp = log_softmax(t((4, 3)))
        labels = np.array([0, 2, 1, 1])
        none = nll_loss(logp, labels, reduction="none")
        assert none.shape == (4,)
        assert nll_loss(logp, labels, reduction="sum").item() == pytest.approx(none.numpy().sum())

    def test_nll_bad_reduction(self):
        with pytest.raises(AutogradError):
            nll_loss(log_softmax(t((2, 2))), np.array([0, 1]), reduction="bogus")

    def test_nll_shape_error(self):
        with pytest.raises(ShapeError):
            nll_loss(Tensor(np.ones(3)), np.array([0]))

    def test_cross_entropy_grad(self):
        logits = t((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        check_gradients(lambda: cross_entropy(logits, labels), [logits])

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]), requires_grad=True)
        assert cross_entropy(logits, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-6)

class TestSegmentSoftmax:
    def test_segments_sum_to_one(self):
        scores = t((6,))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(scores, seg, 3).numpy()
        for s in range(3):
            assert out[seg == s].sum() == pytest.approx(1.0)

    def test_multihead_segments(self):
        scores = t((6, 4))
        seg = np.array([0, 0, 0, 1, 1, 2])
        out = segment_softmax(scores, seg, 3).numpy()
        assert np.allclose(out[seg == 0].sum(axis=0), 1.0)

    def test_grad(self):
        scores = t((5, 2))
        seg = np.array([0, 0, 1, 1, 1])
        check_gradients(lambda: (segment_softmax(scores, seg, 2) ** 2).sum(), [scores])

    def test_singleton_segment_is_one(self):
        scores = Tensor(np.array([5.0]))
        out = segment_softmax(scores, np.array([0]), 1).numpy()
        assert out[0] == pytest.approx(1.0)

    def test_empty_segment_tolerated(self):
        scores = Tensor(np.array([1.0, 2.0]))
        out = segment_softmax(scores, np.array([0, 0]), 3).numpy()
        assert np.isfinite(out).all()

    def test_extreme_logits_stable(self):
        scores = Tensor(np.array([800.0, -800.0, 800.0]))
        out = segment_softmax(scores, np.array([0, 0, 1]), 2).numpy()
        assert np.isfinite(out).all()
