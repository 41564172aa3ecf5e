"""``target_log_prob`` reads ``log P`` off the target's row alone.

The mask learners used to take ``log_softmax(logits)[row, class]`` over
every row of the logits. Log-softmax is row-wise, so the one-row form
must give the same value and the same gradient — of the logits and of
what produced them — byte for byte, signed zeros included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, log_softmax
from repro.explain.mask_loop import outcome_loss, target_log_prob


def run(form, values, row, class_idx, mode):
    h, w, b = (Tensor(v, requires_grad=True) for v in values)
    logits = (h @ w + b).retain_grad()
    log_p = form(logits, row, class_idx)
    outcome_loss(log_p, mode).backward()
    return [log_p.data, logits.grad, h.grad, w.grad, b.grad]


def full_rows(logits, row, class_idx):
    return log_softmax(logits, axis=-1)[row, class_idx]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), classes=st.integers(2, 33),
       width=st.sampled_from([1, 4, 32]), scale=st.sampled_from([0.1, 1.0, 30.0]),
       mode=st.sampled_from(["factual", "counterfactual"]), data=st.data())
def test_one_row_equals_the_full_width_form(seed, rows, classes, width, scale, mode, data):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=(rows, width)) * scale, rng.normal(size=(width, classes)),
              rng.normal(size=classes)]
    row = data.draw(st.integers(0, rows - 1))
    class_idx = data.draw(st.integers(0, classes - 1))
    mine = run(target_log_prob, values, row, class_idx, mode)
    theirs = run(full_rows, values, row, class_idx, mode)
    for a, b in zip(mine, theirs):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
