"""The fixed-address epoch, end to end through the mask learners.

A compiled tape binds every numpy call of an epoch once, over arrays
that keep their addresses, and Adam updates its flat buffers in place.
A factual and a counterfactual Revelio, a TopKRevelio, a GNNExplainer
and FlowX's stage 2 run on mini BA-Shapes through the real
:func:`~repro.explain.mask_loop.learn_masks`.
Over replayed epochs 2, 3 and 4, every tape node's ``.data``, every
gradient buffer the bound backward writes and each parameter's ``.data``
must keep its data pointer. Every epoch's loss, parameter gradients and
Adam moments must equal, bit for bit, those of an eager rebuild: the same
``step()`` built anew each epoch, with no tape, from the same initial
parameters.
"""

import numpy as np
import pytest

import repro.core.optimize as optimize_module
import repro.explain.flowx as flowx_module
import repro.explain.gnnexplainer as gnnexplainer_module
from repro.autograd import Adam, Tape
from repro.core import Revelio, TopKRevelio
from repro.core.revelio import explanation_cache_disabled
from repro.explain import ExplainTarget, FlowX, GNNExplainer
from repro.explain.mask_loop import learn_masks

EPOCHS = 5


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def snapshot(loss, optimizer):
    return {"loss": bits(loss.data), "grads": [bits(p.grad) for p in optimizer.params],
            "m": bits(optimizer._m), "v": bits(optimizer._v)}


def eager_rebuild(params, step, initial, lr):
    """The loop with no tape: ``step()`` built anew every epoch."""
    for param, value in zip(params, initial):
        param.data = value.copy()
    optimizer = Adam(list(params), lr=lr)
    epochs = []
    for _ in range(EPOCHS):
        optimizer.zero_grad()
        loss = step()
        loss.backward()
        optimizer.step()
        epochs.append(snapshot(loss, optimizer))
    return epochs


@pytest.fixture
def checked_loops(monkeypatch):
    """Every ``learn_masks`` call, instrumented: ``(compiled, eager,
    addresses)`` per call, ``addresses`` one tuple per epoch."""
    runs = []

    def instrumented(params, step, *, epochs, lr, **kwargs):
        initial = [param.data.copy() for param in params]
        state, compiled, addresses = {}, [], []
        compile_, adam_step = Tape.compile, Adam.step

        def compile(tape, root, wanted):
            state.update(tape=tape, plan=compile_(tape, root, wanted), root=root)
            return state["plan"]

        def counted_step(optimizer):
            adam_step(optimizer)
            compiled.append(snapshot(state["root"], optimizer))
            addresses.append((
                tuple(node.data.ctypes.data for node in state["tape"].nodes),
                tuple(grad.ctypes.data for _, grad in state["plan"].grads),
                tuple(param.data.ctypes.data for param in optimizer.params)))

        with monkeypatch.context() as patch:
            patch.setattr(Tape, "compile", compile)
            patch.setattr(Adam, "step", counted_step)
            meta = learn_masks(params, step, epochs=epochs, lr=lr, **kwargs)
        state.clear()
        runs.append((compiled, eager_rebuild(params, step, initial, lr), addresses))
        return meta

    monkeypatch.setattr(optimize_module, "learn_masks", instrumented)
    monkeypatch.setattr(gnnexplainer_module, "learn_masks", instrumented)
    monkeypatch.setattr(flowx_module, "learn_masks", instrumented)
    return runs


@pytest.mark.parametrize("explainer, mode", [
    (lambda model: Revelio(model, epochs=EPOCHS), "factual"),
    (lambda model: Revelio(model, epochs=EPOCHS), "counterfactual"),
    (lambda model: TopKRevelio(model, k=8, epochs=EPOCHS), "factual"),
    (lambda model: GNNExplainer(model, epochs=EPOCHS), "factual"),
    (lambda model: FlowX(model, samples=1, finetune_epochs=EPOCHS), "counterfactual"),
], ids=["revelio-factual", "revelio-counterfactual", "topk", "gnnexplainer", "flowx"])
def test_replayed_epochs_keep_their_addresses_and_the_eager_bits(
        checked_loops, explainer, mode, node_model, mini_ba_shapes, good_motif_node):
    with explanation_cache_disabled():
        explainer(node_model).explain(mini_ba_shapes.graph, ExplainTarget.node(good_motif_node),
                                      mode=mode)
    assert len(checked_loops) == 1
    compiled, eager, addresses = checked_loops[0]
    assert len(compiled) == len(eager) == EPOCHS
    # Epoch 1 records and compiles before its backward; epochs 2, 3 and
    # 4 replay on the addresses it bound.
    assert addresses[0] == addresses[1] == addresses[2] == addresses[3]
    assert all(addresses[1])
    for mine, theirs in zip(compiled, eager):
        assert mine == theirs
