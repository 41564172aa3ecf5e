"""Module / Parameter mechanics: discovery, state dicts, freeze, modes."""

import numpy as np
import pytest

from repro.autograd import MLP, Linear, Module, Parameter, Tensor
from repro.errors import AutogradError, ModelError


class Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=0)
        self.fc2 = Linear(8, 2, rng=1)
        self.blocks = [Linear(2, 2, rng=2), Linear(2, 2, rng=3)]
        self.scale = Parameter(np.ones(1), name="scale")

    def forward(self, x):
        h = self.fc1(x).relu()
        h = self.fc2(h)
        for b in self.blocks:
            h = b(h)
        return h * self.scale


class TestDiscovery:
    def test_parameters_found_recursively(self):
        net = Net()
        # fc1 (w+b), fc2 (w+b), 2 blocks (w+b each), scale = 9
        assert len(net.parameters()) == 9

    def test_named_parameters_dotted(self):
        names = {n for n, _ in Net().named_parameters()}
        assert "fc1.weight" in names
        assert "blocks.0.weight" in names
        assert "scale" in names

    def test_modules_iteration(self):
        net = Net()
        kinds = [type(m).__name__ for m in net.modules()]
        assert kinds.count("Linear") == 4

    def test_list_nested_params(self):
        net = Net()
        assert any(n.startswith("blocks.1") for n, _ in net.named_parameters())


class TestState:
    def test_state_dict_roundtrip(self):
        net1, net2 = Net(), Net()
        x = np.random.default_rng(0).normal(size=(3, 4))
        net2.load_state_dict(net1.state_dict())
        assert np.allclose(net1(Tensor(x)).numpy(), net2(Tensor(x)).numpy())

    def test_state_dict_copies(self):
        net = Net()
        state = net.state_dict()
        state["scale"][0] = 99.0
        assert net.scale.numpy()[0] == 1.0

    def test_load_missing_key_raises(self):
        net = Net()
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(ModelError):
            net.load_state_dict(state)

    def test_load_unexpected_key_raises(self):
        net = Net()
        state = net.state_dict()
        state["bogus"] = np.ones(1)
        with pytest.raises(ModelError):
            net.load_state_dict(state)

    def test_load_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ModelError):
            net.load_state_dict(state)


class TestModes:
    def test_train_eval_propagate(self):
        net = Net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_freeze_unfreeze(self):
        net = Net()
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())
        net.unfreeze()
        assert all(p.requires_grad for p in net.parameters())

    def test_frozen_net_builds_no_tape(self):
        net = Net().freeze()
        out = net(Tensor(np.ones((2, 4))))
        assert not out.requires_grad

    def test_zero_grad_clears(self):
        net = Net()
        net(Tensor(np.ones((2, 4)))).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLayers:
    def test_linear_shapes(self):
        lin = Linear(3, 5, rng=0)
        assert lin(Tensor(np.ones((7, 3)))).shape == (7, 5)

    def test_linear_no_bias(self):
        lin = Linear(3, 5, bias=False, rng=0)
        assert lin.bias is None
        assert lin(Tensor(np.zeros((2, 3)))).numpy().sum() == 0.0

    def test_mlp_depth(self):
        mlp = MLP([4, 8, 8, 2], rng=0)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_mlp_needs_two_dims(self):
        with pytest.raises(AutogradError):
            MLP([4])

    def test_mlp_final_activation(self):
        from repro.autograd import Sigmoid

        mlp = MLP([2, 2], rng=0, final_activation=Sigmoid())
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(5, 2)))).numpy()
        assert ((out > 0) & (out < 1)).all()

