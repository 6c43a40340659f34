"""Policy/value network: shapes, gradients, and checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from polarkit.pdp import target_profile
from polarkit.zero.env import EnvState, reset_env
from polarkit.zero.net import CHECKPOINT_VERSION, Network, NetworkSpec, encode_state


def test_encode_state_shape_and_content(rng):
    state = reset_env(target_profile(4), seed=0)
    x = encode_state(state)
    assert x.shape == (NetworkSpec(4).input_dim,)
    assert set(np.unique(x)) <= {0.0, 1.0}
    # one-hot row indicator
    assert x[16:].sum() == 1.0
    assert x[16 + state.current_row] == 1.0
    # against a loop over every bit
    for ell in (2, 5, 12, 16):
        for _ in range(10):
            rows = tuple(int(r) for r in rng.integers(0, 1 << ell, size=ell))
            current = int(rng.integers(0, ell + 1))  # ell: every row placed
            state = EnvState(rows, current, 0, (1,) * ell, current == ell)
            board = [(row >> j) & 1 for row in rows for j in range(ell)]
            onehot = [int(i == current) for i in range(ell)]
            x = encode_state(state)
            assert x.dtype == np.float64
            assert x.tolist() == board + onehot


def test_predict_shapes():
    net = Network(NetworkSpec(4), seed=1)
    state = reset_env(target_profile(4), seed=0)
    logits, value = net.predict(state)
    assert logits.shape == (4,)
    assert np.isfinite(logits).all()
    assert -1.0 <= value <= 1.0  # tanh head


def test_gradients_match_finite_differences():
    spec = NetworkSpec(3, hidden=8)
    net = Network(spec, seed=7)
    rng = np.random.default_rng(3)
    x = rng.random((5, spec.input_dim))
    pol = rng.random((5, 3))
    pol /= pol.sum(axis=1, keepdims=True)
    z = rng.uniform(-1, 1, size=5)
    _, grads = net.loss_and_grads(x, pol, z)
    eps = 1e-6
    for name in ("w1", "b1", "w2", "b2", "wp", "bp", "wv", "bv"):
        param = net.params[name]
        flat_idx = [0, param.size - 1, param.size // 2]
        for i in flat_idx:
            orig = param.flat[i]
            param.flat[i] = orig + eps
            lp, _ = net.loss_and_grads(x, pol, z)
            param.flat[i] = orig - eps
            lm, _ = net.loss_and_grads(x, pol, z)
            param.flat[i] = orig
            numeric = (lp - lm) / (2 * eps)
            assert grads[name].flat[i] == pytest.approx(numeric, rel=1e-4, abs=1e-6), name


def test_sgd_step_reduces_loss():
    spec = NetworkSpec(4, hidden=16)
    net = Network(spec, seed=0)
    rng = np.random.default_rng(1)
    x = rng.random((32, spec.input_dim))
    pol = rng.random((32, 4))
    pol /= pol.sum(axis=1, keepdims=True)
    z = rng.uniform(-1, 1, size=32)
    first, _ = net.loss_and_grads(x, pol, z)
    for _ in range(200):
        _, grads = net.loss_and_grads(x, pol, z)
        net.sgd_step(grads, lr=0.05)
    last, _ = net.loss_and_grads(x, pol, z)
    assert last < first


def test_checkpoint_roundtrip(tmp_path):
    net = Network(NetworkSpec(5), seed=4)
    path = str(tmp_path / "net.npz")
    net.save(path)
    loaded = Network.load(path)
    state = reset_env(target_profile(5), seed=0)
    logits_a, value_a = net.predict(state)
    logits_b, value_b = loaded.predict(state)
    np.testing.assert_array_equal(logits_a, logits_b)
    assert value_a == value_b


def _save_params(path, net, version=CHECKPOINT_VERSION, **params):
    np.savez(path, version=version, ell=net.spec.ell, hidden=net.spec.hidden, **params)


def test_checkpoint_wrong_shape_rejected(tmp_path):
    net = Network(NetworkSpec(5), seed=4)
    path = str(tmp_path / "cut.npz")
    _save_params(path, net, **{**net.params, "wp": net.params["wp"][:, :3]})
    with pytest.raises(ValueError, match="'wp' has shape"):
        Network.load(path)


def test_checkpoint_missing_array_rejected(tmp_path):
    net = Network(NetworkSpec(5), seed=4)
    path = str(tmp_path / "short.npz")
    _save_params(path, net, **{k: v for k, v in net.params.items() if k != "bv"})
    with pytest.raises(ValueError, match="no 'bv' array"):
        Network.load(path)


def test_checkpoint_other_version_rejected(tmp_path):
    net = Network(NetworkSpec(5), seed=4)
    path = str(tmp_path / "old.npz")
    newer = CHECKPOINT_VERSION + 1
    _save_params(path, net, version=newer, **net.params)
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {newer}"):
        Network.load(path)
