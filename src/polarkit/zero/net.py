"""Small numpy policy/value network with hand-rolled backprop.

Input is the flattened row-reversed board plus a one-hot current-row
indicator; two tanh layers feed a policy head (one logit per column) and
a scalar value head.  Plain SGD with momentum; gradients are exact and
are checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polarkit.zero.env import EnvState

CHECKPOINT_VERSION = 1
#: SGD momentum: the step is lr times a decaying sum of past gradients.
MOMENTUM = 0.9


@dataclass(frozen=True)
class NetworkSpec:
    ell: int
    hidden: int = 256

    @property
    def input_dim(self) -> int:
        return self.ell * self.ell + self.ell


def encode_state(state: EnvState) -> np.ndarray:
    """Bit j of rows[i] at index i * ell + j, then the current row one-hot
    (all zero once every row is placed)."""
    cols = np.arange(state.ell)
    board = (np.array(state.rows)[:, None] >> cols) & 1
    return np.concatenate([board.ravel(), cols == state.current_row], dtype=np.float64)


class Network:
    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        d, h, ell = spec.input_dim, spec.hidden, spec.ell

        def init(n_in: int, n_out: int) -> np.ndarray:
            return rng.standard_normal((n_in, n_out)) * np.sqrt(1.0 / n_in)

        self.params = {
            "w1": init(d, h), "b1": np.zeros(h),
            "w2": init(h, h), "b2": np.zeros(h),
            "wp": init(h, ell), "bp": np.zeros(ell),
            "wv": init(h, 1), "bv": np.zeros(1),
        }
        self.momentum_buf = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """x: (batch, input_dim) -> (h1, h2, policy logits (batch, ell), value (batch,))."""
        p = self.params
        h1 = np.tanh(x @ p["w1"] + p["b1"])
        h2 = np.tanh(h1 @ p["w2"] + p["b2"])
        return h1, h2, h2 @ p["wp"] + p["bp"], (h2 @ p["wv"] + p["bv"])[:, 0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x: (batch, input_dim) -> (policy logits (batch, ell), value (batch,))."""
        return self._layers(x)[2:]

    def predict(self, state: EnvState) -> tuple[np.ndarray, float]:
        logits, value = self.forward(encode_state(state)[None, :])
        return logits[0], float(value[0])

    def loss_and_grads(
        self, x: np.ndarray, policy_targets: np.ndarray, value_targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Cross-entropy on the policy head plus squared error on the
        value head, averaged over the batch."""
        p = self.params
        batch = x.shape[0]
        h1, h2, logits, value = self._layers(x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        z = exp.sum(axis=1, keepdims=True)
        ce = float(np.mean(np.log(z[:, 0]) - (shifted * policy_targets).sum(axis=1)))
        verr = value - value_targets
        loss = ce + float(np.mean(verr**2))

        soft = exp / z
        d_logits = (soft - policy_targets) / batch
        d_value = (2.0 * verr / batch)[:, None]
        grads = {
            "wp": h2.T @ d_logits, "bp": d_logits.sum(axis=0),
            "wv": h2.T @ d_value, "bv": d_value.sum(axis=0),
        }
        d_h2 = (d_logits @ p["wp"].T + d_value @ p["wv"].T) * (1 - h2**2)
        grads["w2"] = h1.T @ d_h2
        grads["b2"] = d_h2.sum(axis=0)
        d_h1 = (d_h2 @ p["w2"].T) * (1 - h1**2)
        grads["w1"] = x.T @ d_h1
        grads["b1"] = d_h1.sum(axis=0)
        return loss, grads

    def sgd_step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for k in self.params:
            self.momentum_buf[k] = MOMENTUM * self.momentum_buf[k] + grads[k]
            self.params[k] -= lr * self.momentum_buf[k]

    def save(self, path: str) -> None:
        np.savez(
            path,
            version=CHECKPOINT_VERSION,
            ell=self.spec.ell,
            hidden=self.spec.hidden,
            **self.params,
        )

    @classmethod
    def load(cls, path: str) -> "Network":
        """ValueError, naming the array, unless the checkpoint holds every
        parameter in the shape its spec builds."""
        with np.load(path) as npz:
            data = dict(npz)

        def array(key: str) -> np.ndarray:
            if key not in data:
                raise ValueError(f"checkpoint has no {key!r} array")
            return data[key]

        if (version := int(array("version"))) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        net = cls(NetworkSpec(int(array("ell")), int(array("hidden"))))
        for k, init in net.params.items():
            if (value := array(k)).shape != init.shape:
                raise ValueError(f"checkpoint {k!r} has shape {value.shape}, expected {init.shape}")
            net.params[k] = value
        return net
