"""The benchmark's workloads: set-up, one timed operation, and output checks.

Every workload calls polarkit only through its public functions, looked up
through the module at call time so that trace probes see them.  Inputs come
from the benchmark seed alone: operation ``j`` of repetition ``rep`` has an
input derived from ``(seed, rep, j)``.  Operation 0 of repetition 0 is the
golden operation instead: its input is fixed (``GOLDEN_SEED``) whatever the
seed, and its output must match the digest in ``digests.json``.  Seeded
inputs never overlap the golden one, so no repetition hits a cache on a
repeated input.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from polarkit import codec, complexity, pdp, reference, search
from polarkit.zero import env, mcts, net, train

GOLDEN_SEED = 1

#: Pinned totals every set-up checks: (kernel, reuse policy, total).
PINNED_TOTALS = [
    ("BEST12", complexity.ReuseMode.ALL_CONTIGUOUS, 1264),
    ("BEST16", complexity.ReuseMode.ALL_CONTIGUOUS, 2300),
    ("BEST12", complexity.ReuseMode.NONE, 1354),
    ("BEST16", complexity.ReuseMode.NONE, 2434),
]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def check_pinned_totals() -> list[str]:
    problems = []
    for name, policy, want in PINNED_TOTALS:
        got = complexity.total_complexity(getattr(reference, name), policy).total
        if got != want:
            problems.append(f"pinned total {name}/{policy.value}: {got} != {want}")
    return problems


class RandomL12:
    """``search.random_agent_search`` at ell=12, ``TRIALS`` trials per
    operation; each trial draws its own stream from (seed, trial index)."""

    unit = "trials"
    op_seconds = 0.1  # nominal; sizes the fixed operation count of a traced run
    TRIALS = 10

    def setup(self) -> None:
        self.target = pdp.target_profile(12)
        # keep every kernel the search builds, for the profile check
        self.kernels: list = []
        built = search.random_trial

        def keep(*args, **kwargs):
            kernel = built(*args, **kwargs)
            self.kernels.append(kernel)
            return kernel

        search.random_trial = keep

    def run(self, seed: int, rep: int, j: int):
        self.kernels.clear()
        if rep == j == 0:
            return search.random_agent_search(12, self.target, self.TRIALS, GOLDEN_SEED)
        offset = (1 + rep * 10**5 + j) * self.TRIALS
        return search.random_agent_search(12, self.target, self.TRIALS, seed, trial_offset=offset)

    def work(self, out) -> int:
        return out.iterations

    def check(self, out) -> list[str]:
        feasible = [k for k in self.kernels if k is not None]
        problems = []
        if len(self.kernels) != out.iterations:
            problems.append(f"{len(self.kernels)} trials built, {out.iterations} reported")
        if len(feasible) != out.feasible_count or sum(out.histogram.values()) != out.feasible_count:
            problems.append("feasible count disagrees with the kernels built or the histogram")
        for k in feasible:
            if pdp.compute_pdp(k).distances != self.target.distances:
                problems.append(f"kernel {k.rows} misses the target profile")
        return problems

    def output(self, out):
        return out.to_json_dict()

    def tally(self, out) -> dict[str, int]:
        return {"trials": out.iterations, "feasible": out.feasible_count}


class Bler256:
    """One (256,128) code of ``scripts/run_bler_curves.sh`` at reduced scale:
    the frozen set is chosen in set-up from ``SELECT_TRIALS`` genie-aided
    codewords (fixed seed, so the code is the same in every run), and each
    operation simulates one 256-codeword batch at ``SNR_DB``."""

    unit = "codewords"
    SELECT_TRIALS = 512
    BATCH = 256
    SNR_DB = 2.5

    def __init__(self, kernel: str, m: int, select_snr_db: float, op_seconds: float):
        self.kernel = getattr(reference, kernel)
        self.op_seconds = op_seconds
        self.m = m
        self.select_snr_db = select_snr_db

    def setup(self) -> None:
        ell = self.kernel.ncols
        codec.build_link_tables(self.kernel)
        frozen = codec.select_frozen_set(
            ell, self.m, 128, self.kernel, self.select_snr_db, self.SELECT_TRIALS, GOLDEN_SEED
        )
        self.spec = codec.PolarCodeSpec(ell, self.m, 128, self.kernel, frozen)
        self.frozen_digest = digest(sorted(frozen))

    def run(self, seed: int, rep: int, j: int):
        op_seed = GOLDEN_SEED if rep == j == 0 else seed * 10**9 + (1 + rep) * 10**5 + j
        return codec.simulate_bler(self.spec, [self.SNR_DB], self.BATCH, op_seed)

    def work(self, out) -> int:
        return sum(r.trials for r in out)

    def check(self, out) -> list[str]:
        if [r.trials for r in out] != [self.BATCH] or not 0 <= out[0].block_errors <= self.BATCH:
            return [f"bad BLER result {out}"]
        return []

    def final_check(self) -> list[str]:
        """Noiseless round trip: SC decoding must return every message."""
        n = self.spec.n
        info = sorted(set(range(n)) - self.spec.frozen)
        u = np.zeros((8, n), dtype=np.uint8)
        u[:, info] = np.random.default_rng(GOLDEN_SEED).integers(0, 2, (8, len(info)), dtype=np.uint8)
        llrs = 20.0 * (1.0 - 2.0 * codec.encode(self.spec, u).astype(np.float64))
        decoded, _ = codec.sc_decode_batch(self.spec, llrs)
        return [] if np.array_equal(decoded, u) else ["noiseless SC round trip failed"]

    def output(self, out):
        return {"frozen": self.frozen_digest, "errors": [[r.snr_db, r.trials, r.block_errors] for r in out]}

    def tally(self, out) -> dict[str, int]:
        return {}


class SelfPlayL12:
    """``zero.train.self_play_episode`` at ell=12 with ``MctsConfig()``
    defaults and ``default_reward_config(12)``.  The untrained network is
    fixed (weights from seed 0); the episode's generator comes from the
    benchmark seed."""

    unit = "env_steps"
    op_seconds = 7.0  # nominal; sizes the fixed operation count of a traced run
    STEPS_PER_SAMPLE = 25  # ~0.15 s

    def setup(self) -> None:
        self.network = net.Network(net.NetworkSpec(12), seed=0)
        self.reward_cfg = env.default_reward_config(12)
        self.mcts_cfg = mcts.MctsConfig()
        # a reference sample every STEPS_PER_SAMPLE steps of an episode
        select = train.mcts_select

        def sampled(*args, **kwargs):
            if self.steps and self.steps % self.STEPS_PER_SAMPLE == 0:
                self.clock.sample(self.STEPS_PER_SAMPLE)
            self.steps += 1
            return select(*args, **kwargs)

        train.mcts_select = sampled

    def run(self, seed: int, rep: int, j: int):
        self.steps = 0
        key = [GOLDEN_SEED, 0] if rep == j == 0 else [seed, 1 + rep, j]
        rng = np.random.default_rng(key)
        return train.self_play_episode(self.network, self.reward_cfg, self.mcts_cfg, rng, 12)

    def work(self, out) -> int:
        return len(out.transitions)

    def check(self, out) -> list[str]:
        """Replay the transcript through ``step_env``: every state, action
        and reward must follow, within the game limit."""
        trans = out.transitions
        if not trans or len(trans) > self.reward_cfg.game_limit:
            return [f"episode length {len(trans)}"]
        state = trans[0].state
        for t in trans:
            if t.state != state or t.action not in env.legal_actions(state):
                return [f"transcript breaks at step {state.steps}"]
            state, reward, _ = env.step_env(state, t.action, self.reward_cfg)
            if reward != t.reward:
                return [f"reward mismatch at step {state.steps}"]
        if state != out.final_state or not state.done:
            return ["final state does not follow from the transcript"]
        if out.succeeded and not pdp.meets_target(state.kernel(), pdp.target_profile(12)):
            return ["completed kernel misses the target profile"]
        return []

    def output(self, out):
        return {
            "actions": [t.action for t in out.transitions],
            "rewards": [repr(t.reward) for t in out.transitions],
            "return": repr(env.episode_return(list(out.transitions))),
            "succeeded": out.succeeded,
        }

    def tally(self, out) -> dict[str, int]:
        return {"episodes": 1, "succeeded": int(out.succeeded)}


WORKLOADS = {
    "random-l12": lambda: RandomL12(),
    "bler-256.l16m2": lambda: Bler256("BEST16", 2, 2.0, 0.32),
    "bler-256.l2m8": lambda: Bler256("ARIKAN", 8, 3.0, 0.1),
    "selfplay-l12": lambda: SelfPlayL12(),
}
