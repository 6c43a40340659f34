"""Encoder/decoder: Kronecker and exhaustive oracles, linearity,
inversion, and Monte-Carlo sanity of the AWGN harness."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from functools import cache

import numpy as np
import pytest

from polarkit import codec
from polarkit.codec import (
    PolarCodeSpec,
    _batch_sizes,
    _sc_decode_rec,
    bler_csv,
    build_link_tables,
    encode,
    noise_sigma,
    phase_llrs_trellis,
    sc_decode_batch,
    select_frozen_set,
    simulate_bler,
)
from polarkit.complexity import ReuseMode, SectionTable, section_trees, total_complexity
from polarkit.gf2 import BitMatrix
from polarkit.pdp import SingularKernelError
from polarkit.reference import ARIKAN, BEST12, BEST16
from tests import conftest
from tests.conftest import (
    naive_kronecker_power,
    random_kernel,
    stateless_sc_decode,
    trellis_oracle_cases,
    trellis_phase_metric,
)


def _spec(ell, m, kernel, k=None):
    n = ell**m
    k = n if k is None else k
    frozen = frozenset(range(n - k))
    return PolarCodeSpec(ell, m, k, kernel, frozen)


def test_encode_matches_kronecker_oracle(rng):
    """The butterfly encoder equals u times the dense Kronecker power, on
    single messages and batches."""
    np.testing.assert_array_equal(
        naive_kronecker_power(ARIKAN, 2),
        [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]],
    )
    cases = [(2, m) for m in range(1, 9)] + [(3, 3), (4, 3), (16, 2)]
    for ell, m in cases:
        kernel = random_kernel(ell, rng)
        spec = _spec(ell, m, kernel)
        g = naive_kronecker_power(kernel, m)
        u = rng.integers(0, 2, size=(5, spec.n)).astype(np.uint8)
        want = (u.astype(np.int64) @ g) % 2
        got = encode(spec, u)
        assert got.dtype == np.uint8 and got.shape == u.shape
        np.testing.assert_array_equal(got, want)
        single = encode(spec, u[0])
        assert single.dtype == np.uint8 and single.shape == (spec.n,)
        np.testing.assert_array_equal(single, want[0])


def test_encode_memory_is_linear_in_n():
    """Encoding one n=4096 message allocates no n x n generator matrix
    (16.8 MB as uint8)."""
    spec = _spec(2, 12, ARIKAN)
    u = np.ones(spec.n, dtype=np.uint8)
    tracemalloc.start()
    try:
        encode(spec, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_encode_linearity(rng):
    spec = _spec(2, 4, ARIKAN)
    u1 = rng.integers(0, 2, size=16).astype(np.uint8)
    u2 = rng.integers(0, 2, size=16).astype(np.uint8)
    np.testing.assert_array_equal(
        encode(spec, u1 ^ u2), encode(spec, u1) ^ encode(spec, u2)
    )


def test_encode_rejects_frozen_violation():
    spec = _spec(2, 2, ARIKAN, k=2)
    u = np.array([1, 0, 0, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        encode(spec, u)


def test_encode_and_decode_reject_other_lengths():
    spec = _spec(2, 2, ARIKAN)
    for length in (3, 5):
        with pytest.raises(ValueError, match="message length must be n"):
            encode(spec, np.zeros(length, dtype=np.uint8))
        with pytest.raises(ValueError, match="LLR length must be n"):
            sc_decode_batch(spec, np.ones((2, length)))


@pytest.mark.parametrize("kernel, m", [(BEST16, 2), (ARIKAN, 8)], ids=["BEST16", "ARIKAN"])
def test_encode_and_decode_accept_an_empty_batch(kernel, m):
    """No codewords encode and decode to (0, n) arrays, by phase and by signs."""
    spec = _spec(kernel.ncols, m, kernel, k=128)
    assert encode(spec, np.zeros((0, spec.n), dtype=np.uint8)).shape == (0, spec.n)
    for out in sc_decode_batch(spec, np.zeros((0, spec.n))):
        assert (out.shape, out.dtype) == ((0, spec.n), np.uint8)


def test_arikan_phase_metric_closed_form(rng):
    """For the 2x2 kernel the phase-0 LLR difference equals the min-sum
    box-plus up to the exact max-correlation form."""
    llrs = rng.normal(size=2)
    diff = trellis_phase_metric(ARIKAN, 0, (), llrs)
    a, b = llrs
    expected = 0.5 * (abs(a + b) - abs(a - b))
    assert diff == pytest.approx(expected, abs=1e-12)
    # phase 1 given u0: LLR combining g = b + (1-2u0) a
    for u0 in (0, 1):
        diff1 = trellis_phase_metric(ARIKAN, 1, (u0,), llrs)
        assert diff1 == pytest.approx(b + (1 - 2 * u0) * a, abs=1e-12)


def test_trellis_matches_exhaustive_oracle():
    """Acceptance criterion 3's cases (`trellis_oracle_cases`): >= 200 at
    every width 2..12 and on BEST12.  Every internal section's link arrays
    are (2^v, 2^w), the model's 2^(w+v) sums."""
    kernels, deviations = trellis_oracle_cases()
    for kernel in kernels:
        table = section_trees(kernel)
        for phase, (w, v) in enumerate(zip(table.w, table.v)):
            for j, (_, _, _, halves) in enumerate(table.sections):
                if halves:
                    shapes = [a.shape for a in codec._links(table, phase, j)]
                    assert shapes == [(1 << v[j], 1 << w[j])] * 2
    assert len(deviations) >= 200
    assert max(deviations) <= 1e-9


def test_noiseless_decode_inverts_encode(rng):
    for ell, m, kernel in ((2, 3, ARIKAN), (4, 2, random_kernel(4, rng)),
                           (3, 2, random_kernel(3, rng))):
        n = ell**m
        spec = _spec(ell, m, kernel, k=n // 2)
        u = np.zeros(n, dtype=np.uint8)
        info = sorted(set(range(n)) - spec.frozen)
        u[info] = rng.integers(0, 2, size=len(info))
        c = encode(spec, u)
        llrs = 10.0 * (1.0 - 2.0 * c.astype(np.float64))
        decoded, recoded = sc_decode_batch(spec, llrs)
        np.testing.assert_array_equal(decoded[0], u)
        np.testing.assert_array_equal(recoded[0], c)


def test_batch_decode_matches_single(rng):
    spec = _spec(2, 3, ARIKAN, k=4)
    llrs = rng.normal(size=(5, 8))
    batch_u, batch_c = sc_decode_batch(spec, llrs)
    for i in range(5):
        u, c = sc_decode_batch(spec, llrs[i])
        np.testing.assert_array_equal(u[0], batch_u[i])
        np.testing.assert_array_equal(c[0], batch_c[i])


def test_noise_sigma_formula():
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(3.0, 0.5) == pytest.approx(1.0 / np.sqrt(10 ** 0.3))


def test_select_frozen_set_deterministic_and_sized():
    frozen_a = select_frozen_set(2, 4, 8, ARIKAN, 2.0, 500, seed=3)
    frozen_b = select_frozen_set(2, 4, 8, ARIKAN, 2.0, 500, seed=3)
    assert frozen_a == frozen_b
    assert len(frozen_a) == 8
    assert 0 in frozen_a  # the worst subchannel is always the first input


@pytest.mark.parametrize("k", [-1, 0, 17, 18])
def test_select_frozen_set_rejects_k_outside_1_to_n(monkeypatch, k):
    """k outside [1, n] is named, with n, before any noise is drawn: k = 0
    is not blamed on the SNR, k = n + 2 freezes no n - 2 indices and
    k < 0 is no math domain error."""

    def drawn(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(np.random, "default_rng", drawn)
    with pytest.raises(ValueError, match=rf"^k={k} outside \[1, 16\] for n=16$"):
        select_frozen_set(2, 4, k, ARIKAN, 2.0, 500, seed=3)


@pytest.mark.parametrize("ell", [1, 17])
def test_decoder_rejects_unsupported_widths(monkeypatch, ell):
    """A non-singular kernel of width 1 or 17 fails the spec and frozen-set
    selection with the model's width error, before any noise is drawn.
    Width 1 has no section to decode over, and width 17's extended rows
    reach the coefficient bits of `_coset_indices`."""
    kernel = random_kernel(ell, np.random.default_rng(3))
    message = rf"^unsupported kernel size ell={ell}; supported range is \[2, 16\]$"

    def drawn(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(np.random, "default_rng", drawn)
    with pytest.raises(ValueError, match=message):
        PolarCodeSpec(ell, 1, 1, kernel, frozenset(range(1, ell)))
    with pytest.raises(ValueError, match=message):
        select_frozen_set(ell, 1, 1, kernel, 2.0, 16, seed=1)


def test_select_frozen_set_accepts_k_1_and_n():
    assert len(select_frozen_set(2, 4, 1, ARIKAN, 2.0, 50, seed=3)) == 15
    assert select_frozen_set(2, 4, 16, ARIKAN, 2.0, 50, seed=3) == frozenset()


def test_batch_sizes_lazy_and_checked_on_call():
    """Full batches, then the remainder, produced one at a time: a trial
    count far beyond memory still yields its first batch."""
    assert next(_batch_sizes(10**30)) == 256
    assert list(_batch_sizes(600)) == [256, 256, 88]
    assert list(_batch_sizes(512)) == [256, 256]
    with pytest.raises(ValueError):
        _batch_sizes(0)  # rejected on the call, before any iteration


def test_simulate_bler_reproducible_and_monotone():
    frozen = select_frozen_set(2, 4, 8, ARIKAN, 1.0, 2000, seed=0)
    spec = PolarCodeSpec(2, 4, 8, ARIKAN, frozen)
    res = simulate_bler(spec, [0.0, 5.0], trials=1500, seed=1)
    res2 = simulate_bler(spec, [0.0, 5.0], trials=1500, seed=1)
    assert [(r.snr_db, r.block_errors) for r in res] == [
        (r.snr_db, r.block_errors) for r in res2
    ]
    # 5 dB must beat 0 dB by far more than Monte-Carlo noise
    assert res[1].bler < res[0].bler
    csv = bler_csv(res)
    assert csv.splitlines()[0] == "snr_db,trials,errors,bler"
    assert len(csv.splitlines()) == 3


# Seeded AWGN outputs pinned across implementations: each trial count ends
# in a partial batch (BATCH = 256), so the pins cover how the batches split
# the draws.  Digest of {"frozen": sorted frozen set, "errors": block-error
# counts at 1.0 and 2.5 dB}; selection at 2.0 dB with seed 5, simulation
# with seed 6, k = n / 2.
PINNED_AWGN = {
    # (kernel, m, trials): (sha256 prefix, block errors)
    ("ARIKAN", 4, 600): ("aaedc7c090e9f1a8", [116, 51]),
    ("ARIKAN", 4, 700): ("d693caaf991c5907", [142, 63]),
    ("ARIKAN", 8, 600): ("e7e73ec0e0922f98", [303, 32]),
    ("ARIKAN", 8, 700): ("71728ce14c360ec6", [383, 30]),
    ("BEST16", 2, 600): ("16597d754445022c", [227, 14]),
    ("BEST16", 2, 700): ("90b2910598db1c69", [277, 18]),
}


@pytest.mark.parametrize("name, m, trials", sorted(PINNED_AWGN))
def test_awgn_harness_pinned(name, m, trials):
    kernel = {"ARIKAN": ARIKAN, "BEST16": BEST16}[name]
    ell = kernel.ncols
    k = ell**m // 2
    frozen = select_frozen_set(ell, m, k, kernel, 2.0, trials, seed=5)
    results = simulate_bler(PolarCodeSpec(ell, m, k, kernel, frozen), [1.0, 2.5], trials, seed=6)
    record = {"frozen": sorted(frozen), "errors": [r.block_errors for r in results]}
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]
    assert (digest, record["errors"]) == PINNED_AWGN[(name, m, trials)]


def test_channel_symmetry_all_zero_vs_random():
    """All-zero and random-codeword simulations agree within 3-sigma
    binomial bands (the channel and decoder are symmetric)."""
    frozen = select_frozen_set(2, 4, 8, ARIKAN, 1.0, 2000, seed=0)
    spec = PolarCodeSpec(2, 4, 8, ARIKAN, frozen)
    trials = 4000
    p_rand = simulate_bler(spec, [1.0], trials, seed=5)[0].bler
    # all-zero transmission at the same rate-1/2 noise level
    rng = np.random.default_rng(99)
    sigma = noise_sigma(1.0, 0.5)
    errors = 0
    for _ in range(trials // 500):
        y = 1.0 + sigma * rng.standard_normal((500, 16))
        decoded, _ = sc_decode_batch(spec, 2.0 * y / sigma**2)
        errors += int(np.count_nonzero(np.any(decoded != 0, axis=1)))
    p_zero = errors / trials
    p = (p_rand + p_zero) / 2
    band = 3 * np.sqrt(2 * p * (1 - p) / trials)
    assert abs(p_rand - p_zero) <= band


def test_spec_validation():
    with pytest.raises(ValueError):
        PolarCodeSpec(2, 13, 100, ARIKAN, frozenset())  # n too large
    with pytest.raises(ValueError):
        PolarCodeSpec(2, 2, 2, ARIKAN, frozenset({0}))  # wrong frozen size
    with pytest.raises(ValueError):
        _spec(16, 1, ARIKAN)  # kernel shape must match ell


def test_singular_kernel_rejected():
    singular = BitMatrix(4, (0xF, 0xF, 0x3, 0x1))
    with pytest.raises(SingularKernelError):
        _spec(4, 2, singular)
    with pytest.raises(SingularKernelError):
        select_frozen_set(4, 2, 8, singular, 2.0, 10, seed=0)


def test_best16_one_level_noiseless(rng):
    spec = _spec(16, 1, BEST16)
    u = rng.integers(0, 2, size=16).astype(np.uint8)
    c = encode(spec, u)
    llrs = 8.0 * (1.0 - 2.0 * c.astype(np.float64))
    decoded, _ = sc_decode_batch(spec, llrs)
    np.testing.assert_array_equal(decoded[0], u)


def test_noisy_decode_reencodes_its_decisions(rng):
    """Under noise the decisions differ from the sent message, yet the
    decoder's running-codeword re-encoding must still equal encode() of
    its own decisions, which are zero on the frozen positions."""
    for ell, m in ((2, 6), (3, 3), (4, 3), (5, 2), (16, 2)):
        n = ell**m
        k = int(rng.integers(1, n))
        frozen = frozenset(rng.choice(n, size=n - k, replace=False).tolist())
        spec = PolarCodeSpec(ell, m, k, random_kernel(ell, rng), frozen)
        llrs = rng.normal(scale=2.0, size=(7, n))
        decoded, recoded = sc_decode_batch(spec, llrs)
        assert not decoded[:, sorted(frozen)].any()
        np.testing.assert_array_equal(recoded, encode(spec, decoded))


def test_decode_reads_either_memory_order(rng):
    """The decoder takes LLRs in either memory order: a Fortran-ordered
    (transposed) array decodes as its C-ordered copy does.  A noiseless
    round trip through `encode`'s transposed output, fed straight to the
    decoder, returns every message."""
    for ell, m in ((2, 8), (3, 3), (5, 2), (16, 2)):
        n = ell**m
        frozen = frozenset(rng.choice(n, size=n // 2, replace=False).tolist())
        spec = PolarCodeSpec(ell, m, n - len(frozen), random_kernel(ell, rng), frozen)
        llrs = rng.normal(scale=2.0, size=(6, n))
        want = sc_decode_batch(spec, llrs)
        for got_array, want_array in zip(sc_decode_batch(spec, np.asfortranarray(llrs)), want):
            np.testing.assert_array_equal(got_array, want_array)
        u = rng.integers(0, 2, size=(9, n), dtype=np.uint8)
        u[:, sorted(frozen)] = 0
        c = encode(spec, u)
        assert c.flags.f_contiguous
        decoded, recoded = sc_decode_batch(spec, 8.0 * (1.0 - 2.0 * c.astype(np.float64)))
        np.testing.assert_array_equal(decoded, u)
        np.testing.assert_array_equal(recoded, c)


@cache
def _bench_spec(name: str) -> PolarCodeSpec:
    """The (256,128) code of perfbench's bler-256 workload for `name`: the
    frozen set from 512 genie codewords at its selection SNR, seed 1."""
    kernel, m, snr_db = {"BEST16": (BEST16, 2, 2.0), "ARIKAN": (ARIKAN, 8, 3.0)}[name]
    ell = kernel.ncols
    frozen = select_frozen_set(ell, m, 128, kernel, snr_db, 512, 1)
    return PolarCodeSpec(ell, m, 128, kernel, frozen)


def _decode_rec(dec, frozen, llrs, base=0, errors=None) -> tuple[np.ndarray, np.ndarray]:
    """`codec._sc_decode_rec` called as `stateless_sc_decode` is: on
    batch-major LLRs, returning batch-major (u, v)."""
    u = np.zeros(llrs.shape[::-1], dtype=np.uint8)
    v = codec._sc_decode_rec(dec, frozen, np.ascontiguousarray(llrs.T), base, errors, u)
    return u.T, v.T


def _decode_every_block(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder without the all-frozen skip: given `errors`, as in genie
    selection, `_sc_decode_rec` decodes every block."""
    errors = np.zeros(spec.n, dtype=np.int64)
    return _decode_rec(build_link_tables(spec.kernel), spec.frozen, llrs, 0, errors)


def test_frozen_block_skip_matches_full_decode(rng):
    """Skipping all-frozen blocks leaves every decision and re-encoding
    bit-identical to decoding every block: random kernels at widths 2..16
    with n <= 256, under random, empty, all-but-one and prefix frozen sets,
    and on the perfbench codes."""
    specs = [_bench_spec("BEST16"), _bench_spec("ARIKAN")]
    for ell in range(2, 17):
        m = max(m for m in range(1, 9) if ell**m <= 256)
        kernel = random_kernel(ell, rng)
        n = ell**m
        keep = int(rng.integers(n))
        prefix = int(rng.integers(1, n))
        frozen_sets = [
            frozenset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()),
            frozenset(),
            frozenset(range(n)) - {keep},
            frozenset(range(prefix)),
        ]
        specs += [PolarCodeSpec(ell, m, n - len(f), kernel, f) for f in frozen_sets]
    for spec in specs:
        llrs = rng.normal(scale=2.0, size=(5, spec.n))
        got_u, got_x = sc_decode_batch(spec, llrs)
        want_u, want_x = _decode_every_block(spec, llrs)
        np.testing.assert_array_equal(got_u, want_u)
        np.testing.assert_array_equal(got_x, want_x)


@pytest.mark.parametrize("name, calls", [("BEST16", 108), ("ARIKAN", 95)])
def test_decode_skips_trellis_on_frozen_blocks(monkeypatch, rng, name, calls):
    """One decode evaluates one phase metric per block (sizes ell^(m-1)
    down to 1) that holds an information index and whose parent block
    holds a frozen one: a block without frozen indices is decided by the
    signs of its LLRs, with no phase metric below it.  Genie selection,
    which freezes every index, still evaluates all of them."""
    spec = _bench_spec(name)
    ell, n = spec.ell, spec.n
    sizes = [ell**j for j in range(spec.m)]
    blocks = [range(s, s + size) for size in sizes for s in range(0, n, size)]
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return phase_llrs_trellis(*args)

    def evaluated(block: range) -> bool:
        size = len(block) * ell
        parent = range(block.start // size * size, block.start // size * size + size)
        return not spec.frozen.issuperset(block) and not spec.frozen.isdisjoint(parent)

    monkeypatch.setattr(codec, "phase_llrs_trellis", counted)
    llrs = rng.normal(scale=2.0, size=(3, n))
    sc_decode_batch(spec, llrs)
    assert count == sum(map(evaluated, blocks)) == calls
    count = 0
    _decode_every_block(spec, llrs)
    assert count == len(blocks)


def _rate1_specs(rng) -> list[PolarCodeSpec]:
    """Per width 2..16 (n <= 256), a random kernel under k = n and under
    three random frozen sets, each cleared on one random block of every
    size ell^j, 1 <= j < m."""
    specs = []
    for ell in range(2, 17):
        m = max(m for m in range(1, 9) if ell**m <= 256)
        n = ell**m
        kernel = random_kernel(ell, rng)
        specs.append(PolarCodeSpec(ell, m, n, kernel, frozenset()))
        for _ in range(3):
            frozen = set(rng.choice(n, size=int(rng.integers(n)), replace=False).tolist())
            for size in (ell**j for j in range(1, m)):
                start = int(rng.integers(n // size)) * size
                frozen -= set(range(start, start + size))
            specs.append(PolarCodeSpec(ell, m, n - len(frozen), kernel, frozenset(frozen)))
    return specs


def test_rate1_blocks_match_stateless_oracle(monkeypatch, rng):
    """Deciding rate-1 blocks by the signs of their LLRs leaves every
    decision and re-encoding bit-identical to the stateless recursion of
    conftest, which has no rate-1 rule: random kernels at widths 2..16,
    frozen sets with rate-1 blocks at every level (k = n included), on
    noisy LLRs, on LLRs with exact zeros and on LLRs with a few entries
    scaled by 1e-18, where rounding ties phase metrics.  Sign decisions
    happen at every block size."""
    # an exact zero: the recursion's v is [1, 1, 0, 0], the signs' [0, 1, 0, 0]
    zero = np.array([[0.0, -1.0, 2.0, 0.5]])
    spread = np.array([[1.0, -1e-17]])  # rounding ties phase 0: v = [0, 0]
    for llrs, v in ((zero, [[1, 1, 0, 0]]), (spread, [[0, 0]])):
        n = llrs.shape[1]
        _, got_v = sc_decode_batch(PolarCodeSpec(2, n // 2, n, ARIKAN, frozenset()), llrs)
        np.testing.assert_array_equal(got_v, v)
    decided = set()

    def butterfly(x, columns):
        decided.add((len(columns), x.shape[0]))
        return transform(x, columns)

    transform = codec._butterfly
    monkeypatch.setattr(codec, "_butterfly", butterfly)
    for spec in _rate1_specs(rng):
        n = spec.n
        noise = rng.normal(scale=2.0, size=(3, 4, n))
        picked = np.arange(4)[:, None], rng.integers(n, size=(4, 3))
        noise[1][picked] = 0.0
        noise[2][picked] *= 1e-18
        for llrs in noise:
            got = sc_decode_batch(spec, llrs)
            want = stateless_sc_decode(spec.kernel, spec.frozen, llrs)
            for got_array, want_array in zip(got, want):
                np.testing.assert_array_equal(got_array, want_array)
    sizes = {(ell, ell**j) for ell in range(2, 17) for j in range(1, 9) if ell**j <= 256}
    assert decided >= sizes


def test_table_reuse_matches_stateless_oracle(monkeypatch, rng):
    """Gathering the previous phase's section tables leaves every phase LLR
    array bit-identical to the stateless recursion of conftest at the
    same (block, phase), and so every decision, re-encoding and genie error
    count: BEST16 and BEST12 at m=2, ARIKAN at m=8, and 3 random kernels at
    each width 4..16 (m=3 up to width 5, else m=2), on the fast path
    (frozen set from a small genie run, noisy LLRs that decide both bit
    values), whose calls stop at rate-1 blocks, and on the genie path."""
    cases = [(BEST16, 2), (BEST12, 2), (ARIKAN, 8)]
    cases += [
        (random_kernel(ell, rng), 3 if ell <= 5 else 2) for ell in range(4, 17) for _ in range(3)
    ]
    calls: dict[tuple[int, int], np.ndarray] = {}
    # (base, length, index-major) of the blocks being decoded
    blocks: list[tuple[int, int, bool]] = []

    def recorded(dec, phase, prefix, llrs, held=None, flip=None):
        base, length, index_major = blocks[-1]
        sub = length // len(dec.supports)
        out = phase_llrs_trellis(dec, phase, prefix, llrs, held, flip)
        llr = out[0]
        if index_major:  # the fast path's rows run (s, b), the oracle's (b, s)
            llr = llr.reshape(sub, -1).T.ravel()
        calls[base + phase * sub, sub] = llr
        return out

    def entered(decode, index_major):
        def run(of_kernel, frozen, llrs, base, errors, *u):
            blocks.append((base, llrs.shape[0 if index_major else 1], index_major))
            try:
                return decode(of_kernel, frozen, llrs, base, errors, *u)
            finally:
                blocks.pop()

        return run

    fast, stateless = entered(_sc_decode_rec, True), entered(stateless_sc_decode, False)
    monkeypatch.setattr(codec, "phase_llrs_trellis", recorded)
    monkeypatch.setattr(codec, "_sc_decode_rec", fast)
    monkeypatch.setattr(conftest, "stateless_sc_decode", stateless)
    compared = 0
    for kernel, m in cases:
        ell, dec = kernel.ncols, build_link_tables(kernel)
        n = ell**m
        frozen = select_frozen_set(ell, m, n // 2, kernel, 1.0, 16, seed=int(rng.integers(1 << 30)))
        llrs = rng.normal(scale=2.0, size=(4, n))
        for frozen_set, genie in ((frozen, False), (frozenset(range(n)), True)):
            runs = []
            for decode, of_kernel in ((_decode_rec, dec), (stateless, kernel)):
                calls.clear()
                errors = np.zeros(n, dtype=np.int64) if genie else None
                u, v = decode(of_kernel, frozen_set, llrs, 0, errors)
                runs.append((dict(calls), u, v, errors))
            (got_llrs, *got), (want_llrs, *want) = runs
            if genie:  # every block is decoded
                assert got_llrs.keys() == want_llrs.keys()
            assert got_llrs.keys() <= want_llrs.keys()
            assert all(np.array_equal(got_llrs[key], want_llrs[key]) for key in got_llrs), kernel
            for got_array, want_array in zip(got, want):
                np.testing.assert_array_equal(got_array, want_array)
            compared += len(got_llrs)
    assert compared > 8_000


def test_phase_calls_read_views_of_their_block(monkeypatch, rng):
    """Every phase call reads its LLRs as a view of its block's LLR array,
    with no per-level copy, on the fast and the genie path: BEST16 at m=2,
    ARIKAN at m=8 and a random kernel of width 3 at m=4."""
    blocks = []
    calls = 0

    def entered(dec, frozen, llrs, *rest):
        blocks.append(llrs)
        try:
            return decode(dec, frozen, llrs, *rest)
        finally:
            blocks.pop()

    def viewed(dec, phase, prefix, llrs, *rest):
        nonlocal calls
        assert np.shares_memory(llrs, blocks[-1])
        calls += 1
        return phase_llrs_trellis(dec, phase, prefix, llrs, *rest)

    decode = codec._sc_decode_rec
    monkeypatch.setattr(codec, "_sc_decode_rec", entered)
    monkeypatch.setattr(codec, "phase_llrs_trellis", viewed)
    for kernel, m in ((BEST16, 2), (ARIKAN, 8), (random_kernel(3, rng), 4)):
        ell, n = kernel.ncols, kernel.ncols**m
        frozen = select_frozen_set(ell, m, n // 2, kernel, 2.0, 8, seed=1)
        sc_decode_batch(PolarCodeSpec(ell, m, n // 2, kernel, frozen), rng.normal(size=(3, n)))
    assert calls > 1_000


def _model_gathers(kernel) -> list[set[tuple[int, int]]]:
    """Per phase, the sections that the `SECTION_TABLES` model reuses with
    an unchanged shortened code: the previous phase's table itself."""
    table = section_trees(kernel)
    index = {section[:2]: j for j, section in enumerate(table.sections)}
    report = total_complexity(kernel, ReuseMode.SECTION_TABLES)
    per_phase = [set()]
    for prev, s_b, cost in zip(table.s_basis, table.s_basis[1:], report.per_phase[1:]):
        per_phase.append({k for k in cost.reused if s_b[index[k]] == prev[index[k]]})
    return per_phase


def test_decoder_gathers_the_tables_the_model_reuses(monkeypatch, rng):
    """On BEST16 a phase gathers exactly the model's table-case reuse when
    the previous phase of its block was evaluated: 20 nodes over phases
    1..15, none on phases 2, 4, 6, 7 and 11.  After a skipped rate-0 block
    it gathers nothing, also where an earlier phase held the same
    sections (phase 10 after 9 of a (16, 15) code)."""
    model = _model_gathers(BEST16)
    assert sum(map(len, model)) == 20
    assert [a for a in range(1, 16) if not model[a]] == [2, 4, 6, 7, 11]
    gathered = []

    def recorded(dec, phase, prefix, llrs, held, flip):
        keys = set(held or ())
        out = phase_llrs_trellis(dec, phase, prefix, llrs, held, flip)
        assert not held  # every held table was gathered
        gathered.append((phase, keys))
        return out

    monkeypatch.setattr(codec, "phase_llrs_trellis", recorded)

    def expected(spec: PolarCodeSpec, base: int, length: int, genie: bool):
        """Per call, in decoding order: the phase and whether the previous
        phase of its block was evaluated.  The fast path decides a block
        without frozen indices by its signs."""
        if not genie and spec.frozen.isdisjoint(range(base, base + length)):
            return
        sub, evaluated = length // spec.ell, False
        for a in range(spec.ell):
            start = base + a * sub
            if not genie and spec.frozen.issuperset(range(start, start + sub)):
                evaluated = False
                continue
            yield a, evaluated
            if sub > 1:
                yield from expected(spec, start, sub, genie)
            evaluated = True

    skip_9 = PolarCodeSpec(16, 1, 15, BEST16, frozenset({9}))
    bench = _bench_spec("BEST16")
    for spec, genie in ((bench, True), (bench, False), (skip_9, False)):
        llrs = rng.normal(scale=2.0, size=(3, spec.n))
        gathered.clear()
        if genie:
            _decode_every_block(spec, llrs)
        else:
            sc_decode_batch(spec, llrs)
        order = list(expected(spec, 0, spec.n, genie))
        assert gathered == [(a, model[a] if after else set()) for a, after in order]
    assert (10, False) in order and model[9] == model[10]


def test_trellis_summations_per_codeword(monkeypatch, rng):
    """Summations per codeword, 2^(w+v) per row and step of the compiled
    program of each evaluated phase, on perfbench's BEST16 (256,128) code:
    21,642 with section-table reuse and rate-1 sign decisions, 44,034 on
    the stateless oracle, for any noise."""
    spec = _bench_spec("BEST16")
    total = 0

    def counted(dec, phase, prefix, llrs, held=None, flip=None):
        nonlocal total
        program = (dec.cold if held is None else dec.warm)[phase]
        total += sum(step.left_link.size for step in program.steps) * len(llrs)
        return phase_llrs_trellis(dec, phase, prefix, llrs, held, flip)

    monkeypatch.setattr(codec, "phase_llrs_trellis", counted)
    for batch in (3, 5):
        llrs = rng.normal(scale=2.0, size=(batch, spec.n))
        for decode, per_codeword in (
            (lambda: sc_decode_batch(spec, llrs), 21_642),
            (lambda: stateless_sc_decode(spec.kernel, spec.frozen, llrs), 44_034),
        ):
            total = 0
            decode()
            assert total == per_codeword * batch


def _stack_peak(prog, table: SectionTable) -> int:
    """Coset rows live at once when `prog` runs on fresh arrays with a
    stack, as before the workspace: the bank and the gathered tables all
    through; the prefix-signed LLRs while the bank forms; and per step the
    stacked tables, its halves, its sums, and then either the right-link
    gather or the section's table."""
    sections = table.sections
    index = {section[:2]: j for j, section in enumerate(sections)}
    gathered = {gather.key for gather in prog.gathers}
    base = len(prog.cols) + sum(len(gather.idx0) for gather in prog.gathers)
    peak, stack = base + table.ell, []
    for step in prog.steps:
        halves = sections[index[step.key]][3]
        popped = sum(bool(sections[h][3]) and sections[h][:2] not in gathered for h in halves)
        sums = step.left_link.size
        out = step.shape[0] if step.shape[1] > 1 else 0
        peak = max(peak, base + sum(stack) + sums + max(sums, out))
        stack[len(stack) - popped :] = [step.shape[0]]
    return peak


def _check_plan(prog, table: SectionTable, phase: int) -> None:
    """Runs `prog` of `phase` on workspace rows that hold tags, not numbers:
    each operation tags the rows it writes, then checks that every row it
    reads still holds the tag of the table it means to read.  So every
    buffer is written before it is read, and none is overwritten while
    live; link indices stay inside the table they read (takes clip)."""
    sections, w, v = table.sections, table.w[phase], table.v[phase]
    index = {section[:2]: j for j, section in enumerate(sections)}
    tags: list = [None] * prog.peak

    def run(writes, reads) -> None:
        for where, tag in writes:
            assert 0 <= where.start <= where.stop <= prog.peak
            tags[where] = [tag] * (where.stop - where.start)
        for where, tag in reads:
            assert tags[where] == [tag] * (where.stop - where.start), (where, tag)

    def size(where: slice) -> int:
        return where.stop - where.start

    assert size(prog.signed) == table.ell and size(prog.bank) == len(prog.cols)
    run([(prog.signed, "signed")], [])
    run([(prog.bank, "bank")], [(prog.signed, "signed")])
    if prog.mask is not None:
        run([(prog.mask, "mask")], [])
    for gather in prog.gathers:
        assert size(gather.out) == len(gather.idx0) == 2 ** v[index[gather.key]]
        run([(gather.out, gather.key)], [])
        if gather.idx1 is not None:
            run([(gather.other, "other")], [(gather.out, gather.key), (prog.mask, "mask")])
    for step in prog.steps:
        j = index[step.key]
        assert step.shape == (2 ** v[j], 2 ** w[j])
        reads = []
        sides = (step.left, step.left_link), (step.right, step.right_link)
        for h, (where, link) in zip(sections[j][3], sides):
            x, y, _, internal = sections[h]
            tag = (x, y) if internal else "bank"
            assert size(where) == (2 ** v[h] if internal else len(prog.cols))
            assert link.size == 2 ** (v[j] + w[j])
            assert 0 <= link.min() and link.max() < size(where)
            reads.append((where, tag))
        run([(step.sums, ("sums", step.key))], [reads[0]])
        run([(step.other, "other")], [reads[1], (step.sums, ("sums", step.key))])
        if w[j] == 0:
            assert step.out == step.sums
        run([(step.out, step.key)], [] if w[j] == 0 else [(step.sums, ("sums", step.key))])
    assert size(prog.root) == 2
    run([], [(prog.root, (0, table.ell))])


def _plan_kernels(rng) -> list[BitMatrix]:
    """BEST16, BEST12, ARIKAN and 3 random kernels per width 4..16."""
    return [BEST16, BEST12, ARIKAN] + [
        random_kernel(ell, rng) for ell in range(4, 17) for _ in range(3)
    ]


def test_workspace_plans_keep_live_buffers_apart(rng):
    """Every `cold` and `warm` program of the `_plan_kernels` writes each
    workspace buffer before reading it and never overwrites a live one,
    and its planned peak is at most the rows that its fresh-array stack
    evaluation holds at once."""
    below = 0
    for kernel in _plan_kernels(rng):
        dec = build_link_tables(kernel)
        table = section_trees(kernel)
        for programs in (dec.cold, dec.warm):
            for phase, prog in enumerate(programs):
                _check_plan(prog, table, phase)
                assert prog.peak <= _stack_peak(prog, table)
                below += prog.peak < _stack_peak(prog, table)
    assert below > 0


def test_poisoned_workspace_decodes_bit_identically(monkeypatch, rng):
    """Each phase call of the decoder runs in a workspace filled with NaN.
    Its phase LLRs equal the section tree evaluated into fresh arrays
    (conftest), neither they nor the kept tables share memory with the
    workspace, and the decisions, re-encodings and genie error counts
    equal the stateless recursion's.  BEST16 at batch 256, ARIKAN m=8 at
    batch 5, then BEST16 again share the one workspace; then random
    kernels at widths 4..16 (m=2), on the fast and the genie path."""
    best16, arikan = _bench_spec("BEST16"), _bench_spec("ARIKAN")
    cases = [(best16, 256), (arikan, 5), (best16, 256)]
    for ell in range(4, 17):
        frozen = frozenset(rng.choice(ell**2, size=ell**2 // 2, replace=False).tolist())
        spec = PolarCodeSpec(ell, 2, ell**2 - len(frozen), random_kernel(ell, rng), frozen)
        cases.append((spec, 4))
    runs = []
    for spec, batch in cases:
        llrs = rng.normal(scale=2.0, size=(batch, spec.n))
        genie = np.zeros(spec.n, dtype=np.int64)
        want_genie = stateless_sc_decode(spec.kernel, frozenset(range(spec.n)), llrs, 0, genie)
        want = stateless_sc_decode(spec.kernel, spec.frozen, llrs)
        runs.append((spec, llrs, (*want, *want_genie, genie)))
    table = None
    calls = 0

    def poisoned(dec, phase, prefix, llrs, held=None, flip=None):
        nonlocal calls
        peak = (dec.cold if held is None else dec.warm)[phase].peak
        codec._workspace(peak, len(llrs))  # grown first: the poison reaches every row
        codec._WORKSPACE.fill(np.nan)
        phase_llr, kept = phase_llrs_trellis(dec, phase, prefix, llrs, held, flip)
        for array in (phase_llr, *kept.values()):
            assert not np.shares_memory(array, codec._WORKSPACE)
        want = conftest.section_tree_phase_llrs(table, phase, prefix, llrs)
        np.testing.assert_array_equal(phase_llr, want)
        calls += 1
        return phase_llr, kept

    monkeypatch.setattr(codec, "phase_llrs_trellis", poisoned)
    for spec, llrs, want in runs:
        kernel, n = spec.kernel, spec.n
        table = section_trees(kernel)
        genie = np.zeros(n, dtype=np.int64)
        got_genie = _decode_rec(build_link_tables(kernel), frozenset(range(n)), llrs, 0, genie)
        got = (*sc_decode_batch(spec, llrs), *got_genie, genie)
        for got_array, want_array in zip(got, want, strict=True):
            np.testing.assert_array_equal(got_array, want_array)
    assert calls > 3_000


def test_programs_follow_the_table_and_share_cold_ones(rng):
    """Each program of the `_plan_kernels` steps through internal sections
    in ascending table order (the post-order, halves first), none inside a
    gathered section, and ends at the root.  A `warm` program is its
    phase's `cold` one exactly where the phase gathers nothing in the
    model; a `cold` one gathers nothing."""
    shared = 0
    for kernel in _plan_kernels(rng):
        dec, sections = build_link_tables(kernel), section_trees(kernel).sections
        index = {section[:2]: j for j, section in enumerate(sections)}
        for cold, warm, model in zip(dec.cold, dec.warm, _model_gathers(kernel), strict=True):
            assert not cold.gathers and (warm is cold) == (not model)
            shared += warm is cold
            for prog in (cold, warm):
                order = [index[step.key] for step in prog.steps]
                assert order == sorted(set(order)) and order[-1] == len(sections) - 1
                for x, y, _, halves in map(sections.__getitem__, order):
                    assert halves
                    assert not any(a <= x and y <= b for (a, b), *_ in prog.gathers)
    assert shared > 0


@pytest.mark.parametrize("kernel, m", [(BEST16, 2), (ARIKAN, 8)], ids=["BEST16", "ARIKAN"])
def test_build_link_tables_builds_the_whole_decoder(monkeypatch, kernel, m):
    """`build_link_tables` builds every link array, gather and step list of
    a kernel, with one program per phase and a second per phase that
    gathers: after it, frozen-set selection and BLER simulation of a
    (256,128) code compute no coset index and compile no program."""
    compiled = 0
    compile_program = codec._program

    def counted(*args):
        nonlocal compiled
        compiled += 1
        return compile_program(*args)

    build_link_tables.cache_clear()
    monkeypatch.setattr(codec, "_program", counted)
    build_link_tables(kernel)
    assert compiled == kernel.ncols + sum(map(bool, _model_gathers(kernel)))

    def built_late(*args):
        raise AssertionError("built after build_link_tables")

    monkeypatch.setattr(codec, "_coset_indices", built_late)
    monkeypatch.setattr(codec, "_program", built_late)
    ell = kernel.ncols
    frozen = select_frozen_set(ell, m, 128, kernel, 2.0, 16, seed=1)
    (result,) = simulate_bler(PolarCodeSpec(ell, m, 128, kernel, frozen), [2.0], 16, seed=1)
    assert result.trials == 16
