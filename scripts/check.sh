#!/usr/bin/env bash
# The checks every change reports, run from the repository root:
#   1. the tier-1 test command (the full suite, slow tests included) at
#      verbose level, logged to test_output.txt;
#   2. the benchmark's self-test (perfbench/run.py --selftest);
#   3. the line counts of src/ and tests/, each with its change against
#      the same files at HEAD (the work tree's uncommitted delta) and the
#      lines added and removed (git diff --numstat, untracked files
#      counted as added), and under each total one line per changed .py
#      file with its lines added and removed, so that code moved between
#      modules is told apart from removed;
#   4. the settable options, each with its change against HEAD: the CLI
#      flags of all subcommands and of each one, the train-config keys,
#      the reuse policies;
#   5. whether these seeded outputs are nonempty and byte-identical to
#      HEAD's: the `polarkit bler` CSVs (the (256,128) codes of BEST16 at
#      m=2 and ARIKAN at m=8 and the (144,72) code of BEST12 at m=2, two
#      SNRs, 600 trials), the `polarkit random` JSON at ell 8 and 12
#      (300 trials, seed 7) under the all-contiguous and section-tables
#      policies and at ell 16 (300 trials, seed 7, the default policy;
#      most of its trials run into the placement cap, so each draws
#      several blocks of random words), the `polarkit brute` kernel at
#      ell 12, and a `polarkit train` run (ell 8, 20 episodes, an update
#      every 10, seed 1): its training_log.csv and best_kernel.txt, and a
#      sha256 of the final checkpoint's arrays as np.load reads them (the
#      .npz zip entries carry timestamps, so its bytes differ between
#      equal runs), and a sha256 of each of two unpinned self-play
#      episodes at the default game limit and `MctsConfig()` (ell 12 seed
#      2 and ell 16 seed 1, the untrained seed-0 network; both stall to
#      the limit, where the search replays the most): every action,
#      reward repr and improved policy's bytes;
#   6. the minor page faults per warmed 256-codeword batch of the (256,128)
#      codes of BEST16 at m=2 and ARIKAN at m=8, beside the peak RSS
#      (ru_maxrss) of the process that measured them, for the work tree and
#      for HEAD (getrusage over 10 batches after 3 warm-up ones, each code
#      in a fresh interpreter); informational, it gates nothing;
#   7. a sha256 of the compiled decoders (`codec.build_link_tables`) of
#      ARIKAN, BEST12, BEST16 and 8 random non-singular kernels per width
#      2..16 (seed 5), for the work tree and for HEAD, and whether they
#      match; informational, it gates nothing;
#   8. whether the phase LLRs of those decoders are byte-identical to
#      HEAD's: a sha256, on fixed random LLRs and prefixes, of the phase
#      LLRs and kept tables of every phase's `cold` program, and of a warm
#      chain of phases, each decided by the signs of its LLRs and handing
#      its kept tables and decisions to the next;
#   9. whether the complexity reports of the same kernels are byte-identical
#      to HEAD's: a sha256 of `total_complexity(kernel, policy).to_json()`
#      under every reuse policy.
# Nothing is deselected or skipped, so the script exits nonzero while any
# test is red -- criterion 1 is, by design (see README) -- and on any
# difference in those outputs.
# Usage: scripts/check.sh
set -uo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
status=0

python -m pytest --continue-on-collection-errors --no-header -v > test_output.txt 2>&1 || status=1
tail -n 1 test_output.txt

python3 perfbench/run.py --selftest || status=1

for dir in src tests; do
    now=$(find "$dir" -name '*.py' -print0 | xargs -0 cat | wc -l)
    head=$(git ls-tree -r --name-only HEAD -- "$dir" | grep '\.py$' | sed 's/^/HEAD:/' \
        | xargs -r git show | wc -l)
    read -r added removed < <(git diff --numstat HEAD -- "$dir/*.py" \
        | awk '{a += $1; r += $2} END {print a + 0, r + 0}')
    untracked=$(git ls-files -z --others --exclude-standard -- "$dir/*.py" | xargs -0r cat | wc -l)
    printf '%-7s %d lines (%+d against HEAD: +%d/-%d)\n' "$dir/:" "$now" "$((now - head))" \
        "$((added + untracked))" "$removed"
    { git diff --numstat HEAD -- "$dir/*.py"
      git ls-files -z --others --exclude-standard -- "$dir/*.py" | xargs -0r -n1 wc -l \
          | awk '{print $1 "\t0\t" $2}'
    } | awk -F '\t' '{printf "  %s +%d/-%d\n", $3, $1, $2}'
done

# prints the settable options of the polarkit on PYTHONPATH as JSON: the
# CLI flags per subcommand, the train-config keys and the reuse policies
count_options() {
    python - <<'PY'
import argparse
import json
from dataclasses import fields

from polarkit.cli import build_parser
from polarkit.complexity import ReuseMode
from polarkit.zero.train import TrainConfig

sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
flags = {
    name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
    for name, p in sub.choices.items()
}
print(json.dumps({"flags": flags, "keys": len(fields(TrainConfig)), "policies": len(ReuseMode)}))
PY
}
# writes into directory $1 the seeded outputs of the polarkit on
# PYTHONPATH, with each run's configuration echo beside its output
seeded_outputs() {
    python - "$1" <<'PY'
import sys
from pathlib import Path

from polarkit.kernelio import write_kernel
from polarkit.reference import ARIKAN, BEST12, BEST16

write_kernel(Path(sys.argv[1]) / "best16.txt", BEST16)
write_kernel(Path(sys.argv[1]) / "arikan.txt", ARIKAN)
write_kernel(Path(sys.argv[1]) / "best12.txt", BEST12)
PY
    for run in "best16 2 128" "arikan 8 128" "best12 2 72"; do
        read -r name m k <<< "$run"
        python -m polarkit.cli bler --kernel "$1/$name.txt" --m "$m" --k "$k" --snr 2.0 3.0 \
            --trials 600 --select-trials 600 --seed 5 --out "$1/$name.csv" 2> "$1/$name.log"
    done
    for ell in 8 12; do
        for reuse in all-contiguous section-tables; do
            python -m polarkit.cli random --ell "$ell" --iters 300 --seed 7 --reuse "$reuse" \
                > "$1/random-$ell-$reuse.json" 2> "$1/random-$ell-$reuse.log"
        done
    done
    python -m polarkit.cli random --ell 16 --iters 300 --seed 7 \
        > "$1/random-16.json" 2> "$1/random-16.log"
    python -m polarkit.cli brute --ell 12 > "$1/brute-12.txt" 2> "$1/brute-12.log"
    printf 'ell=8\ntotal_episodes=20\nupdate_interval=10\nseed=1\n' > "$1/train.cfg"
    python -m polarkit.cli train --config "$1/train.cfg" --out "$1/train" \
        > "$1/train.json" 2> "$1/train.log"
    python - "$1/train" > "$1/train/checkpoint.sha256" <<'PY'
import hashlib
import sys
from pathlib import Path

import numpy as np

final = sorted(Path(sys.argv[1]).glob("checkpoint_*.npz"))[-1]
digest = hashlib.sha256()
with np.load(final) as arrays:
    for key in sorted(arrays.files):
        digest.update(f"{key} {arrays[key].dtype} {arrays[key].shape}\n".encode())
        digest.update(arrays[key].tobytes())
print(final.name, digest.hexdigest())
PY
    python - > "$1/selfplay.txt" <<'PY'
import hashlib

import numpy as np

from polarkit.zero.env import default_reward_config
from polarkit.zero.mcts import MctsConfig
from polarkit.zero.net import Network, NetworkSpec
from polarkit.zero.train import self_play_episode

for ell, seed in ((12, 2), (16, 1)):
    record = self_play_episode(Network(NetworkSpec(ell), seed=0), default_reward_config(ell),
                               MctsConfig(), np.random.default_rng(seed), ell)
    digest = hashlib.sha256()
    for transition, policy in zip(record.transitions, record.policies):
        digest.update(f"{transition.action} {transition.reward!r}\n".encode())
        digest.update(policy.tobytes())
    print(f"ell={ell} seed={seed} steps={len(record.transitions)} {digest.hexdigest()}")
PY
}
# prints the minor page faults per 256-codeword batch of the polarkit on
# PYTHONPATH, for the (256,128) code of kernel $1 at m=$2, and the peak RSS
# of the process
batch_faults() {
    python - "$1" "$2" <<'PY'
import resource
import sys

from polarkit import codec, reference

kernel, m = getattr(reference, sys.argv[1]), int(sys.argv[2])
ell = kernel.ncols
frozen = codec.select_frozen_set(ell, m, 128, kernel, 2.5, 256, seed=1)
spec = codec.PolarCodeSpec(ell, m, 128, kernel, frozen)
for seed in range(3):
    codec.simulate_bler(spec, [2.5], 256, seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 13):
    codec.simulate_bler(spec, [2.5], 256, seed)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(f"{(usage.ru_minflt - before) // 10} faults, {usage.ru_maxrss / 1024:.1f} MB")  # KiB on Linux
PY
}
# prints three sha256 lines for the kernels of items 7-9, of the polarkit on
# PYTHONPATH: each `build_link_tables` result in a canonical form, arrays as
# dtype, shape and bytes and slices as start and stop; then the phase LLRs
# and kept tables of its cold programs and of a warm chain of phases; then
# the complexity report of each kernel under each reuse policy
kernel_digests() {
    python - <<'PY'
import hashlib

import numpy as np

from polarkit.codec import build_link_tables, phase_llrs_trellis
from polarkit.complexity import ReuseMode, total_complexity
from polarkit.gf2 import BitMatrix, rank
from polarkit.reference import ARIKAN, BEST12, BEST16


def canonical(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, slice):
        return "slice", value.start, value.stop
    if isinstance(value, tuple):
        return tuple(canonical(item) for item in value)
    if isinstance(value, frozenset):
        return "set", tuple(sorted(value))
    return value


rng = np.random.default_rng(5)
kernels = [ARIKAN, BEST12, BEST16]
for ell in range(2, 17):
    while len(kernels) < 3 + 8 * (ell - 1):  # rejection sampling of non-singular kernels
        rows = tuple(int(r) for r in rng.integers(1, 1 << ell, size=ell))
        if rank(rows) == ell:
            kernels.append(BitMatrix(ell, rows))


def outputs(phase_llr, kept):
    phases.update(phase_llr.tobytes())
    for key in sorted(kept):
        phases.update(f"{key}".encode() + kept[key].tobytes())


digest, phases = hashlib.sha256(), hashlib.sha256()
draws = np.random.default_rng(6)
for kernel in kernels:
    dec = build_link_tables(kernel)
    digest.update(repr(canonical(tuple(dec))).encode())
    ell = kernel.ncols
    bits = np.array([[r >> (ell - 1 - c) & 1 for c in range(ell)] for r in kernel.rows], np.uint8)
    llrs = draws.normal(scale=2.0, size=(16, ell))
    u = draws.integers(0, 2, size=(16, ell), dtype=np.uint8)
    for a in range(ell):  # cold: prefix of random earlier decisions
        outputs(*phase_llrs_trellis(dec, a, u[:, :a] @ bits[:a] % 2, llrs))
    prefix, held, flip = np.zeros((16, ell), np.uint8), None, None
    for a in range(ell):  # warm: each phase decided by its signs
        phase_llr, held = phase_llrs_trellis(dec, a, prefix, llrs, held, flip)
        outputs(phase_llr, held)
        flip = (phase_llr < 0).reshape(1, -1)
        prefix ^= flip.T * bits[a]
reports = hashlib.sha256()
for kernel in kernels:
    for policy in ReuseMode:
        reports.update(total_complexity(kernel, policy).to_json().encode())
print(f"{len(kernels)} kernels {digest.hexdigest()}")
print(f"{len(kernels)} kernels {phases.hexdigest()}")
print(f"{len(kernels)} kernels, {len(ReuseMode)} policies {reports.hexdigest()}")
PY
}
head_src=$(mktemp -d)
git archive HEAD src | tar -x -C "$head_src"
now_options=$(count_options)
head_options=$(PYTHONPATH="$head_src/src" count_options)
now_out=$(mktemp -d)
head_out=$(mktemp -d)
seeded_outputs "$now_out"
PYTHONPATH="$head_src/src" seeded_outputs "$head_out"
differ=()
for name in best16.csv arikan.csv best12.csv random-{8,12}-{all-contiguous,section-tables}.json \
    random-16.json brute-12.txt train/{training_log.csv,best_kernel.txt,checkpoint.sha256} \
    selfplay.txt; do
    [[ -s "$now_out/$name" ]] && cmp -s "$now_out/$name" "$head_out/$name" || differ+=("$name")
done
if ((${#differ[@]})); then
    echo "seeded outputs: ${differ[*]} empty or differ from HEAD"
    status=1
else
    echo "seeded outputs: bler CSVs (best16 m=2, arikan m=8, best12 m=2), random JSONs" \
        "(ell 8 and 12, all-contiguous and section-tables; ell 16), brute ell=12, train ell=8 (log," \
        "best kernel, checkpoint arrays) and self-play episodes (ell 12 seed 2, ell 16 seed 1)" \
        "byte-identical to HEAD"
fi
faults=()
for run in "BEST16 2" "ARIKAN 8"; do
    read -r name m <<< "$run"
    faults+=("$name m=$m $(batch_faults "$name" "$m") (HEAD $(PYTHONPATH="$head_src/src" batch_faults "$name" "$m"))")
done
echo "minor page faults per 256-codeword batch, peak RSS: ${faults[0]}; ${faults[1]}"
{ read -r now_digest; read -r now_phases; read -r now_reports; } < <(kernel_digests)
{ read -r head_digest; read -r head_phases; read -r head_reports; } \
    < <(PYTHONPATH="$head_src/src" kernel_digests)
[[ "$now_digest" == "$head_digest" ]] && match="match" || match="differ"
echo "compiled decoders: $now_digest (HEAD $head_digest): $match"
if [[ -n "$now_phases" && "$now_phases" == "$head_phases" ]]; then
    echo "phase LLRs: $now_phases byte-identical to HEAD"
else
    echo "phase LLRs: $now_phases (HEAD $head_phases) empty or differ from HEAD"
    status=1
fi
if [[ -n "$now_reports" && "$now_reports" == "$head_reports" ]]; then
    echo "complexity reports: $now_reports byte-identical to HEAD"
else
    echo "complexity reports: $now_reports (HEAD $head_reports) empty or differ from HEAD"
    status=1
fi
rm -rf "$head_src" "$now_out" "$head_out"
python - "$now_options" "$head_options" <<'PY'
import json
import sys

now, head = (json.loads(arg) for arg in sys.argv[1:])
flags, head_flags = now["flags"], head["flags"]
total, head_total = sum(flags.values()), sum(head_flags.values())
print(f"options: {total} CLI flags ({total - head_total:+d}), "
      f"{now['keys']} train-config keys ({now['keys'] - head['keys']:+d}), "
      f"{now['policies']} reuse policies ({now['policies'] - head['policies']:+d}) against HEAD")
print("flags:   " + ", ".join(
    f"{name} {count} ({count - head_flags.get(name, 0):+d})" for name, count in flags.items()
))
PY
exit "$status"
