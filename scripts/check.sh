#!/usr/bin/env bash
# The checks every change reports, run from the repository root:
#   1. the tier-1 test command (the full suite, slow tests included) at
#      verbose level, logged to test_output.txt;
#   2. the benchmark's self-test (perfbench/run.py --selftest);
#   3. the line counts of src/ and tests/, each with its change against
#      the same files at HEAD (the work tree's uncommitted delta);
#   4. the settable options, each with its change against HEAD: the CLI
#      flags of all subcommands, the train-config keys, the reuse policies.
# Nothing is deselected or skipped, so the script exits nonzero while any
# test is red -- criterion 1 is, by design (see README).
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
    printf '%-7s %d lines (%+d against HEAD)\n' "$dir/:" "$now" "$((now - head))"
done

# prints "<CLI flags> <train-config keys> <reuse policies>" of the polarkit on PYTHONPATH
count_options() {
    python - <<'PY'
import argparse
from dataclasses import fields

from polarkit.cli import build_parser
from polarkit.complexity import ReuseMode
from polarkit.zero.train import TrainConfig

sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
flags = sum(
    not isinstance(a, argparse._HelpAction) for p in sub.choices.values() for a in p._actions
)
print(flags, len(fields(TrainConfig)), len(ReuseMode))
PY
}
head_src=$(mktemp -d)
git archive HEAD src | tar -x -C "$head_src"
read -r flags keys policies < <(count_options)
read -r head_flags head_keys head_policies < <(PYTHONPATH="$head_src/src" count_options)
rm -rf "$head_src"
printf 'options: %d CLI flags (%+d), %d train-config keys (%+d), %d reuse policies (%+d) against HEAD\n' \
    "$flags" "$((flags - head_flags))" "$keys" "$((keys - head_keys))" \
    "$policies" "$((policies - head_policies))"
exit "$status"
