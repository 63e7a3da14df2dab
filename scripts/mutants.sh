#!/usr/bin/env sh
# Mutant gate: each scripts/mutants/<name>.patch is a deliberate bug in
# the engine, and the tests its header names must catch it.
#
#   scripts/mutants.sh
#
# A patch opens with comment lines, one of them
#
#   # must fail: <test filter> [<test filter> ...]
#
# followed by a unified diff against the tree. The script copies the
# working tree (tracked and untracked, not ignored) into one temporary
# directory, and for each patch: applies it, builds the workspace's
# tests, runs the named tests (`cargo test --workspace -- <filters>`),
# and reverses the patch. A mutant survives when every named test
# passes. The script fails when a patch no longer applies, a mutant
# does not build, or any mutant survives.
#
# Builds go to cargo's usual target directory of the copy (or
# CARGO_TARGET_DIR), shared by all mutants, so each one rebuilds only
# what its patch touches. `scripts/verify.sh` only checks that every
# patch still applies; run this script when a change touches a file a
# mutant patches.

set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
copy="$(mktemp -d)"
trap 'rm -rf "$copy"' EXIT

cd "$repo"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 cp --parents -t "$copy"

status=0
for patch in "$repo"/scripts/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    filters="$(sed -n 's/^# must fail: //p' "$patch")"
    if [ -z "$filters" ]; then
        echo "mutants: $name names no test that must fail" >&2
        status=1
        continue
    fi
    if ! (cd "$copy" && git apply "$patch"); then
        echo "mutants: $name no longer applies" >&2
        status=1
        continue
    fi
    if ! (cd "$copy" && cargo test -q --workspace --no-run >/dev/null 2>&1); then
        echo "mutants: $name does not build" >&2
        status=1
    elif (cd "$copy" && cargo test -q --workspace -- $filters >/dev/null 2>&1); then
        echo "mutants: $name SURVIVED ($filters all pass)" >&2
        status=1
    else
        echo "mutants: $name killed"
    fi
    (cd "$copy" && git apply -R "$patch")
done
exit "$status"
