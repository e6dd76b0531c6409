#!/bin/sh
# Compare the byte-identity outputs of src/ at a git revision with those of
# the working tree:
#
#     scripts/identity_diff.sh [REV]      # REV defaults to HEAD
#
# `git archive REV src` is unpacked into a temporary checkout, next to a
# copy of this working tree's identity_outputs.sh, so both sides write the
# same 63 files (see identity_outputs.sh).  The two directories are then
# compared with `diff -r`; the exit status is non-zero on any difference,
# or if either side fails to write its files.  Before the outputs, the
# script prints `wc -l src/su2lab/*.py` for REV and for the working tree,
# the line count of the package.  The temporary directories are removed on
# exit.
set -eu

if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
rev=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir -p "$tmp/old/scripts"
git -C "$root" archive -o "$tmp/src.tar" "$rev" src
tar -x -f "$tmp/src.tar" -C "$tmp/old"
cp "$root/scripts/identity_outputs.sh" "$tmp/old/scripts/"

echo "$rev:"
(cd "$tmp/old" && wc -l src/su2lab/*.py)
echo "working tree:"
(cd "$root" && wc -l src/su2lab/*.py)

sh "$tmp/old/scripts/identity_outputs.sh" "$tmp/out-old"
sh "$root/scripts/identity_outputs.sh" "$tmp/out-new"
diff -r "$tmp/out-old" "$tmp/out-new"
echo "identity outputs of $rev and the working tree are equal:" \
    "$(ls "$tmp/out-new" | wc -l) files"
