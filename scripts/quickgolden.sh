#!/usr/bin/env bash
# Drift check for the quick experiment grid: runs
# `go run ./cmd/experiments -quick`, masks what depends on the host (the
# `_(wall time ...)_` lines and the FED table's wall column) and diffs the
# result against the committed golden file. Any intended behaviour change
# re-records the file:
#
#	bash scripts/quickgolden.sh           # check
#	bash scripts/quickgolden.sh --update  # re-record
set -euo pipefail
cd "$(dirname "$0")/.."
golden=scripts/testdata/experiments-quick.golden

mask() {
	awk '
		/^_\(wall time .*\)_$/ { print "_(wall time masked)_"; next }
		/^## / { fed = ($2 == "FED") }
		fed && /^\|/ { sub(/\|[^|]*\|$/, "| masked |") }
		{ print }
	'
}

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go run ./cmd/experiments -quick | mask >"$out"

if [[ "${1:-}" == "--update" ]]; then
	cp "$out" "$golden"
	echo "quickgolden: re-recorded $golden"
	exit 0
fi
if ! diff -u "$golden" "$out"; then
	echo "quickgolden: experiments -quick drifted from $golden" >&2
	echo "quickgolden: if the change is intended, re-record with --update and say why in CHANGES.md" >&2
	exit 1
fi
echo "quickgolden: ok"
