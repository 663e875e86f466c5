#!/usr/bin/env bash
# "No count moved" check for the simulated benchmark workloads: runs
# sim-paper-n5 and sim-scale-n251 through bench/run.sh at
# `--seed 1 --seconds 3 --trace 1`, keeps the lines whose unit is `count`
# (per-op counts the simulator makes exactly: they depend neither on the
# host nor on the run length) and diffs them against
# scripts/testdata/counts-<workload>.golden. A change that moves a count on
# purpose re-records the files and says why in CHANGES.md:
#
#	bash scripts/countgolden.sh           # check
#	bash scripts/countgolden.sh --update  # re-record
set -euo pipefail
cd "$(dirname "$0")/.."

run="$(mktemp)"
out="$(mktemp)"
trap 'rm -f "$run" "$out"' EXIT
status=0
for workload in sim-paper-n5 sim-scale-n251; do
	golden="scripts/testdata/counts-$workload.golden"
	if ! bash bench/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 1 >"$run"; then
		grep -v '^{' "$run" >&2 || true
		echo "countgolden: $workload failed its own output check" >&2
		exit 1
	fi
	awk '$NF == "count"' "$run" >"$out"
	if [[ ! -s "$out" ]]; then
		echo "countgolden: $workload printed no count lines" >&2
		exit 1
	fi
	if [[ "${1:-}" == "--update" ]]; then
		cp "$out" "$golden"
		echo "countgolden: re-recorded $golden"
	elif ! diff -u "$golden" "$out"; then
		echo "countgolden: $workload's counts drifted from $golden" >&2
		status=1
	fi
done
if [[ "$status" -ne 0 ]]; then
	echo "countgolden: if the change is intended, re-record with --update and say why in CHANGES.md" >&2
elif [[ "${1:-}" != "--update" ]]; then
	echo "countgolden: ok"
fi
exit "$status"
