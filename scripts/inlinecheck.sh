#!/usr/bin/env bash
# Inlining guard for the protocol hot paths.
#
#   bash scripts/inlinecheck.sh
#
# Builds internal/bitset, internal/rounds, internal/core and internal/sim
# with the compiler's inlining report (-gcflags=-m) and fails unless every
# helper below still reports "can inline", and unless core's window test
# still inlines the tally reader it calls per round. A helper that grows past
# the inlining budget costs a call per suspect, per round or per scheduled
# event without any test noticing; this makes it a build failure instead.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

report="$(go build -gcflags=-m ./internal/bitset ./internal/rounds ./internal/core ./internal/sim 2>&1)"

status=0
for fn in \
	'(*Set).Contains' '(*Set).ForEach' '(*Set).Clear' \
	'(*Window).Get' '(*Row).BeginRec' '(*Row).BeginSusp' \
	'(*Node).minTestOK' '(*Node).noteRound' \
	'(*Tally).Reached' \
	'(*queue).bucket' '(*queue).up' '(*entry).before' '(*Scheduler).push'; do
	if ! grep -qF "can inline $fn" <<<"$report"; then
		echo "inlinecheck: $fn no longer inlines" >&2
		status=1
	fi
done
if ! grep -qE 'internal/core/node\.go:.*inlining call to bitset\.\(\*Tally\)\.Reached' <<<"$report"; then
	echo "inlinecheck: core's window test no longer inlines (*Tally).Reached" >&2
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "inlinecheck: ok"
fi
exit "$status"
