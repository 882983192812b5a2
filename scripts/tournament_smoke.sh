#!/usr/bin/env bash
# Policy-tournament smoke test: check `-policy list` names exactly the six
# built-in policies, race them over the standard corpus for one seed, then
# assert (1) the table covers every name `-policy list` advertises,
# (2) every entry's status is "ok" —
# which means every run reconciled its terminal accounting and nothing
# scheduled ever missed — and (3) the JSONL report parses with one line
# per policy and no err fields.
#
# Run from the repository root: ./scripts/tournament_smoke.sh
set -euo pipefail

WORKDIR="$(mktemp -d)"
TABLE="$WORKDIR/table.txt"
JSONL="$WORKDIR/report.jsonl"
trap 'rm -rf "$WORKDIR"' EXIT

fail() { echo "tournament_smoke: FAIL: $*" >&2; exit 1; }

echo "tournament_smoke: building rtsched"
go build -o "$WORKDIR/rtsched" ./cmd/rtsched

echo "tournament_smoke: listing the registry"
"$WORKDIR/rtsched" -policy list | awk '{print $1}' >"$WORKDIR/names.txt"
NAMES=$(wc -l <"$WORKDIR/names.txt")
WANT="D-COLS D-COLS-LL EDF-greedy RT-SADS myopic oracle"
GOT=$(LC_ALL=C sort "$WORKDIR/names.txt" | tr '\n' ' ' | sed 's/ $//')
[ "$GOT" = "$WANT" ] || fail "registry lists [$GOT], want exactly [$WANT]"

echo "tournament_smoke: racing $NAMES policies (1 seed per cell)"
"$WORKDIR/rtsched" -tournament -runs 1 -tournament-out "$JSONL" | tee "$TABLE"

while read -r name; do
    grep -q "^$name[[:space:]]" "$TABLE" || fail "table is missing policy $name"
    grep -q "\"policy\":\"$name\"" "$JSONL" || fail "jsonl is missing policy $name"
done <"$WORKDIR/names.txt"

if grep -q "FAIL:" "$TABLE"; then
    fail "a policy failed reconciliation: $(grep 'FAIL:' "$TABLE")"
fi
grep -q '"err"' "$JSONL" && fail "jsonl carries an err field: $(grep '"err"' "$JSONL")"

LINES=$(wc -l <"$JSONL")
[ "$LINES" -eq "$NAMES" ] || fail "jsonl has $LINES lines for $NAMES policies"

echo "tournament_smoke: PASS ($NAMES policies, all reconciled)"
