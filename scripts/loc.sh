#!/bin/bash
# Line counts that ROADMAP.md and simplicity changes quote, from one
# command run at the root of any checkout:
#
#   scripts/loc.sh
#
# It prints non-test and test Go lines (testdata excluded), the
# non-test lines of the placement group (internal/hvac, ftcache,
# partition and hashring, and internal/loadsim in older checkouts that
# have it, so counts compare across revisions), and the product
# //ftclint:ignore lines (the analyzer suite's own sources excluded).
# Hidden directories such as .bench_build are skipped.
set -eu

cd "$(dirname "$0")/.."

gofiles() {
	find "$@" -name '*.go' -not -path '*/testdata/*' -not -path '*/.*' 2>/dev/null
}

lines() {
	xargs -r cat | wc -l
}

nontest=$(gofiles . | grep -v '_test\.go$' | lines)
tests=$(gofiles . | grep '_test\.go$' | lines)
group=""
for d in hvac ftcache partition loadsim hashring; do
	[ -d "internal/$d" ] && group="$group internal/$d"
done
# shellcheck disable=SC2086
placement=$(gofiles $group | grep -v '_test\.go$' | lines)
ignores=$(gofiles . | grep -v '_test\.go$' | grep -v '^\./cmd/ftclint/\|^\./internal/analysis/' |
	xargs -r grep -h '//ftclint:ignore' | wc -l)

printf 'non-test Go lines      %6d\n' "$nontest"
printf 'test Go lines          %6d\n' "$tests"
printf 'placement group lines  %6d  (%s)\n' "$placement" "${group# }"
printf 'product ftclint:ignore %6d\n' "$ignores"
