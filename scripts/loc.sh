#!/bin/bash
# Line counts that ROADMAP.md and simplicity changes quote, from one
# command run at the root of any checkout:
#
#   scripts/loc.sh
#
# It prints non-test and test Go lines (testdata excluded), the
# non-test lines of the placement group (internal/hvac, ftcache,
# partition and hashring, and internal/loadsim in older checkouts that
# have it, so counts compare across revisions), the analyzer suite's
# non-test lines (internal/analysis and cmd/ftclint), the product
# //ftclint:ignore lines (the analyzer suite's own sources excluded),
# and the config fields: the exported fields of every struct type whose
# name ends in Config, each name of a grouped declaration (A, B int)
# counted once. The config fields are in the same non-test file set as
# the first line. Hidden directories such as .bench_build are skipped.
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
suite=$(gofiles internal/analysis cmd/ftclint | grep -v '_test\.go$' | lines)
ignores=$(gofiles . | grep -v '_test\.go$' | grep -v '^\./cmd/ftclint/\|^\./internal/analysis/' |
	xargs -r grep -h '//ftclint:ignore' | wc -l)
# The field scan reads top-level "type XConfig struct {" blocks and
# takes the leading identifiers of each depth-1 line.
fields=$(gofiles . | grep -v '_test\.go$' | xargs -r cat | awk '
/^type [A-Za-z0-9_]*Config struct [{]/ { in_cfg = 1; depth = 1; next }
in_cfg {
	line = $0
	sub(/\/\/.*/, "", line)
	if (depth == 1) {
		f = line
		gsub(/,[ \t]*/, ",", f)
		split(f, w, " ")
		n = split(w[1], names, ",")
		for (i = 1; i <= n; i++)
			if (names[i] ~ /^[A-Z][A-Za-z0-9_]*$/) count++
	}
	depth += gsub(/[{]/, "{", line) - gsub(/[}]/, "}", line)
	if (depth <= 0) in_cfg = 0
}
END { print count + 0 }')

printf 'non-test Go lines      %6d\n' "$nontest"
printf 'test Go lines          %6d\n' "$tests"
printf 'placement group lines  %6d  (%s)\n' "$placement" "${group# }"
printf 'analyzer suite lines   %6d  (internal/analysis cmd/ftclint)\n' "$suite"
printf 'product ftclint:ignore %6d\n' "$ignores"
printf 'config fields          %6d\n' "$fields"
