#!/bin/sh
# race20.sh PATTERN PACKAGE... runs `go test -race -count=20 -run
# PATTERN` over the packages, after checking with `go test -list` that
# the pattern names at least one test in each of them: `go test -run`
# passes when its pattern matches nothing, so a renamed test would turn
# the run into a silent no-op. The check reads the pattern's top level
# only (what precedes its first /), since subtests are not listed.
set -eu
pattern=$1
shift
top=${pattern%%/*}
for pkg in "$@"; do
	n=$(go test -list "$top" "$pkg" | grep -c '^Test' || true)
	if [ "$n" -eq 0 ]; then
		echo "race20.sh: -run '$pattern' names no test in $pkg" >&2
		exit 1
	fi
	echo "race20.sh: $pkg: $n tests match '$top'"
done
exec go test -race -count=20 -run "$pattern" "$@"
