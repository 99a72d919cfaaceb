#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it from the checkout root:
#
#   bash perfbench/run.sh --workload n1_checkpoint --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ and every data file under .bench_tmp/, both in the
# checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$out/ldbench" .
)
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
LDBENCH_COMMIT="$commit" exec "$out/ldbench" "$@"
