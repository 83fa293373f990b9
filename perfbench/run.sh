#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload disk3 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, arrays, trace files) stays under .bench_build.
# Engine arrays go on a private tmpfs mounted at .bench_build/tmpfs in a
# mount namespace of the benchmark's own, so no other process sees it and
# it disappears when the benchmark exits. Where mount namespaces are not
# available the arrays stay on the checkout's filesystem, which the
# report names.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/tmpfs"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
bin="$build/bin/perfbench"
mnt='mount -t tmpfs -o size=1g perfbench "$0"'
for ns in -m -rm; do
	if unshare "$ns" sh -c "$mnt" "$build/tmpfs" 2>/dev/null; then
		exec unshare "$ns" sh -c "$mnt"' && exec "$@"' "$build/tmpfs" "$bin" --array-dir "$build/tmpfs" "$@"
	fi
done
exec "$bin" "$@"
