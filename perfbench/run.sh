#!/usr/bin/env bash
# Builds accelwalld and the benchmark from the sources of the checkout it
# runs in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15
#
# Everything it writes (build cache, binaries, daemon state, spans) goes
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/accelwalld || ! -d internal ]]; then
	echo "perfbench: run from the repository root: the accelwalld sources are not here" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$out/bin" "$out/run" "$out/tmp"
go build -o "$out/bin/accelwalld" ./cmd/accelwalld
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/accelwalld" -workdir "$out/run" "$@"
