#!/usr/bin/env bash
# Builds iselperf and the iseld daemon it drives from the sources of this
# checkout, then runs iselperf from the checkout root with the given flags:
#
#   bash cmd/iselperf/run.sh --workload serve-rv --seed 1 --seconds 15 --trace 0
#
# Binaries, the Go build cache and the daemons' scratch directories all stay
# under .bench_build/ at the checkout root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local

cd "$here"
go build -o "$out/iselperf" .
go build -o "$out/iseld" iselgen/cmd/iseld

cd "$root"
exec "$out/iselperf" -iseld "$out/iseld" -workdir "$out" "$@"
