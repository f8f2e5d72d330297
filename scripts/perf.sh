#!/bin/sh
# perf.sh — where the CPU goes, before and after a change. Runs four
# testing.B benchmarks under -cpuprofile at GOMAXPROCS 1 and 2 — a sweep
# (BenchmarkSweepFractions), the cold cube (BenchmarkHypercubeFigure6Dedup)
# and the two halves of a stream (BenchmarkCameraStream/small,
# BenchmarkReceiver) — once on a base revision (exported with git archive)
# and once on the working tree, and writes a markdown report of each
# profile's top functions by flat and cumulative CPU share, base beside
# change.
#
#   sh scripts/perf.sh [BASE]   # BASE defaults to HEAD
#
# Each benchmark runs for its own -benchtime: a fixed op count for the cold
# sweep and the cube (whose ops take tens to hundreds of milliseconds, so a
# time budget would give a few ops and a few hundred samples), 2 s for the
# stream halves. Each side contributes its top 12 functions by flat share to
# a table, and the report gives each profile's sample count. Shares are of
# each profile's total samples, so they compare across the two trees even
# when host speed drifts between runs; ns/op does not.
set -eu

cd "$(dirname "$0")/.."
base=${1:-HEAD}
out=PERF.md
top=12

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
base_rev=$(git rev-parse --short "$base")
change_rev="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . || echo '+dirty')"

# name|package|-bench regex|-benchtime
benches='BenchmarkSweepFractions|.|^BenchmarkSweepFractions$|300x
BenchmarkHypercubeFigure6Dedup|.|^BenchmarkHypercubeFigure6Dedup$|30x
BenchmarkCameraStream/small|./internal/camera|^BenchmarkCameraStream$/^small$|2s
BenchmarkReceiver|./internal/stream|^BenchmarkReceiver$|2s'

# profile SIDE DIR: every benchmark at both GOMAXPROCS, each profile's
# `pprof -top` in $tmp/SIDE-N-PROCS.top, its ns/op in .ns and its sample
# count in .samples.
profile() {
	side=$1
	dir=$2
	n=0
	echo "$benches" | while IFS='|' read -r name pkg regex benchtime; do
		n=$((n + 1))
		for procs in 1 2; do
			stem="$tmp/$side-$n-$procs"
			echo "perf: $side $name GOMAXPROCS=$procs" >&2
			(cd "$dir" && go test -run '^$' -bench "$regex" -benchtime "$benchtime" -cpu "$procs" \
				-cpuprofile "$stem.prof" -o "$stem.bin" "$pkg") >"$stem.out"
			awk '$1 ~ /^Benchmark/ { print $3; exit }' "$stem.out" >"$stem.ns"
			go tool pprof -top -nodecount=200 "$stem.bin" "$stem.prof" 2>/dev/null >"$stem.top"
			go tool pprof -sample_index=samples -top -nodecount=1 "$stem.bin" "$stem.prof" 2>/dev/null |
				awk '/ total$/ { print $(NF - 1); exit }' >"$stem.samples"
		done
	done
}

profile base "$tmp/base"
profile change .

# The patch path's kernels, whose cumulative shares lead the report.
kernels='raster.resampleInto raster.bilinearRowsInto raster.boxRowsInto raster.noisePlane raster.noisePlaneAVX2 raster.noiseRow detect.floatComponents detect.smoothPlane detect.smoothPlaneAVX2 detect.smoothRow detect.runSum detect.runSumAVX2 raster.(*Image).FillRect raster.(*Image).FillEllipse'

# kernelrows NAME N PROCS: one row per kernel either side's profile holds.
kernelrows() {
	awk -v name="$1" -v procs="$3" -v kernels="$kernels" '
		FNR == 1 { side++ }
		$2 ~ /%$/ && $5 ~ /%$/ && $1 != "flat" { sub(/^smokescreen\/internal\//, "", $6); cum[side, $6] = $5 }
		END {
			nk = split(kernels, k, " ")
			for (i = 1; i <= nk; i++)
				if ((1, k[i]) in cum || (2, k[i]) in cum)
					printf "| %s | %s | `%s` | %s | %s |\n", name, procs, k[i], v(cum[1, k[i]]), v(cum[2, k[i]])
		}
		function v(s) { return s == "" ? "—" : s }
	' "$tmp/base-$2-$3.top" "$tmp/change-$2-$3.top"
}

# table N PROCS: the union of each side's top functions by flat share, with
# both sides' flat and cumulative shares.
table() {
	awk -v top="$top" '
		FNR == 1 { side++; rank = 0 }
		$2 ~ /%$/ && $5 ~ /%$/ && $1 != "flat" {
			fn = $6
			sub(/^smokescreen\/internal\//, "", fn)
			flat[side, fn] = $2; cum[side, fn] = $5
			if (++rank <= top && !(fn in seen)) { seen[fn] = 1; order[++nfn] = fn }
		}
		END {
			print "| function | base flat | base cum | change flat | change cum |"
			print "|---|---:|---:|---:|---:|"
			for (i = 1; i <= nfn; i++) {
				fn = order[i]
				printf "| `%s` | %s | %s | %s | %s |\n", fn,
					v(flat[1, fn]), v(cum[1, fn]), v(flat[2, fn]), v(cum[2, fn])
			}
		}
		function v(s) { return s == "" ? "—" : s }
	' "$tmp/base-$1-$2.top" "$tmp/change-$1-$2.top"
}

{
	echo "# PERF — where the CPU goes"
	echo
	echo "Generated by \`make perf\` (\`scripts/perf.sh\`): base \`$base_rev\`, change \`$change_rev\`;"
	echo "$(go version | cut -d' ' -f3), $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2 | sed 's/^ //'), $(nproc) CPUs."
	echo "Each benchmark ran for the \`-benchtime\` its section gives, under \`-cpuprofile\`; a share is a"
	echo "function's percentage of its profile's samples (flat: in the function itself;"
	echo "cum: with its callees), from \`go tool pprof -top\`. Each table lists the union"
	echo "of both sides' top $top functions by flat share; — is below pprof's cut."
	echo "ns/op drifts with the host between runs; compare shares."
	echo
	echo "## Patch-path kernels, cumulative share"
	echo
	echo "| benchmark | GOMAXPROCS | kernel | base | change |"
	echo "|---|---:|---|---:|---:|"
	n=0
	echo "$benches" | while IFS='|' read -r name pkg regex benchtime; do
		n=$((n + 1))
		for procs in 1 2; do
			kernelrows "$name" "$n" "$procs"
		done
	done
	n=0
	echo "$benches" | while IFS='|' read -r name pkg regex benchtime; do
		n=$((n + 1))
		for procs in 1 2; do
			echo
			echo "## $name, GOMAXPROCS=$procs"
			echo
			echo "\`-benchtime $benchtime\`; samples: base $(cat "$tmp/base-$n-$procs.samples"), change $(cat "$tmp/change-$n-$procs.samples");"
			echo "ns/op: base $(cat "$tmp/base-$n-$procs.ns"), change $(cat "$tmp/change-$n-$procs.ns")."
			echo
			table "$n" "$procs"
		done
	done
} >"$out"
echo "perf: wrote $out" >&2
