#!/usr/bin/env bash
# Check that a change leaves every simulated result byte-identical.
# Exports REV with git archive into build-cmp/base, builds a Release
# example_simulate from it (build-cmp/base-build) and from the working
# tree (build-cmp/head), runs each cell below on both builds, each from
# its own tree (so configs/ paths resolve per tree), and compares
# stdout and the exit code per cell. Prints SAME or DIFF per cell; exits 1 on any DIFF.
# Outputs stay in build-cmp/out/{base,head}/<cell>.out for diffing.
# Usage: scripts/compare_stats.sh REV    (run from anywhere)
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$1"
jobs="$(nproc 2>/dev/null || echo 4)"
cmp_dir="$root/build-cmp"

echo "==> exporting $rev into build-cmp/base"
rm -rf "$cmp_dir/base" "$cmp_dir/out"
mkdir -p "$cmp_dir/base" "$cmp_dir/out/base" "$cmp_dir/out/head"
git -C "$root" archive "$rev" | tar -x -C "$cmp_dir/base"

build() { # <source dir> <build dir>
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > /dev/null
    cmake --build "$2" -j "$jobs" --target example_simulate > /dev/null
}
echo "==> building $rev (Release)"
build "$cmp_dir/base" "$cmp_dir/base-build"
echo "==> building the working tree (Release)"
build "$root" "$cmp_dir/head"

# One cell per line: "<name> <example_simulate args...>". Every cell
# prints the stats JSON; paths are relative to the tree under test.
stuck="-p faults.model=stuck -p faults.stuckAtPs=0 \
    -p faults.stuckForPs=400000000000000 -p faults.stuckPeriodPs=0 \
    -p faults.linkFilter=link1to2 -p faults.seed=7"
outage="-p faults.model=stuck -p faults.stuckAtPs=20000000 \
    -p faults.stuckForPs=200000000 -p faults.stuckPeriodPs=0 \
    -p faults.linkFilter=link1to2 -p faults.seed=7"
hr4="--config configs/default.json -p system.numDimms=4 \
    -p system.numChannels=2 -p link.topology=HalfRing"
serve="--preset 4D-2C --requests 512 -p serve.keys=8192 \
    -p serve.latBuckets=512"
rack="--config configs/rack_2host.json --requests 1024 \
    -p serve.latBuckets=512"
cells() {
    local wl fab
    # The broadcast kernels of Fig. 12 on every fabric, under BER,
    # and in their plain forms.
    for wl in pagerank sssp spmv; do
        for fab in mcn aim abc dimmlink; do
            echo "bcast-$wl-$fab --preset 8D-4C --fabric $fab" \
                "--workload $wl --broadcast --scale 10 --rounds 2"
        done
        echo "bcast-$wl-ber --preset 8D-4C --workload $wl --broadcast" \
            "--scale 10 --rounds 2 --ber 1e-4 -p faults.seed=7"
        echo "plain-$wl --preset 8D-4C --workload $wl --scale 10" \
            "--rounds 2"
    done
    # Alg. 1's mapping on every batch kernel (each --scale means
    # something else; these run in about a second or less) and, below,
    # on both serving ones.
    local cell
    for cell in bfs:10 gups:1 hotspot:4 kmeans:3 nw:4 pagerank:10 \
        spmv:10 sssp:10 stream:2 syncbench:4 tspow:3; do
        wl="${cell%:*}"
        echo "mapping-$wl --preset 8D-4C --workload $wl" \
            "--scale ${cell#*:} --rounds 2 --mapping"
    done
    # Serving: open, closed, hedged, with a deadline, on a 2-host
    # rack, on the host CPU and under Alg. 1's mapping.
    for wl in kv embed; do
        echo "$wl-open $serve --workload $wl"
        echo "$wl-closed $serve --workload $wl -p serve.mode=closed"
        echo "$wl-hedged $serve --workload $wl --hedge-after-us 0.3"
        echo "$wl-deadline $serve --workload $wl --deadline-us 1"
        echo "$wl-rack $rack --workload $wl"
        echo "$wl-cpu $serve --workload $wl --cpu"
        echo "$wl-mapping $serve --workload $wl --mapping"
    done
    # The DLL under bit errors, dead and recovering links.
    for seed in 7 11 23; do
        echo "ber-bfs-seed$seed $hr4 --workload bfs --scale 6" \
            "--rounds 2 --ber 2e-5 -p faults.seed=$seed"
    done
    echo "ber-bfs-5e-4 $hr4 --workload bfs --scale 6 --rounds 2" \
        "--ber 5e-4 -p faults.seed=7"
    echo "ber-kv-4d $serve --workload kv --ber 1e-4 -p faults.seed=7"
    echo "ber-kv-8d --preset 8D-4C --workload kv --requests 2048" \
        "-p serve.getFraction=0.5 --ber 1e-4 -p faults.seed=7"
    echo "ber-pagerank-16d --preset 16D-8C --workload pagerank" \
        "--scale 10 --rounds 1 --ber 1e-5 -p faults.seed=7"
    echo "plain-pagerank-16d --preset 16D-8C --workload pagerank" \
        "--scale 10 --rounds 1"
    local topo policy
    for topo in HalfRing Ring; do
        for policy in failover drop; do
            echo "stuck-bfs-$topo-$policy $hr4 -p link.topology=$topo" \
                "$stuck -p faults.onExhausted=$policy --workload bfs" \
                "--scale 6 --rounds 1"
        done
    done
    for policy in failover drop; do
        echo "stuck-bcast-$policy $hr4 $stuck" \
            "-p faults.onExhausted=$policy --workload pagerank" \
            "--broadcast --scale 6 --rounds 1"
        echo "stuck-8d-$policy --config configs/default.json $stuck" \
            "-p faults.onExhausted=$policy --workload bfs --scale 6" \
            "--rounds 1"
        echo "outage-$policy $hr4 $outage -p faults.onExhausted=$policy" \
            "--workload bfs --scale 6 --rounds 1"
    done
    echo "stuck-gups-drop $hr4 $stuck -p faults.onExhausted=drop" \
        "--workload gups --scale 6 --rounds 1"
    echo "stuck-panic $hr4 $stuck -p faults.onExhausted=panic" \
        "--workload bfs --scale 6 --rounds 1"
    # The three rack fabrics and routes.
    echo "rack-pooled $rack --workload kv"
    echo "rack-forwarded $rack --workload kv -p rack.idcMode=forwarded"
    echo "rack-direct $rack --workload kv -p rack.fabric=direct" \
        "-p rack.idcMode=forwarded"
}

run_cell() { # <tree> <binary> <out file> <args...>
    local tree="$1" bin="$2" out="$3" rc=0
    shift 3
    # A cell may abort on purpose (stuck-panic); keep the shell's
    # job report out of the log along with the run's stderr.
    (cd "$tree" && "$bin" "$@" --json > "$out") 2> /dev/null || rc=$?
    echo "$rc" >> "$out"
}

echo "==> running the cells"
same=0
diffs=0
while read -r name args; do
    # shellcheck disable=SC2086 # args is a word list by design.
    run_cell "$cmp_dir/base" "$cmp_dir/base-build/examples/example_simulate" \
        "$cmp_dir/out/base/$name.out" $args
    # shellcheck disable=SC2086
    run_cell "$root" "$cmp_dir/head/examples/example_simulate" \
        "$cmp_dir/out/head/$name.out" $args
    if cmp -s "$cmp_dir/out/base/$name.out" "$cmp_dir/out/head/$name.out"
    then
        echo "SAME $name"
        same=$((same + 1))
    else
        echo "DIFF $name"
        diffs=$((diffs + 1))
    fi
done < <(cells)

echo "==> $same SAME, $diffs DIFF"
[ "$diffs" -eq 0 ]
