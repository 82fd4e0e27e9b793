#!/usr/bin/env bash
# Compares two checkouts on one benchmark workload with alternating pairs of
# runs, the way a change's end-to-end claims are checked:
#
#   scripts/pairs.sh [--seconds s] [--expect-equal] <workload> <pairs> <old-checkout> <new-checkout> [seed]
#
# Each checkout's frozen benchmark (its own benchmark/ package) is built
# once, under that checkout's own CARGO_TARGET_DIR (<checkout>/benchmark/target),
# and the binary is copied aside, so a rebuild between runs cannot swap it.
# Pair i runs old then new when i is even, new then old when it is odd, each
# from its own checkout, with `--seed` (default 13), `--seconds` (default 10)
# and `--trace 0`.
#
# Printed: for every end-to-end metric of BENCHMARK.json, each side's median
# and quartiles and how many pairs the new side won (by the metric's own
# direction; a tie is no win), then whether the result fingerprint, the
# simulated event count and every simulated metric are equal on every run of
# both sides. With --expect-equal the script exits 1 when they are not (CI
# runs the checkout against itself this way). Run logs stay in a temporary
# directory whose path is printed.
set -euo pipefail

seconds=10
expect_equal=0
while [ $# -gt 0 ]; do
    case "$1" in
    --seconds)
        seconds="$2"
        shift 2
        ;;
    --expect-equal)
        expect_equal=1
        shift
        ;;
    *) break ;;
    esac
done
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/pairs.sh [--seconds s] [--expect-equal] <workload> <pairs> <old-checkout> <new-checkout> [seed]" >&2
    exit 2
fi
workload="$1"
pairs="$2"
old="$(cd "$3" && pwd)"
new="$(cd "$4" && pwd)"
seed="${5:-13}"
logs="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"

# Builds the checkout's benchmark into its own target directory and copies
# the binary to $logs/<side>.bin.
build() {
    local checkout="$1" side="$2"
    CARGO_TARGET_DIR="$checkout/benchmark/target" cargo build --release --offline \
        --manifest-path "$checkout/benchmark/Cargo.toml" >&2
    cp "$checkout/benchmark/target/release/mortar-benchmark" "$logs/$side.bin"
}
build "$old" old
if [ "$new" = "$old" ]; then
    cp "$logs/old.bin" "$logs/new.bin"
else
    build "$new" new
fi

run() {
    local side="$1" i="$2" checkout
    if [ "$side" = old ]; then checkout="$old"; else checkout="$new"; fi
    (cd "$checkout" && "$logs/$side.bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$logs/$side-$i.txt"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run old "$i" && run new "$i"
    else
        run new "$i" && run old "$i"
    fi
    echo "pair $((i + 1)) of $pairs done" >&2
done

python3 - "$logs" "$pairs" "$new/BENCHMARK.json" "$expect_equal" "$workload" "$seed" "$seconds" <<'EOF'
import json, sys
logs, pairs, spec, expect_equal, workload, seed, seconds = sys.argv[1:]
pairs, expect_equal = int(pairs), expect_equal == "1"
spec = json.load(open(spec))

def read(side, i):
    lines = open("%s/%s-%d.txt" % (logs, side, i)).read().splitlines()
    detail = [l for l in lines if l.startswith("detail ")]
    assert len(detail) == 1, "%s run %d: %d detail lines" % (side, i, len(detail))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return result, metrics, json.loads(detail[0][len("detail "):])["sim"]

runs = {side: [read(side, i) for i in range(pairs)] for side in ("old", "new")}

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

print("%s seed %s, --seconds %s, %d pairs; logs in %s" % (workload, seed, seconds, pairs, logs))
print("%-24s %-40s %-40s %s" % ("metric", "old q1 / median / q3", "new q1 / median / q3", "new wins"))
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    o = [r[1][name] for r in runs["old"]]
    n = [r[1][name] for r in runs["new"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(o, n))
    oq, nq = quartiles(o), quartiles(n)
    change = (nq[1] - oq[1]) / oq[1] * 100 if oq[1] else 0.0
    print("%-24s %-40s %-40s %d/%d  (median %+.2f %%)" % (
        name, "%.6g / %.6g / %.6g" % oq, "%.6g / %.6g / %.6g" % nq, wins, pairs, change))

sim_metrics = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in ("setup_s", "sim_s_per_wall_s", "peak_rss_mb")]
def sim_view(run):
    result, metrics, sim = run
    return (result["correct"], result["attempted"], result["failed"],
            [metrics[k] for k in sim_metrics], sim)
views = [sim_view(r) for side in ("old", "new") for r in runs[side]]
equal = all(v == views[0] for v in views)
fp = sorted({r[2]["fingerprint"] for side in ("old", "new") for r in runs[side]})
ev = sorted({r[2]["events"] for side in ("old", "new") for r in runs[side]})
if equal:
    print("fingerprint %s, %d events and every simulated metric: equal on both sides" % (fp[0], ev[0]))
else:
    print("fingerprint, events or a simulated metric differ: fingerprints %s, events %s" % (fp, ev))
    for side in ("old", "new"):
        r = runs[side][0]
        print("  %s: %s" % (side, ", ".join("%s %.6g" % (k, r[1][k]) for k in sim_metrics)))
sys.exit(1 if expect_equal and not equal else 0)
EOF
