#!/usr/bin/env bash
# Regenerates the committed ledgers CI compares exactly, with the commands
# CI runs, so a change that moves a simulated outcome on purpose rewrites
# them in one step (and says why in CHANGES.md):
#
#   CHAOS_SOAK.json          the chaos soak's per-seed fingerprints at 24 and
#                            100 hosts; the 24-host soak built with debug
#                            assertions must reproduce the release one
#   BENCH_chaos.json         the chaos scenario harness's outcomes
#   BENCH_FINGERPRINTS.json  each benchmark workload's one-second result
#                            fingerprint and simulated event count
#
#   scripts/ledgers.sh                  # all three
#   scripts/ledgers.sh soak|chaos|bench # one of them
#
# A soak seed that breaks an oracle, or a benchmark run whose output checks
# fail, stops the script before its ledger is written. The run logs land
# where CI's steps leave them (soak-*.txt, bench-fp-*.txt; git-ignored).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

soak() {
    cargo run --release -p mortar-chaos --example soak >soak-24.txt
    MORTAR_CHAOS_HOSTS=100 cargo run --release -p mortar-chaos --example soak >soak-100.txt
    CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=target/debug-assertions \
        cargo run --release -p mortar-chaos --example soak >soak-24-debug.txt
    python3 - <<'EOF'
import json, re
def fingerprints(path):
    return [m.group(1) for m in re.finditer(
        r"seed +\d+: \d+ violations, fingerprint (0x[0-9a-f]+)", open(path).read())]
old = json.load(open("CHAOS_SOAK.json"))
h24, h100 = fingerprints("soak-24.txt"), fingerprints("soak-100.txt")
assert fingerprints("soak-24-debug.txt") == h24, \
    "the debug-assertion soak differs from the release soak"
assert len(h24) == len(h100) == old["seeds"], "a soak printed the wrong number of seeds"
new = dict(old, hosts_24=h24, hosts_100=h100)
with open("CHAOS_SOAK.json", "w") as f:
    f.write(json.dumps(new, indent=2) + "\n")
for key in ("hosts_24", "hosts_100"):
    moved = sum(a != b for a, b in zip(old[key], new[key]))
    print("CHAOS_SOAK.json %s: %d of %d seeds moved" % (key, moved, len(new[key])))
EOF
}

chaos() {
    cargo bench -p mortar-bench --bench chaos_scenarios
    python3 - <<'EOF'
import json
j = json.load(open("BENCH_chaos.json"))
assert int(j["sweep_failures"]) == 0, "sweep failures: %s" % j["sweep_failures"]
print("BENCH_chaos.json: %s seeds clean" % j["sweep_seeds"])
EOF
}

bench() {
    for w in steady100 keyed100 fleet1000 churn100; do
        bash benchmark/run.sh --workload $w --seed 13 --seconds 1 --trace 0 >bench-fp-$w.txt
    done
    python3 - <<'EOF'
import json
ledger = json.load(open("BENCH_FINGERPRINTS.json"))
rows = []
for w in ledger["workloads"]:
    lines = open("bench-fp-%s.txt" % w).read().splitlines()
    assert json.loads(lines[-1])["correct"] is True, "%s failed its output checks" % w
    detail = [l for l in lines if l.startswith("detail ")]
    assert len(detail) == 1, "%s: %d detail lines" % (w, len(detail))
    sim = json.loads(detail[0][len("detail "):])["sim"]
    got = {"fingerprint": sim["fingerprint"], "events": sim["events"]}
    print("%s: %s%s" % (w, got, "" if got == ledger["workloads"][w] else " (moved)"))
    rows.append('    "%s": { "fingerprint": "%s", "events": %d }' % (w, got["fingerprint"], got["events"]))
head = ['  "%s": %s,' % (k, json.dumps(ledger[k])) for k in ("run", "seed", "seconds")]
with open("BENCH_FINGERPRINTS.json", "w") as f:
    f.write("{\n" + "\n".join(head) + '\n  "workloads": {\n' + ",\n".join(rows) + "\n  }\n}\n")
EOF
}

case "${1:-all}" in
all) soak && chaos && bench ;;
soak | chaos | bench) "$1" ;;
*)
    echo "usage: scripts/ledgers.sh [all|soak|chaos|bench]" >&2
    exit 2
    ;;
esac
