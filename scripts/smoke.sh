#!/usr/bin/env bash
# Loopback smoke tests for the shipped binaries. Every scenario runs short
# campaigns in the plain build and again under the droidfuzz_sanitize tag
# (checked pools, relation-graph invariants, wire round-trip and checkpoint
# re-export verification), then asserts from the campaign output and JSON
# status reports that the dimension it covers actually ran. A wiring
# regression anywhere along a dimension zeroes its counter long before any
# per-layer unit test names the culprit.
#
#   remote  droidbrokerd serves A1 and B over TCP; droidfleet -remote runs
#           a per-program campaign with a pristine reset before every
#           program (-reset exec), then a pipelined, batched one (wire
#           protocol v2). Engines reach the budget with no exec errors,
#           the per-program engines book at least one reset per budgeted
#           program (the resets ride the exec frames to the broker, and
#           its replies book them), every batched engine ships batched execs
#           and saves uplink bytes, the sanitizer stays silent on the
#           device side, and the broker exits cleanly on SIGTERM.
#   params  in-process -params campaign: param_writes > 0.
#   clone   in-process -lineage campaign with batch pristine resets:
#           lineage_execs > 0, and total execs exceed lineage execs.
#   coord   droidcoordd with two droidfleet -coord hosts: equal nonzero
#           corpus fingerprints, every shard done, federation bytes in both
#           directions, a nonempty coordinator learn journal, no learn
#           record dropped by a host, and no host left undrained.
#
# Usage: scripts/smoke.sh [remote|params|clone|coord]   (no argument: all)
#
# SMOKE_PORT (default 7140) is the first loopback port; each scenario and
# build takes its own ports above it.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-7140}"
WORK="$(mktemp -d)"
cleanup() {
    local job
    for job in $(jobs -p); do
        kill "$job" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# bin BUILD NAME prints the path of ./cmd/NAME built for BUILD (plain or
# sanitize), building it on first use.
bin() {
    local out="$WORK/$2_$1" tags=""
    if [ "$1" = sanitize ]; then
        tags=droidfuzz_sanitize
    fi
    if [ ! -x "$out" ]; then
        go build -tags "$tags" -o "$out" "./cmd/$2"
    fi
    echo "$out"
}

# wait_ready PID LOG PATTERN waits until the background process PID logs a
# line matching PATTERN, failing if it dies or takes longer than 10 s.
wait_ready() {
    local pid="$1" log="$2" pattern="$3"
    for _ in $(seq 1 100); do
        if grep -q "$pattern" "$log"; then
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            cat "$log" >&2
            fail "process $pid died during startup"
        fi
        sleep 0.1
    done
    cat "$log" >&2
    fail "process $pid never logged '$pattern'"
}

# check SCENARIO LABEL ARGS... runs the scenario's status-report
# assertions:
#   check remote LABEL BUDGET STATUS [FLEETLOG]  (FLEETLOG: wire lines of a
#                                                batched campaign; without
#                                                it, a -reset exec one)
#   check params LABEL BUDGET STATUS
#   check clone  LABEL BUDGET STATUS
#   check coord  LABEL STATUS_A STATUS_B COORDLOG
check() {
    python3 - "$@" <<'PY'
import json, re, sys

scenario, label, args = sys.argv[1], sys.argv[2], sys.argv[3:]

def fail(msg):
    sys.exit(f"FAIL({scenario}/{label}): {msg}")

def load(path):
    with open(path) as f:
        return json.load(f)

if scenario == "coord":
    a, b = load(args[0])["fleet"], load(args[1])["fleet"]
    if a["corpus_hash"] != b["corpus_hash"]:
        fail(f"corpus fingerprints diverge: {a['corpus_hash']:#x} vs {b['corpus_hash']:#x}")
    if a["corpus_hash"] == 0:
        fail("corpus fingerprint is zero — no federation happened")
    for name, rep in (("A", a), ("B", b)):
        shards = rep.get("shards") or []
        if not shards:
            fail(f"host {name} ran no shards")
        for sh in shards:
            if sh["state"] != "done":
                fail(f"host {name} shard {sh['id']} state {sh['state']!r}, want done")
        if rep.get("fed_bytes_out", 0) <= 0 or rep.get("fed_bytes_in", 0) <= 0:
            fail(f"host {name} moved no federation bytes")
        if rep.get("learns_dropped", 0) != 0:
            fail(f"host {name} dropped {rep['learns_dropped']} learn records")
    journal = [int(m[1]) for m in re.finditer(r"journal=(\d+) ops", open(args[2]).read())]
    if not journal:
        fail("coordinator log has no journal=N ops line")
    if journal[-1] <= 0:
        fail(f"coordinator learn journal holds {journal[-1]} ops, want > 0")
    print(f"OK({scenario}/{label}): corpus_hash={a['corpus_hash']:#x} "
          f"shards={len(a['shards'])}+{len(b['shards'])} "
          f"steals={a.get('steals', 0) + b.get('steals', 0)} journal={journal[-1]}")
    sys.exit()

# Single-host fleets of A1 and B: both engines reach the iteration budget
# (triage and minimization add more) with no execution errors.
budget, rep = int(args[0]), load(args[1])
devices = rep.get("devices", {})
if len(devices) < 2:
    fail(f"{len(devices)} engines reported stats, want 2")
for id, st in sorted(devices.items()):
    if st["Execs"] < budget:
        fail(f"engine {id} fell short of {budget} execs ({st['Execs']})")
    if st["ExecErrors"] != 0:
        fail(f"engine {id} reported {st['ExecErrors']} exec errors")
if rep["exec_errors"] != 0:
    fail(f"status report shows {rep['exec_errors']} exec errors")
execs = sum(st["Execs"] for st in devices.values())
summary = f"execs={execs}"

if scenario == "remote" and len(args) > 2:
    # Batched campaigns print one wire-accounting line per engine.
    wires = 0
    for line in open(args[2]):
        m = re.match(r"  wire (\S+) +batched=(\d+) .* saved=(\d+)B$", line)
        if not m:
            continue
        wires += 1
        if int(m[2]) == 0:
            fail(f"engine {m[1]} shipped no batched execs")
        if int(m[3]) == 0:
            fail(f"engine {m[1]} saved no uplink bytes")
    if wires < 2:
        fail(f"{wires} wire-accounting lines printed, want 2")
    summary += f" wires={wires}"
elif scenario == "remote":
    # A -reset exec campaign resets before every program it runs.
    for id, st in sorted(devices.items()):
        if st["Restores"] + st["Reboots"] < budget:
            fail(f"engine {id} booked {st['Restores']} restores + {st['Reboots']} reboots, "
                 f"want at least {budget}")
    resets = sum(st["Restores"] + st["Reboots"] for st in devices.values())
    summary += f" resets={resets}"
elif scenario == "params":
    writes = rep["param_writes"]
    if writes <= 0:
        fail(f"param_writes = {writes}, want > 0")
    summary += f" param_writes={writes}"
elif scenario == "clone":
    lineage = rep["lineage_execs"]
    if lineage <= 0:
        fail(f"lineage_execs = {lineage}, want > 0")
    if execs <= lineage:
        fail(f"execs ({execs}) should exceed lineage execs ({lineage})")
    summary += f" lineage_execs={lineage}"
print(f"OK({scenario}/{label}): {summary}")
PY
}

# smoke_remote BUILD BASEPORT: campaigns against a droidbrokerd serving A1
# on BASEPORT and B on BASEPORT+1. The plain build runs a per-program
# campaign with -reset exec and a batched campaign; the sanitize build runs
# the batched one.
smoke_remote() {
    local build="$1" addr1="127.0.0.1:$2" addr2="127.0.0.1:$(($2 + 1))"
    local log="$WORK/brokerd_$build.log" brokerd fleet
    brokerd="$(bin "$build" droidbrokerd)"
    fleet="$(bin "$build" droidfleet)"
    "$brokerd" -devices A1,B -listen "$addr1" >"$log" 2>&1 &
    local pid=$!
    wait_ready "$pid" "$log" '^droidbrokerd: ready$'

    if [ "$build" = plain ]; then
        "$fleet" -remote "$addr1,$addr2" -iters 600 -rounds 2 -reset exec \
            -status "$WORK/remote_$build.json" | tee "$WORK/remote_$build.log"
        check remote "$build" 600 "$WORK/remote_$build.json"
    fi
    "$fleet" -remote "$addr1,$addr2" -iters 600 -rounds 2 \
        -pipeline 4 -batch 32 \
        -status "$WORK/batch_$build.json" | tee "$WORK/batch_$build.log"
    check remote "$build-batched" 600 "$WORK/batch_$build.json" "$WORK/batch_$build.log"

    if grep -q 'droidfuzz_sanitize:' "$log"; then
        cat "$log" >&2
        fail "remote/$build: sanitizer fired on the device side"
    fi
    kill -TERM "$pid"
    wait "$pid" || fail "remote/$build: droidbrokerd exited nonzero on SIGTERM"
    grep -q 'shutting down' "$log" || fail "remote/$build: shutdown message missing"
}

# smoke_params BUILD: a short in-process campaign with -params.
smoke_params() {
    local fleet
    fleet="$(bin "$1" droidfleet)"
    "$fleet" -devices A1,B -iters 600 -rounds 1 -params \
        -status "$WORK/params_$1.json" >"$WORK/params_$1.log"
    check params "$1" 600 "$WORK/params_$1.json"
}

# smoke_clone BUILD: a short in-process campaign with lineage fan-out and
# batch pristine resets.
smoke_clone() {
    local fleet
    fleet="$(bin "$1" droidfleet)"
    "$fleet" -devices A1,B -iters 800 -rounds 1 \
        -lineage 2 -lineage-len 4 -reset batch \
        -status "$WORK/clone_$1.json" >"$WORK/clone_$1.log"
    check clone "$1" 800 "$WORK/clone_$1.json"
}

# smoke_coord BUILD PORT: a coordinator on PORT with two droidfleet hosts.
smoke_coord() {
    local build="$1" addr="127.0.0.1:$2" log="$WORK/coord_$1.log" coordd fleet
    coordd="$(bin "$build" droidcoordd)"
    fleet="$(bin "$build" droidfleet)"
    "$coordd" -listen "$addr" -hosts 2 -models A1,B -shards 4 \
        -devices 1 -iters 300 -epoch 100 -linger 30s >"$log" 2>&1 &
    local cpid=$!
    wait_ready "$cpid" "$log" '^coordinator: .* serving'
    local host pid=()
    for host in A B; do
        "$fleet" -coord "$addr" -host-name "smoke$host-$build" \
            -status "$WORK/coord_${host}_$build.json" >"$WORK/coord_${host}_$build.log" 2>&1 &
        pid[${#pid[@]}]=$!
    done
    for host in A B; do
        wait "${pid[0]}" || {
            cat "$WORK/coord_${host}_$build.log" >&2
            fail "coord/$build: host $host exited nonzero"
        }
        pid=("${pid[@]:1}")
    done
    wait "$cpid" || {
        cat "$log" >&2
        fail "coord/$build: coordinator exited nonzero"
    }
    if grep -q "did not drain" "$log"; then
        cat "$log" >&2
        fail "coord/$build: coordinator reported undrained hosts"
    fi
    check coord "$build" "$WORK/coord_A_$build.json" "$WORK/coord_B_$build.json" "$log"
}

# Port layout above SMOKE_PORT: remote takes 0-3, coord 4-5.
run_scenario() {
    case "$1" in
    remote)
        smoke_remote plain "$PORT"
        smoke_remote sanitize "$((PORT + 2))"
        ;;
    params | clone)
        "smoke_$1" plain
        "smoke_$1" sanitize
        ;;
    coord)
        smoke_coord plain "$((PORT + 4))"
        smoke_coord sanitize "$((PORT + 5))"
        ;;
    *)
        echo "usage: $0 [remote|params|clone|coord]" >&2
        exit 2
        ;;
    esac
    echo "PASS: $1 smoke (plain + sanitize)"
}

if [ $# -gt 1 ]; then
    echo "usage: $0 [remote|params|clone|coord]" >&2
    exit 2
fi
for scenario in ${1:-remote params clone coord}; do
    run_scenario "$scenario"
done
