#!/usr/bin/env bash
# Kill-matrix gate for the sweep service (docs/SERVE.md).
#
# Runs `qcarch serve` + workers over specs/ci_smoke.json with a
# deterministic fault injected at each protocol point the recovery
# story claims to survive — worker killed before its marker commit
# rename, after it, mid-rename (torn marker), a worker whose
# heartbeat goes stale, a coordinator killed mid-sweep, and a
# drained coordinator — then restarts the survivors and requires
# the merged document to be byte-identical (cmp) to a single-shot
# `qcarch sweep` of the same spec. Log assertions pin the recovery
# path taken: the expired lease is reclaimed exactly once,
# committed points are never re-executed (no duplicate markers),
# no marker is ever rejected as conflicting, and a restarted
# coordinator recovers the published points from the store.
#
# Usage: tools/kill_matrix.sh [QCARCH_BINARY [SPEC]]
# Exits non-zero on the first failed leg.

set -u

QCARCH=${1:-./build/qcarch}
SPEC=${2:-specs/ci_smoke.json}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/qc_kill_matrix.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

FAULT_EXIT=42        # FaultInjector::kExitCode
INTERRUPTED_EXIT=3   # drained; finished points are in the store

fail() {
    echo "kill_matrix: FAIL: $*" >&2
    exit 1
}

# Shared serve/worker knobs: short lease so stale-heartbeat legs
# resolve quickly, per-point shards so every fault leg exercises
# the merge path repeatedly, and idle bounds so a wedged leg times
# out instead of hanging CI.
SERVE_ARGS=(--workers-expected 2 --shard-points 1 --lease-seconds 1
            --poll-ms 50 --quiet)
WORK_ARGS=(--poll-ms 25 --backoff-max-ms 200 --max-idle-seconds 60
           --quiet)

run_worker() { # run_worker DIR [EXTRA_ARGS...]
    local dir=$1
    shift
    timeout 120 "$QCARCH" work --coordinator "$dir" \
        "${WORK_ARGS[@]}" "$@"
}

assert_clean_log() { # assert_clean_log LOGFILE
    if grep -q "already merged; idempotent" "$1"; then
        fail "committed points were re-executed ($1):" \
             "$(grep 'already merged' "$1")"
    fi
    if grep -q "rejected conflicting marker" "$1"; then
        fail "a conflicting marker appeared ($1)"
    fi
}

assert_recovered() { # assert_recovered LOGFILE LEG
    grep -Eq "recovered [1-9][0-9]* point\(s\) from the store" "$1" \
        || fail "$2: restart recovered no points from the store"
}

echo "== golden single-shot document"
"$QCARCH" sweep "$SPEC" --threads 2 --quiet \
    --out "$WORK/golden.json" || fail "golden sweep failed"

# ----------------------------------------------------------------
# Worker fault legs: one faulted worker (must die with the fault
# exit code), then a clean worker finishes the sweep.
# ----------------------------------------------------------------
for fault in crash-before-commit crash-after-commit torn-marker; do
    echo "== worker fault: $fault"
    dir=$WORK/$fault
    out=$dir/out.json
    mkdir -p "$dir"
    timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
        --dir "$dir/serve" "${SERVE_ARGS[@]}" &
    serve_pid=$!

    run_worker "$dir/serve" --fault "$fault"
    rc=$?
    [ "$rc" -eq "$FAULT_EXIT" ] \
        || fail "$fault worker exited $rc, wanted $FAULT_EXIT"

    run_worker "$dir/serve" || fail "$fault: clean worker failed"
    wait "$serve_pid" || fail "$fault: coordinator failed"
    cmp "$WORK/golden.json" "$out" \
        || fail "$fault: document differs from single-shot"
    assert_clean_log "$dir/serve/log"
done

# crash-before-commit leaves a dead owner holding an uncommitted
# lease: the dead-PID fast path must have reclaimed it.
grep -q "reclaimed dead owner" "$WORK/crash-before-commit/serve/log" \
    || fail "crash-before-commit: no dead-owner reclaim logged"
# A torn marker must be detected, rejected and recovered from.
grep -q "rejected torn marker" "$WORK/torn-marker/serve/log" \
    || fail "torn-marker: no torn-marker rejection logged"

# ----------------------------------------------------------------
# Stale heartbeat: an alive worker stops renewing; its lease must
# be reclaimed exactly once and the abandoned shard recomputed.
# ----------------------------------------------------------------
echo "== worker fault: stale-heartbeat"
dir=$WORK/stale
out=$dir/out.json
mkdir -p "$dir"
timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
    --dir "$dir/serve" "${SERVE_ARGS[@]}" &
serve_pid=$!
run_worker "$dir/serve" --fault stale-heartbeat &
stale_pid=$!
# The fault engages on the stale worker's first checkout; hold the
# clean worker back until that checkout exists, or a fast clean
# worker could drain the whole queue first and nothing would expire.
for _ in $(seq 1 200); do
    ls "$dir/serve/leases/"*.lease >/dev/null 2>&1 && break
    sleep 0.05
done
ls "$dir/serve/leases/"*.lease >/dev/null 2>&1 \
    || fail "stale: stale worker never checked out a shard"
run_worker "$dir/serve" || fail "stale: clean worker failed"
wait "$stale_pid" || fail "stale: stale worker failed to drain"
wait "$serve_pid" || fail "stale: coordinator failed"
cmp "$WORK/golden.json" "$out" \
    || fail "stale: document differs from single-shot"
assert_clean_log "$dir/serve/log"
reclaims=$(grep -c "reclaimed expired lease" "$dir/serve/log")
[ "$reclaims" -eq 1 ] \
    || fail "stale: expired lease reclaimed $reclaims times, wanted 1"

# ----------------------------------------------------------------
# Coordinator crash: die after 2 merged points; the restarted
# coordinator must recover them from the store and finish without
# re-execution.
# ----------------------------------------------------------------
echo "== coordinator fault: crash-at-point=2 + restart"
dir=$WORK/coord-crash
out=$dir/out.json
mkdir -p "$dir"
run_worker "$dir/serve" &
worker_pid=$!
timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
    --dir "$dir/serve" "${SERVE_ARGS[@]}" --fault crash-at-point=2
rc=$?
[ "$rc" -eq "$FAULT_EXIT" ] \
    || fail "faulted coordinator exited $rc, wanted $FAULT_EXIT"
[ ! -e "$out" ] \
    || fail "coord-crash: crashed coordinator wrote a document"
timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
    --dir "$dir/serve" "${SERVE_ARGS[@]}" \
    || fail "restarted coordinator failed"
wait "$worker_pid" || fail "coord-crash: worker failed"
cmp "$WORK/golden.json" "$out" \
    || fail "coord-crash: document differs from single-shot"
assert_clean_log "$dir/serve/log"
assert_recovered "$dir/serve/log" coord-crash

# ----------------------------------------------------------------
# Drained coordinator: SIGTERM once a slow worker's first shard is
# merged must mark the directory interrupted (exit 3) and write no
# document; the restart recovers the published points from the
# store and finishes.
# ----------------------------------------------------------------
echo "== coordinator drain: SIGTERM + restart"
dir=$WORK/coord-drain
out=$dir/out.json
mkdir -p "$dir"
timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
    --dir "$dir/serve" "${SERVE_ARGS[@]}" &
serve_pid=$!
run_worker "$dir/serve" --fault slow-worker=300 &
worker_pid=$!
for _ in $(seq 1 400); do
    grep -q "committed" "$dir/serve/log" 2>/dev/null && break
    sleep 0.05
done
kill -TERM "$serve_pid"
wait "$serve_pid"
rc=$?
[ "$rc" -eq "$INTERRUPTED_EXIT" ] \
    || fail "drained coordinator exited $rc, wanted $INTERRUPTED_EXIT"
[ "$(cat "$dir/serve/done")" = "interrupted" ] \
    || fail "drain: done marker is not 'interrupted'"
[ ! -e "$out" ] || fail "drain: drained coordinator wrote a document"
wait "$worker_pid" || fail "drain: slow worker failed"
# The restarting coordinator removes the stale done marker itself,
# but a worker launched in the same instant can read it first and
# exit before any work exists. Clear it up front so the leg tests
# recovery, not launch-ordering.
rm -f "$dir/serve/done"
timeout 120 "$QCARCH" serve "$SPEC" --out "$out" \
    --dir "$dir/serve" "${SERVE_ARGS[@]}" &
serve_pid=$!
run_worker "$dir/serve" || fail "drain: worker failed"
wait "$serve_pid" || fail "drain: restarted coordinator failed"
cmp "$WORK/golden.json" "$out" \
    || fail "drain: document differs from single-shot"
assert_clean_log "$dir/serve/log"
assert_recovered "$dir/serve/log" drain

# ----------------------------------------------------------------
# Hoard publish crashes (docs/HOARD.md): a sweep killed around the
# store's commit rename must never leave a readable-but-wrong
# object. Before the rename: no object may be visible (only an
# ignored temp). After it: exactly the published objects, all
# valid. Either way `hoard verify` must find nothing to quarantine
# and the recovery sweep must be byte-identical to single-shot.
# ----------------------------------------------------------------
for fault in crash-before-hoard-publish crash-after-hoard-publish; do
    echo "== hoard fault: $fault"
    dir=$WORK/hoard-$fault
    mkdir -p "$dir"
    QCARCH_FAULT=$fault timeout 120 "$QCARCH" sweep "$SPEC" \
        --hoard "$dir/store" --threads 1 --quiet \
        --out "$dir/out.json"
    rc=$?
    [ "$rc" -eq "$FAULT_EXIT" ] \
        || fail "$fault sweep exited $rc, wanted $FAULT_EXIT"
    "$QCARCH" hoard verify "$dir/store" 2> "$dir/verify.log" \
        || fail "$fault: killed run left an invalid object:" \
                "$(cat "$dir/verify.log")"
    timeout 120 "$QCARCH" sweep "$SPEC" --hoard "$dir/store" \
        --threads 2 --quiet --out "$dir/out.json" \
        || fail "$fault: recovery sweep failed"
    cmp "$WORK/golden.json" "$dir/out.json" \
        || fail "$fault: document differs from single-shot"
done
# The pre-rename crash must have published nothing: its first
# recovery point cannot be a hoard hit.
objects=$(find "$WORK/hoard-crash-before-hoard-publish/store/objects" \
    -name '*.json' | wc -l)
[ "$objects" -eq 4 ] \
    || fail "crash-before: expected 4 objects after recovery, got $objects"
# The post-rename crash published exactly one object, which the
# recovery run must have reused (never recomputed): gc sweeping the
# leftover temp from the pre-rename leg proves the temp was real.
temps=$("$QCARCH" hoard gc \
    "$WORK/hoard-crash-before-hoard-publish/store" 2>&1 \
    | grep -o 'swept [0-9]* temp' | grep -o '[0-9]*')
[ "$temps" -eq 1 ] \
    || fail "crash-before: expected 1 leftover publish temp, got $temps"

echo "kill_matrix: all legs passed (documents byte-identical to" \
     "single-shot; expired lease reclaimed exactly once; no" \
     "committed point re-executed; restarts recovered points from" \
     "the store; no killed hoard publish left a readable-but-wrong" \
     "object)"
