#!/usr/bin/env bash
# Kill-matrix gate for sweeps sharing one store (docs/SWEEPS.md,
# "Several processes, one store").
#
# Runs `qcarch sweep` over specs/ci_smoke.json as several processes
# on one hoard store, with a deterministic fault injected at each
# point the recovery story claims to survive — a sweep killed while
# it holds a claim, a live sweep whose claim goes stale, a sweep
# stopped by SIGTERM, two sweeps finishing onto one --out, and kills
# on either side of the store's publish rename — and requires every
# document to be byte-identical (cmp) to a single-process sweep.
# Assertions on the `N points (M executed` and `hoard: ... taken
# over` summary lines pin the path taken: processes split the work
# instead of repeating it, a dead holder's claim is taken over at
# once, and a stale claim is taken over exactly once.
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
POINTS=4             # points in the smoke spec

fail() {
    echo "kill_matrix: FAIL: $*" >&2
    exit 1
}

sweep() { # sweep STORE OUT [EXTRA_ARGS...]; stderr is the caller's
    local store=$1 out=$2
    shift 2
    timeout 120 "$QCARCH" sweep "$SPEC" --hoard "$store" --out "$out" "$@"
}

# The M of "N points (M executed" / the T of "T taken over".
executed() {
    tr '\r' '\n' < "$1" | sed -n 's/^.* points (\([0-9][0-9]*\) executed.*$/\1/p'
}
taken_over() {
    tr '\r' '\n' < "$1" | sed -n 's/^hoard: .* \([0-9][0-9]*\) taken over.*$/\1/p'
}

claims() { # claims STORE: claim files left in the store
    find "$1/claims" -name '*.lease' 2>/dev/null | wc -l
}

golden() { # golden LEG DOC
    cmp "$WORK/golden.json" "$2" \
        || fail "$1: document differs from single-process"
}

echo "== golden single-process document"
"$QCARCH" sweep "$SPEC" --threads 2 --quiet \
    --out "$WORK/golden.json" || fail "golden sweep failed"

# ----------------------------------------------------------------
# Two sweeps on one store, started together: they split the points
# (executed counts sum to the point count), once with separate
# documents and once finishing onto the same --out.
# ----------------------------------------------------------------
for leg in separate-out shared-out; do
    echo "== two sweeps, one store: $leg"
    dir=$WORK/$leg
    mkdir -p "$dir"
    out_b=$dir/b.json
    [ "$leg" = shared-out ] && out_b=$dir/a.json
    sweep "$dir/store" "$dir/a.json" --threads 2 \
        --fault slow-point=50 2> "$dir/a.log" &
    pid_a=$!
    sweep "$dir/store" "$out_b" --threads 2 --fault slow-point=50 \
        2> "$dir/b.log"
    rc_b=$?
    wait "$pid_a" || fail "$leg: first sweep failed: $(cat "$dir/a.log")"
    [ "$rc_b" -eq 0 ] || fail "$leg: second sweep failed: $(cat "$dir/b.log")"
    golden "$leg" "$dir/a.json"
    golden "$leg" "$out_b"
    sum=$(( $(executed "$dir/a.log") + $(executed "$dir/b.log") ))
    [ "$sum" -eq "$POINTS" ] \
        || fail "$leg: the sweeps executed $sum points, wanted $POINTS"
    [ "$(claims "$dir/store")" -eq 0 ] || fail "$leg: claims left behind"
done

# ----------------------------------------------------------------
# A sweep killed while it holds a claim (before its publish rename):
# the next sweep on the store takes the dead holder's claim over at
# once — well inside the claim's 30 s expiry — and finishes.
# ----------------------------------------------------------------
echo "== dead holder: crash-before-hoard-publish + second sweep"
dir=$WORK/dead-holder
mkdir -p "$dir"
sweep "$dir/store" "$dir/out.json" --threads 1 --quiet \
    --fault crash-before-hoard-publish
rc=$?
[ "$rc" -eq "$FAULT_EXIT" ] \
    || fail "dead-holder: faulted sweep exited $rc, wanted $FAULT_EXIT"
[ "$(claims "$dir/store")" -eq 1 ] \
    || fail "dead-holder: the killed sweep left no claim behind"
timeout 20 "$QCARCH" sweep "$SPEC" --hoard "$dir/store" --threads 2 \
    --out "$dir/out.json" 2> "$dir/second.log" \
    || fail "dead-holder: second sweep failed: $(cat "$dir/second.log")"
golden dead-holder "$dir/out.json"
[ "$(taken_over "$dir/second.log")" -eq 1 ] \
    || fail "dead-holder: wanted 1 claim taken over:" \
            "$(grep 'hoard:' "$dir/second.log")"

# ----------------------------------------------------------------
# Stale claim: a live sweep's first claim stops being renewed and
# expires while it stalls; a second sweep takes it over exactly
# once, and both documents are golden.
# ----------------------------------------------------------------
echo "== stale claim: stale-heartbeat + second sweep"
dir=$WORK/stale
mkdir -p "$dir"
sweep "$dir/store" "$dir/stale.json" --threads 1 \
    --fault stale-heartbeat 2> "$dir/stale.log" &
stale_pid=$!
# The fault engages on the stale sweep's first claim; start the
# second sweep only once that claim exists, or it could finish every
# point first and nothing would go stale.
for _ in $(seq 1 200); do
    [ "$(claims "$dir/store")" -gt 0 ] && break
    sleep 0.05
done
[ "$(claims "$dir/store")" -gt 0 ] \
    || fail "stale: the stale sweep never claimed a point"
sweep "$dir/store" "$dir/clean.json" --threads 2 2> "$dir/clean.log" \
    || fail "stale: second sweep failed: $(cat "$dir/clean.log")"
wait "$stale_pid" || fail "stale: stale sweep failed: $(cat "$dir/stale.log")"
golden stale "$dir/stale.json"
golden stale "$dir/clean.json"
takeovers=$(( $(taken_over "$dir/stale.log") + $(taken_over "$dir/clean.log") ))
[ "$takeovers" -eq 1 ] \
    || fail "stale: claim taken over $takeovers times, wanted 1"

# ----------------------------------------------------------------
# SIGTERM: a slow sweep is stopped once its first point is stored.
# It drains (exit 3), writes no document and leaves no claim; the
# re-run computes only the points the store lacks.
# ----------------------------------------------------------------
echo "== drain: SIGTERM + re-run"
dir=$WORK/drain
mkdir -p "$dir"
# Started directly, not through sweep(): the signal must reach
# timeout, which passes it on to qcarch.
timeout 120 "$QCARCH" sweep "$SPEC" --hoard "$dir/store" \
    --out "$dir/out.json" --threads 1 --quiet --fault slow-point=300 &
sweep_pid=$!
for _ in $(seq 1 400); do
    [ -n "$(find "$dir/store/objects" -name '*.json' 2>/dev/null)" ] && break
    sleep 0.05
done
kill -TERM "$sweep_pid"
wait "$sweep_pid"
rc=$?
[ "$rc" -eq "$INTERRUPTED_EXIT" ] \
    || fail "drained sweep exited $rc, wanted $INTERRUPTED_EXIT"
[ ! -e "$dir/out.json" ] || fail "drain: drained sweep wrote a document"
[ "$(claims "$dir/store")" -eq 0 ] || fail "drain: claims left behind"
stored=$(find "$dir/store/objects" -name '*.json' | wc -l)
[ "$stored" -lt "$POINTS" ] || fail "drain: SIGTERM came too late"
sweep "$dir/store" "$dir/out.json" --threads 2 2> "$dir/rerun.log" \
    || fail "drain: re-run failed: $(cat "$dir/rerun.log")"
golden drain "$dir/out.json"
[ "$(executed "$dir/rerun.log")" -eq $((POINTS - stored)) ] \
    || fail "drain: re-run executed $(executed "$dir/rerun.log")," \
            "wanted $((POINTS - stored))"

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
     "single-process; sweeps sharing a store split its points; a" \
     "dead holder's claim taken over at once and a stale one exactly" \
     "once; a drained sweep left no claim; no killed hoard publish" \
     "left a readable-but-wrong object)"
