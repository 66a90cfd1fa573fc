#!/usr/bin/env bash
# Campaign-service chaos leg: prove that a submitted campaign survives
# losing every process that was driving it.
#
#   1. run the reference campaign single-process (checkpoint + stdout
#      + JSON are the byte-exact targets);
#   2. start `fault_campaign serve` with a durable journal and a
#      session token, and assert an unauthenticated client is turned
#      away (exit 2) before touching any queue;
#   3. `submit` the same campaign with workers, then kill -9 the
#      coordinator, one worker, and the server mid-campaign;
#   4. restart the server on the same journal (replay), `attach` with
#      fresh workers, and require the merged checkpoint, stdout, and
#      JSON to be byte-identical to the reference run.
#
# On a machine fast enough that the campaign finishes before the kill
# lands, the kill step degrades to a no-op and the attach still has to
# reproduce the reference bytes from the journaled queue -- a weaker
# but still meaningful pass (the script says which one you got).
#
# The recovery phase (restarted server + attach) runs with telemetry
# on (FTNAV_TRACE_DIR + FTNAV_LOG=debug) while the reference run stays
# telemetry-off, so the byte-identity check in step 4 doubles as the
# proof that tracing never leaks into stdout, JSON, or checkpoints.
# The traces and `status --json` emitted by that phase are validated
# with ci/validate_telemetry.py.
#
# usage: ci/campaign_chaos.sh [path-to-fault_campaign]
# knobs: CHAOS_REPEATS (60), CHAOS_EPISODES (300), CHAOS_KILL_DELAY (2.5)
set -euo pipefail

BIN=${1:-./build/examples/fault_campaign}
REPEATS=${CHAOS_REPEATS:-60}
EPISODES=${CHAOS_EPISODES:-300}
KILL_DELAY=${CHAOS_KILL_DELAY:-2.5}
PARAMS=(--param policy=nn --param "repeats=$REPEATS"
        --param "train-episodes=$EPISODES" --param bers=0.001,0.002,0.005)
TOKEN=chaos-session-token
TAG=chaos

VALIDATE="$(dirname "$0")/validate_telemetry.py"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/campaign_chaos.XXXXXX")
TRACE_DIR="$WORK/trace"
SRV1= SRV2= SUB=
cleanup() {
  for pid in "$SRV1" "$SRV2" "$SUB"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  pkill -9 -f "run grid-inference.*worker-id" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_addr() { # $1 = addr file
  for _ in $(seq 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "campaign_chaos: server never wrote $1" >&2
  return 1
}

echo "== reference single-process run"
"$BIN" run grid-inference "${PARAMS[@]}" \
  --checkpoint "$WORK/ref.ckpt" --json "$WORK/ref.json" > "$WORK/ref.txt"

echo "== serve (journal + auth)"
"$BIN" serve --bind 127.0.0.1:0 --journal "$WORK/journal.bin" \
  --auth-token "$TOKEN" --addr-file "$WORK/addr1" \
  > "$WORK/serve1.log" 2>&1 &
SRV1=$!
wait_addr "$WORK/addr1"
ADDR=$(cat "$WORK/addr1")

echo "== unauthenticated client is rejected before touching the queue"
set +e
"$BIN" status --server "$ADDR" > /dev/null 2> "$WORK/unauth.err"
unauth_status=$?
set -e
test "$unauth_status" -eq 2
grep -q "rejected the session" "$WORK/unauth.err"

echo "== submit with 2 workers, then kill coordinator + worker + server"
"$BIN" submit grid-inference --server "$ADDR" --auth-token "$TOKEN" \
  "${PARAMS[@]}" --tag "$TAG" --workers 2 \
  --lease-expiry 3 --poll-period 0.2 \
  > "$WORK/submit.txt" 2> "$WORK/submit.err" &
SUB=$!
sleep "$KILL_DELAY"
if kill -9 "$SUB" 2>/dev/null; then
  echo "   killed coordinator (pid $SUB)"
else
  echo "   coordinator already finished -- degraded (journal-replay-only) pass"
fi
SUB=
WORKER=$(pgrep -f "run grid-inference.*worker-id" | head -n 1 || true)
if [ -n "$WORKER" ]; then
  kill -9 "$WORKER" 2>/dev/null || true
  echo "   killed worker (pid $WORKER)"
fi
sleep 0.3
kill -9 "$SRV1" 2>/dev/null || true
echo "   killed server (pid $SRV1)"
SRV1=
# Surviving orphan workers lose the server and die on their own; don't
# leave them retrying while the journal is replayed.
sleep 0.5
pkill -9 -f "run grid-inference.*worker-id" 2>/dev/null || true
test -s "$WORK/journal.bin"

echo "== restart the server on the same journal (telemetry on)"
FTNAV_TRACE_DIR="$TRACE_DIR" FTNAV_LOG=debug \
  "$BIN" serve --bind 127.0.0.1:0 --journal "$WORK/journal.bin" \
  --auth-token "$TOKEN" --addr-file "$WORK/addr2" \
  > "$WORK/serve2.log" 2>&1 &
SRV2=$!
wait_addr "$WORK/addr2"
ADDR=$(cat "$WORK/addr2")

echo "== replayed state survives: the campaign is still registered"
"$BIN" status --server "$ADDR" --auth-token "$TOKEN" > "$WORK/status.txt"
grep -q "^  $TAG\$" "$WORK/status.txt"

echo "== attach with fresh workers (telemetry on) and finish the campaign"
FTNAV_TRACE_DIR="$TRACE_DIR" FTNAV_LOG=debug \
  "$BIN" attach "$TAG" --server "$ADDR" --auth-token "$TOKEN" \
  --workers 2 --lease-expiry 2 --poll-period 0.2 \
  --checkpoint "$WORK/att.ckpt" --json "$WORK/att.json" \
  > "$WORK/att.txt" 2> "$WORK/att.err"

echo "== artifacts are byte-identical to the single-process reference"
# The reference ran telemetry-off and the attach ran telemetry-on, so
# these also assert the src/obs/ invariant: tracing touches nothing
# the campaign itself emits.
cmp "$WORK/ref.ckpt" "$WORK/att.ckpt"
diff -u "$WORK/ref.txt" "$WORK/att.txt"
diff -u "$WORK/ref.json" "$WORK/att.json"

echo "== telemetry artifacts from the recovery phase validate"
# Attach coordinator + 2 workers flush at exit; the still-running
# server flushes its own trace only when it exits, so require 3.
python3 "$VALIDATE" trace "$TRACE_DIR" --min-files 3
"$BIN" status --server "$ADDR" --auth-token "$TOKEN" --json \
  > "$WORK/status.json"
python3 "$VALIDATE" status "$WORK/status.json" \
  --expect-counter rpc.claim --expect-counter connections.accepted
echo "campaign_chaos: PASS"
