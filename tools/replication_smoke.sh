#!/usr/bin/env bash
# End-to-end primary/replica smoke test over the real binaries.
#
# Exercises the full replication story the way an operator would drive it:
# seed a primary, bootstrap a replica over the wire, check the replica
# runs no more threads than the primary (its upstream link is one more
# connection of the event loop), read from the replica, confirm it
# rejects writes with a redirect, then restart the primary
# mid-stream and check the replica catches up on the rows written after
# the restart.  Run from the repo root after `dune build`:
#
#   bash tools/replication_smoke.sh
#
# Ports are dynamic: every server binds --port 0 and we parse the port it
# actually got from its log, so parallel runs (CI, a busy dev box) never
# collide.  Every child is tracked and killed on exit, whatever the path
# out — success, failure, or an interrupt.
set -u

SERVER=_build/default/bin/youtopia_server.exe
CLIENT=_build/default/bin/youtopia_client.exe
[ -x "$SERVER" ] && [ -x "$CLIENT" ] || {
  echo "binaries not built; run: dune build" >&2
  exit 1
}

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "SMOKE FAIL: $*" >&2
  exit 1
}

# start_server LOG ARGS... — launch a server, remember its pid in PIDS,
# and wait for it to report the port it bound.  Sets SERVER_PID/SERVER_PORT.
start_server() {
  local log=$1
  shift
  "$SERVER" "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  SERVER_PORT=
  for _ in $(seq 1 100); do
    SERVER_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log" | head -n 1)
    [ -n "$SERVER_PORT" ] && return 0
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      cat "$log" >&2
      fail "server died during startup"
    fi
    sleep 0.1
  done
  cat "$log" >&2
  fail "server never reported its port"
}

sql() { # sql PORT "statement..." — run statements through the client
  local port=$1
  shift
  printf '%s\n' "$@" | "$CLIENT" --port "$port" --user smoke 2>&1
}

wait_port() {
  for _ in $(seq 1 100); do
    if sql "$1" "SELECT 1 AS one" | grep -q one; then return 0; fi
    sleep 0.1
  done
  fail "server on port $1 never came up"
}

wait_rows() { # wait_rows PORT N — poll until Kv holds N rows
  for _ in $(seq 1 150); do
    if sql "$1" "SELECT count(*) AS n FROM Kv" | grep -q "\b$2\b"; then
      return 0
    fi
    sleep 0.1
  done
  sql "$1" "SELECT count(*) AS n FROM Kv"
  fail "port $1 never reached $2 rows"
}

echo "== start primary (dynamic port)"
start_server "$TMP/primary1.log" --port 0 --wal "$TMP/primary.wal"
PRIMARY_PID=$SERVER_PID
PPORT=$SERVER_PORT
wait_port "$PPORT"
echo "   primary on :$PPORT"

echo "== seed 20 rows"
sql "$PPORT" "CREATE TABLE Kv (k INT PRIMARY KEY, v TEXT)" > /dev/null
for k in $(seq 0 19); do
  sql "$PPORT" "INSERT INTO Kv VALUES ($k, 'v$k')" > /dev/null
done

echo "== start replica (dynamic port)"
start_server "$TMP/replica.log" --port 0 --replica-of "127.0.0.1:$PPORT" \
  --replica-id smoke
REPLICA_PID=$SERVER_PID
RPORT=$SERVER_PORT
wait_port "$RPORT"
wait_rows "$RPORT" 20
echo "   replica on :$RPORT bootstrapped with 20 rows"

echo "== the replica runs as many threads as the primary"
# compared process to process, not to a constant: the runtime's own
# threads vary by OCaml version
threads() { sed -n 's/^Threads:[[:space:]]*//p' "/proc/$1/status"; }
PTHREADS=$(threads "$PRIMARY_PID")
RTHREADS=$(threads "$REPLICA_PID")
[ -n "$PTHREADS" ] && [ "$PTHREADS" = "$RTHREADS" ] \
  || fail "replica runs ${RTHREADS:-?} thread(s), primary ${PTHREADS:-?}"
echo "   Threads: primary $PTHREADS, replica $RTHREADS"

echo "== replica rejects writes with a redirect"
out=$(sql "$RPORT" "INSERT INTO Kv VALUES (999, 'nope')")
echo "$out" | grep -qi "read-only" || fail "expected read-only rejection, got: $out"
echo "$out" | grep -q "$PPORT" || fail "redirect should name the primary port, got: $out"

echo "== client routes reads through --replica"
out=$(printf 'SELECT count(*) AS n FROM Kv\n' \
  | "$CLIENT" --port "$PPORT" --replica "127.0.0.1:$RPORT" --user smoke 2>&1)
echo "$out" | grep -q "routing reads across 1 replica" || fail "client did not route: $out"
echo "$out" | grep -q "\b20\b" || fail "routed read returned wrong count: $out"

echo "== restart primary mid-stream, then write 10 more rows"
kill "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null
# the replica is tailing the address it bootstrapped from, so the
# restarted primary must come back on the SAME port (just freed; the
# server listens with SO_REUSEADDR)
start_server "$TMP/primary2.log" --port "$PPORT" --wal "$TMP/primary.wal"
wait_port "$PPORT"
for k in $(seq 20 29); do
  sql "$PPORT" "INSERT INTO Kv VALUES ($k, 'v$k')" > /dev/null
done
wait_rows "$RPORT" 30
echo "   replica caught up to 30 rows after primary restart"

echo "SMOKE OK"
