#!/bin/sh
# Tier-1 gate: build, full test suite, a depth-bounded explorer smoke
# (the seeded no-sync-wait mutation must be found, shrunk, saved, and
# reproduced deterministically from the saved file), static vet, the
# fault corpus replayed through the chaos CLI against pinned
# fingerprints (the test suite replays it under both scheduler modes),
# a seeded chaos sweep (crash faults and state corruption), the KV
# service SLO gate (chaos kv-slo, both stable-delivery modes), four
# socket smokes — plain agreement, SIGKILL-and-rejoin, the replicated
# KV service under a mid-load server kill, and the symmetric Skeen arm
# under the same kill-and-rejoin script — and the end-to-end benchmark
# smoke.
# Everything carries a hard timeout.
#
#   ci.sh [-smoke]   the fast gate above (default)
#   ci.sh -soak      the gate plus the §13 soak: the full schedule +
#                    fault corpus (corruption included) and >= 1M
#                    corruption-enabled chaos steps, each under both
#                    VSGC_SCHED=cached and VSGC_SCHED=rescan
set -e
cd "$(dirname "$0")/.."

soak=0
case "${1:-}" in
  ""|-smoke) ;;
  -soak) soak=1 ;;
  *) echo "usage: ci.sh [-smoke|-soak]" >&2; exit 2 ;;
esac

dune build
dune runtest

tmp=$(mktemp /tmp/vsgc-smoke-XXXXXX.sched)
trap 'rm -f "$tmp"' EXIT
dune exec -- devtools/explore.exe find -mutation no_sync_wait -depth 4 -max-runs 2000 -o "$tmp" -quiet
dune exec -- devtools/explore.exe replay "$tmp" -quiet

# Static vet: every shipped composition must lint clean, the
# inheritance tower must hold, the effect audit (vet effects: coarse
# fallbacks, emit/footprint cross-checks, write-set totality) must
# come back empty, and every saved schedule must match its layer's
# signature...
dune exec -- devtools/vet.exe all
# ...and the found schedule above must validate too.
schdir=$(mktemp -d /tmp/vsgc-vet-XXXXXX)
trap 'rm -rf "$tmp" "$schdir"' EXIT
cp "$tmp" "$schdir/found.sched"
dune exec -- devtools/vet.exe corpus "$schdir"

# The linter must stay able to see: each seeded miswiring fixture must
# make vet exit non-zero (a clean fixture means the check went blind).
for f in $(dune exec -- devtools/vet.exe fixture -list); do
  if dune exec -- devtools/vet.exe fixture "$f" > /dev/null 2>&1; then
    echo "ci: FAIL: vet fixture $f reported no diagnostic" >&2
    exit 1
  fi
done

# Socket smoke: the wire runtime end to end. Two membership servers
# and two clients as real OS processes on 127.0.0.1; client 0
# multicasts 5 payloads; both clients must print the same delivery
# sequence in the same view. (Single sender: RFIFO orders per sender,
# so cross-sender interleaving is not part of the contract.) Every
# process carries its own hard timeout, so a wedged run fails rather
# than hangs.
dune build bin/vsgc_node.exe
smokedir=$(mktemp -d /tmp/vsgc-socket-XXXXXX)
trap 'rm -rf "$tmp" "$schdir" "$smokedir"' EXIT
node=_build/default/bin/vsgc_node.exe
port=$((20000 + $$ % 20000))
"$node" server --id 0 --listen 127.0.0.1:$port --timeout 25 \
  > "$smokedir/s0.log" 2>&1 &
s0=$!
"$node" server --id 1 --listen 127.0.0.1:$((port+1)) \
  --peer s0=127.0.0.1:$port --timeout 25 > "$smokedir/s1.log" 2>&1 &
s1=$!
"$node" client --id 0 --attach 0 --listen 127.0.0.1:$((port+10)) \
  --peer s0=127.0.0.1:$port \
  --members 2 --send 5 --expect 5 --linger 2 --timeout 20 > "$smokedir/c0.log" 2>&1 &
c0=$!
"$node" client --id 1 --attach 1 --listen 127.0.0.1:$((port+11)) \
  --peer s1=127.0.0.1:$((port+1)) --peer p0=127.0.0.1:$((port+10)) \
  --members 2 --expect 5 --timeout 20 > "$smokedir/c1.log" 2>&1 &
c1=$!
smoke_fail() {
  echo "ci: FAIL: socket smoke: $1" >&2
  for f in "$smokedir"/*.log; do echo "--- $f"; cat "$f"; done >&2
  kill "$s0" "$s1" "$c0" "$c1" 2>/dev/null || true
  exit 1
}
wait "$c0" || smoke_fail "client 0 exited non-zero"
wait "$c1" || smoke_fail "client 1 exited non-zero"
kill "$s0" "$s1" 2>/dev/null || true
# DELIVER lines carry the view id, so equality here is exactly "same
# delivery sequence in the same view". (VIEW prefixes can differ by
# join timing, so they are checked for the common view, not diffed.)
for c in c0 c1; do
  grep '^DELIVER ' "$smokedir/$c.log" > "$smokedir/$c.events"
  grep -q '^VIEW .*members={p0,p1}' "$smokedir/$c.log" \
    || smoke_fail "$c never saw the full view"
done
diff -u "$smokedir/c0.events" "$smokedir/c1.events" \
  || smoke_fail "clients disagree on delivery order or view"
test "$(grep -c '^DELIVER ' "$smokedir/c0.events")" = 5 \
  || smoke_fail "expected 5 deliveries"

# Fault-schedule regression corpus: every checked-in .fault schedule
# must replay to its expect header AND its pinned fingerprint (the
# runtest corpus suite covers the library path; this exercises the
# chaos.exe CLI the schedules were pinned with).
dune exec -- devtools/chaos.exe replay -quiet test/corpus/*.fault

# Scheduler-cache fingerprint gate: `dune runtest` above replays every
# pinned .fault and .sched file under both scheduler modes, so a
# cached/rescan divergence fails there (test/test_corpus.ml, the
# [rescan] cases).

# Sanitized replay gate: `dune runtest` above replays every pinned
# .sched and .fault file under the raising effect sanitizer in both
# scheduler modes (test/test_corpus.ml, the [+sanitize] cases).

# Perf-gate smoke: E13 (cached-vs-rescan scheduling; the run itself
# asserts both modes take the identical step count), E14 (the
# zero-copy codec path; asserts legacy and pooled encodes agree
# byte-for-byte), E16 (sanitizer overhead; asserts a sanitized run
# is step- and fingerprint-identical to an unsanitized one), E17
# (the KV service; asserts batched and unbatched stable delivery
# produce byte-identical stores with strictly fewer apply rounds, and
# zero lost acks under the partition-heal script), and E18 (the
# total-order bake-off; asserts both arms ack every command under
# every fault mode, the Skeen monitor and GCS invariant battery stay
# green, and the two arms' final stores are byte-identical) at
# reduced iterations, JSON output suppressed.
dune exec -- bench/main.exe -smoke E13 E14 E16 E17 E18 > /dev/null

# KV SLO gate: the open-loop load generator across scripted
# partition-heal and crash-rejoin reconfigurations on the loopback
# deployment (chaos kv-slo, DESIGN.md §15). Green means every
# acknowledged write is in its home replica's stable store, all live
# stores are byte-identical, and the max client-visible stall stayed
# within budget — in both stable-delivery modes.
dune exec -- devtools/chaos.exe kv-slo
dune exec -- devtools/chaos.exe kv-slo -batch

# Chaos smoke: a short seeded sweep of sampled fault schedules must
# come back green (exit 1 = nothing found; 0 = a violation was found
# and shrunk; anything else is a driver error).
chaos_status=0
dune exec -- devtools/chaos.exe find -rounds 5 -seed 2026 -quiet \
  || chaos_status=$?
if [ "$chaos_status" != 1 ]; then
  echo "ci: FAIL: chaos find exited $chaos_status (want 1 = green)" >&2
  exit 1
fi
# ...and with state corruption sampled in (DESIGN.md §13): green means
# every injected corruption was detected by the local guards and
# healed through the rejoin, so exit 1 is still the only pass.
chaos_status=0
dune exec -- devtools/chaos.exe find -corrupt -rounds 5 -seed 2027 -quiet \
  || chaos_status=$?
if [ "$chaos_status" != 1 ]; then
  echo "ci: FAIL: chaos find -corrupt exited $chaos_status (want 1 = green)" >&2
  exit 1
fi
# ...and one sanitized sample: a short sweep with the effect sanitizer
# raising on any footprint lie. Green (exit 1) means the shadow-state
# diffs and race replays stayed silent under live fault injection.
chaos_status=0
VSGC_SANITIZE=1 dune exec -- devtools/chaos.exe find -rounds 2 -seed 2028 \
  -quiet || chaos_status=$?
if [ "$chaos_status" != 1 ]; then
  echo "ci: FAIL: sanitized chaos find exited $chaos_status (want 1 = green)" >&2
  exit 1
fi

# Kill-and-restart smoke: the §8 story over real sockets. Two servers
# and two clients; client 1 is SIGKILLed mid-run, the survivor must
# install the singleton view, then a new incarnation of client 1
# rejoins under the same identity — both must land in the full view
# again and the survivor must deliver the reborn client's traffic.
# Bounded poll loops plus per-process hard timeouts keep a wedged run
# failing fast instead of hanging.
killdir=$(mktemp -d /tmp/vsgc-kill-XXXXXX)
trap 'rm -rf "$tmp" "$schdir" "$smokedir" "$killdir"' EXIT
kport=$((port + 100))
kill_fail() {
  echo "ci: FAIL: kill-and-restart smoke: $1" >&2
  for f in "$killdir"/*.log; do echo "--- $f"; cat "$f"; done >&2
  kill -9 "$ks0" "$ks1" "$kc0" "$kc1" 2>/dev/null || true
  exit 1
}
wait_for() { # FILE PATTERN TENTH_SECS WHAT
  i=0
  until grep -q "$2" "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge "$3" ] && kill_fail "timed out waiting for $4"
    sleep 0.1
  done
}
"$node" server --id 0 --listen 127.0.0.1:$kport --timeout 40 \
  > "$killdir/s0.log" 2>&1 &
ks0=$!
"$node" server --id 1 --listen 127.0.0.1:$((kport+1)) \
  --peer s0=127.0.0.1:$kport --timeout 40 > "$killdir/s1.log" 2>&1 &
ks1=$!
"$node" client --id 0 --attach 0 --listen 127.0.0.1:$((kport+10)) \
  --peer s0=127.0.0.1:$kport \
  --members 2 --expect 2 --linger 2 --timeout 35 > "$killdir/c0.log" 2>&1 &
kc0=$!
"$node" client --id 1 --attach 1 --listen 127.0.0.1:$((kport+11)) \
  --peer s1=127.0.0.1:$((kport+1)) --peer p0=127.0.0.1:$((kport+10)) \
  --members 2 --expect 999 --timeout 30 > "$killdir/c1.log" 2>&1 &
kc1=$!
wait_for "$killdir/c0.log" '^VIEW .*members={p0,p1}' 200 "the full view"
kill -9 "$kc1" 2>/dev/null || true
wait_for "$killdir/c0.log" '^VIEW .*members={p0}$' 200 \
  "the survivor's singleton view"
"$node" client --id 1 --attach 1 --listen 127.0.0.1:$((kport+12)) \
  --peer s1=127.0.0.1:$((kport+1)) --peer p0=127.0.0.1:$((kport+10)) \
  --members 2 --send 2 --expect 2 --linger 2 --timeout 25 \
  > "$killdir/c1b.log" 2>&1 &
kc1=$!
wait "$kc0" || kill_fail "surviving client exited non-zero"
wait "$kc1" || kill_fail "reborn client exited non-zero"
kill "$ks0" "$ks1" 2>/dev/null || true
grep -q '^VIEW .*members={p0,p1}' "$killdir/c1b.log" \
  || kill_fail "reborn client never rejoined the full view"
# The survivor must install the rejoined pair after its singleton view.
# Its last view need not be the pair: when the reborn client exits
# first, the survivor correctly installs a later singleton view.
grep '^VIEW ' "$killdir/c0.log" | awk '
  /members=\{p0,p1\}/ { if (single) rejoined = 1; pair = 1 }
  /members=\{p0\}$/ { if (pair) single = 1 }
  END { exit !rejoined }' \
  || kill_fail "survivor never rejoined the pair after its singleton view"
test "$(grep -c '^DELIVER .*from=p1' "$killdir/c0.log")" = 2 \
  || kill_fail "survivor missed the reborn client's deliveries"

# KV socket smoke: the replicated KV service over real sockets
# (DESIGN.md §15). One membership server, two kv-servers, one
# open-loop load client writing to p0 with retransmission on. p1 is
# SIGKILLed mid-load and a new incarnation rejoins under the same
# identity; the load must finish with zero lost acknowledged writes
# (exit 0) and both kv-servers must settle on the identical store
# digest — the reborn one refolded through the snapshot transfer.
kvdir=$(mktemp -d /tmp/vsgc-kv-XXXXXX)
trap 'rm -rf "$tmp" "$schdir" "$smokedir" "$killdir" "$kvdir"' EXIT
vport=$((port + 200))
kv_fail() {
  echo "ci: FAIL: kv socket smoke: $1" >&2
  for f in "$kvdir"/*.log; do echo "--- $f"; cat "$f"; done >&2
  kill -9 "$vs0" "$vp0" "$vp1" "$vk0" 2>/dev/null || true
  exit 1
}
kv_wait() { # FILE PATTERN TENTH_SECS WHAT [MIN_COUNT]
  i=0
  until [ "$(grep -c "$2" "$1" 2>/dev/null || true)" -ge "${5:-1}" ]; do
    i=$((i + 1))
    [ "$i" -ge "$3" ] && kv_fail "timed out waiting for $4"
    sleep 0.1
  done
}
"$node" server --id 0 --listen 127.0.0.1:$vport --timeout 45 \
  > "$kvdir/s0.log" 2>&1 &
vs0=$!
"$node" kv-server --id 0 --listen 127.0.0.1:$((vport+1)) \
  --peer s0=127.0.0.1:$vport --timeout 40 > "$kvdir/p0.log" 2>&1 &
vp0=$!
"$node" kv-server --id 1 --listen 127.0.0.1:$((vport+2)) \
  --peer s0=127.0.0.1:$vport --peer p0=127.0.0.1:$((vport+1)) \
  --timeout 40 > "$kvdir/p1.log" 2>&1 &
vp1=$!
kv_wait "$kvdir/p0.log" '^VIEW .*members={p0,p1}' 200 "the full kv view"
"$node" kv-load --id 0 --peer p0=127.0.0.1:$((vport+1)) \
  --rate 100 --count 300 --retransmit 0.5 --timeout 30 \
  > "$kvdir/k0.log" 2>&1 &
vk0=$!
kv_wait "$kvdir/p1.log" '^STORE .*applied=[1-9]' 150 "replicated writes at p1"
kill -9 "$vp1" 2>/dev/null || true
kv_wait "$kvdir/p0.log" '^VIEW .*members={p0}$' 200 \
  "the survivor's singleton view"
"$node" kv-server --id 1 --listen 127.0.0.1:$((vport+3)) \
  --peer s0=127.0.0.1:$vport --peer p0=127.0.0.1:$((vport+1)) \
  --timeout 35 > "$kvdir/p1b.log" 2>&1 &
vp1=$!
kv_wait "$kvdir/p0.log" '^VIEW .*members={p0,p1}' 250 \
  "the reborn kv-server's rejoin" 2
wait "$vk0" || kv_fail "load client exited non-zero (lost acks or timeout)"
grep -q '^KVLOAD .*lost=0 ' "$kvdir/k0.log" \
  || kv_fail "load client reported lost acknowledged writes"
# Both kv-servers must settle on the same final store digest: poll the
# newest STORE line of each until they agree.
i=0
while :; do
  d0=$(grep '^STORE ' "$kvdir/p0.log" | tail -1 | sed 's/.*digest=\([^ ]*\).*/\1/')
  d1=$(grep '^STORE ' "$kvdir/p1b.log" | tail -1 | sed 's/.*digest=\([^ ]*\).*/\1/')
  [ -n "$d0" ] && [ "$d0" = "$d1" ] && break
  i=$((i + 1))
  [ "$i" -ge 150 ] && kv_fail "store digests never converged ($d0 vs $d1)"
  sleep 0.1
done
kill "$vs0" "$vp0" "$vp1" 2>/dev/null || true

# Symmetric-arm socket smoke: the Skeen-style total order over real
# sockets (DESIGN.md §16). Same shape as the KV smoke — one membership
# server, two sym-servers, one open-loop load client — but every write
# is ordered by the symmetric (ts, sender) protocol instead of the
# sequencer, and the Skeen delivery-condition monitor rides inside
# each node. p1 is SIGKILLed mid-load and a new incarnation rejoins;
# the load must finish with zero lost acknowledged writes and both
# sym-servers must settle on the identical store digest.
symdir=$(mktemp -d /tmp/vsgc-sym-XXXXXX)
trap 'rm -rf "$tmp" "$schdir" "$smokedir" "$killdir" "$kvdir" "$symdir"' EXIT
yport=$((port + 300))
sym_fail() {
  echo "ci: FAIL: sym socket smoke: $1" >&2
  for f in "$symdir"/*.log; do echo "--- $f"; cat "$f"; done >&2
  kill -9 "$ys0" "$yp0" "$yp1" "$yk0" 2>/dev/null || true
  exit 1
}
sym_wait() { # FILE PATTERN TENTH_SECS WHAT [MIN_COUNT]
  i=0
  until [ "$(grep -c "$2" "$1" 2>/dev/null || true)" -ge "${5:-1}" ]; do
    i=$((i + 1))
    [ "$i" -ge "$3" ] && sym_fail "timed out waiting for $4"
    sleep 0.1
  done
}
"$node" server --id 0 --listen 127.0.0.1:$yport --timeout 45 \
  > "$symdir/s0.log" 2>&1 &
ys0=$!
"$node" sym-server --id 0 --listen 127.0.0.1:$((yport+1)) \
  --peer s0=127.0.0.1:$yport --timeout 40 > "$symdir/p0.log" 2>&1 &
yp0=$!
"$node" sym-server --id 1 --listen 127.0.0.1:$((yport+2)) \
  --peer s0=127.0.0.1:$yport --peer p0=127.0.0.1:$((yport+1)) \
  --timeout 40 > "$symdir/p1.log" 2>&1 &
yp1=$!
sym_wait "$symdir/p0.log" '^VIEW .*members={p0,p1}' 200 "the full sym view"
"$node" kv-load --id 0 --peer p0=127.0.0.1:$((yport+1)) \
  --rate 100 --count 300 --retransmit 0.5 --timeout 30 \
  > "$symdir/k0.log" 2>&1 &
yk0=$!
sym_wait "$symdir/p1.log" '^STORE .*applied=[1-9]' 150 \
  "symmetric-arm replicated writes at p1"
kill -9 "$yp1" 2>/dev/null || true
sym_wait "$symdir/p0.log" '^VIEW .*members={p0}$' 200 \
  "the survivor's singleton view"
"$node" sym-server --id 1 --listen 127.0.0.1:$((yport+3)) \
  --peer s0=127.0.0.1:$yport --peer p0=127.0.0.1:$((yport+1)) \
  --timeout 35 > "$symdir/p1b.log" 2>&1 &
yp1=$!
sym_wait "$symdir/p0.log" '^VIEW .*members={p0,p1}' 250 \
  "the reborn sym-server's rejoin" 2
wait "$yk0" || sym_fail "load client exited non-zero (lost acks or timeout)"
grep -q '^KVLOAD .*lost=0 ' "$symdir/k0.log" \
  || sym_fail "load client reported lost acknowledged writes"
# Per-arm digest equality: both sym-servers must settle on the same
# final store digest, the reborn one refolded through the transfer.
i=0
while :; do
  d0=$(grep '^STORE ' "$symdir/p0.log" | tail -1 | sed 's/.*digest=\([^ ]*\).*/\1/')
  d1=$(grep '^STORE ' "$symdir/p1b.log" | tail -1 | sed 's/.*digest=\([^ ]*\).*/\1/')
  [ -n "$d0" ] && [ "$d0" = "$d1" ] && break
  i=$((i + 1))
  [ "$i" -ge 150 ] && sym_fail "sym store digests never converged ($d0 vs $d1)"
  sleep 0.1
done
kill "$ys0" "$yp0" "$yp1" 2>/dev/null || true

# End-to-end benchmark smoke: bench/e2e deploys the real vsgc_node
# binaries and its traced mirror of the kv-server/sym-server/server
# roles (a call-for-call copy of bin/vsgc_node.ml over Kv_node/Node),
# runs every workload briefly and checks every output. This keeps the
# mirror compiling and honest against the library it shadows.
dune build @bench/e2e/smoke

# Soak (-soak only): the whole corpus and >= 1M corruption-enabled
# chaos steps, under both scheduler modes. Any violation, fingerprint
# drift, or undetected corruption fails; the soak summary's detection
# stats feed EXPERIMENTS.md E15.
if [ "$soak" = 1 ]; then
  for mode in cached rescan; do
    echo "ci: soak [$mode]: corpus replay"
    VSGC_SCHED=$mode dune exec -- devtools/chaos.exe replay -quiet \
      test/corpus/*.fault
    for s in test/corpus/*.sched; do
      VSGC_SCHED=$mode dune exec -- devtools/explore.exe replay "$s" -quiet
    done
    echo "ci: soak [$mode]: chaos soak"
    VSGC_SCHED=$mode dune exec -- devtools/chaos.exe soak \
      -steps 1000000 -seed 2026 -quiet
  done
fi

echo "ci: OK"
