#!/bin/sh
# fleet_smoke.sh [BIN_DIR]
#
# Three-process hubserve fleet smoke, the CI gate for the distributed
# serving stack (binary doors + hubclient failover + gossiped
# admission). Phases:
#
#   1. Answer fidelity: a query replay through the 3-replica fleet via
#      hubq must be byte-identical to a single hubserve's line door
#      serving the same container — answers and refusals (out-of-range,
#      negative and malformed ids) alike.
#   2. Chaos: SIGKILL one replica in the middle of a hubq flood; the
#      flood must finish with successes, a bounded failure count, and
#      the replay against the survivors must still match exactly.
#   3. Shed sharing: a flooder saturating replica A must be rejected by
#      replica B (which never saw the flood) once A's admission state
#      gossips over, while a polite client on B is still served.
#
# Expects prebuilt binaries (hubgen, hubserve, hubq) in BIN_DIR
# (default: bin).
set -eu

BIN="${1:-bin}"
P1=19101 P2=19102 P3=19103
A="127.0.0.1:$P1" B="127.0.0.1:$P2" C="127.0.0.1:$P3"
PIDS=""

cleanup() {
	for p in $PIDS; do
		kill -9 "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

# wait_ready ADDR: poll a replica's binary door until it answers.
wait_ready() {
	for _ in $(seq 1 100); do
		if printf '0 1\nquit\n' | "$BIN/hubq" -replicas "$1" 2>/dev/null | grep -q '^0 1 '; then
			return 0
		fi
		sleep 0.1
	done
	echo "fleet_smoke: replica $1 never became ready" >&2
	return 1
}

echo "=== fixture: container + query replay + single-node ground truth"
"$BIN/hubgen" -gen gnm -n 2000 -algo pll -out /tmp/fleet.hli -graphout /tmp/fleet.gr
{
	i=0
	while [ $i -lt 100 ]; do
		echo "$i $((i * 17 % 2000))"
		i=$((i + 1))
	done
	echo "PATH 0 17"
	echo "ECC 3"
	# Ids no replica can serve and lines no door can parse: the refusals
	# are part of the transcript, worded by the one shared line codec.
	echo "5 99999"
	echo "PATH 0 99999"
	echo "ECC 99999"
	echo "-1 3"
	echo "1 2 3"
	echo "PATH x y"
	echo "quit"
} >/tmp/fleet.q
"$BIN/hubserve" -index /tmp/fleet.hli </tmp/fleet.q >/tmp/fleet.want 2>/dev/null

echo "=== phase 1+2: 3-replica fleet, replay fidelity, SIGKILL mid-flood"
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$A" -peers "$B,$C" -gossipevery 20ms 2>/tmp/fleet.n1.log &
N1=$!
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$B" -peers "$A,$C" -gossipevery 20ms 2>/tmp/fleet.n2.log &
N2=$!
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$C" -peers "$A,$B" -gossipevery 20ms 2>/tmp/fleet.n3.log &
N3=$!
PIDS="$N1 $N2 $N3"
wait_ready "$A"
wait_ready "$B"
wait_ready "$C"

"$BIN/hubq" -replicas "$A,$B,$C" -name replay </tmp/fleet.q >/tmp/fleet.got 2>/dev/null
diff /tmp/fleet.want /tmp/fleet.got
echo "replay through the fleet matches a single node"

"$BIN/hubq" -replicas "$A,$B,$C" -name chaos -flood 200000 -concurrency 16 -vertices 2000 >/tmp/fleet.flood &
FLOOD=$!
sleep 0.3
kill -9 "$N2" # the chaos: one replica dies mid-flood, no drain
if ! wait "$FLOOD"; then
	echo "fleet_smoke: flood failed outright" >&2
	cat /tmp/fleet.flood >&2
	exit 1
fi
cat /tmp/fleet.flood
failed=$(sed -n 's/.*, \([0-9]*\) failed$/\1/p' /tmp/fleet.flood | head -1)
# Failover retries transport errors on survivors: failures must be
# bounded by the in-flight window at the kill, not grow with the
# outage. 2000 >> workers + 2*max-batch, << the 200000 issued.
test "$failed" -le 2000
"$BIN/hubq" -replicas "$A,$C" -name replay2 </tmp/fleet.q >/tmp/fleet.got2 2>/dev/null
diff /tmp/fleet.want /tmp/fleet.got2
echo "survivors still answer byte-identically after the kill (failed=$failed of 200000)"
kill -9 "$N1" "$N3" 2>/dev/null || true
PIDS=""

echo "=== phase 3: shed sharing (flooder throttled on A is rejected on B)"
# Tiny capacity (1 worker, queue 1, 100ms/query) so the flood saturates
# A deterministically; B and C share the admission geometry and seed.
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$A" -peers "$B,$C" -gossipevery 20ms \
	-workers 1 -queue 1 -simlatency 100ms 2>/tmp/fleet.s1.log &
S1=$!
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$B" -peers "$A,$C" -gossipevery 20ms \
	-workers 1 -queue 1 -simlatency 100ms 2>/tmp/fleet.s2.log &
S2=$!
"$BIN/hubserve" -index /tmp/fleet.hli -binary "$C" -peers "$A,$B" -gossipevery 20ms \
	-workers 1 -queue 1 -simlatency 100ms 2>/tmp/fleet.s3.log &
S3=$!
PIDS="$S1 $S2 $S3"
wait_ready "$A"
wait_ready "$B"

# Saturate A as "flooder": 32 concurrent queries against a 100ms
# single-worker backend overflow the non-blocking queue immediately,
# each overflow bumps the flooder's drop probability (Inc 0.05, so the
# first burst alone pins it at the 0.98 cap), and busy answers confirm
# the shed.
"$BIN/hubq" -replicas "$A" -name flooder -flood 200 -concurrency 32 -vertices 2000 -timeout 5s >/tmp/fleet.shed
cat /tmp/fleet.shed
busyA=$(sed -n 's/.* \([0-9]*\) busy,.*/\1/p' /tmp/fleet.shed | head -1)
test "$busyA" -gt 0

sleep 0.5 # a handful of gossip rounds
# B never saw the flood, but the gossiped verdict must reject the
# flooder there: at drop probability ~0.98, 40 probes all passing has
# probability 0.02^40 — a busy count of zero means gossip failed.
"$BIN/hubq" -replicas "$B" -name flooder -flood 40 -concurrency 4 -vertices 2000 -timeout 5s >/tmp/fleet.shedB
cat /tmp/fleet.shedB
busyB=$(sed -n 's/.* \([0-9]*\) busy,.*/\1/p' /tmp/fleet.shedB | head -1)
test "$busyB" -gt 0
# The polite client rides the same replica unthrottled (its buckets are
# untouched; only capacity, not identity, can slow it down).
printf '0 17\nquit\n' | "$BIN/hubq" -replicas "$B" -name polite -timeout 10s 2>/dev/null >/tmp/fleet.polite
grep -q '^0 17 ' /tmp/fleet.polite
echo "shed sharing works: flooder busy on A=$busyA, on B=$busyB; polite client served"

echo "fleet_smoke: all phases passed"
