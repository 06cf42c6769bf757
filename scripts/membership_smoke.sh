#!/usr/bin/env bash
# membership_smoke.sh — the self-healing membership gate, runnable locally
# via `make membership-smoke` and in CI's membership-smoke job.
#
# Boots a 2-node fleet, seeds a working set, then — with sgxload driving
# open-loop traffic at both original nodes — joins a third node via
# `-join`, and requires:
#
#   1. all three nodes converge on one bumped membership epoch,
#   2. every seeded spec submitted through the newcomer answers "from store"
#      (an epoch change pushes nothing; the newcomer pulls by peer fetch),
#   3. a graceful `sgxctl cluster leave` drains the newcomer back out and the
#      survivors converge on a 2-member view with no dead or leaving rows,
#   4. the results only the departed node computed (fresh specs submitted
#      through it before the leave) serve "from store" through n1, and its
#      sgxd_rereplicated_total counts at least that many evacuated results,
#   5. the load run finishes with zero 5xx (churn may retry, never error).
#
# Needs: go, curl. No jq — same deliberate grep-level JSON poking as
# cluster_smoke.sh.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d)
cleanup() {
	status=$?
	# shellcheck disable=SC2046
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
	if [ "$status" -ne 0 ]; then
		for log in "$WORK"/n*.log "$WORK"/load.log; do
			[ -f "$log" ] || continue
			echo "---- $log ----" >&2
			tail -40 "$log" >&2
		done
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building sgxd, sgxctl, sgxload"
$GO build -o "$WORK/sgxd" ./cmd/sgxd
$GO build -o "$WORK/sgxctl" ./cmd/sgxctl
$GO build -o "$WORK/sgxload" ./cmd/sgxload

P1=${P1:-7591} P2=${P2:-7592} P3=${P3:-7593}
PEERS="n1=http://127.0.0.1:$P1,n2=http://127.0.0.1:$P2"

declare -A URL
for n in 1 2; do
	port=$(eval echo "\$P$n")
	URL[n$n]="http://127.0.0.1:$port"
	"$WORK/sgxd" -addr "127.0.0.1:$port" \
		-store "$WORK/n$n/store" -journal "$WORK/n$n/journal.jsonl" \
		-node-id "n$n" -peers "$PEERS" -heartbeat 100ms -dead-after 3 \
		2>"$WORK/n$n.log" &
done
URL[n3]="http://127.0.0.1:$P3"

wait_ready() {
	local url=$1 log=$2 deadline=$((SECONDS + 30)) backoff=0.025
	while [ "$SECONDS" -lt "$deadline" ]; do
		curl -fsS "$url/readyz" >/dev/null 2>&1 && return 0
		sleep "$backoff"
		backoff=$(awk -v b="$backoff" 'BEGIN { b *= 2; print (b > 1.6) ? 1.6 : b }')
	done
	echo "node at $url not ready after 30s; last stderr:" >&2
	[ -f "$log" ] && tail -20 "$log" >&2
	return 1
}
wait_ready "${URL[n1]}" "$WORK/n1.log"
wait_ready "${URL[n2]}" "$WORK/n2.log"
echo "== 2 nodes ready"

# Seed a working set of cheap distinct grid cells so the joiner has
# something to inherit. The digests (and so ring placement) are fully
# deterministic; this particular population hands n3 a share of the keys
# once it joins, so some of its reads below are reads of keys it owns but
# does not hold.
submit_grid() { # submit_grid <base> <workload> <threads> -> job id
	curl -fsS -XPOST "$1/api/v1/jobs" -d \
		"{\"experiment\":\"grid\",\"workloads\":[\"$2\"],\"policies\":[\"sgxbounds\"],\"size\":\"XS\",\"threads\":$3}" |
		tr -d ' \n\t' | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4
}
seed_ids=()
for wl in wordcount matrixmul; do
	for i in $(seq 1 8); do
		seed_ids+=("$(submit_grid "${URL[n1]}" "$wl" "$i")")
	done
done
for id in "${seed_ids[@]}"; do
	"$WORK/sgxctl" -addr "${URL[n1]}" wait "$id" >/dev/null
done
echo "== seeded 16 distinct grid cells"

# Open-loop load at both original nodes for the whole churn window. Any
# 5xx fails the run; a node briefly refusing connections during churn is
# retried, not an error.
"$WORK/sgxload" -targets "${URL[n1]},${URL[n2]}" -rps 20 -duration 15s -mix 0.5 \
	-out "$WORK/load.json" -assert-no-5xx >"$WORK/load.log" 2>&1 &
LOAD_PID=$!

# Join a third node under that load.
"$WORK/sgxd" -addr "127.0.0.1:$P3" \
	-store "$WORK/n3/store" -journal "$WORK/n3/journal.jsonl" \
	-node-id n3 -join "${URL[n1]}" -heartbeat 100ms -dead-after 3 \
	2>"$WORK/n3.log" &
wait_ready "${URL[n3]}" "$WORK/n3.log"

# All three nodes must converge: three live member rows, same bumped epoch.
converged=""
for _ in $(seq 1 100); do
	ok=1
	epochs=""
	for n in n1 n2 n3; do
		st=$("$WORK/sgxctl" -addr "${URL[$n]}" cluster status 2>/dev/null) || { ok=""; break; }
		rows=$(grep -Ec '^n[0-9]+ +(self|alive)' <<<"$st" || true)
		[ "$rows" -eq 3 ] || ok=""
		grep -Eq '^n[0-9]+ +(dead|leaving)' <<<"$st" && ok=""
		epochs="$epochs $(awk 'NR==1 {print $2}' <<<"$st")"
	done
	if [ -n "$ok" ] && [ "$(tr ' ' '\n' <<<"$epochs" | sort -u | grep -c .)" -eq 1 ]; then
		converged=1
		break
	fi
	sleep 0.2
done
[ -n "$converged" ] || { echo "fleet never converged on one 3-member epoch" >&2; exit 1; }
epoch=$("$WORK/sgxctl" -addr "${URL[n1]}" cluster status | awk 'NR==1 {print $2}')
[ "$epoch" -ge 2 ] || { echo "epoch $epoch after join, want >= 2" >&2; exit 1; }
echo "== n3 joined; 3-member view converged at epoch $epoch"

# The join pushed nothing: the newcomer serves the whole seeded set from
# the fleet store, pulling what it lacks by peer fetch, never recomputing.
for wl in wordcount matrixmul; do
	for i in $(seq 1 8); do
		id=$(submit_grid "${URL[n3]}" "$wl" "$i")
		"$WORK/sgxctl" -addr "${URL[n3]}" wait "$id" | grep -q "from store" ||
			{ echo "seeded $wl/$i recomputed through n3 after the join" >&2; exit 1; }
	done
done
echo "== every seeded spec answers from store through n3"

# Results that exist only on n3: fresh specs submitted through it, kept
# when n3 computed them itself (an n3-j ID, not from store). The leave
# must evacuate each of them.
fresh=()
for i in $(seq 9 20); do
	id=$(submit_grid "${URL[n3]}" wordcount "$i")
	line=$("$WORK/sgxctl" -addr "${URL[n3]}" wait "$id")
	case "$id" in n3-j*) grep -q "from store" <<<"$line" || fresh+=("$i") ;; esac
done
[ "${#fresh[@]}" -ge 1 ] || { echo "n3 computed none of the fresh specs" >&2; exit 1; }
echo "== n3 computed ${#fresh[@]} fresh specs (wordcount threads ${fresh[*]})"

# Graceful leave: drains, hands off, departs; survivors converge on a
# 2-member view with no trace of n3.
"$WORK/sgxctl" -addr "${URL[n3]}" cluster leave | grep -q departed
converged=""
for _ in $(seq 1 100); do
	ok=1
	for n in n1 n2; do
		st=$("$WORK/sgxctl" -addr "${URL[$n]}" cluster status)
		rows=$(grep -Ec '^n[0-9]+ +(self|alive)' <<<"$st" || true)
		[ "$rows" -eq 2 ] || ok=""
		grep -Eq '^n3 ' <<<"$st" && ok=""
	done
	[ -n "$ok" ] && { converged=1; break; }
	sleep 0.2
done
[ -n "$converged" ] || { echo "survivors never converged after the leave" >&2; exit 1; }
echo "== n3 left gracefully; survivors converged"

# Evacuation check: every result only n3 computed must serve from the
# survivors' stores without recompute, and n3 must count each as pushed.
for i in "${fresh[@]}"; do
	id=$(submit_grid "${URL[n1]}" wordcount "$i")
	"$WORK/sgxctl" -addr "${URL[n1]}" wait "$id" | grep -q "from store" ||
		{ echo "n3's wordcount/$i recomputed after the leave: it was not evacuated" >&2; exit 1; }
done
pushed=$(curl -fsS "${URL[n3]}/metrics" | awk '/^sgxd_rereplicated_total / {print $2}')
[ "${pushed:-0}" -ge "${#fresh[@]}" ] ||
	{ echo "n3 sgxd_rereplicated_total = ${pushed:-0}, want >= ${#fresh[@]}" >&2; exit 1; }
echo "== n3's ${#fresh[@]} own results serve from store through n1 (n3 evacuated ${pushed})"

# The load run must have finished clean: zero 5xx (retries allowed).
wait "$LOAD_PID" || { echo "sgxload failed:" >&2; tail -20 "$WORK/load.log" >&2; exit 1; }
grep -o '"server_5xx": *[0-9]*' "$WORK/load.json" | head -1 | tr -d ' '
echo "== membership smoke passed"
