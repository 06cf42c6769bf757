#!/usr/bin/env bash
# cluster_smoke.sh — the cluster's end-to-end gate, runnable locally via
# `make cluster-smoke` and in CI's cluster-smoke job.
#
# Boots three real sgxd processes joined by -peers, lands a fig1 on
# whichever node the ring owns it to, SIGKILLs that node mid-sweep, and
# requires the survivors to converge:
#
#   1. both survivors stay /readyz-green and declare the death,
#   2. exactly one survivor adopts the journaled job (exactly-once),
#   3. the recovered figure is byte-identical to a direct sgxbench run,
#   4. a resubmission through the *other* survivor serves from the store
#      (peer-fetch read-through, or the owner's store through a forward)
#      with the same bytes,
#   5. a second resubmission there is that survivor's own store hit: it
#      kept a verified copy, so nothing is forwarded,
#   6. the cluster counters are exported under their contract names.
#
# Needs: go, curl. No jq — the JSON poking is deliberate grep so the
# script runs anywhere CI does.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d)
cleanup() {
	status=$?
	# shellcheck disable=SC2046
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
	if [ "$status" -ne 0 ]; then
		for log in "$WORK"/n*.log; do
			[ -f "$log" ] || continue
			echo "---- $log ----" >&2
			tail -40 "$log" >&2
		done
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building sgxd, sgxctl, sgxbench"
$GO build -o "$WORK/sgxd" ./cmd/sgxd
$GO build -o "$WORK/sgxctl" ./cmd/sgxctl
$GO build -o "$WORK/sgxbench" ./cmd/sgxbench

P1=${P1:-7491} P2=${P2:-7492} P3=${P3:-7493}
PEERS="n1=http://127.0.0.1:$P1,n2=http://127.0.0.1:$P2,n3=http://127.0.0.1:$P3"

declare -A URL PID
for n in 1 2 3; do
	port=$(eval echo "\$P$n")
	URL[n$n]="http://127.0.0.1:$port"
	"$WORK/sgxd" -addr "127.0.0.1:$port" \
		-store "$WORK/n$n/store" -journal "$WORK/n$n/journal.jsonl" \
		-node-id "n$n" -peers "$PEERS" -heartbeat 100ms -dead-after 3 \
		2>"$WORK/n$n.log" &
	PID[n$n]=$!
done

# wait_ready <url> <log>: deadline-based readiness poll with exponential
# backoff (25ms doubling to a 1.6s cap, 30s deadline) instead of a fixed
# sleep ladder; on timeout the node's last stderr lines come with the
# failure so CI logs say *why* it never came up.
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
for n in n1 n2 n3; do wait_ready "${URL[$n]}" "$WORK/$n.log"; done
echo "== 3 nodes ready"

# jfield <json> <name>: pull a string field out of (pretty-printed) job
# JSON. Whitespace is stripped first so `"node": "n2"` greps as
# `"node":"n2"`; no value this script reads contains a space.
jfield() { tr -d ' \n\t' <<<"$1" | grep -o "\"$2\":\"[^\"]*\"" | head -1 | cut -d'"' -f4; }

# jobs_flat <base>: the node's job list, one object per line.
jobs_flat() { curl -fsS "$1/api/v1/jobs" | tr -d ' \n\t' | tr '{' '\n'; }

# Submit fig1 through n1; route-or-serve stamps the owner.
id=$("$WORK/sgxctl" -addr "${URL[n1]}" submit fig1)
owner=$(jfield "$(curl -fsS "${URL[n1]}/api/v1/jobs/$id")" node)
[ -n "$owner" ] || { echo "job $id carries no node stamp" >&2; exit 1; }
echo "== fig1 ($id) owned by $owner"

# Wait until the sweep is genuinely running on the owner, let the pending
# spec ride a few heartbeats to the survivors, then SIGKILL — no drain.
for _ in $(seq 1 200); do
	state=$(jfield "$(curl -fsS "${URL[$owner]}/api/v1/jobs/$id" || true)" state)
	[ "$state" = running ] && break
	sleep 0.1
done
[ "$state" = running ] || { echo "job never started on $owner" >&2; exit 1; }
sleep 1
kill -9 "${PID[$owner]}"
echo "== SIGKILLed $owner mid-sweep"

survivors=()
for n in n1 n2 n3; do [ "$n" = "$owner" ] || survivors+=("$n"); done

# Both survivors must declare the death and stay ready.
for n in "${survivors[@]}"; do
	ok=""
	for _ in $(seq 1 100); do
		if "$WORK/sgxctl" -addr "${URL[$n]}" cluster status | grep -Eq "^$owner +dead"; then
			ok=1
			break
		fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "$n never declared $owner dead" >&2; exit 1; }
	curl -fsS "${URL[$n]}/readyz" >/dev/null
done
echo "== survivors declared $owner dead; /readyz green"

# Exactly one survivor adopts the journaled job.
adopted_on="" count=0
for _ in $(seq 1 300); do
	count=0
	for n in "${survivors[@]}"; do
		c=$(jobs_flat "${URL[$n]}" | grep -c "\"recovered_from\":\"$owner\"" || true)
		[ "$c" -gt 0 ] && adopted_on=$n
		count=$((count + c))
	done
	[ "$count" -ge 1 ] && break
	sleep 0.1
done
[ "$count" -eq 1 ] || { echo "adopted $count jobs across survivors, want exactly 1" >&2; exit 1; }
# The flattened list interleaves nested objects, so resolve the adopted
# job's ID through the single-job endpoint instead of line surgery.
rec_id=""
for jid in $(jobs_flat "${URL[$adopted_on]}" | grep -o '"id":"[^"]*j[0-9]*"' | cut -d'"' -f4 | sort -u); do
	js=$(curl -fsS "${URL[$adopted_on]}/api/v1/jobs/$jid")
	if [ "$(jfield "$js" recovered_from || true)" = "$owner" ]; then
		rec_id=$jid
	fi
done
[ -n "$rec_id" ] || { echo "could not resolve the adopted job's ID on $adopted_on" >&2; exit 1; }
echo "== $adopted_on adopted the job as $rec_id (exactly once)"

# The recovered figure must converge and match sgxbench byte for byte.
"$WORK/sgxctl" -addr "${URL[$adopted_on]}" wait "$rec_id"
"$WORK/sgxctl" -addr "${URL[$adopted_on]}" result "$rec_id" >"$WORK/recovered.txt"
"$WORK/sgxbench" -experiment fig1 >"$WORK/direct.txt"
diff "$WORK/recovered.txt" "$WORK/direct.txt"
echo "== recovered fig1 byte-identical to sgxbench"

# A fresh submission through the other survivor must serve from the store
# (peer-fetch read-through), never recompute, and match the same bytes.
other=${survivors[0]}
[ "$other" = "$adopted_on" ] && other=${survivors[1]}
id2=$("$WORK/sgxctl" -addr "${URL[$other]}" submit fig1)
"$WORK/sgxctl" -addr "${URL[$other]}" wait "$id2" | grep "from store"
"$WORK/sgxctl" -addr "${URL[$other]}" result "$id2" | diff - "$WORK/direct.txt"
echo "== resubmission via $other served from store, same bytes"

# That resubmission left a verified copy in $other's store, so the next
# one is a local store hit under $other's own prefix: no forward.
forwarded() { curl -fsS "${URL[$other]}/metrics" | grep -E '^sgxd_cluster_forwarded_total ' | cut -d' ' -f2; }
fwd_before=$(forwarded)
id3=$("$WORK/sgxctl" -addr "${URL[$other]}" submit fig1)
fwd_after=$(forwarded)
case "$id3" in
"$other"-k*) ;;
*) echo "second resubmission via $other answered $id3, want a local store hit $other-k…" >&2; exit 1 ;;
esac
[ -n "$fwd_before" ] && [ "$fwd_before" = "$fwd_after" ] || {
	echo "sgxd_cluster_forwarded_total on $other moved from '$fwd_before' to '$fwd_after'" >&2
	exit 1
}
"$WORK/sgxctl" -addr "${URL[$other]}" result "$id3" | diff - "$WORK/direct.txt"
echo "== second resubmission via $other is its own store hit ($id3), no forward, same bytes"

# The cluster counters are exported under their contract names.
for n in "${survivors[@]}"; do
	curl -fsS "${URL[$n]}/metrics" | grep -E '^sgxd_peer_fetches_total [0-9]+$'
	curl -fsS "${URL[$n]}/metrics" | grep -E '^sgxd_cluster_jobs_recovered_total [0-9]+$'
done
echo "== cluster metrics present on both survivors"

# Graceful shutdown of the survivors.
for n in "${survivors[@]}"; do kill -TERM "${PID[$n]}"; done
for n in "${survivors[@]}"; do wait "${PID[$n]}" || true; done
echo "== cluster smoke passed"
