#!/usr/bin/env bash
# obs-smoke: boots the examples/distributed deployment with an ops
# listener, waits for the demo workload to flow through the pipeline, then
# scrapes /metrics, /traces, /slo and /cluster and asserts the whole
# attribution chain is present — stage histograms with trace exemplars,
# recorded spans, rolling SLO burn state, and the federated cluster view
# with every worker and a populated partition heat table — the end-to-end
# check that the observability wiring survives from worker construction
# to HTTP scrape. Run via `make obs-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

log=$(mktemp)
# CI sets HELIOS_FLIGHT_DIR so flight-recorder captures survive a failed
# run as an uploadable artifact; locally we use (and clean up) a temp dir.
flightdir=${HELIOS_FLIGHT_DIR:-$(mktemp -d)}
mkdir -p "$flightdir"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -f "$log" "${log}.body"
  [ -z "${HELIOS_FLIGHT_DIR:-}" ] && rm -rf "$flightdir" || true
}
trap cleanup EXIT

go run ./examples/distributed -ops-addr 127.0.0.1:0 -linger 60s \
  -telemetry-every 250ms -flight-dir "$flightdir" >"$log" 2>&1 &
pid=$!

# Wait for the demo to finish driving traffic (so every metric we assert on
# has been exercised) and for the ops listener address to be printed.
for _ in $(seq 1 300); do
  if grep -q "distributed topology demo complete" "$log"; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "obs-smoke: example exited before completing:" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.2
done
grep -q "distributed topology demo complete" "$log" || {
  echo "obs-smoke: demo never completed:" >&2
  cat "$log" >&2
  exit 1
}
addr=$(sed -n 's/^ops listening on //p' "$log" | head -1)
[ -n "$addr" ] || { echo "obs-smoke: no ops listener address in log" >&2; cat "$log" >&2; exit 1; }

fetch() { # fetch <url> -> ${log}.body
  curl -sSf --max-time 10 "$1" >"${log}.body"
  [ -s "${log}.body" ] || { echo "obs-smoke: empty response from $1" >&2; exit 1; }
}

fetch "http://$addr/metrics"
grep -q "serving.sample_hits" "${log}.body" || {
  echo "obs-smoke: /metrics has no serving cache counters:" >&2
  cat "${log}.body" >&2
  exit 1
}
grep -q "mq.consumer_lag" "${log}.body" || {
  echo "obs-smoke: /metrics has no consumer-lag gauges" >&2
  exit 1
}

# The replicated broker tier exports its health even when nothing fails:
# per-partition follower lag from the leaders and the controller's
# promotion counter (zero here — the demo ran no failover drill).
grep -q "mq.replication_lag" "${log}.body" || {
  echo "obs-smoke: /metrics has no replication-lag gauges" >&2
  exit 1
}
grep -q "mq.failovers" "${log}.body" || {
  echo "obs-smoke: /metrics has no failover counter" >&2
  exit 1
}

grep -q "slo.burn_rate_milli" "${log}.body" || {
  echo "obs-smoke: /metrics has no SLO burn gauges" >&2
  exit 1
}

fetch "http://$addr/metrics?format=json"
grep -q '"counters"' "${log}.body" || {
  echo "obs-smoke: /metrics?format=json is not a snapshot document" >&2
  exit 1
}
grep -q '"stages"' "${log}.body" || {
  echo "obs-smoke: /metrics?format=json has no stage histograms" >&2
  exit 1
}
# Every gateway /sample is traced, so the stage histograms must hold
# exemplars: the trace-ID join key from a p99 bucket to /traces.
grep -q '"p99_exemplar"' "${log}.body" || {
  echo "obs-smoke: stage histograms carry no trace exemplars:" >&2
  cat "${log}.body" >&2
  exit 1
}
grep -q '"value_ns"' "${log}.body" || {
  echo "obs-smoke: exemplar records missing value/timestamp fields" >&2
  exit 1
}

fetch "http://$addr/traces"
grep -q '"spans"' "${log}.body" || {
  echo "obs-smoke: /traces contains no recorded traces:" >&2
  cat "${log}.body" >&2
  exit 1
}

fetch "http://$addr/slo"
grep -q '"frontend.sample_latency"' "${log}.body" || {
  echo "obs-smoke: /slo does not list the frontend latency objective:" >&2
  cat "${log}.body" >&2
  exit 1
}
grep -q '"burn_rate"' "${log}.body" || {
  echo "obs-smoke: /slo entries carry no burn rate" >&2
  exit 1
}

# The federated cluster view lists every lease holder: the workers from
# their telemetry, the broker replicas from their replication reports —
# one membership table, so none of them may be dead in a healthy demo.
# The per-partition heat table is populated from telemetry. The demo
# workload can finish before the first telemetry tick fires, so poll
# until federation converges (the demo lingers long enough).
cluster_ok() {
  for worker in sampler-0 sampler-1 server-0 server-1 frontend-0 broker-0 broker-1 broker-2; do
    grep -q "\"$worker\"" "${log}.body" || return 1
  done
  grep -q '"heat_milli"' "${log}.body" || return 1
}
for _ in $(seq 1 150); do
  fetch "http://$addr/cluster"
  if cluster_ok; then break; fi
  sleep 0.2
done
cluster_ok || {
  echo "obs-smoke: /cluster never converged to all workers, broker replicas + heat table:" >&2
  cat "${log}.body" >&2
  exit 1
}
if grep -q '"dead":true' "${log}.body"; then
  echo "obs-smoke: /cluster shows a dead lease holder in a healthy demo:" >&2
  cat "${log}.body" >&2
  exit 1
fi
grep -q '"skew_milli"' "${log}.body" || {
  echo "obs-smoke: /cluster has no skew score" >&2
  exit 1
}

# The heat/skew gauges federate back into the coordinator's /metrics.
fetch "http://$addr/metrics"
grep -q "cluster.partition_heat" "${log}.body" || {
  echo "obs-smoke: /metrics has no partition heat gauges:" >&2
  cat "${log}.body" >&2
  exit 1
}
grep -q "cluster.skew_score" "${log}.body" || {
  echo "obs-smoke: /metrics has no skew score gauge" >&2
  exit 1
}
# The membership gauges read the same lease table as /cluster.
grep -Eq '^cluster\.dead_workers 0$' "${log}.body" || {
  echo "obs-smoke: /metrics does not report cluster.dead_workers 0:" >&2
  grep "cluster\." "${log}.body" >&2 || true
  exit 1
}

echo "obs-smoke OK (ops on $addr)"
