#!/usr/bin/env bash
# Multi-process smoke test of the telemetry pipeline: one gks-coordd
# with --metrics-listen/--metrics-dump plus two gks-workerd over
# localhost TCP. Passes when
#   - the Prometheus endpoint serves >= 12 metric families spanning
#     the kernel/sweep, job-service, journal and dist layers,
#   - both workers appear as worker="..." labelled series (one via
#     lease piggybacks, the idle one via idle heartbeats),
#   - gks-top renders both worker rows against the live cluster and
#     its --json view carries per-worker keys/s and lease latency,
#   - the shutdown --metrics-dump validates against the schema checker
#     (bench_schema_check.py --metrics).
#
# Usage: obs_smoke.sh <tools-bin-dir> [workdir]
set -u

BIN=${1:?usage: obs_smoke.sh <tools-bin-dir> [workdir]}
WORK=${2:-$(mktemp -d)}
TOOLS=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$WORK"
cd "$WORK"

fail() {
  echo "obs_smoke: FAIL: $*" >&2
  [ -s coordd.err ] && sed 's/^/  coordd: /' coordd.err >&2
  exit 1
}

cleanup() {
  kill -9 "${CPID:-0}" "${W1:-0}" "${W2:-0}" 2>/dev/null
  wait 2>/dev/null
}
trap cleanup EXIT

scrape() {
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$MADDR/metrics"
  else
    python3 -c "import urllib.request,sys;
sys.stdout.write(urllib.request.urlopen('http://$MADDR/metrics').read().decode())"
  fi
}

# md5("wzzzz"), lower-case length-5 keyspace — the dist_smoke workload.
cat > batch.txt <<'EOF'
name=smoke algo=md5 hash=a53d1d57496c7c3b3c5c358cd3f2d768 charset=lower min=5 max=5
EOF

rm -f journal.jsonl metrics.json coordd.out coordd.err
"$BIN/gks-coordd" --batch batch.txt --listen 127.0.0.1:0 \
  --journal journal.jsonl --local-workers 0 --lease 2.0 --heartbeat 0.25 \
  --metrics-listen 127.0.0.1:0 --metrics-dump metrics.json \
  --quiet > coordd.out 2> coordd.err &
CPID=$!

ADDR=
MADDR=
for _ in $(seq 100); do
  ADDR=$(sed -n 's/^listening on //p' coordd.out)
  MADDR=$(sed -n 's/^metrics on //p' coordd.out)
  [ -n "$ADDR" ] && [ -n "$MADDR" ] && break
  kill -0 "$CPID" 2>/dev/null || fail "coordinator died during startup"
  sleep 0.1
done
[ -n "$ADDR" ] || fail "coordinator never announced its address"
[ -n "$MADDR" ] || fail "coordinator never announced its metrics address"

"$BIN/gks-workerd" --connect "$ADDR" --name w0 --threads 2 > w0.out 2>&1 &
W1=$!
"$BIN/gks-workerd" --connect "$ADDR" --name w1 --threads 2 > w1.out 2>&1 &
W2=$!

# Wait until both workers' telemetry reached the coordinator and a
# lease completed (heartbeat piggybacks carry the counters within a
# cadence or two of the work happening).
DEADLINE=$((SECONDS + 60))
while :; do
  scrape > scrape.txt 2>/dev/null
  if grep -q 'worker="w0"' scrape.txt && \
     grep -q 'worker="w1"' scrape.txt && \
     grep -Eq 'gks_worker_leases_completed_total\{worker="w[01]"\} [1-9]' \
       scrape.txt; then
    break
  fi
  [ "$SECONDS" -lt "$DEADLINE" ] || fail "worker telemetry never arrived:
$(tail -5 scrape.txt 2>/dev/null)"
  kill -0 "$CPID" 2>/dev/null || fail "coordinator died mid-run"
  sleep 0.25
done

FAMILIES=$(grep -c '^# TYPE ' scrape.txt)
[ "$FAMILIES" -ge 12 ] || \
  fail "only $FAMILIES metric families exposed (want >= 12)"

# One family per layer proves the instrumentation spans the stack.
for metric in gks_sweep_keys_total gks_kernel_calibrations_total \
              gks_lease_granted_total gks_journal_records_total \
              gks_coord_sessions_total gks_worker_rtt_seconds_bucket \
              gks_worker_retransmits_total; do
  grep -q "^$metric" scrape.txt || fail "no $metric series in the scrape"
done

# The live dashboard against the running cluster: both workers render.
"$BIN/gks-top" --connect "$ADDR" > top.txt 2>&1 \
  || fail "gks-top exited nonzero:
$(cat top.txt)"
grep -q '^| *w0 ' top.txt || fail "gks-top shows no w0 row:
$(cat top.txt)"
grep -q '^| *w1 ' top.txt || fail "gks-top shows no w1 row:
$(cat top.txt)"

# Its JSON view must carry the per-worker rate and latency series the
# table renders from.
"$BIN/gks-top" --connect "$ADDR" --json > top.json 2>top.json.err \
  || fail "gks-top --json exited nonzero"
python3 - top.json <<'EOF' || fail "gks-top --json lacks keys/s or lease latency"
import json, sys
doc = json.load(open(sys.argv[1]))
workers = {w["name"]: w["metrics"] for w in doc.get("workers", [])}
assert {"w0", "w1"} <= set(workers), f"workers present: {sorted(workers)}"
busy = [m for m in workers.values()
        if m.get("gks_worker_leases_completed_total", {}).get("value", "0")
        != "0"]
assert busy, "no worker reported a completed lease"
assert any(float(m.get("gks_worker_keys_per_s", {}).get("value", 0)) > 0
           for m in busy), "no worker reported keys/s"
assert any(m.get("gks_worker_lease_seconds", {}).get("buckets")
           for m in busy), "no worker reported lease latency"
EOF

kill "$W1" "$W2" 2>/dev/null
wait "$W1" "$W2" 2>/dev/null
kill -TERM "$CPID"
DEADLINE=$((SECONDS + 30))
while kill -0 "$CPID" 2>/dev/null; do
  [ "$SECONDS" -lt "$DEADLINE" ] || fail "coordinator ignored SIGTERM"
  sleep 0.1
done
wait "$CPID"

[ -s metrics.json ] || fail "no metrics dump written at shutdown"
python3 "$TOOLS/bench_schema_check.py" --metrics metrics.json \
  --min-families 12 || fail "metrics dump failed schema validation"

echo "obs_smoke: PASS ($FAMILIES families, both workers visible," \
     "dump validated)"
exit 0
