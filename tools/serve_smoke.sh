#!/usr/bin/env bash
# Smoke test of the fsi::serve daemon as CI (and operators) run it: check
# that it refuses out-of-range flags (exit 1, the setting named in its
# serve.fatal log line, no crash dump), boot fsi_serve on a Unix socket,
# drive it with concurrent fsi_request clients of mixed sizes — every fp64
# response verified bit-identical against the in-process
# qmc::run_fsi_batch reference, every --precision mixed response verified
# within the health gate's error budget — plus one past-deadline request
# that must be shed with an explicit DeadlineMiss, scrape the OpenMetrics
# endpoint and validate the exposition grammar, then stop the daemon with
# SIGTERM and check it exits cleanly and writes its telemetry.
#
# A second section boots a 2-replica fleet on one shared TCP port
# (SO_REUSEPORT), drives verified clients through the kernel's connection
# spreading, and checks the aggregated stats cover every request.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)

set -euo pipefail

build=${1:-build}
tools_dir=$(dirname "$0")
sock="unix:/tmp/fsi_serve_smoke_$$.sock"
artifacts=$(mktemp -d)
server_pid=""
fleet_pid=""
trap 'kill "$server_pid" "$fleet_pid" 2>/dev/null || true; rm -rf "$artifacts"' EXIT

# Settings the daemon must refuse before it binds anything.  timeout turns
# a daemon that wrongly starts serving into exit 124, not 1.
reject_dir="$artifacts/rejected"
mkdir -p "$reject_dir"
expect_refused() {
  local setting=$1
  shift
  local rc=0
  FSI_CRASH_DIR="$reject_dir" timeout 10 "$build"/tools/fsi_serve \
      --socket "unix:$reject_dir/never.sock" "$@" > "$reject_dir/out.log" 2>&1 || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "serve.fatal" "$reject_dir/out.log" \
      || ! grep -qF -e "$setting" "$reject_dir/out.log"; then
    echo "serve_smoke: fsi_serve $* exited $rc without refusing $setting"
    cat "$reject_dir/out.log"
    exit 1
  fi
  if compgen -G "$reject_dir/crash-*" > /dev/null; then
    echo "serve_smoke: fsi_serve $* left a crash dump"
    exit 1
  fi
  echo "serve_smoke: fsi_serve $* refused ($setting)"
}
expect_refused queue_depth --queue 0
expect_refused --max-batch --max-batch -1

# --metrics with TCP port 0: the kernel picks a free port and the daemon
# prints the resolved endpoint on its "metrics on" line.
FSI_BENCH_DIR="$artifacts" "$build"/tools/fsi_serve \
    --socket "$sock" --queue 32 --window-us 20000 --max-batch 4 \
    --metrics tcp:127.0.0.1:0 > "$artifacts/serve.log" 2>&1 &
server_pid=$!

# Wait for the socket to appear (the daemon binds before serving).
for _ in $(seq 1 50); do
  [ -S "${sock#unix:}" ] && break
  sleep 0.1
done
[ -S "${sock#unix:}" ] || { echo "serve_smoke: daemon never bound $sock"; cat "$artifacts/serve.log"; exit 1; }

# Concurrent clients, mixed sizes; --verify diffs every response against
# the in-process selected inversion (bit-identical or non-zero exit).
pids=()
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 3 --seed 11 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$sock" --lx 6 --L 12 --count 2 --seed 23 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 3 --seed 37 --verify & pids+=($!)
# Mixed-precision requests: verified against the fp64 reference within the
# gate's error budget (or bit-identical if the health gate fell back).
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 2 --seed 41 \
    --precision mixed --verify --verify-tol 5e-3 & pids+=($!)
# One request with an already-expired deadline: must be rejected, not run.
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8 \
    --deadline-us -1 --expect-status deadline-miss & pids+=($!)

fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
[ "$fail" -eq 0 ] || { echo "serve_smoke: a client failed"; exit 1; }

# One stats poll against the live daemon: the JSON must parse and show
# every verified request above as completed.
"$build"/tools/fsi_top --socket "$sock" --json | python3 -c '
import json, sys
stats = json.load(sys.stdin)
assert stats["served_ok"] >= 1, stats
assert stats["uptime_s"] > 0, stats
served, depth = stats["served_ok"], stats["queue_depth"]
print(f"serve_smoke: fsi_top sees {served} served, queue depth {depth}")
' || { echo "serve_smoke: fsi_top stats poll failed"; exit 1; }

# Scrape the OpenMetrics endpoint and validate the exposition: the port is
# on the daemon's "metrics on http://tcp:127.0.0.1:<port>/metrics" line.
metrics_port=$(sed -n 's|.*metrics on http://tcp:127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' \
    "$artifacts/serve.log" | head -n1)
[ -n "$metrics_port" ] || { echo "serve_smoke: no metrics endpoint in daemon log"; cat "$artifacts/serve.log"; exit 1; }

python3 - "$metrics_port" > "$artifacts/metrics.txt" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(
        "http://127.0.0.1:%s/metrics" % sys.argv[1], timeout=10) as resp:
    assert resp.status == 200, resp.status
    ctype = resp.headers.get("Content-Type", "")
    assert ctype.startswith("application/openmetrics-text"), ctype
    sys.stdout.write(resp.read().decode("utf-8"))
EOF
python3 "$tools_dir"/check_openmetrics.py "$artifacts/metrics.txt" \
    --require fsi_build --require fsi_serve_requests \
    --require fsi_serve_latency_s --require fsi_mixed_runs \
    || { echo "serve_smoke: /metrics failed the grammar check"; exit 1; }

# The mixed clients above ran under this daemon: its mixed-run counter must
# have moved (fallbacks allowed — the gate decides — but runs must count).
python3 - "$artifacts/metrics.txt" <<'EOF'
import sys
runs = 0.0
for line in open(sys.argv[1]):
    if line.startswith("fsi_mixed_runs_total "):
        runs = float(line.split()[1])
assert runs >= 2, f"expected >= 2 mixed runs in /metrics, saw {runs}"
print(f"serve_smoke: /metrics shows {int(runs)} mixed-precision runs")
EOF

# Liveness probe answers while the daemon is up.
python3 - "$metrics_port" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(
        "http://127.0.0.1:%s/healthz" % sys.argv[1], timeout=10) as resp:
    assert resp.status == 200 and b"ok" in resp.read(), "healthz failed"
print("serve_smoke: /healthz ok")
EOF

# Graceful shutdown on SIGTERM; the daemon prints stats and writes
# BENCH_fsi_serve.json telemetry into $FSI_BENCH_DIR.
kill -TERM "$server_pid"
wait "$server_pid" || { echo "serve_smoke: daemon exited non-zero"; exit 1; }
test -s "$artifacts/BENCH_fsi_serve.json" \
    || { echo "serve_smoke: daemon telemetry missing"; exit 1; }

python3 - "$artifacts/BENCH_fsi_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = {m["key"]: m["value"] for m in doc["metrics"]}
assert metrics["served_ok"] == 10, metrics
assert metrics["deadline_miss"] == 1, metrics
assert metrics["latency_p99_ms"] > 0, metrics
print(f"serve_smoke OK: {int(metrics['served_ok'])} served, "
      f"{int(metrics['deadline_miss'])} shed by deadline, "
      f"p99 {metrics['latency_p99_ms']:.2f} ms")
EOF

# ---------------------------------------------------------------------------
# 2-replica fleet on one shared TCP port (SO_REUSEPORT).  Port 0: replica 0
# resolves a free port, the sibling binds the same one, and the daemon
# prints the resolved endpoint on its "listening on" line.
fleet_art=$(mktemp -d)
FSI_BENCH_DIR="$fleet_art" "$build"/tools/fsi_serve \
    --socket tcp:127.0.0.1:0 --replicas 2 --queue 32 --window-us 5000 \
    --max-batch 4 > "$fleet_art/serve.log" 2>&1 &
fleet_pid=$!

fleet_sock=""
for _ in $(seq 1 50); do
  fleet_sock=$(sed -n 's|.*listening on \(tcp:[0-9.]*:[0-9]*\) .*|\1|p' \
      "$fleet_art/serve.log" | head -n1)
  [ -n "$fleet_sock" ] && break
  sleep 0.1
done
[ -n "$fleet_sock" ] || { echo "serve_smoke: fleet never announced its port"; cat "$fleet_art/serve.log"; exit 1; }

pids=()
"$build"/tools/fsi_request --socket "$fleet_sock" --lx 4 --L 8 --count 3 --seed 51 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$fleet_sock" --lx 6 --L 12 --count 2 --seed 67 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$fleet_sock" --lx 4 --L 8 --count 3 --seed 73 --verify & pids+=($!)
fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
[ "$fail" -eq 0 ] || { echo "serve_smoke: a fleet client failed"; cat "$fleet_art/serve.log"; exit 1; }

kill -TERM "$fleet_pid"
wait "$fleet_pid" || { echo "serve_smoke: fleet exited non-zero"; exit 1; }
fleet_pid=""

# Aggregated (cross-replica) telemetry must account for every request; the
# kernel decides the split, so only the total is asserted.
python3 - "$fleet_art/BENCH_fsi_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = {m["key"]: m["value"] for m in doc["metrics"]}
assert metrics["served_ok"] == 8, metrics
print(f"serve_smoke OK: 2-replica fleet served {int(metrics['served_ok'])} "
      "verified requests on one SO_REUSEPORT port")
EOF
rm -rf "$fleet_art"
