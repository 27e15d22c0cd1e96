#!/usr/bin/env bash
# Builds and runs the tier-1 test suite under AddressSanitizer and
# ThreadSanitizer (cmake -DDSKS_SANITIZE=...) — with a dedicated chaos
# pass exercising storage fault injection under each sanitizer — then a
# Release perf smoke that fails if bench_throughput's single-thread qps
# dropped more than 25% below the committed
# bench/baseline_throughput.json, plus `dsks_cli query` and `dsks_cli
# chaos` smokes (every query mode on a saved dataset; the process
# survives injected faults) and a bench_micro smoke of the buffer-pool
# fetch benches. Usage:
#
#   tools/check.sh            # both sanitizers + perf smoke
#   tools/check.sh thread     # just one sanitizer (skips the perf smoke)
#
# DSKS_SKIP_PERF=1 skips the perf smoke. Build trees go to build-asan/,
# build-tsan/ and build-perf/ next to build/ (all gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("${@:-address}")
if [ "$#" -eq 0 ]; then
  sanitizers=(address thread)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address) dir=build-asan ;;
    thread)  dir=build-tsan ;;
    *)       dir=build-$san ;;
  esac
  echo "=== $san sanitizer: configuring $dir ==="
  cmake -B "$dir" -S . -DDSKS_SANITIZE="$san" > /dev/null
  cmake --build "$dir" -j"$(nproc)"
  echo "=== $san sanitizer: running tests ==="
  # die_after_fork=0: gtest death tests fork; TSan only instruments the
  # parent side here and the forked child exec()s or exits immediately.
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ctest --output-on-failure -j"$(nproc)")
  # The chaos suite is in ctest already; run it again on its own so a
  # sanitizer hit in the fault-handling paths is attributed loudly.
  echo "=== $san sanitizer: chaos (storage faults under $san) ==="
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ./tests/chaos_test \
      --gtest_brief=1)
  # Storage and chaos suites again with pages on a real file: the ctest
  # pass above covered the sim backend (the default); DSKS_TEST_BACKEND
  # reruns the same binaries against pread/pwrite + CRC sidecar, so both
  # backends face the same faults under the same sanitizer.
  echo "=== $san sanitizer: storage + chaos suites on the file backend ==="
  for t in storage_test fault_injection_test buffer_pool_concurrency_test \
           durability_test prefetch_test obs_test trace_attribution_test \
           chaos_test; do
    (cd "$dir" && DSKS_TEST_BACKEND=file TSAN_OPTIONS="die_after_fork=0" \
        "./tests/$t" --gtest_brief=1)
  done
  # The query-service suite on its own too: the TCP front end is where
  # worker threads, the poll loop and client threads all meet, so a data
  # race there should be attributed loudly, like chaos.
  echo "=== $san sanitizer: query service (server_test under $san) ==="
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ./tests/server_test \
      --gtest_brief=1)
  echo "=== $san sanitizer: OK ==="
done

# Perf smoke: only in the default full run, and skippable for machines
# where a Release build or stable timing is unavailable.
if [ "$#" -eq 0 ] && [ "${DSKS_SKIP_PERF:-0}" != "1" ]; then
  echo "=== perf smoke: building build-perf (Release) ==="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-perf -j"$(nproc)" --target bench_throughput \
    --target dsks_cli --target bench_micro
  # Micro-bench smoke: the pool fetch benches must run and print all six
  # rows (hit and miss at 1, 2 and 4 threads). The JSON goes to
  # build-perf/, never over the committed BENCH_micro.json.
  echo "=== micro-bench smoke: bench_micro BM_PoolFetch ==="
  ./build-perf/bench/bench_micro --benchmark_filter=BM_PoolFetch \
    --benchmark_min_time=0.05 \
    --benchmark_out=build-perf/bench_micro_smoke.json \
    --benchmark_out_format=json > build-perf/bench_micro_smoke.out
  rows="$(grep -cE '^BM_PoolFetch(Hit|Miss)/threads:[124] ' \
    build-perf/bench_micro_smoke.out || true)"
  if [ "$rows" != 6 ]; then
    echo "micro-bench smoke: expected 6 BM_PoolFetch rows, got $rows" >&2
    cat build-perf/bench_micro_smoke.out >&2
    exit 1
  fi
  echo "=== micro-bench smoke: OK ==="
  echo "=== perf smoke: bench_throughput, 3 runs, best counts ==="
  : > build-perf/perf_smoke.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        DSKS_BENCH_THREADS=1 ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_smoke.jsonl
  done
  python3 tools/perf_gate.py bench/baseline_throughput.json \
    build-perf/perf_smoke.jsonl
  echo "=== perf smoke: OK ==="

  # Tracing-overhead gate: the same bench re-run with 1-in-16 sampled
  # tracing must stay inside the noise band of the unsampled smoke above.
  # "Always-on sampled tracing" is only honest if sampling is ~free.
  echo "=== tracing-overhead gate: 3 sampled runs vs the unsampled smoke ==="
  : > build-perf/perf_sampled.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        DSKS_BENCH_THREADS=1 DSKS_BENCH_SAMPLE=16 ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_sampled.jsonl
  done
  python3 tools/perf_gate.py overhead build-perf/perf_smoke.jsonl \
    build-perf/perf_sampled.jsonl
  echo "=== tracing-overhead gate: OK ==="

  # Stats-endpoint smoke: a bench run serving its live stats must answer
  # scrapes of all three endpoints with valid payloads. /healthz is hit
  # while the benches still run; the full scrape happens in the linger
  # window after the last drain, so it sees complete metrics and cannot
  # race bench exit.
  echo "=== stats smoke: scraping /metrics /varz /tracez from a bench run ==="
  rm -f build-perf/stats_smoke.out
  (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=64 \
      DSKS_BENCH_THREADS=2 DSKS_BENCH_SAMPLE=8 DSKS_BENCH_STATS_PORT=0 \
      DSKS_BENCH_STATS_LINGER_MS=8000 ./bench/bench_throughput \
      > stats_smoke.out) &
  stats_pid=$!
  stats_url=""
  for _ in $(seq 1 150); do
    stats_url="$(sed -n 's/^STATS //p' build-perf/stats_smoke.out 2>/dev/null |
      head -1)"
    [ -n "$stats_url" ] && break
    sleep 0.2
  done
  if [ -z "$stats_url" ]; then
    echo "stats smoke: bench never printed a STATS line" >&2
    cat build-perf/stats_smoke.out >&2
    exit 1
  fi
  curl -fsS "$stats_url/healthz" > /dev/null   # live while benches run
  for _ in $(seq 1 300); do
    grep -q 'Expected:' build-perf/stats_smoke.out && break
    sleep 0.2
  done
  curl -fsS "$stats_url/metrics" | grep -q '^# TYPE ' || {
    echo "stats smoke: /metrics has no Prometheus TYPE lines" >&2
    exit 1
  }
  curl -fsS "$stats_url/varz" > build-perf/varz_smoke.json
  python3 tools/perf_gate.py validate-metrics build-perf/varz_smoke.json
  curl -fsS "$stats_url/tracez" > build-perf/tracez_smoke.json
  python3 - build-perf/tracez_smoke.json <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
if snap["recorded"] == 0 or not snap["recent"]:
    sys.exit("stats smoke: /tracez recorded no queries")
print(f"stats smoke: /tracez recorded {snap['recorded']} queries, "
      f"{len(snap['slowest'])} slowest retained")
EOF
  wait "$stats_pid"
  echo "=== stats smoke: OK ==="

  # Observability smoke: the bench artifact must match the schema
  # (including the merged-histogram fields and a per-phase profile), and
  # the metrics endpoint must expose the executor histogram plus live
  # pool/disk sources.
  echo "=== obs smoke: validating BENCH_throughput.json + dsks_cli metrics ==="
  python3 tools/perf_gate.py validate-bench build-perf/BENCH_throughput.json
  ./build-perf/tools/dsks_cli metrics --queries 32 --threads 2 \
    > build-perf/metrics_smoke.json
  python3 tools/perf_gate.py validate-metrics build-perf/metrics_smoke.json
  echo "=== obs smoke: OK ==="

  # Query smoke: `dsks_cli query` on a saved dataset in every mode with
  # --trace. Each run must exit 0, and its trace check must attribute
  # every page read of the query to a phase. Unknown --index and --mode
  # values, and flags the subcommand does not know (such as the removed
  # --io), must exit 2.
  echo "=== query smoke: dsks_cli query on a saved SYN dataset ==="
  ./build-perf/tools/dsks_cli generate --preset SYN --scale 0.03 \
    --out build-perf/query_smoke.dsks > /dev/null
  for mode in boolean knn ranked div-seq div-com; do
    ./build-perf/tools/dsks_cli query --data build-perf/query_smoke.dsks \
      --terms 1,2 --mode "$mode" --trace > build-perf/query_smoke.out
    line="$(grep '^trace check:' build-perf/query_smoke.out || true)"
    if ! [[ "$line" =~ phase\ reads\ ([0-9]+)\ /\ query\ reads\ ([0-9]+) ]] ||
       [ "${BASH_REMATCH[1]}" != "${BASH_REMATCH[2]}" ]; then
      echo "query smoke: $mode: unbalanced trace check '$line'" >&2
      exit 1
    fi
    echo "query smoke: $mode: $line"
  done
  for bad in "--index bogus" "--mode bogus" "--io async"; do
    status=0
    # shellcheck disable=SC2086  # $bad is a flag and its value
    ./build-perf/tools/dsks_cli query --data build-perf/query_smoke.dsks \
      --terms 1,2 $bad 2> /dev/null || status=$?
    if [ "$status" != 2 ]; then
      echo "query smoke: '$bad' exited $status, want 2" >&2
      exit 1
    fi
  done
  echo "=== query smoke: OK ==="

  # Benchmark smoke: perfbench/ builds its own runner against the library
  # API, so a change to that API must keep it compiling and its workloads
  # answering correctly with every declared metric.
  echo "=== benchmark smoke: perfbench/smoke_test.py ==="
  python3 perfbench/smoke_test.py
  echo "=== benchmark smoke: OK ==="

  # Chaos smoke: a Release-build workload under injected read faults must
  # exit 0 with its failures accounted — queries fail, the process does not.
  echo "=== chaos smoke: dsks_cli chaos under injected faults ==="
  ./build-perf/tools/dsks_cli chaos --queries 128 --threads 8 \
    --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== chaos smoke: OK ==="

  # Server smoke: start the query server with every query traced, run one
  # valid and one malformed query over the socket, scrape the
  # shared-listener observability routes (/tracez must hold the traced
  # query), then stop it with SIGTERM and expect a clean summary. Then an
  # overload drill whose JSON record must pass the schema + exact-admission
  # gate with real shedding, and the end-to-end chaos drill over a socket.
  # serve, drill and chaos never set a simulated read delay, so reads cost
  # no added latency; the drill sheds because its 8 clients pipeline all
  # their requests at once into an 8-deep queue behind 2 workers.
  echo "=== server smoke: serve, query, scrape, overload drill, shutdown ==="
  # Removed options and commands must be rejected, not silently ignored:
  # the micro-batcher's window, the bounded submit wait and the
  # stats-only serving command are gone.
  for bad in "serve --batch-window-ms 1" "serve --submit-wait-ms 1" \
             "drill --batch-window-ms 1" "serve-stats"; do
    status=0
    # shellcheck disable=SC2086  # $bad is a command and its flags
    ./build-perf/tools/dsks_cli $bad > /dev/null 2>&1 || status=$?
    if [ "$status" != 2 ]; then
      echo "server smoke: 'dsks_cli $bad' exited $status, want 2" >&2
      exit 1
    fi
  done
  rm -f build-perf/serve_smoke.out
  ./build-perf/tools/dsks_cli serve --port 0 --sample 1 --duration-ms 120000 \
      > build-perf/serve_smoke.out &
  serve_pid=$!
  serve_port=""
  for _ in $(seq 1 300); do
    serve_port="$(sed -n \
      's/^serving queries on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      build-perf/serve_smoke.out 2>/dev/null | head -1)"
    [ -n "$serve_port" ] && break
    sleep 0.2
  done
  if [ -z "$serve_port" ]; then
    echo "server smoke: serve never printed its port" >&2
    cat build-perf/serve_smoke.out >&2
    exit 1
  fi
  python3 - "$serve_port" <<'EOF'
import json, socket, sys
port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
f = s.makefile("r")
# A valid query answers OK with its id echoed...
s.sendall(b'{"op":"sk","terms":[1,2],"edge":0,"offset":0,'
          b'"delta":1000,"id":"smoke"}\n')
resp = json.loads(f.readline())
if resp.get("status") != "OK" or resp.get("id") != "smoke":
    sys.exit(f"server smoke: unexpected response {resp}")
# ...and a malformed line answers INVALID_ARGUMENT on the same connection.
s.sendall(b"this is not json\n")
resp = json.loads(f.readline())
if resp.get("status") != "INVALID_ARGUMENT":
    sys.exit(f"server smoke: malformed line answered {resp}")
print("server smoke: query OK, malformed line rejected in-band")
EOF
  curl -fsS "http://127.0.0.1:$serve_port/metrics" | grep -q '^# TYPE ' || {
    echo "server smoke: /metrics has no Prometheus TYPE lines" >&2
    exit 1
  }
  curl -fsS "http://127.0.0.1:$serve_port/statusz" |
    grep -q '"admitted":1' || {
    echo "server smoke: /statusz does not show the admitted query" >&2
    exit 1
  }
  # The worker records a query's trace just after its response is sent,
  # so poll /tracez briefly instead of racing that hand-off.
  python3 - "$serve_port" <<'EOF'
import json, sys, time, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/tracez"
for _ in range(50):
    snap = json.load(urllib.request.urlopen(url, timeout=10))
    if snap["recorded"] >= 1:
        break
    time.sleep(0.1)
else:
    sys.exit("server smoke: /tracez recorded nothing after a query under "
             "--sample 1")
print(f"server smoke: /tracez recorded {snap['recorded']} queries")
EOF
  curl -fsS "http://127.0.0.1:$serve_port/healthz" > /dev/null
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "server smoke: serve did not exit cleanly on SIGTERM" >&2
    exit 1
  }
  grep -q '^served ' build-perf/serve_smoke.out || {
    echo "server smoke: serve printed no shutdown summary" >&2
    exit 1
  }
  ./build-perf/tools/dsks_cli drill --clients 8 --queries 32 --threads 2 \
      --queue 8 --invalid-p 0.05 > build-perf/drill_smoke.out
  grep '"bench":"server_drill"' build-perf/drill_smoke.out |
    head -1 > build-perf/drill_smoke.json
  python3 tools/perf_gate.py validate-server build-perf/drill_smoke.json
  python3 - build-perf/drill_smoke.json <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
if rec["server_shed"] == 0:
    sys.exit("server smoke: overload drill shed nothing — the "
             "overload probe is not probing overload")
print(f"server smoke: drill shed {rec['server_shed']} of "
      f"{rec['server_offered']} offered, exactly accounted")
EOF
  ./build-perf/tools/dsks_cli chaos --socket --queries 128 --threads 8 \
      --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== server smoke: OK ==="

  # File-backend smoke: a small bench run with pages on a real file must
  # produce a schema-valid artifact stamped "backend":"file" (kept in a
  # separate cwd so it can never be confused with the sim artifact or fed
  # to the sim perf gate), and chaos must survive on real files too.
  echo "=== file-backend smoke: bench_throughput + dsks_cli chaos ==="
  mkdir -p build-perf/file-smoke
  (cd build-perf/file-smoke && DSKS_IO_DELAY_US=0 DSKS_BENCH_SCALE=0.3 \
      DSKS_BENCH_QUERIES=40 DSKS_BENCH_THREADS=1,2 \
      ../bench/bench_throughput --backend=file)
  python3 tools/perf_gate.py validate-bench \
    build-perf/file-smoke/BENCH_throughput.json
  grep -q '"backend":"file"' build-perf/file-smoke/BENCH_throughput.json || {
    echo "file-backend smoke: artifact is missing \"backend\":\"file\"" >&2
    exit 1
  }
  ./build-perf/tools/dsks_cli chaos --backend file --queries 128 \
    --threads 8 --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== file-backend smoke: OK ==="

  # Cold-cache smoke: the prefetch A/B on real files must produce a
  # schema-valid artifact with cold records, and prefetching must actually
  # reduce blocking misses there — a silent prefetch regression would
  # otherwise only show up as slowly eroding cold-start latency.
  echo "=== cold-cache smoke: bench_throughput --cold on the file backend ==="
  mkdir -p build-perf/cold-smoke
  (cd build-perf/cold-smoke && DSKS_IO_DELAY_US=0 DSKS_BENCH_SCALE=0.3 \
      DSKS_BENCH_QUERIES=40 ../bench/bench_throughput --backend=file --cold)
  python3 tools/perf_gate.py validate-bench \
    build-perf/cold-smoke/BENCH_throughput.json
  grep -q '"cold":1' build-perf/cold-smoke/BENCH_throughput.json || {
    echo "cold-cache smoke: artifact is missing \"cold\":1 records" >&2
    exit 1
  }
  python3 - build-perf/cold-smoke/BENCH_throughput.json <<'EOF'
import json, sys
recs = json.load(open(sys.argv[1]))
for wl in ("sk", "div-com"):
    misses = {r["prefetch"]: r["pool_misses"] for r in recs
              if r.get("cold") == 1 and r.get("workload") == wl}
    if misses.get(1, 1) * 2 > misses.get(0, 0):
        sys.exit(f"cold-cache smoke: {wl}: prefetch-on misses {misses.get(1)} "
                 f"not < half of prefetch-off misses {misses.get(0)}")
    print(f"cold-cache smoke: {wl}: misses {misses[0]} -> {misses[1]}")
EOF
  echo "=== cold-cache smoke: OK ==="
fi
