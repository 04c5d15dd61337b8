#!/usr/bin/env bash
# Tier-1 verification: configure, build and ctest the whole tree in
# Release and Debug, failing on any test regression. The Release pass
# then runs two examples end to end: example_quickstart serves the
# paper's Figure 2 layer over `local:` on the scalar, compiled and sim
# backends and exits 1 unless the outputs are bit-exact, and
# example_image_captioning serves in-memory models and a streaming
# LSTM session and exits 1 on any failed request. It also runs
# bench_throughput_batched (JSON to a temp dir), so a failing
# same-box performance gate fails the check. The kernel
# equivalence suites (`-L kernel`: test_kernel + test_kernel_variants)
# are additionally run with verbose output so a bit-exactness break —
# in any kernel variant — is loud in CI logs.
#
# The serving-cluster subsystem (src/serve/: registry, sharded
# cluster, wire protocol, TCP loopback) gets its own labeled ctest
# pass so a serving regression is called out by name even when the
# full run already covered it. A Release variant-matrix smoke then
# drives eie_sim through every kernel variant (--kernel
# reference|vector|actsparse|auto at batch 1, 12 and 16 on 1 and 4
# threads) in both the batched-throughput and the serving path, each
# checked bit-exact against the scalar oracle by the tool itself.
#
# The telemetry subsystem (src/obs/: metrics registry, histogram
# quantiles, tracing, the stats/metrics JSON schema pin) likewise
# gets a labeled `-L obs` pass in both build types, as does the
# multi-tenant HTTP gateway (src/gateway/: HTTP/1.1 parser and
# listener, tenant table, gateway end-to-end) via `-L gateway`.
#
# A third pass rebuilds the concurrency-sensitive suites — worker
# pool, batched kernels (all variants), execution backends, the
# inference server, the cluster engine, the TCP front end, the
# fault-injection/retry suites and the lock-cheap metrics
# registry/tracing ring — under ThreadSanitizer
# (-DEIE_TSAN=ON) and runs them; a data race in the serving path
# fails the check even when the race never corrupts an assertion.
#
# A fourth pass rebuilds the robustness suites — wire-frame fuzz,
# HTTP-parser fuzz, the JSON number parser that reads untrusted
# gateway bodies, fault injection, retry, model-file corruption,
# tenant-config parsing — under Address+UndefinedBehavior sanitizers
# (-DEIE_ASAN=ON) so a decoder overread or UB on a garbage frame,
# corrupt model file or malformed HTTP request fails loudly instead of
# decoding garbage quietly.
#
# Finally two daemon-signal smokes: `eie_serve` against a scratch
# registry must exit 0 on SIGINT, and `eie_gateway` fronting that
# registry must hot-reload its tenant table on SIGHUP and exit 0 on
# SIGINT.
#
# Usage: tools/check.sh [extra cmake args...]

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

for build_type in Release Debug; do
    build_dir="build-check-${build_type,,}"
    echo "=== ${build_type} ==="
    cmake -B "${build_dir}" -S . \
        -DCMAKE_BUILD_TYPE="${build_type}" "$@"
    cmake --build "${build_dir}" -j "${jobs}"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
    if [ "${build_type}" = Release ]; then
        echo "=== Release examples (quickstart, image_captioning) ==="
        "${build_dir}/example_quickstart"
        "${build_dir}/example_image_captioning"
        echo "=== Release throughput gates (bench_throughput_batched) ==="
        bench_dir=$(mktemp -d)
        "${build_dir}/bench_throughput_batched" \
            "${bench_dir}/throughput.json" "${bench_dir}/serving.json"
        rm -rf "${bench_dir}"
    fi
    echo "=== ${build_type} kernel equivalence (-L kernel) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L kernel
    echo "=== ${build_type} serving cluster (-L serve) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L serve
    echo "=== ${build_type} client API (-L client) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L client
    echo "=== ${build_type} fault injection (-L faults) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L faults
    echo "=== ${build_type} telemetry (-L obs) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L obs
    echo "=== ${build_type} HTTP gateway (-L gateway) ==="
    ctest --test-dir "${build_dir}" --output-on-failure -L gateway
done

echo "=== kernel variant matrix (Release eie_sim smoke) ==="
# One thread walks the PE-merged stream, four the per-PE slices.
# Batch 1 is the single-frame path, batch 12 ends every SIMD row in a
# partial block, batch 16 in none.
for kernel in reference vector actsparse auto; do
    for batch in 1 12 16; do
        for threads in 1 4; do
            ./build-check-release/eie_sim --throughput "${batch}" \
                --threads "${threads}" --benchmark NT-We \
                --kernel "${kernel}"
        done
    done
    ./build-check-release/eie_sim --serve 24 --benchmark NT-We \
        --kernel "${kernel}"
done

echo "=== ThreadSanitizer (kernel + engine + server + cluster + \
client) ==="
tsan_dir="build-check-tsan"
tsan_tests="test_kernel test_kernel_variants test_backend test_server \
test_network_runner test_cluster test_tcp test_client test_session \
test_faults test_retry test_metrics test_tracing test_http \
test_gateway"
cmake -B "${tsan_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEIE_TSAN=ON "$@"
# Build only the sanitized suites: instrumenting the full bench/tool
# tree would double the check's wall clock for no extra coverage.
cmake --build "${tsan_dir}" -j "${jobs}" \
    --target ${tsan_tests}
# tools/tsan.supp silences the uninstrumented-libstdc++ exception_ptr
# refcount false positive (see the file for the full story).
TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp \
${TSAN_OPTIONS:-}" \
ctest --test-dir "${tsan_dir}" --output-on-failure \
    -R "$(echo "${tsan_tests}" | tr ' ' '|')"

echo "=== Address+UB sanitizers (wire fuzz + faults + model file) ==="
asan_dir="build-check-asan"
asan_tests="test_wire test_model_file test_registry test_faults \
test_retry test_client test_http test_tenants test_json"
cmake -B "${asan_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEIE_ASAN=ON "$@"
cmake --build "${asan_dir}" -j "${jobs}" \
    --target ${asan_tests}
ctest --test-dir "${asan_dir}" --output-on-failure \
    -R "$(echo "${asan_tests}" | tr ' ' '|')"

echo "=== daemon signal smoke (SIGINT must exit 0) ==="
smoke_dir=$(mktemp -d)
trap 'rm -rf "${smoke_dir}"' EXIT
./build-check-release/eie_serve --registry "${smoke_dir}" \
    --publish smoke --rows 32 --cols 24
./build-check-release/eie_serve --registry "${smoke_dir}" --listen 0 &
daemon_pid=$!
sleep 1
kill -INT "${daemon_pid}"
daemon_status=0
wait "${daemon_pid}" || daemon_status=$?
if [ "${daemon_status}" -ne 0 ]; then
    echo "FAIL: daemon exited ${daemon_status} on SIGINT" >&2
    exit 1
fi

echo "=== gateway signal smoke (SIGHUP reloads, SIGINT exits 0) ==="
cat > "${smoke_dir}/tenants.json" <<'EOF'
{"tenants":[{"name":"smoke","token":"smoke-token"}]}
EOF
gateway_log="${smoke_dir}/gateway.log"
./build-check-release/eie_gateway \
    --backend "cluster:${smoke_dir},shards=1" \
    --tenants "${smoke_dir}/tenants.json" > "${gateway_log}" &
gateway_pid=$!
sleep 1
kill -HUP "${gateway_pid}"
sleep 1
if ! grep -q "reloaded" "${gateway_log}"; then
    echo "FAIL: gateway did not hot-reload tenants on SIGHUP" >&2
    cat "${gateway_log}" >&2
    exit 1
fi
kill -INT "${gateway_pid}"
gateway_status=0
wait "${gateway_pid}" || gateway_status=$?
if [ "${gateway_status}" -ne 0 ]; then
    echo "FAIL: gateway exited ${gateway_status} on SIGINT" >&2
    cat "${gateway_log}" >&2
    exit 1
fi

echo "all checks passed (Release + Debug + variant matrix + TSan \
+ ASan/UBSan + signal smokes)"
