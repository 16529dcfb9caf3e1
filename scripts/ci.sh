#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure + build + ctest) followed by a
# deterministic smoke pass of `p2ps_run` over every registered scenario.
#
# Usage: scripts/ci.sh [build-dir]
#   P2PS_CI_SEED   seed for the scenario smoke pass (default 2002)
#   P2PS_CI_SCALE  population divisor for the smoke pass (default 10)
#   P2PS_SANITIZE  opt-in sanitizer pass: 'address', 'undefined' or
#                  'thread'. With 'address' or 'undefined' the whole
#                  tier-1 + smoke run repeats under the instrumented
#                  build; use a dedicated build dir (sanitizer flags are
#                  cached). RSS-budget checks are skipped — sanitized RSS
#                  is not comparable to production RSS. With 'thread' only
#                  the suites that run shards on several threads
#                  (shard_test, obs_test, both with 2-4-thread cases) are
#                  built and run, in build-tsan/ unless a build dir is
#                  given; any ThreadSanitizer report fails the pass.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed="${P2PS_CI_SEED:-2002}"
scale="${P2PS_CI_SCALE:-10}"
sanitize="${P2PS_SANITIZE:-}"

if [ "${sanitize}" = "thread" ]; then
  build_dir="${1:-${repo_root}/build-tsan}"
  echo "==> thread sanitizer: configure + build shard_test, obs_test"
  cmake -B "${build_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DP2PS_SANITIZE=thread \
      -DP2PS_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j "$(nproc)" --target shard_test obs_test
  for suite in shard_test obs_test; do
    echo "==> thread sanitizer: ${suite}"
    TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
        "${build_dir}/tests/${suite}"
  done
  echo "==> OK: shard_test and obs_test clean under -fsanitize=thread"
  exit 0
fi
build_dir="${1:-${repo_root}/build}"

if [ -n "${sanitize}" ]; then
  echo "==> tier-1: configure (warnings are errors, -fsanitize=${sanitize})"
else
  echo "==> tier-1: configure (warnings are errors)"
fi
cmake -B "${build_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
    -DP2PS_SANITIZE="${sanitize}"

echo "==> tier-1: build"
cmake --build "${build_dir}" -j "$(nproc)"

echo "==> tier-1: ctest"
# (cd …) rather than ctest --test-dir: the latter needs CTest >= 3.17 and
# the project supports CMake 3.16.
(cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")

runner="${build_dir}/src/p2ps_run"
echo "==> scenario smoke pass (seed=${seed}, scale=${scale})"
"${runner}" --list

smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT

# Every registered scenario must run cleanly and be byte-deterministic.
scenarios="$("${runner}" --list | awk '/^[a-z]/ {print $1}')"
count=0
for scenario in ${scenarios}; do
  echo "--- ${scenario}"
  "${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
      > "${smoke_dir}/${scenario}.1.json"
  "${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
      > "${smoke_dir}/${scenario}.2.json"
  cmp "${smoke_dir}/${scenario}.1.json" "${smoke_dir}/${scenario}.2.json" || {
    echo "FAIL: ${scenario} is not deterministic for seed ${seed}" >&2
    exit 1
  }
  count=$((count + 1))
done

# Guard against the list-scrape silently matching nothing: the registry is
# contractually >= 10 scenarios (see ISSUE/README acceptance).
if [ "${count}" -lt 10 ]; then
  echo "FAIL: smoke pass covered only ${count} scenarios (expected >= 10);" \
       "--list output format may have drifted from the awk scrape" >&2
  exit 1
fi

# Perf smoke: the bench path (perf scenarios + --event-list) must not rot.
# A small-scale fixed-seed perf run has to be byte-identical across both
# event-list backends — the same check bench.sh performs before it trusts
# a timing at full scale. The heap-backend output was already produced
# (and determinism-checked) by the smoke loop above, so only the calendar
# run is new work.
echo "==> perf smoke: event-list backend parity (seed=${seed}, scale=${scale})"
for perf_scenario in perf_steady perf_flash_crowd; do
  "${runner}" "${perf_scenario}" --seed "${seed}" --scale "${scale}" --compact \
      --event-list calendar > "${smoke_dir}/${perf_scenario}.calendar.json"
  cmp "${smoke_dir}/${perf_scenario}.1.json" \
      "${smoke_dir}/${perf_scenario}.calendar.json" || {
    echo "FAIL: ${perf_scenario} differs between event-list backends" >&2
    exit 1
  }
  grep -q '"events_executed":[1-9]' "${smoke_dir}/${perf_scenario}.1.json" || {
    echo "FAIL: ${perf_scenario} executed no events" >&2
    exit 1
  }
done

# Message smoke: msg_fig5_scale, the message-level paper-scale scenario,
# must be byte-identical across both event-list backends. The heap output
# was already produced by the smoke loop above.
echo "==> message smoke: msg_fig5_scale backend parity (seed=${seed}, scale=${scale})"
"${runner}" msg_fig5_scale --seed "${seed}" --scale "${scale}" --compact \
    --event-list calendar > "${smoke_dir}/msg_fig5_scale.calendar.json"
cmp "${smoke_dir}/msg_fig5_scale.1.json" \
    "${smoke_dir}/msg_fig5_scale.calendar.json" || {
  echo "FAIL: msg_fig5_scale differs between event-list backends" >&2
  exit 1
}

# Sweep smoke: a small multi-threaded parameter study (4 points, 2 threads)
# must produce byte-identical reports run-to-run and across thread counts —
# the determinism contract of `p2ps_run --sweep`.
echo "==> sweep smoke: 4 points, --threads 2 vs --threads 1 (seed axis 1,2)"
"${runner}" --sweep flash_crowd,churn_resilience --seeds 1,2 \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/sweep.2t.json"
"${runner}" --sweep flash_crowd,churn_resilience --seeds 1,2 \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/sweep.1t.json"
cmp "${smoke_dir}/sweep.2t.json" "${smoke_dir}/sweep.1t.json" || {
  echo "FAIL: sweep report differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"points":4' "${smoke_dir}/sweep.2t.json" || {
  echo "FAIL: sweep smoke did not cover 4 points" >&2
  exit 1
}

# Latency-axis smoke: the sweep's message-level axis must expand the cross
# product deterministically and reject junk tokens with a CLI error (the
# same fail-fast validation the integer axes got in PR 3).
echo "==> latency-axis smoke: msg_flash_crowd x {fixed,twoclass}"
"${runner}" --sweep msg_flash_crowd --latencies fixed,twoclass \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/latency.2t.json"
"${runner}" --sweep msg_flash_crowd --latencies fixed,twoclass \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/latency.1t.json"
cmp "${smoke_dir}/latency.2t.json" "${smoke_dir}/latency.1t.json" || {
  echo "FAIL: latency sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"points":2' "${smoke_dir}/latency.2t.json" || {
  echo "FAIL: latency sweep did not cover 2 points" >&2
  exit 1
}
grep -q '"latency":"twoclass"' "${smoke_dir}/latency.2t.json" || {
  echo "FAIL: latency sweep report does not echo the latency axis" >&2
  exit 1
}
if "${runner}" --sweep msg_flash_crowd --latencies warp --scales "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --latencies accepted an invalid model token" >&2
  exit 1
fi

# Removed-flag smoke: the timer wheel and batched delivery are the only
# paths, so --timers and --transport are unknown flags now, and so is the
# --strip-mechanics filter. Even their former default values must be
# rejected with the usage error (exit 2), on a single run and under
# --sweep, rather than silently ignored.
echo "==> removed-flag smoke: --timers wheel / --transport batched /" \
     "--strip-mechanics exit 2"
for removed in "--timers wheel" "--transport batched" "--strip-mechanics"; do
  for run in "msg_flash_crowd --scale" "--sweep msg_flash_crowd --scales"; do
    status=0
    # shellcheck disable=SC2086 — run and removed are deliberately word-split
    "${runner}" ${run} "${scale}" --compact ${removed} > /dev/null 2>&1 ||
        status=$?
    if [ "${status}" -ne 2 ]; then
      echo "FAIL: '${run} ${scale}' with removed flag '${removed}' exited" \
           "${status} (expected usage error 2)" >&2
      exit 1
    fi
  done
done

# Seed/scale smoke: --seed/--scale and their sweep axes --seeds/--scales
# share one parser, so a negative seed, a junk token or a zero scale is the
# usage error (exit 2) naming the flag in both modes, never a silently
# wrapped seed or a raw contract failure.
echo "==> seed/scale smoke: junk --seed/--scale tokens exit 2 in both modes," \
     "junk --sweep --threads too"
for bad in "seed:-1" "seed:abc" "scale:2x" "scale:0"; do
  flag="${bad%%:*}"
  token="${bad#*:}"
  for run in "fig1_assignment --${flag}" "--sweep fig1_assignment --${flag}s"; do
    status=0
    # shellcheck disable=SC2086 — run is deliberately word-split
    "${runner}" ${run} "${token}" --compact \
        > /dev/null 2> "${smoke_dir}/bad_int.err" || status=$?
    if [ "${status}" -ne 2 ] ||
        ! grep -q -- "--${flag}" "${smoke_dir}/bad_int.err"; then
      echo "FAIL: '${run} ${token}' exited ${status}" \
           "(expected usage error 2 naming the flag)" >&2
      exit 1
    fi
  done
done
# The sweep's worker count goes through the same parser.
for token in abc 0 -2 2x; do
  status=0
  "${runner}" --sweep fig1_assignment --threads "${token}" --compact \
      > /dev/null 2> "${smoke_dir}/bad_int.err" || status=$?
  if [ "${status}" -ne 2 ] ||
      ! grep -q -- "--threads" "${smoke_dir}/bad_int.err"; then
    echo "FAIL: '--sweep fig1_assignment --threads ${token}' exited" \
         "${status} (expected usage error 2 naming the flag)" >&2
    exit 1
  fi
done

# Loss-axis smoke: the sweep's --losses axis must expand deterministically,
# change the run (not just the echo), and reject junk or out-of-range
# tokens with a CLI error, like the other axes.
echo "==> loss-axis smoke: msg_flash_crowd x {0,0.5}"
"${runner}" --sweep msg_flash_crowd --losses 0,0.5 --scales "${scale}" \
    --threads 2 --compact > "${smoke_dir}/loss.2t.json"
"${runner}" --sweep msg_flash_crowd --losses 0,0.5 --scales "${scale}" \
    --threads 1 --compact > "${smoke_dir}/loss.1t.json"
cmp "${smoke_dir}/loss.2t.json" "${smoke_dir}/loss.1t.json" || {
  echo "FAIL: loss sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"loss":0.5' "${smoke_dir}/loss.2t.json" || {
  echo "FAIL: loss sweep report does not echo the loss axis" >&2
  exit 1
}
grep -q '"drop_probability":0.5' "${smoke_dir}/loss.2t.json" || {
  echo "FAIL: loss axis did not reach the transport config" >&2
  exit 1
}
for bad_loss in warp 1.5 0.5x; do
  if "${runner}" --sweep msg_flash_crowd --losses "${bad_loss}" \
      --scales "${scale}" --compact > /dev/null 2>&1; then
    echo "FAIL: --losses accepted invalid token '${bad_loss}'" >&2
    exit 1
  fi
done

# Policy smoke: the supplier-selection strategy layer. --policy/--policies
# must reject junk tokens with a CLI error, a non-default policy must run
# cleanly, and a --policies sweep must keep the thread-count byte-parity
# contract (randomized policies draw from their own named substream, so the
# pool cannot perturb them).
echo "==> policy smoke: --policy validation + {paper-dac,first-fit} sweep"
if "${runner}" flash_crowd --policy bogus --scale "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --policy accepted an unknown policy token" >&2
  exit 1
fi
if "${runner}" --sweep flash_crowd --policies bogus --scales "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --policies accepted an unknown policy token" >&2
  exit 1
fi
"${runner}" flash_crowd --seed "${seed}" --scale "${scale}" --compact \
    --policy reciprocity > "${smoke_dir}/policy.reciprocity.json"
grep -q '"scenario":"flash_crowd"' "${smoke_dir}/policy.reciprocity.json" || {
  echo "FAIL: --policy reciprocity run produced no envelope" >&2
  exit 1
}
"${runner}" --sweep flash_crowd --policies paper-dac,first-fit \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/policy.2t.json"
"${runner}" --sweep flash_crowd --policies paper-dac,first-fit \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/policy.1t.json"
cmp "${smoke_dir}/policy.2t.json" "${smoke_dir}/policy.1t.json" || {
  echo "FAIL: policy sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"policy":"first-fit"' "${smoke_dir}/policy.2t.json" || {
  echo "FAIL: policy sweep report does not echo the policy axis" >&2
  exit 1
}

# Shard smoke: the conservative-parallel engine's headline contract — a
# sharded scenario's payload is byte-identical for EVERY --shards and
# --shard-threads value (docs/sharding.md), and junk --shards tokens are
# rejected with the CLI usage error (exit 2) before any simulation runs.
# The default-shards output (.1.json, 4 shards) was already produced and
# determinism-checked by the smoke loop above.
echo "==> shard smoke: msg_fig5_sharded x {--shards 1, --shards 7 + threads," \
     "--latency uniform at 1 and 4 shards}"
for bad_shards in banana 0 -3 2.5; do
  status=0
  "${runner}" msg_fig5_sharded --shards "${bad_shards}" --scale "${scale}" \
      --compact > /dev/null 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "FAIL: --shards '${bad_shards}' exited ${status} (expected usage" \
         "error 2)" >&2
    exit 1
  fi
done
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --shards 1 > "${smoke_dir}/msg_fig5_sharded.s1.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.s1.json" || {
  echo "FAIL: msg_fig5_sharded differs between --shards 1 and the default" \
       "4 shards" >&2
  exit 1
}
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --shards 7 --shard-threads 2 > "${smoke_dir}/msg_fig5_sharded.s7.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.s7.json" || {
  echo "FAIL: msg_fig5_sharded differs between --shards 7 --shard-threads 2" \
       "and the default 4 shards" >&2
  exit 1
}
# Randomized latency is where one (shard, tick) most often mixes local and
# remote deliveries with same-tick events: the simulator's events-before-
# deliveries tie rule (docs/sharding.md) must keep it partition-invariant.
for layout in "1 1" "4 4"; do
  read -r shards threads <<< "${layout}"
  "${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
      --latency uniform --shards "${shards}" --shard-threads "${threads}" \
      > "${smoke_dir}/msg_fig5_sharded.uniform.s${shards}.json"
done
cmp "${smoke_dir}/msg_fig5_sharded.uniform.s1.json" \
    "${smoke_dir}/msg_fig5_sharded.uniform.s4.json" || {
  echo "FAIL: msg_fig5_sharded --latency uniform differs between --shards 1" \
       "and --shards 4 --shard-threads 4" >&2
  exit 1
}
grep -q '"mechanics"' "${smoke_dir}/msg_fig5_sharded.1.json" && {
  echo "FAIL: sharded payload leaked mechanics without --mechanics" >&2
  exit 1
}
# For a fixed --shards the mechanics block is thread-invariant too, apart
# from the knob's own echo ("threads") and the process's peak RSS (and
# bytes_per_peer, derived from it).
strip_thread_fields() {
  sed -E 's/"(threads|peak_rss_bytes|bytes_per_peer)":[0-9.eE+-]+/"\1":0/g'
}
for threads in 1 4; do
  "${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
      --shards 4 --mechanics --shard-threads "${threads}" \
      | strip_thread_fields > "${smoke_dir}/msg_fig5_sharded.m${threads}t.json"
done
cmp "${smoke_dir}/msg_fig5_sharded.m1t.json" \
    "${smoke_dir}/msg_fig5_sharded.m4t.json" || {
  echo "FAIL: msg_fig5_sharded --mechanics differs between --shard-threads" \
       "1 and 4 (beyond threads and peak RSS)" >&2
  exit 1
}

# Fusion smoke: adaptive-lookahead window fusion is byte-invisible
# (docs/sharding.md, "Adaptive lookahead") — the unfused reference mode
# --fusion 1 must match the fused default byte-for-byte, a fused
# --mechanics run must actually fuse (windows_fused > 0), and junk
# --fusion tokens are rejected with the usage error before any run.
echo "==> fusion smoke: msg_fig5_sharded --fusion 1 vs fused default"
for bad_fusion in banana 0 -3 2.5; do
  status=0
  "${runner}" msg_fig5_sharded --fusion "${bad_fusion}" --scale "${scale}" \
      --compact > /dev/null 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "FAIL: --fusion '${bad_fusion}' exited ${status} (expected usage" \
         "error 2)" >&2
    exit 1
  fi
done
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --fusion 1 > "${smoke_dir}/msg_fig5_sharded.f1.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.f1.json" || {
  echo "FAIL: msg_fig5_sharded differs between --fusion 1 and the fused" \
       "default" >&2
  exit 1
}
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --mechanics > "${smoke_dir}/msg_fig5_sharded.fused_mechanics.json"
grep -q '"windows_fused":[1-9]' \
    "${smoke_dir}/msg_fig5_sharded.fused_mechanics.json" || {
  echo "FAIL: the fused default reported no fused windows (windows_fused)" >&2
  exit 1
}

# Memory smoke: the compact-peer-state budget (docs/memory.md). A 1/10th
# perf_sharded_10m run (1,002,000 peers — the PR-7 headline population)
# must stay under a peak RSS only the hot/cold split can meet: the AoS
# LocalPeer engine measured 165 MB here (BENCH_7), the compact layout
# ~48 MB, so a 128 MB ceiling fails any regression back to fat per-peer
# records long before the 10M bench would. Skipped under sanitizers:
# shadow memory and redzones inflate RSS by design.
if [ -z "${sanitize}" ]; then
  rss_budget_bytes=$(( 128 * 1024 * 1024 ))
  echo "==> memory smoke: perf_sharded_10m --scale 10 peak RSS <= ${rss_budget_bytes}"
  "${runner}" perf_sharded_10m --seed "${seed}" --scale 10 --compact \
      --mechanics > "${smoke_dir}/memory.json"
  rss="$(grep -o '"peak_rss_bytes":[0-9]*' "${smoke_dir}/memory.json" \
      | head -1 | cut -d: -f2)"
  if [ -z "${rss}" ] || [ "${rss}" -eq 0 ]; then
    echo "FAIL: memory smoke reported no peak_rss_bytes" >&2
    exit 1
  fi
  if [ "${rss}" -gt "${rss_budget_bytes}" ]; then
    echo "FAIL: perf_sharded_10m --scale 10 peak RSS ${rss} exceeds the" \
         "${rss_budget_bytes}-byte budget; the compact peer-state layout" \
         "has regressed (docs/memory.md)" >&2
    exit 1
  fi
  echo "    peak RSS ${rss} bytes (budget ${rss_budget_bytes})"
else
  echo "==> memory smoke: skipped under -fsanitize=${sanitize}"
fi

# Telemetry smoke: the runtime observability layer (docs/observability.md).
# A --telemetry run must (a) emit a schema-valid JSONL stream (validated by
# scripts/check_telemetry.py), (b) leave the scenario payload byte-identical
# to an uninstrumented run — telemetry is out-of-band by contract — and
# (c) reject junk flag spellings with the usage error (exit 2) like every
# other axis. The uninstrumented output (.1.json) was already produced and
# determinism-checked by the smoke loop above.
echo "==> telemetry smoke: msg_fig5_sharded --telemetry + schema check"
# 50 ms wall interval: a ~1 s smoke run yields a dozen-odd snapshots
# without the every-barrier flood interval 0 would produce.
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --telemetry "${smoke_dir}/telemetry.jsonl" --telemetry-interval 50 \
    > "${smoke_dir}/msg_fig5_sharded.telemetry.json" \
    2> "${smoke_dir}/telemetry.stderr"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.telemetry.json" || {
  echo "FAIL: msg_fig5_sharded payload differs with --telemetry attached" >&2
  exit 1
}
python3 "${repo_root}/scripts/check_telemetry.py" \
    "${smoke_dir}/telemetry.jsonl" --min-snapshots 1 || {
  echo "FAIL: telemetry stream failed the schema check" >&2
  exit 1
}
grep -q '\[telemetry\] snapshot' "${smoke_dir}/telemetry.stderr" || {
  echo "FAIL: --telemetry emitted no heartbeat lines" >&2
  exit 1
}
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetri "${smoke_dir}/typo.jsonl" > /dev/null 2>&1 || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: misspelled --telemetri exited ${status} (expected usage" \
       "error 2)" >&2
  exit 1
fi
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetry-interval 100 > /dev/null 2>&1 || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: --telemetry-interval without --telemetry exited ${status}" \
       "(expected usage error 2)" >&2
  exit 1
fi
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetry "${smoke_dir}/wd.jsonl" --watchdog loud > /dev/null 2>&1 \
    || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: --watchdog loud exited ${status} (expected usage error 2)" >&2
  exit 1
fi

echo "==> OK: build, tests, ${count}-scenario smoke pass, perf smoke," \
     "message smoke, sweep smoke, latency-axis smoke, removed-flag smoke," \
     "seed/scale smoke, loss-axis smoke, policy smoke, shard smoke, fusion smoke," \
     "memory smoke and telemetry smoke all green"
