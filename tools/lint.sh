#!/usr/bin/env bash
# Project lint wall. Custom rules that clang-tidy cannot express, plus a
# clang-tidy pass over the core when the binary is available.
#
#   1. No naked std synchronization primitives outside src/verify/. All of
#      src/ must go through the mp::sync shim (mp::Mutex, mp::Thread,
#      mp::Atomic, ...) so that -DMP_VERIFY=ON builds can interpose the
#      deterministic interleaving explorer. A raw std::mutex is invisible to
#      the controlled scheduler and silently shrinks the explored space.
#
#   2. Every public mutator of the scheduler core (src/core/) must carry at
#      least one always-on MP_CHECK / MP_CHECK_MSG in its own body. MP_ASSERT
#      does not count: it compiles out under NDEBUG, and the verification
#      harness relies on always-on checks to turn racy corruption into caught
#      violations instead of undefined behaviour.
#
#   3. Shard-lock hygiene. The per-node shard locks (`order_mu`) define the
#      bottom of the lock hierarchy and are only deadlock-free because every
#      multi-shard acquisition goes through AscendingShardLocks, which takes
#      its shards as a node bitmask and acquires them lowest bit first. The
#      lock fields must not leak outside src/core/multiprio.{hpp,cpp}, every
#      code line touching one must be tagged `// shard-lock(asc)` (forcing
#      the author past the ordering rule), and the AscendingShardLocks
#      constructor must keep its lowest-bit-first walk (std::countr_zero).
#
#   4. One task lifecycle. The REPUSH, WORKER_LOST, FAULT_FAILURE,
#      FAULT_STRAGGLER and TASK_ABANDONED events (SchedEventKind::Repush,
#      WorkerLost, FaultFailure, FaultStraggler, TaskAbandoned) are emitted,
#      and the FaultStats counters changed, only in
#      src/fault/task_lifecycle.cpp, the one copy both engines call. Readers
#      in src/obs/ are exempt. A second engine-side copy of attempt counting
#      or fault accounting drifts from the first. Likewise the run's record:
#      Trace::record is called only from src/fault/task_lifecycle.cpp, so no
#      engine keeps a trace of its own. And no engine (src/sim/, src/exec/)
#      reads the trace's segments: run invariants are checked at the
#      transitions, inside TaskLifecycle, and an engine reads the record only
#      through its aggregates (makespan(), num_executed(),
#      idle_fraction_node()) — a post-run scan over segments is a second copy
#      of a check that already ran.
#
#   5. Dense per-id state on the hot path. In src/core, src/runtime, src/sim
#      and src/exec, no std::map / std::unordered_map is keyed by TaskId,
#      DataId or WorkerId, and no std::list is used: state per task, handle
#      or worker lives in a vector indexed by the id (sized once from the
#      finished graph, DESIGN.md §12), so a query is one index with no
#      hashing, no node allocation and no pointer chase.
#
#   6. Portable binaries, bit-identical kernels. No CMakeLists.txt passes
#      -march=, -mavx* or -mfma: the instruction set is chosen at run time by
#      the tile-kernel dispatch (src/apps/dense/tile_kernels.cpp), whose
#      variants carry their own target attributes. And tile_kernels.cpp keeps
#      its -ffp-contract=off source property in src/CMakeLists.txt: without
#      it the compiler may fuse a multiply and subtract into an FMA in one
#      variant and not another, and the variants stop being bit-identical to
#      each other and to the unblocked loops the tests hold them to.
#
# Usage: tools/lint.sh [--no-tidy]   (run from anywhere inside the repo)
set -u

cd "$(dirname "$0")/.." || exit 1
fail=0

# ---- Rule 1: naked std primitives --------------------------------------------
# Word-boundary match; a '// lint-allow-std-sync' suffix exempts a line (the
# shim itself lives in src/verify/ and is excluded wholesale).
naked=$(grep -rnE '\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|condition_variable(_any)?|thread|jthread|atomic(_flag)?)\b' \
            src/ --include='*.hpp' --include='*.cpp' \
        | grep -v '^src/verify/' \
        | grep -v 'lint-allow-std-sync' || true)
if [[ -n "$naked" ]]; then
  echo "lint: naked std synchronization primitives outside src/verify/ —"
  echo "      use the mp::sync shim (src/verify/sync.hpp) instead:"
  echo "$naked" | sed 's/^/      /'
  fail=1
fi

# ---- Rule 2: MP_CHECK-less public mutators in src/core/ ----------------------
# For each header: walk class bodies tracking the public/private/protected
# label, collect non-const, non-static public method names ("mutators").
# For each such method with an out-of-line definition in the matching .cpp,
# require MP_CHECK somewhere in the definition body.
for hdr in src/core/*.hpp; do
  cpp="${hdr%.hpp}.cpp"
  [[ -f "$cpp" ]] || continue
  mutators=$(awk '
    /^(class|struct)[ \t]+[A-Za-z_]/ { in_class = 1; access = /^struct/ ? "public" : "private" }
    in_class && /^[ \t]*public:/    { access = "public";    next }
    in_class && /^[ \t]*private:/   { access = "private";   next }
    in_class && /^[ \t]*protected:/ { access = "protected"; next }
    in_class && /^};/               { in_class = 0 }
    # A public declaration line with a parameter list that is not const-
    # qualified, not static, not deleted/defaulted, and not an operator.
    in_class && access == "public" && /^[ \t]*[A-Za-z_\[].*\(/ \
        && !/\)[ \t]*const/ && !/const[ \t]*;[ \t]*$/ \
        && !/static|operator|= *(delete|default)|using|typedef|friend/ {
      line = $0
      sub(/\(.*/, "", line)            # drop the parameter list onward
      n = split(line, parts, /[ \t*&]+/)
      name = parts[n]                  # last token before "(" is the name
      if (name ~ /^[a-z_][A-Za-z0-9_]*$/) print name   # skips ctors/dtors
    }
  ' "$hdr" | sort -u)
  for m in $mutators; do
    # Extract the out-of-line definition body by brace counting.
    body=$(awk -v m="$m" '
      !in_fn && $0 ~ ("^[A-Za-z_].*::" m "\\(") { in_fn = 1 }
      in_fn {
        print
        depth += gsub(/{/, "{") - gsub(/}/, "}")
        if (seen_open && depth == 0) exit
        if (depth > 0) seen_open = 1
      }
    ' "$cpp")
    [[ -z "$body" ]] && continue  # inline in the header or not defined here
    if ! grep -q 'MP_CHECK' <<<"$body"; then
      echo "lint: ${cpp}: public mutator ${m}() has no always-on MP_CHECK" \
           "in its body"
      fail=1
    fi
  done
done

# ---- Rule 3: shard-lock hygiene ----------------------------------------------
# 3a. `order_mu` must not appear outside the MultiPrio implementation pair.
leaked=$(grep -rln '\border_mu\b' src/ --include='*.hpp' --include='*.cpp' \
         | grep -vE '^src/core/multiprio\.(hpp|cpp)$' || true)
if [[ -n "$leaked" ]]; then
  echo "lint: shard lock order_mu referenced outside src/core/multiprio.{hpp,cpp}:"
  echo "$leaked" | sed 's/^/      /'
  fail=1
fi
# 3b. Every code line touching order_mu carries the ascending-order tag.
# Pure comment lines are exempt (they discuss the lock, they don't take it).
untagged=$(grep -rnE '\border_mu\b' src/core/multiprio.hpp src/core/multiprio.cpp \
           | grep -vE ':[0-9]+:[ \t]*(//|\*)' \
           | grep -v 'shard-lock(asc)' || true)
if [[ -n "$untagged" ]]; then
  echo "lint: order_mu use without the '// shard-lock(asc)' tag — all shard"
  echo "      lock acquisitions must go through the ascending-order helpers:"
  echo "$untagged" | sed 's/^/      /'
  fail=1
fi
# 3c. The AscendingShardLocks constructor must still acquire its node
# bitmask lowest bit first.
if ! awk '/AscendingShardLocks::AscendingShardLocks/,/^}/' src/core/multiprio.cpp \
     | grep -q 'std::countr_zero'; then
  echo "lint: AscendingShardLocks constructor no longer walks its shard set"
  echo "      lowest bit first — multi-shard acquisition order is unenforced"
  echo "      (deadlock risk)"
  fail=1
fi

# ---- Rule 4: one task lifecycle -----------------------------------------------
lifecycle_kinds='SchedEventKind::(Repush|WorkerLost|FaultFailure|FaultStraggler|TaskAbandoned)\b'
counter='(failures_injected|retries|stragglers_injected|tasks_abandoned|workers_lost)'
# A counter behind ++/-- (through any member path) or before ++, --, or an
# assignment operator; FaultStats' own member declarations are skipped.
counter_write="(\+\+|--)[][A-Za-z0-9_.>()-]*\b${counter}\b|\b${counter}\b[ \t]*(\+\+|--|[-+*/]?=([^=]|$))"
stray=$(grep -rnE "${lifecycle_kinds}|${counter_write}" src/ --include='*.hpp' --include='*.cpp' \
        | grep -vE '^src/(obs/|fault/task_lifecycle\.cpp:)' \
        | grep -vE ':[0-9]+:[ \t]*(//|\*)' \
        | grep -vE "^src/fault/fault_plan\.hpp:[0-9]+:[ \t]*std::size_t ${counter} = 0;" || true)
if [[ -n "$stray" ]]; then
  echo "lint: lifecycle events or FaultStats counters touched outside"
  echo "      src/fault/task_lifecycle.cpp — call TaskLifecycle instead:"
  echo "$stray" | sed 's/^/      /'
  fail=1
fi
# A record() call on anything named trace*, or one handed a TraceSegment; the
# Trace files themselves declare and define it.
trace_record='\btrace[A-Za-z0-9_]*(\(\))?[ \t]*(\.|->)[ \t]*record[ \t]*\(|\brecord[ \t]*\([ \t]*(mp::)?TraceSegment\b'
stray=$(grep -rnE "${trace_record}" src/ --include='*.hpp' --include='*.cpp' \
        | grep -vE '^src/(fault/task_lifecycle\.cpp|runtime/trace\.(hpp|cpp)):' \
        | grep -vE ':[0-9]+:[ \t]*(//|\*)' || true)
if [[ -n "$stray" ]]; then
  echo "lint: Trace::record called outside src/fault/task_lifecycle.cpp —"
  echo "      hand the segment to TaskLifecycle::completed instead:"
  echo "$stray" | sed 's/^/      /'
  fail=1
fi

stray=$(grep -rnE '(\.|->)[ \t]*segments[ \t]*\(' src/sim src/exec --include='*.hpp' --include='*.cpp' \
        | grep -vE ':[0-9]+:[ \t]*(//|\*)' || true)
if [[ -n "$stray" ]]; then
  echo "lint: an engine reads the trace's segments — check the invariant at its"
  echo "      transition in TaskLifecycle, or read a Trace aggregate instead:"
  echo "$stray" | sed 's/^/      /'
  fail=1
fi

# ---- Rule 5: dense per-id tables on the hot path -------------------------------
# Pure comment lines are exempt (they may name the structure they replaced).
sparse=$(grep -rnE '\bstd::(unordered_map|map)<[[:space:]]*(mp::)?(TaskId|DataId|WorkerId)\b|\bstd::list\b' \
             src/core src/runtime src/sim src/exec --include='*.hpp' --include='*.cpp' \
         | grep -vE ':[0-9]+:[ \t]*(//|\*)' || true)
if [[ -n "$sparse" ]]; then
  echo "lint: map keyed by a task/data/worker id, or std::list, in a hot-path"
  echo "      directory — use a vector indexed by the id instead:"
  echo "$sparse" | sed 's/^/      /'
  fail=1
fi

# ---- Rule 6: no ISA flags in the build, fp-contract off for the kernels --------
# Every CMakeLists.txt of the source tree (build trees are skipped).
isa_flags=$(find . -name CMakeLists.txt -not -path './build*' -not -path './.bench_build/*' \
                -not -path './cmake-build-*' -print0 \
            | xargs -0 grep -nE -- '-march=|-mavx|-mfma' || true)
if [[ -n "$isa_flags" ]]; then
  echo "lint: instruction-set flags in a CMakeLists.txt — binaries must stay"
  echo "      portable; add a variant to the tile-kernel dispatch instead:"
  echo "$isa_flags" | sed 's/^/      /'
  fail=1
fi
if ! grep -qE '^set_source_files_properties\(apps/dense/tile_kernels\.cpp PROPERTIES COMPILE_OPTIONS -ffp-contract=off\)' \
     src/CMakeLists.txt; then
  echo "lint: src/CMakeLists.txt no longer compiles apps/dense/tile_kernels.cpp"
  echo "      with -ffp-contract=off — its variants may fuse into FMAs and stop"
  echo "      being bit-identical"
  fail=1
fi

# ---- clang-tidy (best effort: skipped when unavailable) ----------------------
if [[ "${1:-}" != "--no-tidy" ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    if [[ ! -f build/compile_commands.json ]]; then
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    if ! clang-tidy -p build --quiet src/core/*.cpp src/exec/*.cpp src/obs/*.cpp; then
      echo "lint: clang-tidy reported errors"
      fail=1
    fi
  else
    echo "lint: clang-tidy not found; skipping tidy pass (custom rules still ran)"
  fi
fi

if [[ $fail -eq 0 ]]; then
  echo "lint: OK"
fi
exit $fail
