// Seeded-mutation hooks: deliberately re-introducible concurrency bugs that
// prove the interleaving explorer's detector actually detects.
//
// Each Mutation names one specific bug the verification suite must catch
// within its exploration budget:
//  - SkipExecutorLock: SerializedScheduler::pop() skips its lock — two
//    workers can interleave inside a mutex-free policy's POP and both take
//    the same task (a wrapped MultiPrio's own shard locks would hide it).
//  - SkipBrwDecrement: MultiPrioScheduler::take() skips the
//    best_remaining_work debit — the ledger drifts above the sum of the
//    pending PUSH credits.
//  - SkipNodeLock: the sharded MultiPrioScheduler's POP path skips acquiring
//    its memory node's shard lock — two workers of the same node can
//    interleave inside candidate selection / eviction / take against each
//    other and against a locked PUSH.
//
// The hooks are compiled to constant-false outside MP_VERIFY builds, so
// production binaries carry no mutation code path at all.
#pragma once

namespace mp::verify {

enum class Mutation {
  None,
  SkipExecutorLock,
  SkipBrwDecrement,
  SkipNodeLock,
};

#ifdef MP_VERIFY

void set_active_mutation(Mutation m);
[[nodiscard]] Mutation active_mutation();
[[nodiscard]] inline bool mutation_active(Mutation m) {
  return active_mutation() == m;
}

/// RAII arm/disarm for tests.
class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) { set_active_mutation(m); }
  ~ScopedMutation() { set_active_mutation(Mutation::None); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

#else

inline void set_active_mutation(Mutation /*m*/) {}
[[nodiscard]] constexpr Mutation active_mutation() { return Mutation::None; }
[[nodiscard]] constexpr bool mutation_active(Mutation /*m*/) { return false; }

class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation /*m*/) {}
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

#endif

}  // namespace mp::verify
