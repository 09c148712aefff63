// Byte-identity pins for the simulator: every registered policy on two DAGs
// (a potrf whose GPU memory is small enough to force evictions, and a small
// generated sparse-QR), asserting the exact makespan (hexfloat), the
// memory-manager eviction count, the failed-pop count and an FNV-1a hash of
// the recorded decision-event CSV. A hot-path change that alters any
// scheduling decision, tie-break or floating-point sum moves at least one
// of them. The expected values were taken before the dense-table rewrite of
// the scheduling hot path and must never be regenerated to make a change
// pass: a mismatch means the change is not behaviour-preserving.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_matrix.hpp"
#include "apps/sparseqr/dag_builder.hpp"
#include "apps/sparseqr/generators.hpp"
#include "apps/sparseqr/symbolic.hpp"
#include "core/multiprio.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

struct Golden {
  const char* makespan;  ///< "%a" of SimResult::makespan
  std::size_t evictions;
  std::size_t failed_pops;
  std::uint64_t events_fnv1a;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// 8×8 tiles of 256 (120 tasks, 512 KiB per tile) on 3 CPUs + 2 GPUs of
/// 4 MiB each: the GPUs hold 8 tiles, so every policy that uses them evicts.
struct PotrfCase {
  TaskGraph graph;
  Platform platform = test::small_platform(3, 2, std::size_t{4} << 20);
  PerfDatabase perf = intel_v100().perf;
  PotrfCase() {
    dense::TileMatrix a(8, 256, /*allocate=*/false);
    a.register_handles(graph);
    dense::build_potrf(graph, a, /*expert_priorities=*/true);
  }
};

/// 20×20 tiles of 960 (1540 tasks) on the Intel-V100 preset: MultiPrio's
/// heaps hold up to 190 entries, so entries spill past ScoredHeap's sorted
/// front and come back from its binary heap (the potrf above peaks at 21
/// to 42, the sparse QR below at 5).
struct WidePotrfCase {
  TaskGraph graph;
  PlatformPreset preset = intel_v100();
  WidePotrfCase() {
    dense::TileMatrix a(20, 960, /*allocate=*/false);
    a.register_handles(graph);
    dense::build_potrf(graph, a, /*expert_priorities=*/true);
  }
};

/// A generated 600×400 sparse QR in panels of 16 on 3 CPUs + 1 GPU.
struct SparseQrCase {
  TaskGraph graph;
  Platform platform = test::small_platform(3, 1);
  PerfDatabase perf = intel_v100().perf;
  SparseQrCase() {
    const sqr::MatrixSpec spec{"golden", 600, 400, 1800, 0.0, 15.0, 0.01};
    (void)sqr::build_sparseqr(graph, sqr::analyze(sqr::generate(spec, 11), {32}), {16});
  }
};

void expect_golden_row(const TaskGraph& g, const Platform& p, const PerfDatabase& db,
                       const SchedulerFactory& factory, const std::string& name,
                       const Golden& want, const SimConfig& base = {}) {
  RecordingObserver rec;
  SimConfig cfg = base;
  cfg.observer = &rec;
  const SimResult r = simulate(g, p, db, factory, cfg);
  // The observer must not steer a decision.
  const SimResult quiet = simulate(g, p, db, factory, base);
  EXPECT_EQ(hexfloat(quiet.makespan), hexfloat(r.makespan)) << name;
  EXPECT_EQ(quiet.failed_pops, r.failed_pops) << name;

  const std::uint64_t hash = fnv1a(rec.events().to_csv());
  EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  EXPECT_EQ(hexfloat(r.makespan), want.makespan) << name;
  EXPECT_EQ(r.evictions, want.evictions) << name;
  EXPECT_EQ(r.failed_pops, want.failed_pops) << name;
  EXPECT_EQ(hash, want.events_fnv1a) << name;
}

void expect_golden(const TaskGraph& g, const Platform& p, const PerfDatabase& db,
                   const std::map<std::string, Golden>& expected, const SimConfig& base = {}) {
  ASSERT_EQ(expected.size(), scheduler_names().size())
      << "every registered policy needs a pinned row";
  for (const std::string& name : scheduler_names()) {
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "no pinned row for " << name;
    expect_golden_row(g, p, db, scheduler_factory(name), name, it->second, base);
  }
}

TEST(SimEngineGolden, PotrfWithEvictionsIsByteIdenticalUnderEveryPolicy) {
  const PotrfCase c;
  const std::map<std::string, Golden> expected = {
    {"eager", {"0x1.fdf7768b16ec9p-7", 49, 108, 0x86b414d6bc0913e3ULL}},
    {"random", {"0x1.d4f456fb1b2ccp-6", 48, 93, 0x837d31a1b4c27e3aULL}},
    {"lws", {"0x1.5aa688d30c954p-5", 50, 156, 0xa1acd4772afa3b9eULL}},
    {"dm", {"0x1.b09f082726856p-7", 59, 73, 0x31e1065d75519ea6ULL}},
    {"dmda", {"0x1.d4e9347708e02p-7", 87, 90, 0xb065222e28528fe9ULL}},
    {"dmdas", {"0x1.d42a0ae6ff149p-7", 71, 81, 0x5907d55f029405f8ULL}},
    {"heteroprio", {"0x1.af22b70854315p-7", 61, 180, 0xde5372ae9f8e668cULL}},
    {"multiprio", {"0x1.b52d9bd1cea9cp-7", 56, 135, 0xf85e90834b5f6262ULL}},
    {"multiprio-coarse", {"0x1.b52d9bd1cea9cp-7", 56, 135, 0xf85e90834b5f6262ULL}},
    {"multiprio-noevict", {"0x1.1114dcef26d36p-5", 49, 147, 0x21a3c7b17f112096ULL}},
    {"multiprio-nolocality", {"0x1.aafa4f7fc7983p-7", 64, 114, 0xc28313cc199a37b1ULL}},
    {"multiprio-nonod", {"0x1.c54eedd41138cp-7", 48, 131, 0xbe92156adb4ac313ULL}},
    {"multiprio-rawbrw", {"0x1.e34f32a261254p-7", 43, 139, 0x82ff99e1331a6afaULL}},
  };
  expect_golden(c.graph, c.platform, c.perf, expected);
}

// Pinned later than the two other cases, from the commit before ScoredHeap
// gained its sorted front.
TEST(SimEngineGolden, WidePotrfSpillingPastTheHeapFrontIsByteIdenticalUnderEveryPolicy) {
  const WidePotrfCase c;
  const std::map<std::string, Golden> expected = {
    {"eager", {"0x1.a9e1af886800bp+0", 0, 4090, 0xccb8a4e2b7e8609bULL}},
    {"random", {"0x1.87b4c5eeb175ep+1", 0, 1407, 0x7181451fbbe56ff2ULL}},
    {"lws", {"0x1.c585d6c8a8aa7p+0", 0, 5694, 0xe58348fc1f2bd207ULL}},
    {"dm", {"0x1.09ef7e4cac772p+0", 0, 192, 0x9c7619bbba1b01d5ULL}},
    {"dmda", {"0x1.5dbca574e2e0dp-1", 0, 749, 0xe56000e3ad1bd1afULL}},
    {"dmdas", {"0x1.6476125d559f9p-1", 0, 799, 0x5135669c2dd23596ULL}},
    {"heteroprio", {"0x1.20b393e1b028ep+0", 0, 89174, 0xe3646fd77b67bf30ULL}},
    {"multiprio", {"0x1.83f4852148f5cp-1", 0, 7869, 0x986b2239b5515096ULL}},
    {"multiprio-coarse", {"0x1.83f4852148f5cp-1", 0, 7869, 0x986b2239b5515096ULL}},
    {"multiprio-noevict", {"0x1.ba8feaa24d0ccp+0", 0, 5381, 0xf632545877da0298ULL}},
    {"multiprio-nolocality", {"0x1.19c74eb948caep+0", 0, 8009, 0x9d5d21a746b07250ULL}},
    {"multiprio-nonod", {"0x1.909b2909a07d5p-1", 0, 7565, 0x6f8a3046491ba2baULL}},
    {"multiprio-rawbrw", {"0x1.938bb19a35016p-1", 0, 7328, 0x75c9a69805bb2c09ULL}},
  };
  expect_golden(c.graph, c.preset.platform, c.preset.perf, expected);
}

// A locality window of 40 reads past the 16 best entries of every heap, so
// the window walks more than the paper's n = 10 ever reaches. Pinned from
// the commit before ScoredHeap sized its sorted front from the window.
TEST(SimEngineGolden, WidePotrfWithAFortyEntryLocalityWindowIsByteIdentical) {
  const WidePotrfCase c;
  MultiPrioConfig mp_cfg;
  mp_cfg.locality_n = 40;
  const SchedulerFactory factory = [&](SchedContext ctx) {
    return std::make_unique<MultiPrioScheduler>(std::move(ctx), mp_cfg);
  };
  expect_golden_row(c.graph, c.preset.platform, c.preset.perf, factory, "multiprio n=40",
                    {"0x1.7deba5ebaac2p-1", 0, 7276, 0xbff598b9c6d52035ULL});
}

// The wide potrf on Intel-V100 with 4 streams per GPU (30 CPU workers on the
// RAM node, 4 on each GPU node), a 2-deep pipeline and one GPU stream lost
// mid-run: one wake scan finds idle and pipeline-filling workers on several
// nodes at once, and after the loss it must pass over the dead stream.
// Pinned from the commit before the simulator woke workers node by node.
TEST(SimEngineGolden, WidePotrfOnFourStreamsWithAStreamLossIsByteIdenticalUnderEveryPolicy) {
  const WidePotrfCase c;
  const PlatformPreset preset = intel_v100(4);
  ASSERT_EQ(preset.platform.num_workers(), 38U);
  ASSERT_EQ(preset.platform.num_nodes(), 3U);
  SimConfig cfg;
  cfg.pipeline_depth = 2;
  // Worker 31 is the second stream of the first GPU.
  const WorkerId lost{std::size_t{31}};
  ASSERT_EQ(preset.platform.worker(lost).arch, ArchType::GPU);
  cfg.fault.worker_losses.push_back(WorkerLossSpec{lost, 0.2});
  const std::map<std::string, Golden> expected = {
    {"eager", {"0x1.da053e0b80adp+0", 0, 10969, 0xfbaa47dd4209a1ceULL}},
    {"random", {"0x1.656d6a0660c11p+1", 0, 1950, 0x0727891d834ba1d8ULL}},
    {"lws", {"0x1.dd75dae4568c9p+0", 0, 9766, 0xec6440475b5a9d9bULL}},
    {"dm", {"0x1.d16c26ef49931p-1", 0, 466, 0x4b9389947ed1dedbULL}},
    {"dmda", {"0x1.1e45d7a955173p-2", 0, 630, 0xe9b37512ae8329cbULL}},
    {"dmdas", {"0x1.19a543eb288b7p-2", 0, 665, 0x688c6ad5a7c9faffULL}},
    {"heteroprio", {"0x1.c4b2fbf0056ep-1", 0, 71972, 0x8764c383ab35a1aeULL}},
    {"multiprio", {"0x1.0e6dc6c8a3556p-1", 0, 5467, 0xcdcdf8264c13ffdfULL}},
    {"multiprio-coarse", {"0x1.0e6dc6c8a3556p-1", 0, 5467, 0xcdcdf8264c13ffdfULL}},
    {"multiprio-noevict", {"0x1.ea8c1bea2e4f4p+0", 0, 7891, 0xeb199e7a13d828fbULL}},
    {"multiprio-nolocality", {"0x1.bbb31a27b3d34p-1", 0, 8266, 0x7115f2122e46502fULL}},
    {"multiprio-nonod", {"0x1.0a2be7a4b0cbap-1", 0, 5411, 0x73d59436155a0e12ULL}},
    {"multiprio-rawbrw", {"0x1.4cc34963bd0c6p-1", 0, 5335, 0xf84b6f426d10d6bdULL}},
  };
  expect_golden(c.graph, preset.platform, preset.perf, expected, cfg);
}

TEST(SimEngineGolden, SparseQrIsByteIdenticalUnderEveryPolicy) {
  const SparseQrCase c;
  const std::map<std::string, Golden> expected = {
    {"eager", {"0x1.57abcb6b28ac3p-4", 0, 360, 0xeb8419a0b4bb97b9ULL}},
    {"random", {"0x1.ede8b71298484p-2", 0, 176, 0x1499618e712c4737ULL}},
    {"lws", {"0x1.a8c95d359a248p-2", 0, 349, 0xea6289cefee5d086ULL}},
    {"dm", {"0x1.1907f7945b55p-13", 0, 158, 0x7929d09c82102803ULL}},
    {"dmda", {"0x1.1907f7945b55p-13", 0, 158, 0x7929d09c82102803ULL}},
    {"dmdas", {"0x1.1907f7945b55p-13", 0, 158, 0x7929d09c82102803ULL}},
    {"heteroprio", {"0x1.1907f7945b55p-13", 0, 302, 0x0797497c9dfac2edULL}},
    {"multiprio", {"0x1.19feab3b9fbabp-13", 0, 297, 0x58abd8f5e8c3e22cULL}},
    {"multiprio-coarse", {"0x1.19feab3b9fbabp-13", 0, 297, 0x58abd8f5e8c3e22cULL}},
    {"multiprio-noevict", {"0x1.ef915cf97329ep-2", 0, 346, 0x9f2f083eebcf39a9ULL}},
    {"multiprio-nolocality", {"0x1.1907f7945b55p-13", 0, 300, 0x26c5efccbbfbf3f9ULL}},
    {"multiprio-nonod", {"0x1.19feab3b9fbabp-13", 0, 297, 0x53781c21b86bf77bULL}},
    {"multiprio-rawbrw", {"0x1.19feab3b9fbabp-13", 0, 297, 0xeb8969712c10f082ULL}},
  };
  expect_golden(c.graph, c.platform, c.perf, expected);
}

}  // namespace
}  // namespace mp
