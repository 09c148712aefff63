#include <gtest/gtest.h>

#include "runtime/memory_manager.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

struct World {
  TaskGraph graph;
  Platform platform;
  CodeletId cl;
  MemNodeId gpu0;
  MemNodeId gpu1;

  explicit World(std::size_t gpu_capacity = 0) {
    platform.add_workers(ArchType::CPU, platform.ram_node(), 2);
    gpu0 = platform.add_gpu_node(gpu_capacity, 10e9, 1e-6);
    platform.add_workers(ArchType::GPU, gpu0, 1);
    gpu1 = platform.add_gpu_node(gpu_capacity, 10e9, 1e-6);
    platform.add_workers(ArchType::GPU, gpu1, 1);
    cl = graph.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  }

  TaskId task(std::initializer_list<Access> acc) { return graph.submit(cl, acc); }
};

TEST(MemoryManager, HomeCopyIsValid) {
  World w;
  const DataId d = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  EXPECT_TRUE(mm.is_valid_on(d, w.platform.ram_node()));
  EXPECT_FALSE(mm.is_valid_on(d, w.gpu0));
}

TEST(MemoryManager, ReadFetchesCopyAndKeepsSource) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId t = w.task({Access{d, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(t, w.gpu0, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].from, w.platform.ram_node());
  EXPECT_EQ(ops[0].to, w.gpu0);
  EXPECT_EQ(ops[0].bytes, 100u);
  EXPECT_TRUE(mm.is_valid_on(d, w.gpu0));
  EXPECT_TRUE(mm.is_valid_on(d, w.platform.ram_node()));  // shared copy
}

TEST(MemoryManager, WriteInvalidatesOtherCopies) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId r = w.task({Access{d, AccessMode::Read}});
  const TaskId rw = w.task({Access{d, AccessMode::ReadWrite}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(r, w.gpu0, ops);
  ops.clear();
  mm.acquire_for_task(rw, w.gpu1, ops);
  EXPECT_TRUE(mm.is_valid_on(d, w.gpu1));
  EXPECT_FALSE(mm.is_valid_on(d, w.gpu0));
  EXPECT_FALSE(mm.is_valid_on(d, w.platform.ram_node()));
}

TEST(MemoryManager, WriteOnlyNeedsNoFetch) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId t = w.task({Access{d, AccessMode::Write}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(t, w.gpu0, ops);
  EXPECT_TRUE(ops.empty());
  EXPECT_TRUE(mm.is_valid_on(d, w.gpu0));
}

TEST(MemoryManager, ReadAlreadyValidNoTransfer) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId t0 = w.task({Access{d, AccessMode::Read}});
  const TaskId t1 = w.task({Access{d, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(t0, w.gpu0, ops);
  ops.clear();
  mm.acquire_for_task(t1, w.gpu0, ops);
  EXPECT_TRUE(ops.empty());
}

TEST(MemoryManager, BytesMissing) {
  World w;
  const DataId d0 = w.graph.add_data(100);
  const DataId d1 = w.graph.add_data(50);
  const TaskId t =
      w.task({Access{d0, AccessMode::Read}, Access{d1, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  EXPECT_EQ(mm.bytes_missing(t, w.gpu0), 150u);
  std::vector<TransferOp> ops;
  mm.prefetch(d0, w.gpu0, ops);
  EXPECT_EQ(mm.bytes_missing(t, w.gpu0), 50u);
  EXPECT_EQ(mm.bytes_missing(t, w.platform.ram_node()), 0u);
}

TEST(MemoryManager, EstimatedTransferTimeMatchesPlatform) {
  World w;
  const DataId d = w.graph.add_data(10'000'000);
  const TaskId t = w.task({Access{d, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  EXPECT_NEAR(mm.estimated_transfer_time(t, w.gpu0),
              w.platform.transfer_time(10'000'000, w.platform.ram_node(), w.gpu0), 1e-12);
}

TEST(MemoryManager, PrefetchIdempotent) {
  World w;
  const DataId d = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.prefetch(d, w.gpu0, ops);
  EXPECT_EQ(ops.size(), 1u);
  mm.prefetch(d, w.gpu0, ops);
  EXPECT_EQ(ops.size(), 1u);  // no duplicate transfer
}

TEST(MemoryManager, LruEvictionMakesRoom) {
  World w(/*gpu_capacity=*/250);
  const DataId d0 = w.graph.add_data(100);
  const DataId d1 = w.graph.add_data(100);
  const DataId d2 = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.prefetch(d0, w.gpu0, ops);
  mm.prefetch(d1, w.gpu0, ops);
  ops.clear();
  mm.prefetch(d2, w.gpu0, ops);  // must evict d0 (LRU)
  EXPECT_FALSE(mm.is_valid_on(d0, w.gpu0));
  EXPECT_TRUE(mm.is_valid_on(d1, w.gpu0));
  EXPECT_TRUE(mm.is_valid_on(d2, w.gpu0));
  EXPECT_GE(mm.eviction_count(), 1u);
  EXPECT_LE(mm.used_bytes(w.gpu0), 250u);
}

TEST(MemoryManager, EvictionWritesBackSoleDirtyCopy) {
  World w(/*gpu_capacity=*/250);
  const DataId d0 = w.graph.add_data(100);
  const DataId d1 = w.graph.add_data(100);
  const DataId d2 = w.graph.add_data(100);
  const TaskId writer = w.task({Access{d0, AccessMode::ReadWrite}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(writer, w.gpu0, ops);  // d0 dirty, only on gpu0
  mm.prefetch(d1, w.gpu0, ops);
  ops.clear();
  mm.prefetch(d2, w.gpu0, ops);  // evicting d0 requires a writeback
  ASSERT_GE(ops.size(), 2u);
  EXPECT_TRUE(ops[0].writeback);
  EXPECT_EQ(ops[0].data, d0);
  EXPECT_EQ(ops[0].to, w.platform.ram_node());
  EXPECT_TRUE(mm.is_valid_on(d0, w.platform.ram_node()));  // data never lost
}

TEST(MemoryManager, PinnedDataSurvivesEviction) {
  World w(/*gpu_capacity=*/250);
  const DataId d0 = w.graph.add_data(100);
  const DataId d1 = w.graph.add_data(100);
  const DataId d2 = w.graph.add_data(100);
  const TaskId t0 = w.task({Access{d0, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(t0, w.gpu0, ops);
  mm.pin_task_data(t0, w.gpu0);
  mm.prefetch(d1, w.gpu0, ops);
  ops.clear();
  mm.prefetch(d2, w.gpu0, ops);  // d0 pinned: d1 is the eviction victim
  EXPECT_TRUE(mm.is_valid_on(d0, w.gpu0));
  EXPECT_FALSE(mm.is_valid_on(d1, w.gpu0));
  mm.unpin_task_data(t0, w.gpu0);
}

TEST(MemoryManager, LruOrderFollowsUseAndSkipsPinnedVictims) {
  World w(/*gpu_capacity=*/350);
  std::vector<DataId> d;
  for (int i = 0; i < 6; ++i) d.push_back(w.graph.add_data(100));
  const TaskId reads_d0 = w.task({Access{d[0], AccessMode::Read}});
  const TaskId reads_d1 = w.task({Access{d[1], AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  for (int i = 0; i < 3; ++i) mm.prefetch(d[i], w.gpu0, ops);  // LRU: d0 d1 d2
  mm.acquire_for_task(reads_d0, w.gpu0, ops);                   // LRU: d1 d2 d0
  mm.acquire_for_task(reads_d1, w.gpu0, ops);                   // LRU: d2 d0 d1
  mm.pin_task_data(reads_d1, w.gpu0);
  const auto resident = [&] {
    std::vector<bool> out;
    for (const DataId x : d) out.push_back(mm.is_valid_on(x, w.gpu0));
    return out;
  };
  mm.prefetch(d[3], w.gpu0, ops);  // evicts d2, the least recently used
  EXPECT_EQ(resident(), (std::vector<bool>{true, true, false, true, false, false}));
  mm.prefetch(d[4], w.gpu0, ops);  // evicts d0
  EXPECT_EQ(resident(), (std::vector<bool>{false, true, false, true, true, false}));
  mm.pin_task_data(reads_d1, w.gpu0);  // pinned twice: d1 is skipped again
  mm.prefetch(d[5], w.gpu0, ops);      // evicts d3, not the older pinned d1
  EXPECT_EQ(resident(), (std::vector<bool>{false, true, false, false, true, true}));
  mm.unpin_task_data(reads_d1, w.gpu0);
  mm.unpin_task_data(reads_d1, w.gpu0);
  mm.prefetch(d[2], w.gpu0, ops);  // unpinned: d1 is the oldest again
  EXPECT_EQ(resident(), (std::vector<bool>{false, false, true, false, true, true}));
  EXPECT_EQ(mm.eviction_count(), 4u);
  EXPECT_EQ(mm.capacity_overflows(), 0u);
}

TEST(MemoryManagerDeath, UnpinWithoutPinIsRejected) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId t = w.task({Access{d, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  EXPECT_DEATH(mm.unpin_task_data(t, w.gpu0), "never pinned");
}

TEST(MemoryManager, TransferStatsAccumulate) {
  World w;
  const DataId d = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.prefetch(d, w.gpu0, ops);
  EXPECT_EQ(mm.total_bytes_to(w.gpu0), 100u);
  EXPECT_EQ(mm.total_bytes_from(w.platform.ram_node()), 100u);
}

TEST(MemoryManagerDeath, HandleRegisteredAfterConstructionTripsTheCheck) {
  World w;
  const DataId d0 = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  const DataId late = w.graph.add_data(50);
  EXPECT_TRUE(mm.is_valid_on(d0, w.platform.ram_node()));
  EXPECT_DEATH((void)mm.is_valid_on(late, w.platform.ram_node()),
               "registered after the MemoryManager was built");
  const TaskId t = w.task({Access{d0, AccessMode::Read}, Access{late, AccessMode::Read}});
  std::vector<TransferOp> ops;
  EXPECT_DEATH(mm.acquire_for_task(t, w.gpu0, ops),
               "registered after the MemoryManager was built");
}

TEST(MemoryManager, GpuToGpuReadsPreferRamSource) {
  World w;
  const DataId d = w.graph.add_data(100);
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.prefetch(d, w.gpu0, ops);
  ops.clear();
  mm.prefetch(d, w.gpu1, ops);  // RAM still valid: cheapest single hop
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].from, w.platform.ram_node());
}

TEST(MemoryManager, DirtyGpuCopyServesOtherGpu) {
  World w;
  const DataId d = w.graph.add_data(100);
  const TaskId writer = w.task({Access{d, AccessMode::ReadWrite}});
  const TaskId reader = w.task({Access{d, AccessMode::Read}});
  MemoryManager mm(w.graph, w.platform);
  std::vector<TransferOp> ops;
  mm.acquire_for_task(writer, w.gpu0, ops);
  ops.clear();
  mm.acquire_for_task(reader, w.gpu1, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].from, w.gpu0);  // only valid copy
  EXPECT_EQ(ops[0].to, w.gpu1);
}

}  // namespace
}  // namespace mp
