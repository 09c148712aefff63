// Data handles: the unit of dependency inference and data movement.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace mp {

/// A registered piece of application data. The runtime tracks where valid
/// copies live (MemoryManager); the handle itself is immutable metadata.
struct DataHandle {
  DataId id;
  std::size_t bytes = 0;
  /// Memory node holding the initial (home) copy; almost always the RAM node.
  MemNodeId home;
  /// Optional pointer to real storage, used by the threaded executor.
  void* user_ptr = nullptr;
};

/// Owns all data handles of an application run.
class HandleRegistry {
 public:
  /// Registers a piece of data living on `home`. `user_ptr` may be null for
  /// simulation-only workloads.
  DataId register_data(std::size_t bytes, MemNodeId home, void* user_ptr = nullptr);

  [[nodiscard]] const DataHandle& get(DataId id) const {
    MP_CHECK(id.valid() && id.index() < handles_.size());
    return handles_[id.index()];
  }
  [[nodiscard]] std::size_t count() const { return handles_.size(); }

  [[nodiscard]] const std::vector<DataHandle>& all() const { return handles_; }

 private:
  std::vector<DataHandle> handles_;
};

}  // namespace mp
