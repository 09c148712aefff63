#include "runtime/data_handle.hpp"

#include "common/check.hpp"

namespace mp {

DataId HandleRegistry::register_data(std::size_t bytes, MemNodeId home, void* user_ptr) {
  MP_CHECK_MSG(home.valid(), "data must have a home memory node");
  const DataId id{handles_.size()};
  handles_.push_back(DataHandle{id, bytes, home, user_ptr});
  return id;
}

}  // namespace mp
