// Strongly-typed integer ids for the runtime's entities.
//
// Each id is a distinct type so that a TaskId cannot be passed where a
// WorkerId is expected; all are value types comparable and hashable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace mp {

/// Tagged integer id. Tag is an empty struct used only for type distinction.
template <typename Tag>
class Id {
 public:
  using underlying = std::uint32_t;
  static constexpr underlying kInvalid = std::numeric_limits<underlying>::max();

  constexpr Id() = default;
  constexpr explicit Id(underlying v) : value_(v) {}
  /// Convenience for loop indices.
  constexpr explicit Id(std::size_t v) : value_(static_cast<underlying>(v)) {}

  [[nodiscard]] constexpr underlying value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  [[nodiscard]] static constexpr Id invalid() { return Id{}; }

  friend constexpr bool operator==(Id a, Id b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) { return a.value_ < b.value_; }

 private:
  underlying value_ = kInvalid;
};

struct TaskTag {};
struct DataTag {};
struct WorkerTag {};
struct MemNodeTag {};
struct CodeletTag {};

using TaskId = Id<TaskTag>;
using DataId = Id<DataTag>;
using WorkerId = Id<WorkerTag>;
using MemNodeId = Id<MemNodeTag>;
using CodeletId = Id<CodeletTag>;

/// Architecture types of processing units (the paper's set A).
enum class ArchType : std::uint8_t { CPU = 0, GPU = 1 };

/// Number of architecture types supported. Kept small and fixed so per-arch
/// tables can live in std::array on hot paths.
inline constexpr std::size_t kNumArchTypes = 2;

[[nodiscard]] constexpr std::size_t arch_index(ArchType a) {
  return static_cast<std::size_t>(a);
}

[[nodiscard]] constexpr const char* arch_name(ArchType a) {
  return a == ArchType::CPU ? "CPU" : "GPU";
}

/// A set of architectures, bit arch_index(a) per member.
using ArchMask = std::uint8_t;

[[nodiscard]] constexpr ArchMask arch_bit(ArchType a) {
  return static_cast<ArchMask>(1u << arch_index(a));
}

[[nodiscard]] constexpr bool arch_in(ArchMask m, ArchType a) {
  return (m & arch_bit(a)) != 0;
}

}  // namespace mp

namespace std {
template <typename Tag>
struct hash<mp::Id<Tag>> {
  size_t operator()(mp::Id<Tag> id) const noexcept {
    return std::hash<typename mp::Id<Tag>::underlying>{}(id.value());
  }
};
}  // namespace std
