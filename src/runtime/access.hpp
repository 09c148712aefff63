// Data access modes, as in StarPU's STF model.
#pragma once

#include <cstdint>

namespace mp {

enum class AccessMode : std::uint8_t {
  Read = 0,       ///< task reads the data (RAW dependency on last writer)
  Write = 1,      ///< task overwrites the data entirely (WAR/WAW dependencies)
  ReadWrite = 2,  ///< task reads then updates the data
  /// Commutative update (StarPU's STARPU_COMMUTE): updates may run in any
  /// order but not concurrently. Commuting tasks carry no DAG edges among
  /// themselves; the execution engines enforce per-handle mutual exclusion.
  /// TBFMM's local/potential accumulations and qr_mumps' assembly use this.
  Commute = 3,
};

[[nodiscard]] constexpr bool mode_reads(AccessMode m) {
  return m == AccessMode::Read || m == AccessMode::ReadWrite || m == AccessMode::Commute;
}

[[nodiscard]] constexpr bool mode_writes(AccessMode m) {
  return m == AccessMode::Write || m == AccessMode::ReadWrite || m == AccessMode::Commute;
}

}  // namespace mp
