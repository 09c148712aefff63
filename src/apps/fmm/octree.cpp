#include "apps/fmm/octree.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace mp::fmm {

namespace {
/// Spreads the low 21 bits of v to every third bit.
[[nodiscard]] std::uint64_t spread3(std::uint64_t v) {
  v &= 0x1fffff;
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

[[nodiscard]] std::uint32_t compact3(std::uint64_t v) {
  v &= 0x1249249249249249ULL;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ULL;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00fULL;
  v = (v ^ (v >> 8)) & 0x1f0000ff0000ffULL;
  v = (v ^ (v >> 16)) & 0x1f00000000ffffULL;
  v = (v ^ (v >> 32)) & 0x1fffff;
  return static_cast<std::uint32_t>(v);
}
}  // namespace

std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return spread3(x) | (spread3(y) << 1) | (spread3(z) << 2);
}

void morton_decode(std::uint64_t code, std::uint32_t& x, std::uint32_t& y,
                   std::uint32_t& z) {
  x = compact3(code);
  y = compact3(code >> 1);
  z = compact3(code >> 2);
}

Octree::Octree(std::vector<Particle> parts, OctreeOptions opts)
    : opts_(opts), parts_(std::move(parts)) {
  MP_CHECK_MSG(opts_.height >= 3, "FMM needs at least 3 levels");
  MP_CHECK(opts_.group_size >= 1);
  MP_CHECK(!parts_.empty());
  build_levels();
  build_interaction_lists();
  build_groups(nullptr);
  if (opts_.allocate) {
    potentials_.assign(parts_.size(), 0.0);
    multipoles_.resize(opts_.height);
    locals_.resize(opts_.height);
    for (std::size_t l = 0; l < opts_.height; ++l) {
      multipoles_[l].assign(levels_[l].size(), Multipole{});
      locals_[l].assign(levels_[l].size(), LocalExp{});
    }
  }
}

void Octree::build_levels() {
  const std::size_t leaf = opts_.height - 1;
  const auto side = static_cast<std::uint32_t>(1u << leaf);

  // Leaf Morton code per particle, then sort particles by it.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    auto clampc = [&](double v) {
      const double scaled = v * static_cast<double>(side);
      const auto c = static_cast<std::int64_t>(scaled);
      return static_cast<std::uint32_t>(std::clamp<std::int64_t>(c, 0, side - 1));
    };
    keyed[i] = {morton_encode(clampc(parts_[i].x), clampc(parts_[i].y),
                              clampc(parts_[i].z)),
                static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<Particle> sorted(parts_.size());
  orig_index_.resize(parts_.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    sorted[i] = parts_[keyed[i].second];
    orig_index_[i] = keyed[i].second;
  }
  parts_ = std::move(sorted);

  levels_.resize(opts_.height);
  // Leaf cells with particle ranges.
  auto& leaves = levels_[leaf];
  for (std::size_t i = 0; i < keyed.size();) {
    std::size_t j = i;
    while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
    leaves.push_back(Cell{keyed[i].first, static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j)});
    i = j;
  }
  // Upper levels: unique parents.
  for (std::size_t l = leaf; l-- > 0;) {
    auto& up = levels_[l];
    for (const Cell& c : levels_[l + 1]) {
      const std::uint64_t pm = c.morton >> 3;
      if (up.empty() || up.back().morton != pm) up.push_back(Cell{pm, 0, 0});
    }
  }
}

const std::vector<Octree::Cell>& Octree::cells(std::size_t level) const {
  MP_CHECK(level < levels_.size());
  return levels_[level];
}

const std::vector<Octree::Group>& Octree::groups(std::size_t level) const {
  MP_CHECK(level < groups_.size());
  return groups_[level];
}

std::size_t Octree::group_of_cell(std::size_t level, std::size_t cell) const {
  MP_CHECK(cell < levels_[level].size());
  return cell / opts_.group_size;
}

Vec3 Octree::center_of(std::size_t level, std::size_t cell) const {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
  morton_decode(levels_[level][cell].morton, x, y, z);
  const double w = 1.0 / static_cast<double>(1u << level);
  return Vec3{(x + 0.5) * w, (y + 0.5) * w, (z + 0.5) * w};
}

std::optional<std::size_t> Octree::find_cell(std::size_t level,
                                             std::uint64_t morton) const {
  const auto& cs = levels_[level];
  auto it = std::lower_bound(cs.begin(), cs.end(), morton,
                             [](const Cell& c, std::uint64_t m) { return c.morton < m; });
  if (it == cs.end() || it->morton != morton) return std::nullopt;
  return static_cast<std::size_t>(it - cs.begin());
}

std::pair<std::size_t, std::size_t> Octree::children_of(std::size_t level,
                                                        std::size_t cell) const {
  MP_CHECK(level + 1 < levels_.size());
  const std::uint64_t base = levels_[level][cell].morton << 3;
  const auto& cs = levels_[level + 1];
  auto lo = std::lower_bound(cs.begin(), cs.end(), base,
                             [](const Cell& c, std::uint64_t m) { return c.morton < m; });
  auto hi = std::lower_bound(cs.begin(), cs.end(), base + 8,
                             [](const Cell& c, std::uint64_t m) { return c.morton < m; });
  return {static_cast<std::size_t>(lo - cs.begin()), static_cast<std::size_t>(hi - cs.begin())};
}

void Octree::build_interaction_lists() {
  const std::size_t leaf = opts_.height - 1;
  m2l_.resize(opts_.height);

  auto neighbours_exist = [&](std::size_t level, std::uint64_t morton,
                              std::vector<std::uint64_t>& out) {
    out.clear();
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint32_t z = 0;
    morton_decode(morton, x, y, z);
    const auto side = static_cast<std::int64_t>(1u << level);
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          const std::int64_t nx = static_cast<std::int64_t>(x) + dx;
          const std::int64_t ny = static_cast<std::int64_t>(y) + dy;
          const std::int64_t nz = static_cast<std::int64_t>(z) + dz;
          if (nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side)
            continue;
          out.push_back(morton_encode(static_cast<std::uint32_t>(nx),
                                      static_cast<std::uint32_t>(ny),
                                      static_cast<std::uint32_t>(nz)));
        }
  };

  std::vector<std::uint64_t> own_nbrs;
  std::vector<std::uint64_t> parent_nbrs;
  for (std::size_t l = 2; l < opts_.height; ++l) {
    m2l_[l].resize(levels_[l].size());
    for (std::size_t ci = 0; ci < levels_[l].size(); ++ci) {
      const std::uint64_t m = levels_[l][ci].morton;
      neighbours_exist(l, m, own_nbrs);
      neighbours_exist(l - 1, m >> 3, parent_nbrs);
      auto& list = m2l_[l][ci];
      for (std::uint64_t pn : parent_nbrs) {
        for (std::uint64_t child = pn << 3; child < (pn << 3) + 8; ++child) {
          if (child == m) continue;
          if (std::find(own_nbrs.begin(), own_nbrs.end(), child) != own_nbrs.end())
            continue;
          if (auto idx = find_cell(l, child)) list.push_back(static_cast<std::uint32_t>(*idx));
        }
      }
    }
  }

  // P2P: adjacent leaves, each unordered pair once (higher index only).
  p2p_.resize(levels_[leaf].size());
  for (std::size_t ci = 0; ci < levels_[leaf].size(); ++ci) {
    neighbours_exist(leaf, levels_[leaf][ci].morton, own_nbrs);
    for (std::uint64_t nm : own_nbrs) {
      if (nm == levels_[leaf][ci].morton) continue;
      if (auto idx = find_cell(leaf, nm)) {
        if (*idx > ci) p2p_[ci].push_back(static_cast<std::uint32_t>(*idx));
      }
    }
  }
}

void Octree::build_groups(TaskGraph*) {
  groups_.resize(opts_.height);
  for (std::size_t l = 0; l < opts_.height; ++l) {
    const std::size_t n = levels_[l].size();
    for (std::size_t b = 0; b < n; b += opts_.group_size) {
      Group g;
      g.cbegin = static_cast<std::uint32_t>(b);
      g.cend = static_cast<std::uint32_t>(std::min(n, b + opts_.group_size));
      groups_[l].push_back(g);
    }
  }
}

const std::vector<std::uint32_t>& Octree::m2l_list(std::size_t level,
                                                   std::size_t cell) const {
  MP_CHECK(level >= 2 && level < m2l_.size());
  return m2l_[level][cell];
}

const std::vector<std::uint32_t>& Octree::p2p_list(std::size_t cell) const {
  MP_CHECK(cell < p2p_.size());
  return p2p_[cell];
}

void Octree::register_handles(TaskGraph& graph) {
  const std::size_t leaf = opts_.height - 1;
  for (std::size_t l = 0; l < opts_.height; ++l) {
    for (Group& g : groups_[l]) {
      const std::size_t ncells = g.cend - g.cbegin;
      void* mp_ptr = opts_.allocate ? static_cast<void*>(&multipoles_[l][g.cbegin]) : nullptr;
      void* lo_ptr = opts_.allocate ? static_cast<void*>(&locals_[l][g.cbegin]) : nullptr;
      g.multipole = graph.add_data(ncells * sizeof(Multipole), mp_ptr);
      g.local = graph.add_data(ncells * sizeof(LocalExp), lo_ptr);
      if (l == leaf) {
        const std::size_t pbegin = levels_[leaf][g.cbegin].pbegin;
        const std::size_t pend = levels_[leaf][g.cend - 1].pend;
        void* pp = opts_.allocate ? static_cast<void*>(&parts_[pbegin]) : nullptr;
        void* pot = opts_.allocate ? static_cast<void*>(&potentials_[pbegin]) : nullptr;
        g.particles = graph.add_data((pend - pbegin) * sizeof(Particle), pp);
        g.potentials = graph.add_data((pend - pbegin) * sizeof(double), pot);
      }
    }
  }
}

std::span<const Particle> Octree::cell_particles(std::size_t cell) const {
  const Cell& c = levels_[opts_.height - 1][cell];
  return std::span<const Particle>(parts_.data() + c.pbegin, c.pend - c.pbegin);
}

std::span<double> Octree::cell_potentials(std::size_t cell) {
  MP_CHECK(opts_.allocate);
  const Cell& c = levels_[opts_.height - 1][cell];
  return std::span<double>(potentials_.data() + c.pbegin, c.pend - c.pbegin);
}

Multipole& Octree::multipole(std::size_t level, std::size_t cell) {
  MP_CHECK(opts_.allocate);
  return multipoles_[level][cell];
}

LocalExp& Octree::local(std::size_t level, std::size_t cell) {
  MP_CHECK(opts_.allocate);
  return locals_[level][cell];
}

std::vector<double> Octree::potentials_original_order() const {
  MP_CHECK(opts_.allocate);
  std::vector<double> out(potentials_.size(), 0.0);
  for (std::size_t i = 0; i < potentials_.size(); ++i)
    out[orig_index_[i]] = potentials_[i];
  return out;
}

std::size_t Octree::group_particle_count(const Group& g) const {
  const auto& leaves = levels_[opts_.height - 1];
  std::size_t n = 0;
  for (std::size_t c = g.cbegin; c < g.cend; ++c) n += leaves[c].pend - leaves[c].pbegin;
  return n;
}

}  // namespace mp::fmm
