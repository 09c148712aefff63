#include "apps/fmm/dag_builder.hpp"

#include <map>

#include "common/check.hpp"

namespace mp::fmm {

namespace {

// Per-operation flop weights (drive the analytic timing models). Sized for
// an order-5-ish expansion, as TBFMM runs in the paper: the multipole /
// local coefficients make the tree operators and especially M2L much
// heavier per element than our order-2 demonstration kernels.
constexpr double kFlopP2M = 200.0;       // per particle
constexpr double kFlopM2M = 1000.0;      // per (parent, child) cell pair
constexpr double kFlopM2L = 2000.0;      // per cell pair
constexpr double kFlopL2L = 1000.0;      // per child cell
constexpr double kFlopL2P = 200.0;       // per particle
constexpr double kFlopP2P = 22.0;        // per particle pair

struct Kernels {
  CodeletId p2m, m2m, m2l, l2l, l2p, p2p;
};

Kernels register_codelets(TaskGraph& graph, Octree& tree) {
  Octree* oct = &tree;
  const std::size_t leaf = tree.leaf_level();

  Kernels k;
  k.p2m = graph.add_codelet(
      "P2M", {ArchType::CPU}, [oct, leaf](const Task& t, std::span<void* const>) {
        const auto& g = oct->groups(leaf)[static_cast<std::size_t>(t.iparams[1])];
        for (std::size_t c = g.cbegin; c < g.cend; ++c)
          p2m(oct->cell_particles(c), oct->center_of(leaf, c), oct->multipole(leaf, c));
      });

  k.m2m = graph.add_codelet(
      "M2M", {ArchType::CPU}, [oct](const Task& t, std::span<void* const>) {
        const auto l = static_cast<std::size_t>(t.iparams[0]);
        const auto& g = oct->groups(l)[static_cast<std::size_t>(t.iparams[1])];
        for (std::size_t c = g.cbegin; c < g.cend; ++c) {
          const auto [cb, ce] = oct->children_of(l, c);
          for (std::size_t ch = cb; ch < ce; ++ch)
            m2m(oct->multipole(l + 1, ch), oct->center_of(l + 1, ch), oct->center_of(l, c),
                oct->multipole(l, c));
        }
      });

  k.m2l = graph.add_codelet(
      "M2L", {ArchType::CPU, ArchType::GPU},
      [oct](const Task& t, std::span<void* const>) {
        const auto l = static_cast<std::size_t>(t.iparams[0]);
        const auto& gt = oct->groups(l)[static_cast<std::size_t>(t.iparams[1])];
        const auto& gs = oct->groups(l)[static_cast<std::size_t>(t.iparams[2])];
        for (std::size_t c = gt.cbegin; c < gt.cend; ++c) {
          for (std::uint32_t s : oct->m2l_list(l, c)) {
            if (s < gs.cbegin || s >= gs.cend) continue;
            m2l(oct->multipole(l, s), oct->center_of(l, s), oct->center_of(l, c),
                oct->local(l, c));
          }
        }
      });

  k.l2l = graph.add_codelet(
      "L2L", {ArchType::CPU}, [oct](const Task& t, std::span<void* const>) {
        const auto l = static_cast<std::size_t>(t.iparams[0]);  // parent level
        const auto& gc = oct->groups(l + 1)[static_cast<std::size_t>(t.iparams[1])];
        for (std::size_t c = gc.cbegin; c < gc.cend; ++c) {
          const std::uint64_t pm = oct->cells(l + 1)[c].morton >> 3;
          const auto p = oct->find_cell(l, pm);
          MP_ASSERT(p.has_value());
          l2l(oct->local(l, *p), oct->center_of(l, *p), oct->center_of(l + 1, c),
              oct->local(l + 1, c));
        }
      });

  k.l2p = graph.add_codelet(
      "L2P", {ArchType::CPU}, [oct, leaf](const Task& t, std::span<void* const>) {
        const auto& g = oct->groups(leaf)[static_cast<std::size_t>(t.iparams[1])];
        for (std::size_t c = g.cbegin; c < g.cend; ++c)
          l2p(oct->local(leaf, c), oct->center_of(leaf, c), oct->cell_particles(c),
              oct->cell_potentials(c));
      });

  k.p2p = graph.add_codelet(
      "P2P", {ArchType::CPU, ArchType::GPU},
      [oct, leaf](const Task& t, std::span<void* const>) {
        const auto gi = static_cast<std::size_t>(t.iparams[1]);
        const auto gj = static_cast<std::size_t>(t.iparams[2]);
        const auto& ga = oct->groups(leaf)[gi];
        const auto& gb = oct->groups(leaf)[gj];
        if (gi == gj) {
          for (std::size_t c = ga.cbegin; c < ga.cend; ++c) {
            p2p_inner(oct->cell_particles(c), oct->cell_potentials(c));
            for (std::uint32_t n : oct->p2p_list(c)) {
              if (n >= ga.cend) continue;  // cross-group pairs handled elsewhere
              p2p(oct->cell_particles(c), oct->cell_particles(n), oct->cell_potentials(c));
              p2p(oct->cell_particles(n), oct->cell_particles(c), oct->cell_potentials(n));
            }
          }
        } else {
          for (std::size_t c = ga.cbegin; c < ga.cend; ++c) {
            for (std::uint32_t n : oct->p2p_list(c)) {
              if (n < gb.cbegin || n >= gb.cend) continue;
              p2p(oct->cell_particles(c), oct->cell_particles(n), oct->cell_potentials(c));
              p2p(oct->cell_particles(n), oct->cell_particles(c), oct->cell_potentials(n));
            }
          }
        }
      });
  return k;
}

}  // namespace

FmmBuildStats build_fmm(TaskGraph& graph, Octree& tree, FmmBuildOptions opts) {
  const AccessMode accum =
      opts.commute_accumulations ? AccessMode::Commute : AccessMode::ReadWrite;
  tree.register_handles(graph);
  const Kernels k = register_codelets(graph, tree);
  const std::size_t leaf = tree.leaf_level();
  FmmBuildStats stats;

  auto ip = [](std::size_t a, std::size_t b, std::size_t c) {
    return std::array<std::int64_t, 4>{static_cast<std::int64_t>(a),
                                       static_cast<std::int64_t>(b),
                                       static_cast<std::int64_t>(c), 0};
  };

  // ---- upward pass: P2M then M2M --------------------------------------
  for (std::size_t gi = 0; gi < tree.groups(leaf).size(); ++gi) {
    const auto& g = tree.groups(leaf)[gi];
    SubmitOptions o;
    o.flops = kFlopP2M * static_cast<double>(tree.group_particle_count(g));
    o.iparams = ip(leaf, gi, 0);
    graph.submit(k.p2m,
                 {Access{g.particles, AccessMode::Read},
                  Access{g.multipole, AccessMode::Write}},
                 o);
    ++stats.p2m;
  }
  for (std::size_t l = leaf; l-- > 2;) {
    for (std::size_t gi = 0; gi < tree.groups(l).size(); ++gi) {
      const auto& g = tree.groups(l)[gi];
      // Child groups overlapped by the children of this group's cells.
      const auto [cb0, ce0] = tree.children_of(l, g.cbegin);
      const auto [cb1, ce1] = tree.children_of(l, g.cend - 1);
      (void)ce0;
      (void)cb1;
      const std::size_t g_first = tree.group_of_cell(l + 1, cb0);
      const std::size_t g_last = tree.group_of_cell(l + 1, ce1 - 1);
      std::vector<Access> acc;
      acc.push_back(Access{g.multipole, AccessMode::Write});
      double cell_pairs = 0.0;
      for (std::size_t cg = g_first; cg <= g_last; ++cg)
        acc.push_back(Access{tree.groups(l + 1)[cg].multipole, AccessMode::Read});
      for (std::size_t c = g.cbegin; c < g.cend; ++c) {
        const auto [cb, ce] = tree.children_of(l, c);
        cell_pairs += static_cast<double>(ce - cb);
      }
      SubmitOptions o;
      o.flops = kFlopM2M * cell_pairs;
      o.iparams = ip(l, gi, 0);
      graph.submit(k.m2m, std::span<const Access>(acc), o);
      ++stats.m2m;
    }
  }

  // ---- transfer pass: M2L per (level, target group, source group) -----
  for (std::size_t l = 2; l <= leaf; ++l) {
    const std::size_t ngroups = tree.groups(l).size();
    // Aggregate cell interaction pairs into group pairs.
    std::map<std::pair<std::size_t, std::size_t>, double> pairs;
    for (std::size_t gi = 0; gi < ngroups; ++gi) {
      const auto& gt = tree.groups(l)[gi];
      for (std::size_t c = gt.cbegin; c < gt.cend; ++c)
        for (std::uint32_t s : tree.m2l_list(l, c))
          pairs[{gi, tree.group_of_cell(l, s)}] += 1.0;
    }
    for (const auto& [key, count] : pairs) {
      const auto& gt = tree.groups(l)[key.first];
      const auto& gs = tree.groups(l)[key.second];
      SubmitOptions o;
      o.flops = kFlopM2L * count;
      o.iparams = ip(l, key.first, key.second);
      graph.submit(k.m2l,
                   {Access{gs.multipole, AccessMode::Read},
                    Access{gt.local, accum}},
                   o);
      ++stats.m2l;
    }
  }

  // ---- downward pass: L2L then L2P -------------------------------------
  for (std::size_t l = 2; l < leaf; ++l) {
    for (std::size_t gi = 0; gi < tree.groups(l + 1).size(); ++gi) {
      const auto& gc = tree.groups(l + 1)[gi];
      // Parent groups overlapped by this group's cells' parents.
      const auto first_parent = tree.find_cell(l, tree.cells(l + 1)[gc.cbegin].morton >> 3);
      const auto last_parent =
          tree.find_cell(l, tree.cells(l + 1)[gc.cend - 1].morton >> 3);
      MP_CHECK(first_parent && last_parent);
      const std::size_t g_first = tree.group_of_cell(l, *first_parent);
      const std::size_t g_last = tree.group_of_cell(l, *last_parent);
      std::vector<Access> acc;
      acc.push_back(Access{gc.local, AccessMode::ReadWrite});
      for (std::size_t pg = g_first; pg <= g_last; ++pg)
        acc.push_back(Access{tree.groups(l)[pg].local, AccessMode::Read});
      SubmitOptions o;
      o.flops = kFlopL2L * static_cast<double>(gc.cend - gc.cbegin);
      o.iparams = ip(l, gi, 0);
      graph.submit(k.l2l, std::span<const Access>(acc), o);
      ++stats.l2l;
    }
  }
  for (std::size_t gi = 0; gi < tree.groups(leaf).size(); ++gi) {
    const auto& g = tree.groups(leaf)[gi];
    SubmitOptions o;
    o.flops = kFlopL2P * static_cast<double>(tree.group_particle_count(g));
    o.iparams = ip(leaf, gi, 0);
    graph.submit(k.l2p,
                 {Access{g.local, AccessMode::Read}, Access{g.particles, AccessMode::Read},
                  Access{g.potentials, AccessMode::ReadWrite}},
                 o);
    ++stats.l2p;
  }

  // ---- direct pass: P2P ------------------------------------------------
  {
    const auto& leaves = tree.cells(leaf);
    const std::size_t ngroups = tree.groups(leaf).size();
    auto npart = [&](std::size_t c) {
      return static_cast<double>(leaves[c].pend - leaves[c].pbegin);
    };
    // inner tasks
    std::vector<double> inner_pairs(ngroups, 0.0);
    std::map<std::pair<std::size_t, std::size_t>, double> cross;
    for (std::size_t c = 0; c < leaves.size(); ++c) {
      const std::size_t gc = tree.group_of_cell(leaf, c);
      inner_pairs[gc] += npart(c) * (npart(c) - 1.0) / 2.0;
      for (std::uint32_t n : tree.p2p_list(c)) {
        const std::size_t gn = tree.group_of_cell(leaf, n);
        if (gn == gc) {
          inner_pairs[gc] += npart(c) * npart(n);
        } else {
          cross[{std::min(gc, gn), std::max(gc, gn)}] += npart(c) * npart(n);
        }
      }
    }
    for (std::size_t gi = 0; gi < ngroups; ++gi) {
      const auto& g = tree.groups(leaf)[gi];
      SubmitOptions o;
      o.flops = kFlopP2P * inner_pairs[gi];
      o.iparams = ip(leaf, gi, gi);
      graph.submit(k.p2p,
                   {Access{g.particles, AccessMode::Read},
                    Access{g.potentials, accum}},
                   o);
      ++stats.p2p;
    }
    for (const auto& [key, count] : cross) {
      const auto& ga = tree.groups(leaf)[key.first];
      const auto& gb = tree.groups(leaf)[key.second];
      SubmitOptions o;
      o.flops = kFlopP2P * count;
      o.iparams = ip(leaf, key.first, key.second);
      graph.submit(k.p2p,
                   {Access{ga.particles, AccessMode::Read},
                    Access{gb.particles, AccessMode::Read},
                    Access{ga.potentials, accum},
                    Access{gb.potentials, accum}},
                   o);
      ++stats.p2p;
    }
  }
  return stats;
}

void run_fmm_serial(Octree& tree) {
  const std::size_t leaf = tree.leaf_level();
  for (std::size_t c = 0; c < tree.cells(leaf).size(); ++c)
    p2m(tree.cell_particles(c), tree.center_of(leaf, c), tree.multipole(leaf, c));
  for (std::size_t l = leaf; l-- > 2;) {
    for (std::size_t c = 0; c < tree.cells(l).size(); ++c) {
      const auto [cb, ce] = tree.children_of(l, c);
      for (std::size_t ch = cb; ch < ce; ++ch)
        m2m(tree.multipole(l + 1, ch), tree.center_of(l + 1, ch), tree.center_of(l, c),
            tree.multipole(l, c));
    }
  }
  for (std::size_t l = 2; l <= leaf; ++l) {
    for (std::size_t c = 0; c < tree.cells(l).size(); ++c)
      for (std::uint32_t s : tree.m2l_list(l, c))
        m2l(tree.multipole(l, s), tree.center_of(l, s), tree.center_of(l, c),
            tree.local(l, c));
  }
  for (std::size_t l = 2; l < leaf; ++l) {
    for (std::size_t c = 0; c < tree.cells(l + 1).size(); ++c) {
      const auto p = tree.find_cell(l, tree.cells(l + 1)[c].morton >> 3);
      l2l(tree.local(l, *p), tree.center_of(l, *p), tree.center_of(l + 1, c),
          tree.local(l + 1, c));
    }
  }
  for (std::size_t c = 0; c < tree.cells(leaf).size(); ++c) {
    l2p(tree.local(leaf, c), tree.center_of(leaf, c), tree.cell_particles(c),
        tree.cell_potentials(c));
    p2p_inner(tree.cell_particles(c), tree.cell_potentials(c));
    for (std::uint32_t n : tree.p2p_list(c)) {
      p2p(tree.cell_particles(c), tree.cell_particles(n), tree.cell_potentials(c));
      p2p(tree.cell_particles(n), tree.cell_particles(c), tree.cell_potentials(n));
    }
  }
}

}  // namespace mp::fmm
