#include "apps/sparseqr/symbolic.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace mp::sqr {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Items grouped by a key, as one flat array: group g is
/// idx[ptr[g], ptr[g + 1]), items in ascending id order.
struct Groups {
  std::vector<std::size_t> ptr;
  std::vector<std::uint32_t> idx;

  [[nodiscard]] std::size_t size(std::size_t g) const { return ptr[g + 1] - ptr[g]; }
  [[nodiscard]] std::span<const std::uint32_t> operator[](std::size_t g) const {
    return {idx.data() + ptr[g], size(g)};
  }
};

/// Counting sort of items 0..key.size()-1 into n_groups groups by key;
/// items keyed kNone belong to no group.
Groups group_by(const std::vector<std::uint32_t>& key, std::size_t n_groups) {
  Groups g;
  g.ptr.assign(n_groups + 1, 0);
  for (std::uint32_t k : key)
    if (k != kNone) ++g.ptr[k + 1];
  for (std::size_t i = 0; i < n_groups; ++i) g.ptr[i + 1] += g.ptr[i];
  g.idx.resize(g.ptr[n_groups]);
  std::vector<std::size_t> cursor(g.ptr.begin(), g.ptr.end() - 1);
  for (std::uint32_t i = 0; i < key.size(); ++i)
    if (key[i] != kNone) g.idx[cursor[key[i]]++] = i;
  return g;
}

}  // namespace

std::vector<std::uint32_t> column_etree(const SparseMatrix& a) {
  const std::size_t n = a.cols;
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::uint32_t> ancestor(n, kNone);
  // prev[r]: last column whose pattern contains row r (Gilbert–Ng–Peyton).
  std::vector<std::uint32_t> prev(a.rows, kNone);
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::size_t k = a.col_ptr[j]; k < a.col_ptr[j + 1]; ++k) {
      std::uint32_t i = prev[a.row_idx[k]];
      // Climb the partial etree with path compression.
      while (i != kNone && i < j) {
        const std::uint32_t inext = ancestor[i];
        ancestor[i] = j;
        if (inext == kNone) parent[i] = j;
        i = inext;
      }
      prev[a.row_idx[k]] = j;
    }
  }
  for (std::uint32_t j = 0; j < n; ++j)
    if (parent[j] == kNone) parent[j] = j;  // root marker
  return parent;
}

std::vector<std::uint32_t> postorder(const std::vector<std::uint32_t>& parent) {
  const std::size_t n = parent.size();
  std::vector<std::uint32_t> parent_of(n, kNone);
  std::vector<std::uint32_t> roots;
  for (std::uint32_t j = 0; j < n; ++j) {
    if (parent[j] == j) {
      roots.push_back(j);
    } else {
      MP_CHECK_MSG(parent[j] > j, "etree parents must follow children");
      parent_of[j] = parent[j];
    }
  }
  const Groups children = group_by(parent_of, n);
  std::vector<std::uint32_t> post;
  post.reserve(n);
  // Iterative DFS emitting children before parents.
  struct Item {
    std::uint32_t node;
    std::size_t next_child;
  };
  std::vector<Item> stack;
  for (std::uint32_t r : roots) {
    stack.push_back({r, children.ptr[r]});
    while (!stack.empty()) {
      Item& top = stack.back();
      if (top.next_child < children.ptr[top.node + 1]) {
        const std::uint32_t c = children.idx[top.next_child++];
        stack.push_back({c, children.ptr[c]});
      } else {
        post.push_back(top.node);
        stack.pop_back();
      }
    }
  }
  MP_CHECK(post.size() == n);
  return post;
}

double Front::dense_flops() const {
  const double mf = static_cast<double>(m);
  const double nf = static_cast<double>(n());
  const double kf = static_cast<double>(std::min({k(), m, n()}));
  // Householder QR eliminating kf columns of an mf×nf front:
  // 4·k·m·n − 2·k²·(m+n) + (4/3)·k³ (reduces to 2n²(m−n/3) at k = n).
  const double f = 4.0 * kf * mf * nf - 2.0 * kf * kf * (mf + nf) + (4.0 / 3.0) * kf * kf * kf;
  return std::max(f, 0.0);
}

void SymbolicAnalysis::self_check(std::size_t n_cols) const {
  std::vector<bool> seen(n_cols, false);
  for (const Front& f : fronts) {
    for (std::uint32_t c : f.cols) {
      MP_CHECK(c < n_cols && !seen[c]);
      seen[c] = true;
    }
  }
  for (bool b : seen) MP_CHECK(b);
  for (std::size_t fi = 0; fi < fronts.size(); ++fi) {
    const Front& f = fronts[fi];
    if (f.parent != fi) {
      MP_CHECK(f.parent > fi && f.parent < fronts.size());
      const auto& pc = fronts[f.parent].children;
      MP_CHECK(std::find(pc.begin(), pc.end(), fi) != pc.end());
    }
    for (std::uint32_t c : f.children) MP_CHECK(c < fi);
    // Border columns are strictly greater than every pivot (post-order ids).
  }
}

SymbolicAnalysis analyze(const SparseMatrix& a, AnalysisOptions opts) {
  MP_CHECK(opts.max_front_cols >= 1);
  SymbolicAnalysis out;
  out.etree_parent = column_etree(a);
  out.post = postorder(out.etree_parent);
  const std::size_t n = a.cols;

  // Relabel columns by post-order rank; the etree is preserved under its own
  // post-order, and fronts then own consecutive column ranges.
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t i = 0; i < n; ++i) rank[out.post[i]] = i;
  std::vector<std::uint32_t> parent_r(n);  // parent in rank space
  std::vector<std::uint32_t> parent_key(n, kNone);
  for (std::uint32_t j = 0; j < n; ++j) {
    const std::uint32_t pj = out.etree_parent[j];
    parent_r[rank[j]] = (pj == j) ? rank[j] : rank[pj];
    if (pj != j) parent_key[rank[j]] = rank[pj];
  }
  const Groups etree_children = group_by(parent_key, n);

  // Row patterns in rank space: visiting the columns in rank order appends
  // every row's entries already sorted, so a row's first entry is its
  // leftmost column.
  Groups rows;
  rows.ptr.assign(a.rows + 1, 0);
  for (std::uint32_t r : a.row_idx) ++rows.ptr[r + 1];
  for (std::size_t r = 0; r < a.rows; ++r) rows.ptr[r + 1] += rows.ptr[r];
  rows.idx.resize(a.nnz());
  {
    std::vector<std::size_t> cursor(rows.ptr.begin(), rows.ptr.end() - 1);
    for (std::uint32_t jr = 0; jr < n; ++jr) {
      const std::uint32_t j = out.post[jr];
      for (std::size_t k = a.col_ptr[j]; k < a.col_ptr[j + 1]; ++k)
        rows.idx[cursor[a.row_idx[k]]++] = jr;
    }
  }
  std::vector<std::uint32_t> leftmost(a.rows, kNone);
  for (std::size_t r = 0; r < a.rows; ++r)
    if (rows.size(r) > 0) leftmost[r] = rows[r].front();
  const Groups rows_by_leftmost = group_by(leftmost, n);

  // Single post-order sweep: supernode amalgamation into the single open
  // front, and front row counts from assembled rows + closed children
  // fronts' contribution blocks (registered against the parent *column*).
  // Fronts are fundamental chains: a column joins the open front when it is
  // the etree parent of the front's last column and has no other child, up
  // to max_front_cols pivots.
  std::vector<Front>& fronts = out.fronts;
  std::vector<std::uint32_t> front_of(n, kNone);
  std::vector<std::size_t> pending_cb(n, 0);  // per parent column
  std::vector<std::vector<std::uint32_t>> pending_children(n);
  std::vector<std::uint32_t> in_border(n, kNone);  // == front index: x is in its border

  auto close_front = [&]() {
    if (fronts.empty()) return;
    const auto fi = static_cast<std::uint32_t>(fronts.size() - 1);
    Front& f = fronts.back();
    const std::uint32_t last = f.cols.back();
    // The front's border is border(last), the entries > last of its
    // assembled rows and its child fronts' borders (a front is an etree
    // chain). It equals the union of its columns' borders above last,
    // because border(c) \ {parent(c)} ⊆ border(parent(c)).
    auto add = [&](std::uint32_t x) {
      if (x <= last || in_border[x] == fi) return;
      in_border[x] = fi;
      f.border.push_back(x);
    };
    for (std::uint32_t c : f.cols)
      for (std::uint32_t r : rows_by_leftmost[c])
        for (std::uint32_t x : rows[r]) add(x);
    for (std::uint32_t ch : f.children)
      for (std::uint32_t x : fronts[ch].border) add(x);
    std::sort(f.border.begin(), f.border.end());
    MP_CHECK_MSG(f.border.empty() ? parent_r[last] == last : f.border.front() == parent_r[last],
                 "the first border column must be the etree parent");
    // Staircase-aware flops: a row participates only from the pivot at
    // which it enters the front (child CB rows enter with their parent
    // column, original rows with their leftmost pivot).
    double flops = 0.0;
    double rows_in = 0.0;
    const double nf = static_cast<double>(f.n());
    f.rows_at_pivot.reserve(f.cols.size());
    for (std::size_t i = 0; i < f.cols.size(); ++i) {
      const std::uint32_t c = f.cols[i];
      rows_in += static_cast<double>(rows_by_leftmost.size(c) + pending_cb[c]);
      f.rows_at_pivot.push_back(static_cast<std::uint32_t>(rows_in));
      const double active = rows_in - static_cast<double>(i);
      if (active <= 0.0) continue;
      const double trailing = nf - static_cast<double>(i);
      // One Householder step: form reflector (~2·active) + apply to the
      // trailing columns (~4·active each).
      flops += 4.0 * active * trailing;
    }
    f.staircase_flops = std::min(flops, f.dense_flops());
    out.total_flops += f.flops();
    // Register the contribution block against the parent column.
    const std::uint32_t p = parent_r[last];
    if (p != last) {
      pending_cb[p] += f.cb_rows();
      pending_children[p].push_back(fi);
    }
  };

  for (std::uint32_t j = 0; j < n; ++j) {
    bool extend = false;
    if (!fronts.empty()) {
      const std::uint32_t last = fronts.back().cols.back();
      extend = parent_r[last] == j && etree_children.size(j) == 1 &&
               fronts.back().cols.size() < opts.max_front_cols;
    }
    if (!extend) {
      close_front();
      fronts.emplace_back();
    }
    Front& f = fronts.back();
    f.cols.push_back(j);
    front_of[j] = static_cast<std::uint32_t>(fronts.size() - 1);
    f.m += rows_by_leftmost.size(j) + pending_cb[j];
    for (std::uint32_t cf : pending_children[j]) f.children.push_back(cf);
    pending_children[j].clear();
  }
  close_front();

  // Front tree parents (children were attached as fronts closed).
  for (std::size_t fi = 0; fi < fronts.size(); ++fi) {
    Front& f = fronts[fi];
    const std::uint32_t last = f.cols.back();
    const std::uint32_t p = parent_r[last];
    f.parent = (p == last) ? static_cast<std::uint32_t>(fi) : front_of[p];
  }
  out.self_check(n);
  return out;
}

}  // namespace mp::sqr
