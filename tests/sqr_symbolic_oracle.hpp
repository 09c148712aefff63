// The per-column symbolic QR analysis that the one-pass sqr::analyze in
// src/apps/sparseqr/symbolic.cpp replaced, kept as the field-by-field
// oracle for tests. It materialises every column's R border (one merge per
// assembled row and per etree child) and unions those borders a second time
// into each front, so its cost grows with nnz(R); use it on small matrices.
// It also checks the lemma that makes fronts fundamental chains: when a
// column j has the front's last column as its only etree child,
// border(last) \ {j} ⊆ border(j), so no border-size rule could refuse j.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "apps/sparseqr/symbolic.hpp"
#include "common/check.hpp"

namespace mp::sqr::oracle {

/// Post-order by iterative DFS over per-node child vectors (children in
/// ascending id order).
inline std::vector<std::uint32_t> postorder(const std::vector<std::uint32_t>& parent) {
  const std::size_t n = parent.size();
  std::vector<std::vector<std::uint32_t>> children(n);
  std::vector<std::uint32_t> roots;
  for (std::uint32_t j = 0; j < n; ++j) {
    if (parent[j] == j) {
      roots.push_back(j);
    } else {
      MP_CHECK_MSG(parent[j] > j, "etree parents must follow children");
      children[parent[j]].push_back(j);
    }
  }
  std::vector<std::uint32_t> post;
  post.reserve(n);
  struct Item {
    std::uint32_t node;
    std::uint32_t next_child;
  };
  std::vector<Item> stack;
  for (std::uint32_t r : roots) {
    stack.push_back({r, 0});
    while (!stack.empty()) {
      Item& top = stack.back();
      if (top.next_child < children[top.node].size()) {
        const std::uint32_t c = children[top.node][top.next_child++];
        stack.push_back({c, 0});
      } else {
        post.push_back(top.node);
        stack.pop_back();
      }
    }
  }
  MP_CHECK(post.size() == n);
  return post;
}

inline SymbolicAnalysis analyze(const SparseMatrix& a, AnalysisOptions opts = {}) {
  MP_CHECK(opts.max_front_cols >= 1);
  SymbolicAnalysis out;
  out.etree_parent = column_etree(a);
  out.post = oracle::postorder(out.etree_parent);
  const std::size_t n = a.cols;
  constexpr std::uint32_t kNone = 0xffffffffu;

  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t i = 0; i < n; ++i) rank[out.post[i]] = i;
  std::vector<std::uint32_t> parent_r(n);
  std::vector<std::uint32_t> n_children(n, 0);
  for (std::uint32_t j = 0; j < n; ++j) {
    const std::uint32_t pj = out.etree_parent[j];
    parent_r[rank[j]] = (pj == j) ? rank[j] : rank[pj];
  }
  std::vector<std::vector<std::uint32_t>> etree_children(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    if (parent_r[j] != j) {
      ++n_children[parent_r[j]];
      etree_children[parent_r[j]].push_back(j);
    }
  }

  const SparseMatrix at = a.transposed();
  std::vector<std::vector<std::uint32_t>> rows_by_leftmost(n);
  std::vector<std::vector<std::uint32_t>> row_pattern(a.rows);
  for (std::size_t r = 0; r < a.rows; ++r) {
    const std::size_t b = at.col_ptr[r];
    const std::size_t e = at.col_ptr[r + 1];
    if (b == e) continue;
    auto& pat = row_pattern[r];
    pat.reserve(e - b);
    for (std::size_t k = b; k < e; ++k) pat.push_back(rank[at.row_idx[k]]);
    std::sort(pat.begin(), pat.end());
    rows_by_leftmost[pat.front()].push_back(static_cast<std::uint32_t>(r));
  }

  std::vector<Front>& fronts = out.fronts;
  std::vector<std::uint32_t> front_of(n, kNone);
  std::vector<std::vector<std::uint32_t>> col_border(n);
  std::vector<std::size_t> col_border_size(n, 0);
  std::vector<std::size_t> col_rows(n, 0);
  std::vector<std::size_t> pending_cb(n, 0);
  std::vector<std::vector<std::uint32_t>> pending_children(n);
  std::vector<std::uint32_t> front_union;
  std::vector<std::uint32_t> merged;
  std::vector<std::uint32_t> tmp;

  auto merge_into = [&tmp](std::vector<std::uint32_t>& dst,
                           const std::vector<std::uint32_t>& src) {
    tmp.clear();
    std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                   std::back_inserter(tmp));
    dst.swap(tmp);
  };

  auto close_front = [&]() {
    if (fronts.empty()) return;
    Front& f = fronts.back();
    const std::uint32_t last = f.cols.back();
    f.border.clear();
    for (std::uint32_t x : front_union)
      if (x > last) f.border.push_back(x);
    double flops = 0.0;
    double rows_in = 0.0;
    const double nf = static_cast<double>(f.n());
    f.rows_at_pivot.reserve(f.cols.size());
    for (std::size_t i = 0; i < f.cols.size(); ++i) {
      const std::uint32_t c = f.cols[i];
      rows_in += static_cast<double>(col_rows[c] + pending_cb[c]);
      f.rows_at_pivot.push_back(static_cast<std::uint32_t>(rows_in));
      const double active = rows_in - static_cast<double>(i);
      if (active <= 0.0) continue;
      const double trailing = nf - static_cast<double>(i);
      flops += 4.0 * active * trailing;
    }
    f.staircase_flops = std::min(flops, f.dense_flops());
    out.total_flops += f.flops();
    const std::uint32_t p = parent_r[last];
    if (p != last) {
      pending_cb[p] += f.cb_rows();
      pending_children[p].push_back(static_cast<std::uint32_t>(fronts.size() - 1));
    }
  };

  for (std::uint32_t j = 0; j < n; ++j) {
    merged.clear();
    merged.push_back(j);
    for (std::uint32_t r : rows_by_leftmost[j]) {
      merge_into(merged, row_pattern[r]);
      ++col_rows[j];
    }
    for (std::uint32_t c : etree_children[j]) {
      merge_into(merged, col_border[c]);
      col_border[c].clear();
      col_border[c].shrink_to_fit();
    }
    auto& bj = col_border[j];
    bj.clear();
    for (std::uint32_t x : merged)
      if (x > j) bj.push_back(x);
    col_border_size[j] = bj.size();

    bool extend = false;
    if (!fronts.empty()) {
      const std::uint32_t last = fronts.back().cols.back();
      if (parent_r[last] == j && n_children[j] == 1) {
        MP_CHECK_MSG(col_border_size[last] <= bj.size() + 1,
                     "a single child's border exceeds its parent's border plus the parent");
        extend = fronts.back().cols.size() < opts.max_front_cols;
      }
    }
    if (!extend) {
      close_front();
      fronts.emplace_back();
      front_union.clear();
    }
    Front& f = fronts.back();
    f.cols.push_back(j);
    front_of[j] = static_cast<std::uint32_t>(fronts.size() - 1);
    merge_into(front_union, bj);
    f.m += col_rows[j] + pending_cb[j];
    for (std::uint32_t cf : pending_children[j]) f.children.push_back(cf);
    pending_children[j].clear();
  }
  close_front();

  for (std::size_t fi = 0; fi < fronts.size(); ++fi) {
    Front& f = fronts[fi];
    const std::uint32_t last = f.cols.back();
    const std::uint32_t p = parent_r[last];
    f.parent = (p == last) ? static_cast<std::uint32_t>(fi) : front_of[p];
  }
  out.self_check(n);
  return out;
}

}  // namespace mp::sqr::oracle
