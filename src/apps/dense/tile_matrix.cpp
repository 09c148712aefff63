#include "apps/dense/tile_matrix.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mp::dense {

TileMatrix::TileMatrix(std::size_t tiles, std::size_t nb, bool allocate)
    : t_(tiles), nb_(nb) {
  MP_CHECK(tiles > 0 && nb > 0);
  if (allocate) storage_.assign(t_ * t_ * nb_ * nb_, 0.0);
}

double* TileMatrix::tile(std::size_t i, std::size_t j) {
  MP_CHECK(allocated() && i < t_ && j < t_);
  return storage_.data() + (j * t_ + i) * nb_ * nb_;
}

const double* TileMatrix::tile(std::size_t i, std::size_t j) const {
  MP_CHECK(allocated() && i < t_ && j < t_);
  return storage_.data() + (j * t_ + i) * nb_ * nb_;
}

void TileMatrix::register_handles(TaskGraph& graph) {
  MP_CHECK_MSG(handles_.empty(), "handles already registered");
  handles_.reserve(t_ * t_);
  for (std::size_t j = 0; j < t_; ++j) {
    for (std::size_t i = 0; i < t_; ++i) {
      void* ptr = allocated() ? static_cast<void*>(tile(i, j)) : nullptr;
      handles_.push_back(graph.add_data(tile_bytes(), ptr));
    }
  }
}

DataId TileMatrix::handle(std::size_t i, std::size_t j) const {
  MP_CHECK(!handles_.empty() && i < t_ && j < t_);
  return handles_[j * t_ + i];
}

void TileMatrix::fill_random(std::uint64_t seed) {
  MP_CHECK(allocated());
  Rng rng(seed);
  for (double& v : storage_) v = rng.next_real(-1.0, 1.0);
}

void TileMatrix::fill_spd(std::uint64_t seed) {
  fill_random(seed);
  // Symmetrize and shift in place, tile by tile: A := (A + Aᵀ)/2 + n·I.
  // Entry (a, b) of tile (ti, tj) pairs with entry (b, a) of tile (tj, ti).
  const double shift = static_cast<double>(n());
  for (std::size_t tj = 0; tj < t_; ++tj) {
    for (std::size_t ti = 0; ti < tj; ++ti) {
      double* upper = tile(ti, tj);
      double* lower = tile(tj, ti);
      for (std::size_t b = 0; b < nb_; ++b)
        for (std::size_t a = 0; a < nb_; ++a) {
          const double s = 0.5 * (upper[b * nb_ + a] + lower[a * nb_ + b]);
          upper[b * nb_ + a] = s;
          lower[a * nb_ + b] = s;
        }
    }
    double* diag = tile(tj, tj);
    for (std::size_t b = 0; b < nb_; ++b) {
      for (std::size_t a = 0; a < b; ++a) {
        const double s = 0.5 * (diag[b * nb_ + a] + diag[a * nb_ + b]);
        diag[b * nb_ + a] = s;
        diag[a * nb_ + b] = s;
      }
      diag[b * nb_ + b] += shift;
    }
  }
}

void TileMatrix::fill_diag_dominant(std::uint64_t seed) {
  fill_random(seed);
  const double shift = static_cast<double>(n());
  for (std::size_t t = 0; t < t_; ++t) {
    double* diag = tile(t, t);
    for (std::size_t b = 0; b < nb_; ++b) diag[b * nb_ + b] += shift;
  }
}

std::vector<double> TileMatrix::to_full() const {
  MP_CHECK(allocated());
  const std::size_t n = this->n();
  std::vector<double> full(n * n);
  for (std::size_t tj = 0; tj < t_; ++tj)
    for (std::size_t ti = 0; ti < t_; ++ti) {
      const double* src = tile(ti, tj);
      for (std::size_t j = 0; j < nb_; ++j)
        for (std::size_t i = 0; i < nb_; ++i)
          full[(tj * nb_ + j) * n + ti * nb_ + i] = src[j * nb_ + i];
    }
  return full;
}

void TileMatrix::from_full(const std::vector<double>& full) {
  MP_CHECK(allocated());
  const std::size_t n = this->n();
  MP_CHECK(full.size() == n * n);
  for (std::size_t tj = 0; tj < t_; ++tj)
    for (std::size_t ti = 0; ti < t_; ++ti) {
      double* dst = tile(ti, tj);
      for (std::size_t j = 0; j < nb_; ++j)
        for (std::size_t i = 0; i < nb_; ++i)
          dst[j * nb_ + i] = full[(tj * nb_ + j) * n + ti * nb_ + i];
    }
}

}  // namespace mp::dense
