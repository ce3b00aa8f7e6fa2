// Row-major dense matrix used for factor matrices (m×k) and the small k×k
// normal-equation systems.
#pragma once

#include <span>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace alsmf {

class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, real fill = real{0})
      : rows_(rows),
        cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              fill) {
    ALSMF_CHECK(rows >= 0 && cols >= 0);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  real& operator()(index_t r, index_t c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  real operator()(index_t r, index_t c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  /// Contiguous view of row r.
  std::span<real> row(index_t r) {
    return {data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
            static_cast<std::size_t>(cols_)};
  }
  std::span<const real> row(index_t r) const {
    return {data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
            static_cast<std::size_t>(cols_)};
  }

  real* data() { return data_.data(); }
  const real* data() const { return data_.data(); }

  void fill(real v) { std::fill(data_.begin(), data_.end(), v); }

  /// Fills with uniform values in [lo, hi) — the paper initializes Y with
  /// small random numbers before the first X update.
  void fill_uniform(Rng& rng, real lo, real hi) {
    for (auto& v : data_) v = static_cast<real>(rng.uniform(lo, hi));
  }

  /// Frobenius norm squared.
  double frob2() const {
    double s = 0.0;
    for (auto v : data_) s += static_cast<double>(v) * static_cast<double>(v);
    return s;
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  aligned_vector<real> data_;
};

/// Max |a-b| over all entries; requires equal shapes.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Rows per register-blocked pass of accumulate_gram. Callers that gather
/// row pointers collect this many at a time.
inline constexpr std::size_t kGramBlockRows = 64;

/// The one Gram accumulator behind every normal-equation assembly. Over the
/// block of rows y_p (k reals each) it adds Σ_p y_p y_pᵀ into the upper
/// triangle (j ≥ i) of `gram` (k×k, row-major) and, when `rhs` is not null,
/// Σ_p w_p y_p into `rhs` (k reals; `weights` holds w_p).
///
/// It walks the triangle in tiles of at most 4×4 and keeps each tile's
/// sums in locals across up to kGramBlockRows rows, so the k×k array is
/// touched once per tile per block instead of once per row.
///
/// Order contract: every element starts from the value already in `gram`
/// (or `rhs`) and adds y_p[i]·y_p[j] (or w_p·y_p[i]) for p = 0…n−1 in that
/// order, each as a separate multiply and add. The result is bitwise that
/// of a one-row-at-a-time loop, whatever the tiling or the split of the
/// rows into calls. The lower triangle is neither read nor written.
void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     int k, real* gram, real* rhs);

/// Same, over `n` rows stored back to back from `rows` (row p at rows + p·k).
void accumulate_gram(const real* rows, std::size_t n, const real* weights,
                     int k, real* gram, real* rhs);

/// Adds λ to the diagonal of `gram` (k×k) and mirrors its upper triangle
/// into the lower one.
void finalize_gram(real lambda, int k, real* gram);

/// C = Aᵀ·A + λI for row-major A (n×k): the full Gram matrix (k×k, row-major
/// into `out`, which must hold k*k reals), summed by accumulate_gram.
void gram_full(const Matrix& a, real lambda, real* out);

/// y = Aᵀ·x for row-major A (n×k), x (n): out must hold k reals.
void atx(const Matrix& a, std::span<const real> x, real* out);

}  // namespace alsmf
