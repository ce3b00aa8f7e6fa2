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

/// Rows per register-blocked pass of accumulate_gram and
/// accumulate_products. Callers that gather row pointers collect this many
/// at a time.
inline constexpr std::size_t kGramBlockRows = 64;

// Gram sums come in two forms under one order contract: every element
// starts from the value already stored and adds its products for
// p = 0…n−1 in that order, each product rounded once and added once.
//
//  * accumulate_gram multiplies each product as it adds it;
//  * accumulate_products adds products that a ProductTable multiplied
//    earlier, once per source row instead of once per rating.
//
// A product rounds the same whether it is formed inside the sum or before
// it, and neither form fuses the multiply into the add (the build passes
// -ffp-contract=off), so both forms give bitwise the same sums.

/// The direct form, behind every normal-equation assembly that has no
/// product table. Over the block of rows y_p (k reals each) it adds
/// Σ_p y_p y_pᵀ into the upper triangle (j ≥ i) of `gram` (k×k, row-major)
/// and, when `rhs` is not null, Σ_p w_p y_p into `rhs` (k reals; `weights`
/// holds w_p).
///
/// It walks the triangle in tiles of at most 4×4 and keeps each tile's
/// sums in locals across up to kGramBlockRows rows, so the k×k array is
/// touched once per tile per block instead of once per row.
///
/// Order contract (above): each element adds y_p[i]·y_p[j] (or w_p·y_p[i])
/// as a separate multiply and add. The result is bitwise that of a
/// one-row-at-a-time loop, whatever the tiling or the split of the rows
/// into calls. The lower triangle is neither read nor written.
void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     int k, real* gram, real* rhs);

/// Same, over `n` rows stored back to back from `rows` (row p at rows + p·k).
void accumulate_gram(const real* rows, std::size_t n, const real* weights,
                     int k, real* gram, real* rhs);

/// The gathered form with one matrix weight m_p per row in `gram_weights`:
/// the Gram part becomes Σ_p m_p y_p y_pᵀ (implicit ALS's confidence term,
/// with m_p = c_p − 1). The weight scales the column-side element first,
/// so element (i, j ≥ i) adds y_p[i]·(m_p·y_p[j]): one more rounding, then
/// the order contract above. That is bitwise the lower element (j, i) of a
/// full-square loop adding (m_p·y_p[j])·y_p[i], so finalize_gram's mirror
/// reproduces such a loop. A ProductTable cannot serve this form: its
/// pre-formed y_p[i]·y_p[j] would round m_p·(y_p[i]·y_p[j]) instead.
void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     const real* gram_weights, int k, real* gram, real* rhs);

/// The products of every row of a factor matrix, formed once so that the
/// Gram sums over many ratings of one row add them instead of multiplying.
/// Row s holds the upper triangle of y_s y_sᵀ packed row by row
/// (y_s[i]·y_s[j] for i ≤ j), zero-padded to whole vectors of 4 reals,
/// followed by y_s itself, zero-padded the same way: summing one rating
/// gathers one row of whole vectors.
class ProductTable {
 public:
  /// Products per row: k(k+1)/2.
  static std::size_t products(int k);
  /// Reals per row: the padded products plus the k values of y_s, padded.
  static std::size_t stride(int k);
  /// Bytes of a table over `rows` rows of k reals.
  static std::size_t bytes(int k, index_t rows);

  /// Fills the table from `y` on the global thread pool. Storage is kept
  /// across builds, so a table rebuilt every half-update allocates only
  /// when it grows.
  void build(const Matrix& y);

  int k() const { return k_; }
  index_t rows() const { return rows_; }
  /// Row s: products first, then y_s at offset y_offset().
  const real* row(index_t s) const {
    return data_.data() + static_cast<std::size_t>(s) * stride_;
  }
  std::size_t y_offset() const;

 private:
  int k_ = 0;
  index_t rows_ = 0;
  std::size_t stride_ = 0;  ///< stride(k_)
  aligned_vector<real> data_;
};

/// The table form. Over the block of table rows t_p of `table` it adds the
/// products of Σ_p y_p y_pᵀ and Σ_p w_p y_p into `acc`, one accumulator laid
/// out like a table row (ProductTable::stride(k) reals): the packed upper
/// triangle at [0, products(k)) and the rhs at [y_offset(), y_offset() + k),
/// each element under the order contract above. The padding gathers sums of
/// zeros. Each sweep holds up to nine whole vectors of the row in registers
/// over the whole block, adding product vectors as they are and y vectors
/// as w_p·y_p, so at k = 10 a block takes two sweeps.
void accumulate_products(std::span<const real* const> rows,
                         const real* weights, const ProductTable& table,
                         real* acc);

/// Moves the packed upper triangle held in the first
/// ProductTable::products(k) reals of `gram` (k×k) to its place in the
/// upper triangle. The lower triangle is left undefined; finalize_gram
/// overwrites it.
void unpack_products(int k, real* gram);

/// Adds λ to the diagonal of `gram` (k×k) and mirrors its upper triangle
/// into the lower one.
void finalize_gram(real lambda, int k, real* gram);

/// C = Aᵀ·A + λI for row-major A (n×k): the full Gram matrix (k×k, row-major
/// into `out`, which must hold k*k reals), summed by accumulate_gram. Every
/// row is used once, so a product table would not pay.
void gram_full(const Matrix& a, real lambda, real* out);

/// y = Aᵀ·x for row-major A (n×k), x (n): out must hold k reals.
void atx(const Matrix& a, std::span<const real> x, real* out);

}  // namespace alsmf
