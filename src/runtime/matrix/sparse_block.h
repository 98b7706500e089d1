#ifndef SYSDS_RUNTIME_MATRIX_SPARSE_BLOCK_H_
#define SYSDS_RUNTIME_MATRIX_SPARSE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sysds {

/// One row of a sparse matrix in MCSR layout: sorted column indexes plus
/// values. Kept simple (two parallel vectors) for cache-friendly scans.
class SparseRow {
 public:
  int64_t Size() const { return static_cast<int64_t>(indexes_.size()); }
  bool Empty() const { return indexes_.empty(); }

  const int64_t* Indexes() const { return indexes_.data(); }
  const double* Values() const { return values_.data(); }
  int64_t* MutableIndexes() { return indexes_.data(); }
  double* MutableValues() { return values_.data(); }

  /// Appends a nonzero with column index >= all existing ones (fast path
  /// for readers and kernels that produce sorted output).
  void Append(int64_t col, double val) {
    indexes_.push_back(col);
    values_.push_back(val);
  }

  /// Sets (insert/update/delete-on-zero) maintaining sorted order.
  void Set(int64_t col, double val);

  /// Returns the value at the column, or 0 if not present.
  double Get(int64_t col) const;

  void Clear() {
    indexes_.clear();
    values_.clear();
  }

  void Reserve(int64_t n) {
    indexes_.reserve(n);
    values_.reserve(n);
  }

  /// Sets the row to `n` entries for bulk fill through MutableIndexes()
  /// and MutableValues() (readers deserialize a whole row in place). New
  /// entries are zero; the caller writes sorted column indexes.
  void Resize(int64_t n) {
    indexes_.resize(static_cast<size_t>(n));
    values_.resize(static_cast<size_t>(n));
  }

  /// Sorts entries by column index (for kernels that append out of order).
  void SortByIndex();

 private:
  std::vector<int64_t> indexes_;
  std::vector<double> values_;
};

/// Modified-CSR sparse block: a vector of independently grown rows. This is
/// SystemDS's default sparse format for incremental updates; conversion to a
/// contiguous CSR view is provided for read-heavy kernels.
class SparseBlock {
 public:
  SparseBlock() = default;
  explicit SparseBlock(int64_t rows) : rows_(rows) {}

  void Reset(int64_t rows) {
    rows_.assign(static_cast<size_t>(rows), SparseRow());
  }

  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }

  SparseRow& Row(int64_t r) { return rows_[static_cast<size_t>(r)]; }
  const SparseRow& Row(int64_t r) const { return rows_[static_cast<size_t>(r)]; }

  int64_t CountNonZeros() const;

 private:
  std::vector<SparseRow> rows_;
};

}  // namespace sysds

#endif  // SYSDS_RUNTIME_MATRIX_SPARSE_BLOCK_H_
