#include "runtime/compress/compressed_block.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/compress/planner.h"

namespace sysds {

namespace {

// Dictionary domain limit: kDDC2/kRLE/kSDC codes are uint16.
constexpr int64_t kMaxDictSize = 65536;

/// Sequential per-row code access for any encoding. Rows must be visited in
/// ascending order starting from the row passed to the constructor (the
/// row-chunked kernels construct one cursor per chunk).
class CodeCursor {
 public:
  CodeCursor(const ColGroup& g, int64_t start_row) : g_(&g) {
    if (g.encoding == ColEncoding::kRLE) {
      run_ = static_cast<size_t>(
          std::upper_bound(g.run_starts.begin(), g.run_starts.end(),
                           start_row) -
          g.run_starts.begin());
    } else if (g.encoding == ColEncoding::kSDC) {
      pos_ = static_cast<size_t>(
          std::lower_bound(g.sdc_rows.begin(), g.sdc_rows.end(), start_row) -
          g.sdc_rows.begin());
    }
  }

  uint32_t At(int64_t r) {
    switch (g_->encoding) {
      case ColEncoding::kDDC1:
        return g_->codes8[static_cast<size_t>(r)];
      case ColEncoding::kDDC2:
        return g_->codes16[static_cast<size_t>(r)];
      case ColEncoding::kRLE:
        while (run_ < g_->run_starts.size() && g_->run_starts[run_] <= r) {
          ++run_;
        }
        return g_->run_codes[run_ - 1];
      case ColEncoding::kSDC:
        while (pos_ < g_->sdc_rows.size() && g_->sdc_rows[pos_] < r) ++pos_;
        if (pos_ < g_->sdc_rows.size() && g_->sdc_rows[pos_] == r) {
          return g_->sdc_codes[pos_];
        }
        return g_->sdc_default;
      case ColEncoding::kUncompressed:
        break;
    }
    return 0;
  }

 private:
  const ColGroup* g_;
  size_t run_ = 0;
  size_t pos_ = 0;
};

// Calls fn(r, code) for every row in [rb, re) in ascending order with
// encoding-direct access — the group-major alternative to a CodeCursor,
// with no per-row encoding dispatch in the hot loop.
template <typename Fn>
void ForEachRowCode(const ColGroup& g, int64_t rows, int64_t rb, int64_t re,
                    Fn&& fn) {
  switch (g.encoding) {
    case ColEncoding::kDDC1: {
      const uint8_t* codes = g.codes8.data();
      for (int64_t r = rb; r < re; ++r) fn(r, codes[r]);
      break;
    }
    case ColEncoding::kDDC2: {
      const uint16_t* codes = g.codes16.data();
      for (int64_t r = rb; r < re; ++r) fn(r, codes[r]);
      break;
    }
    case ColEncoding::kRLE: {
      size_t run = static_cast<size_t>(
          std::upper_bound(g.run_starts.begin(), g.run_starts.end(), rb) -
          g.run_starts.begin());
      int64_t r = rb;
      while (r < re) {
        const uint32_t k = g.run_codes[run - 1];
        const int64_t run_end =
            run < g.run_starts.size() ? g.run_starts[run] : rows;
        const int64_t stop = std::min(re, run_end);
        for (; r < stop; ++r) fn(r, k);
        ++run;
      }
      break;
    }
    case ColEncoding::kSDC: {
      size_t pos = static_cast<size_t>(
          std::lower_bound(g.sdc_rows.begin(), g.sdc_rows.end(), rb) -
          g.sdc_rows.begin());
      const uint32_t def = g.sdc_default;
      for (int64_t r = rb; r < re; ++r) {
        if (pos < g.sdc_rows.size() && g.sdc_rows[pos] == r) {
          fn(r, static_cast<uint32_t>(g.sdc_codes[pos]));
          ++pos;
        } else {
          fn(r, def);
        }
      }
      break;
    }
    case ColEncoding::kUncompressed:
      break;
  }
}

// Occurrences per dictionary code — O(runs) for RLE and O(exceptions) for
// SDC, which is where value-indexed aggregation gets its asymptotic win.
std::vector<int64_t> GroupCodeCounts(const ColGroup& g, int64_t rows) {
  std::vector<int64_t> counts(static_cast<size_t>(g.NumValues()), 0);
  switch (g.encoding) {
    case ColEncoding::kDDC1:
      for (uint8_t c : g.codes8) ++counts[c];
      break;
    case ColEncoding::kDDC2:
      for (uint16_t c : g.codes16) ++counts[c];
      break;
    case ColEncoding::kRLE:
      for (size_t i = 0; i < g.run_starts.size(); ++i) {
        int64_t end = i + 1 < g.run_starts.size() ? g.run_starts[i + 1] : rows;
        counts[g.run_codes[i]] += end - g.run_starts[i];
      }
      break;
    case ColEncoding::kSDC:
      for (uint16_t c : g.sdc_codes) ++counts[c];
      counts[g.sdc_default] += rows - static_cast<int64_t>(g.sdc_rows.size());
      break;
    case ColEncoding::kUncompressed:
      break;
  }
  return counts;
}

// Builds one column group with an exact full scan. The planner's encoding is
// a hint from sampled estimates: NaN anywhere or more than kMaxDictSize
// distinct tuples falls back to an uncompressed group (NaN compares
// equivalent to every key under operator<, so letting it into a double-keyed
// dictionary map silently mis-codes cells), and DDC picks the 1- or 2-byte
// tier from the true distinct count.
ColGroup BuildGroup(const MatrixBlock& m, const PlannedGroup& pg,
                    int64_t* nnz_out) {
  const int64_t rows = m.Rows();
  const int64_t ncols = static_cast<int64_t>(pg.cols.size());
  ColGroup g;
  g.cols = pg.cols;
  g.col_has_nonfinite.assign(static_cast<size_t>(ncols), 0);
  int64_t nnz = 0;

  bool fallback = pg.encoding == ColEncoding::kUncompressed;
  std::vector<uint32_t> codes;
  std::vector<double> dict;
  if (!fallback) {
    codes.resize(static_cast<size_t>(rows));
    if (ncols == 1) {
      const int64_t col = pg.cols[0];
      std::map<double, uint32_t> dmap;
      for (int64_t r = 0; r < rows; ++r) {
        double v = m.Get(r, col);
        if (std::isnan(v)) {
          fallback = true;
          break;
        }
        auto ins = dmap.emplace(v, static_cast<uint32_t>(dmap.size()));
        if (ins.second) {
          if (static_cast<int64_t>(dmap.size()) > kMaxDictSize) {
            fallback = true;
            break;
          }
          dict.push_back(v);
        }
        codes[static_cast<size_t>(r)] = ins.first->second;
      }
    } else {
      std::map<std::vector<double>, uint32_t> dmap;
      std::vector<double> tuple(static_cast<size_t>(ncols));
      for (int64_t r = 0; r < rows && !fallback; ++r) {
        for (int64_t j = 0; j < ncols; ++j) {
          double v = m.Get(r, pg.cols[static_cast<size_t>(j)]);
          if (std::isnan(v)) {
            fallback = true;
            break;
          }
          tuple[static_cast<size_t>(j)] = v;
        }
        if (fallback) break;
        auto ins = dmap.emplace(tuple, static_cast<uint32_t>(dmap.size()));
        if (ins.second) {
          if (static_cast<int64_t>(dmap.size()) > kMaxDictSize) {
            fallback = true;
            break;
          }
          dict.insert(dict.end(), tuple.begin(), tuple.end());
        }
        codes[static_cast<size_t>(r)] = ins.first->second;
      }
    }
  }

  if (fallback) {
    g.encoding = ColEncoding::kUncompressed;
    g.values.resize(static_cast<size_t>(ncols * rows));
    for (int64_t j = 0; j < ncols; ++j) {
      const int64_t col = pg.cols[static_cast<size_t>(j)];
      double* dst = g.values.data() + j * rows;
      bool nonfinite = false;
      for (int64_t r = 0; r < rows; ++r) {
        double v = m.Get(r, col);
        dst[r] = v;
        nnz += (v != 0.0);
        nonfinite |= !std::isfinite(v);
      }
      g.col_has_nonfinite[static_cast<size_t>(j)] = nonfinite ? 1 : 0;
    }
    *nnz_out = nnz;
    return g;
  }

  const int64_t d = static_cast<int64_t>(dict.size()) / std::max<int64_t>(
                        1, ncols);
  g.dict = std::move(dict);
  // Nonfinite flags and per-tuple nonzero counts come from the dictionary
  // alone — it covers every cell value of the group.
  std::vector<int32_t> tuple_nnz(static_cast<size_t>(d), 0);
  for (int64_t k = 0; k < d; ++k) {
    for (int64_t j = 0; j < ncols; ++j) {
      double v = g.dict[static_cast<size_t>(k * ncols + j)];
      if (!std::isfinite(v)) g.col_has_nonfinite[static_cast<size_t>(j)] = 1;
      tuple_nnz[static_cast<size_t>(k)] += (v != 0.0);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    nnz += tuple_nnz[codes[static_cast<size_t>(r)]];
  }

  if (pg.encoding == ColEncoding::kRLE && ncols == 1) {
    g.encoding = ColEncoding::kRLE;
    for (int64_t r = 0; r < rows; ++r) {
      uint32_t c = codes[static_cast<size_t>(r)];
      if (g.run_codes.empty() || g.run_codes.back() != c) {
        g.run_starts.push_back(r);
        g.run_codes.push_back(static_cast<uint16_t>(c));
      }
    }
  } else if (pg.encoding == ColEncoding::kSDC && ncols == 1) {
    g.encoding = ColEncoding::kSDC;
    std::vector<int64_t> counts(static_cast<size_t>(d), 0);
    for (uint32_t c : codes) ++counts[c];
    g.sdc_default = static_cast<uint16_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    for (int64_t r = 0; r < rows; ++r) {
      uint32_t c = codes[static_cast<size_t>(r)];
      if (c != g.sdc_default) {
        g.sdc_rows.push_back(r);
        g.sdc_codes.push_back(static_cast<uint16_t>(c));
      }
    }
  } else if (d <= 256) {
    g.encoding = ColEncoding::kDDC1;
    g.codes8.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      g.codes8[static_cast<size_t>(r)] =
          static_cast<uint8_t>(codes[static_cast<size_t>(r)]);
    }
  } else {
    g.encoding = ColEncoding::kDDC2;
    g.codes16.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      g.codes16[static_cast<size_t>(r)] =
          static_cast<uint16_t>(codes[static_cast<size_t>(r)]);
    }
  }
  *nnz_out = nnz;
  return g;
}

}  // namespace

const char* ColEncodingName(ColEncoding e) {
  switch (e) {
    case ColEncoding::kUncompressed:
      return "uncompressed";
    case ColEncoding::kDDC1:
      return "ddc1";
    case ColEncoding::kDDC2:
      return "ddc2";
    case ColEncoding::kRLE:
      return "rle";
    case ColEncoding::kSDC:
      return "sdc";
  }
  return "?";
}

int64_t ColGroup::SizeInBytes() const {
  return 64 + static_cast<int64_t>(dict.size()) * 8 +
         static_cast<int64_t>(codes8.size()) +
         static_cast<int64_t>(codes16.size()) * 2 +
         static_cast<int64_t>(run_starts.size()) * 10 +
         static_cast<int64_t>(sdc_rows.size()) * 10 +
         static_cast<int64_t>(values.size()) * 8 +
         static_cast<int64_t>(col_has_nonfinite.size());
}

StatusOr<ColGroup> BuildDdcGroupFromCodes(std::vector<int64_t> cols,
                                          std::vector<double> dict,
                                          const uint16_t* codes, int64_t rows,
                                          int64_t* nnz_out) {
  const int64_t ncols = static_cast<int64_t>(cols.size());
  if (ncols == 0 || dict.empty() || dict.size() % cols.size() != 0) {
    return InvalidArgument("ddc group: dict must hold whole tuples");
  }
  const int64_t d = static_cast<int64_t>(dict.size()) / ncols;
  if (d > kMaxDictSize) {
    return InvalidArgument("ddc group: dictionary exceeds 65536 tuples");
  }
  ColGroup g;
  g.cols = std::move(cols);
  g.dict = std::move(dict);
  g.col_has_nonfinite.assign(static_cast<size_t>(ncols), 0);
  std::vector<int32_t> tuple_nnz(static_cast<size_t>(d), 0);
  for (int64_t k = 0; k < d; ++k) {
    for (int64_t j = 0; j < ncols; ++j) {
      double v = g.dict[static_cast<size_t>(k * ncols + j)];
      if (!std::isfinite(v)) g.col_has_nonfinite[static_cast<size_t>(j)] = 1;
      tuple_nnz[static_cast<size_t>(k)] += (v != 0.0);
    }
  }
  int64_t nnz = 0;
  if (d <= 256) {
    g.encoding = ColEncoding::kDDC1;
    g.codes8.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      uint16_t c = codes[r];
      if (c >= d) return InvalidArgument("ddc group: code out of range");
      g.codes8[static_cast<size_t>(r)] = static_cast<uint8_t>(c);
      nnz += tuple_nnz[c];
    }
  } else {
    g.encoding = ColEncoding::kDDC2;
    g.codes16.assign(codes, codes + rows);
    for (int64_t r = 0; r < rows; ++r) {
      uint16_t c = codes[r];
      if (c >= d) return InvalidArgument("ddc group: code out of range");
      nnz += tuple_nnz[c];
    }
  }
  *nnz_out += nnz;
  return g;
}

ColGroup BuildUncompressedGroup(std::vector<int64_t> cols,
                                std::vector<double> values, int64_t rows,
                                int64_t* nnz_out) {
  const int64_t ncols = static_cast<int64_t>(cols.size());
  ColGroup g;
  g.encoding = ColEncoding::kUncompressed;
  g.cols = std::move(cols);
  g.values = std::move(values);
  g.col_has_nonfinite.assign(static_cast<size_t>(ncols), 0);
  int64_t nnz = 0;
  for (int64_t j = 0; j < ncols; ++j) {
    const double* src = g.values.data() + j * rows;
    bool nonfinite = false;
    for (int64_t r = 0; r < rows; ++r) {
      nnz += (src[r] != 0.0);
      nonfinite |= !std::isfinite(src[r]);
    }
    g.col_has_nonfinite[static_cast<size_t>(j)] = nonfinite ? 1 : 0;
  }
  *nnz_out += nnz;
  return g;
}

void CompressedMatrixBlock::RebuildColIndex() {
  col_to_group_.assign(static_cast<size_t>(cols_), -1);
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    for (int64_t c : groups_[gi].cols) {
      col_to_group_[static_cast<size_t>(c)] = static_cast<int32_t>(gi);
    }
  }
}

CompressedMatrixBlock CompressedMatrixBlock::Compress(const MatrixBlock& m) {
  CompressionSettings settings;
  return Compress(m, CompressionPlanner::Plan(m, settings), 1);
}

CompressedMatrixBlock CompressedMatrixBlock::Compress(
    const MatrixBlock& m, const CompressionPlan& plan, int num_threads) {
  CompressedMatrixBlock out;
  out.rows_ = m.Rows();
  out.cols_ = m.Cols();
  int64_t ngroups = static_cast<int64_t>(plan.groups.size());
  out.groups_.resize(static_cast<size_t>(ngroups));
  std::vector<int64_t> group_nnz(static_cast<size_t>(ngroups), 0);
  if (ngroups > 0) {
    ThreadPool::Global().ParallelFor(
        0, ngroups, kMaxLoopChunks, [&](int64_t gb, int64_t ge) {
          for (int64_t gi = gb; gi < ge; ++gi) {
            out.groups_[static_cast<size_t>(gi)] =
                BuildGroup(m, plan.groups[static_cast<size_t>(gi)],
                           &group_nnz[static_cast<size_t>(gi)]);
          }
        },
        Imbalance().compress, num_threads);
  }
  out.nnz_ = 0;
  for (int64_t n : group_nnz) out.nnz_ += n;
  out.RebuildColIndex();
  return out;
}

CompressedMatrixBlock CompressedMatrixBlock::FromParts(
    int64_t rows, int64_t cols, int64_t nnz, std::vector<ColGroup> groups) {
  CompressedMatrixBlock out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.nnz_ = nnz;
  out.groups_ = std::move(groups);
  out.RebuildColIndex();
  return out;
}

double CompressedMatrixBlock::CompressionRatio() const {
  double dense = static_cast<double>(rows_) * cols_ * 8;
  int64_t compressed = EstimateSizeInBytes();
  return compressed > 0 ? dense / compressed : 1.0;
}

int64_t CompressedMatrixBlock::EstimateSizeInBytes() const {
  int64_t total = 64;
  for (const ColGroup& g : groups_) total += g.SizeInBytes();
  return total;
}

int64_t CompressedMatrixBlock::NumCompressedColumns() const {
  int64_t n = 0;
  for (const ColGroup& g : groups_) {
    if (g.IsCompressed()) n += g.NumCols();
  }
  return n;
}

bool CompressedMatrixBlock::AllGroupsCompressed() const {
  for (const ColGroup& g : groups_) {
    if (!g.IsCompressed()) return false;
  }
  return true;
}

MatrixBlock CompressedMatrixBlock::Decompress(int num_threads) const {
  MatrixBlock out = MatrixBlock::Dense(rows_, cols_);
  if (rows_ == 0 || cols_ == 0) return out;
  ThreadPool::Global().ParallelFor(
      0, rows_, PickChunks(rows_), [&](int64_t rb, int64_t re) {
        for (const ColGroup& g : groups_) {
          const int64_t c = g.NumCols();
          if (!g.IsCompressed()) {
            for (int64_t j = 0; j < c; ++j) {
              const double* src = g.values.data() + j * rows_;
              const int64_t col = g.cols[static_cast<size_t>(j)];
              for (int64_t r = rb; r < re; ++r) {
                out.DenseRow(r)[col] = src[r];
              }
            }
            continue;
          }
          CodeCursor cursor(g, rb);
          for (int64_t r = rb; r < re; ++r) {
            const double* tuple = g.dict.data() + cursor.At(r) * c;
            double* orow = out.DenseRow(r);
            for (int64_t j = 0; j < c; ++j) {
              orow[g.cols[static_cast<size_t>(j)]] = tuple[j];
            }
          }
        }
      },
      Imbalance().compress, num_threads);
  out.ExamSparsity(nnz_);
  return out;
}

double CompressedMatrixBlock::Get(int64_t r, int64_t c) const {
  const ColGroup& g = groups_[static_cast<size_t>(col_to_group_[c])];
  const int64_t j = c - g.cols[0];  // group columns are contiguous ascending
  if (!g.IsCompressed()) return g.values[static_cast<size_t>(j * rows_ + r)];
  uint32_t code = 0;
  switch (g.encoding) {
    case ColEncoding::kDDC1:
      code = g.codes8[static_cast<size_t>(r)];
      break;
    case ColEncoding::kDDC2:
      code = g.codes16[static_cast<size_t>(r)];
      break;
    case ColEncoding::kRLE: {
      size_t run = static_cast<size_t>(
          std::upper_bound(g.run_starts.begin(), g.run_starts.end(), r) -
          g.run_starts.begin());
      code = g.run_codes[run - 1];
      break;
    }
    case ColEncoding::kSDC: {
      auto it = std::lower_bound(g.sdc_rows.begin(), g.sdc_rows.end(), r);
      code = (it != g.sdc_rows.end() && *it == r)
                 ? g.sdc_codes[static_cast<size_t>(it - g.sdc_rows.begin())]
                 : g.sdc_default;
      break;
    }
    case ColEncoding::kUncompressed:
      break;
  }
  return g.dict[static_cast<size_t>(code * g.NumCols() + j)];
}

double CompressedMatrixBlock::Sum(int num_threads) const {
  int64_t ngroups = static_cast<int64_t>(groups_.size());
  if (ngroups == 0) return 0.0;
  std::vector<double> partials(static_cast<size_t>(ngroups), 0.0);
  ThreadPool::Global().ParallelFor(
      0, ngroups, kMaxLoopChunks, [&](int64_t gb, int64_t ge) {
        for (int64_t gi = gb; gi < ge; ++gi) {
          const ColGroup& g = groups_[static_cast<size_t>(gi)];
          double sum = 0.0;
          if (g.IsCompressed()) {
            std::vector<int64_t> counts = GroupCodeCounts(g, rows_);
            const int64_t c = g.NumCols();
            for (int64_t k = 0; k < static_cast<int64_t>(counts.size());
                 ++k) {
              if (counts[static_cast<size_t>(k)] == 0) continue;
              double tuple_sum = 0.0;
              for (int64_t j = 0; j < c; ++j) {
                tuple_sum += g.dict[static_cast<size_t>(k * c + j)];
              }
              sum += tuple_sum * counts[static_cast<size_t>(k)];
            }
          } else {
            for (double v : g.values) sum += v;
          }
          partials[static_cast<size_t>(gi)] = sum;
        }
      },
      Imbalance().compress, num_threads);
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

MatrixBlock CompressedMatrixBlock::ColSums() const {
  auto result = AggregateCols(AggOpCode::kSum);
  return result.ok() ? std::move(*result) : MatrixBlock::Dense(1, cols_);
}

StatusOr<double> CompressedMatrixBlock::Aggregate(AggOpCode op) const {
  switch (op) {
    case AggOpCode::kSum:
      return Sum();
    case AggOpCode::kMean: {
      int64_t cells = rows_ * cols_;
      return cells > 0 ? Sum() / cells : 0.0;
    }
    case AggOpCode::kNnz:
      return static_cast<double>(nnz_);
    case AggOpCode::kMin:
    case AggOpCode::kMax: {
      if (rows_ == 0 || cols_ == 0) return 0.0;
      // fmin/fmax over occurring dictionary values mirrors CellStats'
      // NaN-ignoring min/max semantics exactly.
      double acc = op == AggOpCode::kMin
                       ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
      for (const ColGroup& g : groups_) {
        if (g.IsCompressed()) {
          std::vector<int64_t> counts = GroupCodeCounts(g, rows_);
          const int64_t c = g.NumCols();
          for (int64_t k = 0; k < static_cast<int64_t>(counts.size()); ++k) {
            if (counts[static_cast<size_t>(k)] == 0) continue;
            for (int64_t j = 0; j < c; ++j) {
              double v = g.dict[static_cast<size_t>(k * c + j)];
              acc = op == AggOpCode::kMin ? std::fmin(acc, v)
                                          : std::fmax(acc, v);
            }
          }
        } else {
          for (double v : g.values) {
            acc = op == AggOpCode::kMin ? std::fmin(acc, v)
                                        : std::fmax(acc, v);
          }
        }
      }
      return acc;
    }
    default:
      return Unimplemented("compress: unsupported aggregate");
  }
}

StatusOr<MatrixBlock> CompressedMatrixBlock::AggregateCols(
    AggOpCode op) const {
  if (op != AggOpCode::kSum && op != AggOpCode::kMean &&
      op != AggOpCode::kMin && op != AggOpCode::kMax &&
      op != AggOpCode::kNnz) {
    return Unimplemented("compress: unsupported column aggregate");
  }
  MatrixBlock out = MatrixBlock::Dense(1, cols_);
  if (cols_ == 0) {
    out.MarkNnzDirty();
    return out;
  }
  double* orow = out.DenseRow(0);
  for (const ColGroup& g : groups_) {
    const int64_t c = g.NumCols();
    std::vector<int64_t> counts;
    if (g.IsCompressed()) counts = GroupCodeCounts(g, rows_);
    for (int64_t j = 0; j < c; ++j) {
      const int64_t col = g.cols[static_cast<size_t>(j)];
      double sum = 0.0, mn = std::numeric_limits<double>::infinity(),
             mx = -std::numeric_limits<double>::infinity();
      int64_t nnz = 0;
      if (g.IsCompressed()) {
        for (int64_t k = 0; k < static_cast<int64_t>(counts.size()); ++k) {
          int64_t cnt = counts[static_cast<size_t>(k)];
          if (cnt == 0) continue;
          double v = g.dict[static_cast<size_t>(k * c + j)];
          sum += v * cnt;
          mn = std::fmin(mn, v);
          mx = std::fmax(mx, v);
          if (v != 0.0) nnz += cnt;
        }
      } else {
        const double* src = g.values.data() + j * rows_;
        for (int64_t r = 0; r < rows_; ++r) {
          double v = src[r];
          sum += v;
          mn = std::fmin(mn, v);
          mx = std::fmax(mx, v);
          nnz += (v != 0.0);
        }
      }
      switch (op) {
        case AggOpCode::kSum:
          orow[col] = sum;
          break;
        case AggOpCode::kMean:
          orow[col] = rows_ > 0 ? sum / rows_ : 0.0;
          break;
        case AggOpCode::kMin:
          orow[col] = rows_ > 0 ? mn : 0.0;
          break;
        case AggOpCode::kMax:
          orow[col] = rows_ > 0 ? mx : 0.0;
          break;
        case AggOpCode::kNnz:
          orow[col] = static_cast<double>(nnz);
          break;
        default:
          break;
      }
    }
  }
  out.MarkNnzDirty();
  return out;
}

StatusOr<MatrixBlock> CompressedMatrixBlock::RightMatMult(
    const MatrixBlock& b, int num_threads) const {
  if (b.Rows() != cols_) {
    return InvalidArgument("compressed matmult dimension mismatch: " +
                           std::to_string(cols_) + " vs " +
                           std::to_string(b.Rows()));
  }
  const int64_t n = b.Cols();
  MatrixBlock out = MatrixBlock::Dense(rows_, n);
  if (rows_ == 0 || n == 0) {
    out.ExamSparsity(0);
    return out;
  }

  // Unified zero-skip rule (shared semantics with the dense GEMM kernels):
  // matrix-side zeros always skip, operand-side all-zero b-rows skip only
  // when the matrix column is finite everywhere. A finite value times zero
  // adds an exact +/-0 that never changes an accumulator, so the skip is
  // bit-preserving — but 0 * Inf must still produce NaN, hence the
  // col_has_nonfinite guard.
  std::vector<uint8_t> brow_zero(static_cast<size_t>(cols_), 0);
  for (int64_t l = 0; l < cols_; ++l) {
    if (b.IsSparse()) {
      brow_zero[static_cast<size_t>(l)] =
          b.SparseData().Row(l).Size() == 0 ? 1 : 0;
    } else {
      const double* brow = b.DenseRow(l);
      bool zero = true;
      for (int64_t q = 0; q < n && zero; ++q) zero = brow[q] == 0.0;
      brow_zero[static_cast<size_t>(l)] = zero ? 1 : 0;
    }
  }
  struct GroupPrep {
    std::vector<int32_t> active;  // local columns that can contribute
    // n==1 dense fast path: per-code compacted add lists. flat holds, for
    // each code in order, the dict*v products of active columns whose dict
    // value is nonzero (ascending j); offs[k]..offs[k+1] delimits code k.
    // Skipping a zero dict value at prep time is the same skip the dense
    // GEMM kernel does per cell, and dict*v is the same product it computes
    // — so replaying a row's list adds the same values in the same order.
    std::vector<double> flat;
    std::vector<int32_t> offs;
  };
  const bool vec_path = n == 1 && !b.IsSparse();
  std::vector<GroupPrep> preps(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const ColGroup& g = groups_[gi];
    GroupPrep& p = preps[gi];
    for (int64_t j = 0; j < g.NumCols(); ++j) {
      int64_t col = g.cols[static_cast<size_t>(j)];
      if (brow_zero[static_cast<size_t>(col)] &&
          !g.col_has_nonfinite[static_cast<size_t>(j)]) {
        continue;
      }
      p.active.push_back(static_cast<int32_t>(j));
    }
    if (vec_path && g.IsCompressed() && !p.active.empty()) {
      const int64_t c = g.NumCols();
      p.offs.reserve(static_cast<size_t>(g.NumValues()) + 1);
      p.offs.push_back(0);
      for (int64_t k = 0; k < g.NumValues(); ++k) {
        for (int32_t j : p.active) {
          double val = g.dict[static_cast<size_t>(k * c + j)];
          if (val == 0.0) continue;
          p.flat.push_back(val *
                           b.DenseRow(g.cols[static_cast<size_t>(j)])[0]);
        }
        p.offs.push_back(static_cast<int32_t>(p.flat.size()));
      }
    }
  }

  // Group-major traversal: each group streams its code array sequentially
  // over the row chunk. Per output accumulator the contribution order is
  // unchanged (groups ascend in column order, columns ascend within a
  // group), so results stay bit-identical to the row-major dense kernel.
  ThreadPool::Global().ParallelFor(
      0, rows_, PickChunks(rows_), [&](int64_t rb, int64_t re) {
        double* odata = vec_path ? out.DenseData() : nullptr;
        for (size_t gi = 0; gi < groups_.size(); ++gi) {
          const ColGroup& g = groups_[gi];
          const GroupPrep& p = preps[gi];
          if (p.active.empty()) continue;
          const int64_t c = g.NumCols();
          if (g.IsCompressed()) {
            if (vec_path) {
              const double* flat = p.flat.data();
              const int32_t* offs = p.offs.data();
              ForEachRowCode(g, rows_, rb, re, [&](int64_t r, uint32_t k) {
                const double* s = flat + offs[k];
                const double* e = flat + offs[k + 1];
                double acc = odata[r];
                for (; s < e; ++s) acc += *s;
                odata[r] = acc;
              });
              continue;
            }
            ForEachRowCode(g, rows_, rb, re, [&](int64_t r, uint32_t k) {
              const double* tuple = g.dict.data() + k * c;
              double* orow = out.DenseRow(r);
              for (int32_t j : p.active) {
                double val = tuple[j];
                if (val == 0.0) continue;
                const int64_t col = g.cols[static_cast<size_t>(j)];
                if (!b.IsSparse()) {
                  const double* brow = b.DenseRow(col);
                  for (int64_t q = 0; q < n; ++q) orow[q] += val * brow[q];
                } else {
                  const SparseRow& brow = b.SparseData().Row(col);
                  for (int64_t q = 0; q < brow.Size(); ++q) {
                    orow[brow.Indexes()[q]] += val * brow.Values()[q];
                  }
                }
              }
            });
          } else {
            for (int32_t j : p.active) {
              const double* src =
                  g.values.data() + static_cast<int64_t>(j) * rows_;
              const int64_t col = g.cols[static_cast<size_t>(j)];
              if (vec_path) {
                const double bv = b.DenseRow(col)[0];
                for (int64_t r = rb; r < re; ++r) {
                  double val = src[r];
                  if (val == 0.0) continue;
                  odata[r] += val * bv;
                }
              } else if (!b.IsSparse()) {
                const double* brow = b.DenseRow(col);
                for (int64_t r = rb; r < re; ++r) {
                  double val = src[r];
                  if (val == 0.0) continue;
                  double* orow = out.DenseRow(r);
                  for (int64_t q = 0; q < n; ++q) orow[q] += val * brow[q];
                }
              } else {
                const SparseRow& brow = b.SparseData().Row(col);
                for (int64_t r = rb; r < re; ++r) {
                  double val = src[r];
                  if (val == 0.0) continue;
                  double* orow = out.DenseRow(r);
                  for (int64_t q = 0; q < brow.Size(); ++q) {
                    orow[brow.Indexes()[q]] += val * brow.Values()[q];
                  }
                }
              }
            }
          }
        }
      },
      Imbalance().compress, num_threads);
  out.MarkNnzDirty();
  out.ExamSparsity();
  return out;
}

StatusOr<MatrixBlock> CompressedMatrixBlock::LeftMatMult(
    const MatrixBlock& b, int num_threads) const {
  if (b.Rows() != rows_) {
    return InvalidArgument("compressed t(X)%*%B dimension mismatch: " +
                           std::to_string(rows_) + " vs " +
                           std::to_string(b.Rows()));
  }
  const int64_t n = b.Cols();
  MatrixBlock out = MatrixBlock::Dense(cols_, n);
  if (rows_ == 0 || n == 0 || cols_ == 0) {
    out.ExamSparsity(0);
    return out;
  }
  const size_t ngroups = groups_.size();
  const int64_t chunks = PickChunks(rows_);
  const int64_t chunk_rows = (rows_ + chunks - 1) / chunks;
  // partials[chunk][group]: d x n bucket matrix for coded groups (rows
  // collapse into per-code b-row sums — value-indexed aggregation), c x n
  // partial result for uncompressed groups.
  std::vector<std::vector<std::vector<double>>> partials(
      static_cast<size_t>(chunks));
  ThreadPool::Global().ParallelFor(
      0, rows_, chunks, [&](int64_t rb, int64_t re) {
        auto& bucket = partials[static_cast<size_t>(rb / chunk_rows)];
        bucket.resize(ngroups);
        std::vector<CodeCursor> cursors;
        cursors.reserve(ngroups);
        for (size_t gi = 0; gi < ngroups; ++gi) {
          const ColGroup& g = groups_[gi];
          cursors.emplace_back(g, rb);
          int64_t slots = g.IsCompressed() ? g.NumValues() : g.NumCols();
          bucket[gi].assign(static_cast<size_t>(slots * n), 0.0);
        }
        for (int64_t r = rb; r < re; ++r) {
          for (size_t gi = 0; gi < ngroups; ++gi) {
            const ColGroup& g = groups_[gi];
            if (g.IsCompressed()) {
              double* dst = bucket[gi].data() + cursors[gi].At(r) * n;
              if (!b.IsSparse()) {
                const double* brow = b.DenseRow(r);
                for (int64_t q = 0; q < n; ++q) dst[q] += brow[q];
              } else {
                const SparseRow& brow = b.SparseData().Row(r);
                for (int64_t q = 0; q < brow.Size(); ++q) {
                  dst[brow.Indexes()[q]] += brow.Values()[q];
                }
              }
            } else {
              for (int64_t j = 0; j < g.NumCols(); ++j) {
                double v = g.values[static_cast<size_t>(j * rows_ + r)];
                if (v == 0.0) continue;
                double* dst = bucket[gi].data() + j * n;
                if (!b.IsSparse()) {
                  const double* brow = b.DenseRow(r);
                  for (int64_t q = 0; q < n; ++q) dst[q] += v * brow[q];
                } else {
                  const SparseRow& brow = b.SparseData().Row(r);
                  for (int64_t q = 0; q < brow.Size(); ++q) {
                    dst[brow.Indexes()[q]] += v * brow.Values()[q];
                  }
                }
              }
            }
          }
        }
      },
      Imbalance().compress, num_threads);
  // Merge chunk partials in chunk order (deterministic for a fixed thread
  // count), then contract the coded buckets with the dictionaries.
  for (size_t gi = 0; gi < ngroups; ++gi) {
    const ColGroup& g = groups_[gi];
    const int64_t c = g.NumCols();
    int64_t slots = g.IsCompressed() ? g.NumValues() : c;
    std::vector<double> merged(static_cast<size_t>(slots * n), 0.0);
    for (const auto& chunk : partials) {
      if (chunk.empty() || chunk[gi].empty()) continue;
      for (int64_t i = 0; i < slots * n; ++i) {
        merged[static_cast<size_t>(i)] += chunk[gi][static_cast<size_t>(i)];
      }
    }
    if (g.IsCompressed()) {
      for (int64_t k = 0; k < slots; ++k) {
        const double* src = merged.data() + k * n;
        for (int64_t j = 0; j < c; ++j) {
          double dv = g.dict[static_cast<size_t>(k * c + j)];
          if (dv == 0.0) continue;
          double* orow = out.DenseRow(g.cols[static_cast<size_t>(j)]);
          for (int64_t q = 0; q < n; ++q) orow[q] += dv * src[q];
        }
      }
    } else {
      for (int64_t j = 0; j < c; ++j) {
        double* orow = out.DenseRow(g.cols[static_cast<size_t>(j)]);
        const double* src = merged.data() + j * n;
        for (int64_t q = 0; q < n; ++q) orow[q] += src[q];
      }
    }
  }
  out.MarkNnzDirty();
  out.ExamSparsity();
  return out;
}

StatusOr<MatrixBlock> CompressedMatrixBlock::TsmmLeft(int num_threads) const {
  if (!AllGroupsCompressed()) {
    return Unimplemented(
        "compressed tsmm requires all column groups dictionary-coded");
  }
  MatrixBlock out = MatrixBlock::Dense(cols_, cols_);
  if (rows_ == 0 || cols_ == 0) {
    out.ExamSparsity(0);
    return out;
  }
  const int64_t ngroups = static_cast<int64_t>(groups_.size());
  // Pair list: (gi, gi) diagonal entries use 1-D code counts; (gi, gj) with
  // gi < gj use di x dj co-occurrence tables.
  struct Pair {
    int32_t gi, gj;
    int64_t table_size;
  };
  std::vector<Pair> pairs;
  int64_t total_entries = 0;
  for (int32_t i = 0; i < ngroups; ++i) {
    int64_t di = groups_[static_cast<size_t>(i)].NumValues();
    pairs.push_back({i, i, di});
    total_entries += di;
    for (int32_t j = i + 1; j < ngroups; ++j) {
      int64_t dj = groups_[static_cast<size_t>(j)].NumValues();
      pairs.push_back({i, j, di * dj});
      total_entries += di * dj;
    }
  }
  // Dictionary domains too large for count tables: caller decompresses.
  if (total_entries > (int64_t{1} << 27)) {
    return Unimplemented("compressed tsmm: dictionary domains too large");
  }
  const int64_t chunks = PickChunks(rows_);
  const int64_t chunk_rows = (rows_ + chunks - 1) / chunks;
  std::vector<std::vector<std::vector<uint32_t>>> chunk_counts(
      static_cast<size_t>(chunks));
  ThreadPool::Global().ParallelFor(
      0, rows_, chunks, [&](int64_t rb, int64_t re) {
        auto& counts = chunk_counts[static_cast<size_t>(rb / chunk_rows)];
        counts.resize(pairs.size());
        for (size_t p = 0; p < pairs.size(); ++p) {
          counts[p].assign(static_cast<size_t>(pairs[p].table_size), 0);
        }
        std::vector<CodeCursor> cursors;
        std::vector<uint32_t> codes(static_cast<size_t>(ngroups));
        cursors.reserve(static_cast<size_t>(ngroups));
        for (const ColGroup& g : groups_) cursors.emplace_back(g, rb);
        for (int64_t r = rb; r < re; ++r) {
          for (int64_t gi = 0; gi < ngroups; ++gi) {
            codes[static_cast<size_t>(gi)] =
                cursors[static_cast<size_t>(gi)].At(r);
          }
          for (size_t p = 0; p < pairs.size(); ++p) {
            const Pair& pr = pairs[p];
            if (pr.gi == pr.gj) {
              ++counts[p][codes[static_cast<size_t>(pr.gi)]];
            } else {
              int64_t dj = groups_[static_cast<size_t>(pr.gj)].NumValues();
              ++counts[p][static_cast<size_t>(
                  codes[static_cast<size_t>(pr.gi)] * dj +
                  codes[static_cast<size_t>(pr.gj)])];
            }
          }
        }
      },
      Imbalance().compress, num_threads);
  // Integer merge — exact regardless of chunk count, so the whole tsmm is
  // deterministic independent of threading.
  std::vector<std::vector<int64_t>> counts(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    counts[p].assign(static_cast<size_t>(pairs[p].table_size), 0);
    for (const auto& chunk : chunk_counts) {
      if (chunk.empty()) continue;
      for (int64_t i = 0; i < pairs[p].table_size; ++i) {
        counts[p][static_cast<size_t>(i)] += chunk[p][static_cast<size_t>(i)];
      }
    }
  }
  // Contract each pair's count table with the two dictionaries. Pairs write
  // disjoint output panels, so the contraction fans out over pairs.
  std::vector<int64_t> group_start(static_cast<size_t>(ngroups));
  for (int64_t gi = 0; gi < ngroups; ++gi) {
    group_start[static_cast<size_t>(gi)] =
        groups_[static_cast<size_t>(gi)].cols.front();
  }
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(pairs.size()), kMaxLoopChunks,
      [&](int64_t pb, int64_t pe) {
        for (int64_t p = pb; p < pe; ++p) {
          const Pair& pr = pairs[static_cast<size_t>(p)];
          const ColGroup& a = groups_[static_cast<size_t>(pr.gi)];
          const ColGroup& bg = groups_[static_cast<size_t>(pr.gj)];
          const int64_t ca = a.NumCols(), cb = bg.NumCols();
          const int64_t base_a = group_start[static_cast<size_t>(pr.gi)];
          const int64_t base_b = group_start[static_cast<size_t>(pr.gj)];
          const std::vector<int64_t>& cnt = counts[static_cast<size_t>(p)];
          if (pr.gi == pr.gj) {
            for (int64_t k = 0; k < a.NumValues(); ++k) {
              int64_t c = cnt[static_cast<size_t>(k)];
              if (c == 0) continue;
              const double* tuple = a.dict.data() + k * ca;
              double cd = static_cast<double>(c);
              for (int64_t pi = 0; pi < ca; ++pi) {
                if (tuple[pi] == 0.0) continue;
                double av = tuple[pi] * cd;
                double* orow = out.DenseRow(base_a + pi);
                for (int64_t qi = pi; qi < ca; ++qi) {
                  orow[base_a + qi] += av * tuple[qi];
                }
              }
            }
          } else {
            const int64_t db = bg.NumValues();
            for (int64_t ki = 0; ki < a.NumValues(); ++ki) {
              const double* ta = a.dict.data() + ki * ca;
              for (int64_t kj = 0; kj < db; ++kj) {
                int64_t c = cnt[static_cast<size_t>(ki * db + kj)];
                if (c == 0) continue;
                const double* tb = bg.dict.data() + kj * cb;
                double cd = static_cast<double>(c);
                for (int64_t pi = 0; pi < ca; ++pi) {
                  if (ta[pi] == 0.0) continue;
                  double av = ta[pi] * cd;
                  double* orow = out.DenseRow(base_a + pi);
                  for (int64_t qi = 0; qi < cb; ++qi) {
                    orow[base_b + qi] += av * tb[qi];
                  }
                }
              }
            }
          }
        }
      },
      Imbalance().compress, num_threads);
  // Mirror the computed upper triangle into the lower one.
  double* pc = out.DenseData();
  for (int64_t i = 0; i < cols_; ++i) {
    for (int64_t j = 0; j < i; ++j) pc[i * cols_ + j] = pc[j * cols_ + i];
  }
  out.MarkNnzDirty();
  out.ExamSparsity();
  return out;
}

CompressedMatrixBlock CompressedMatrixBlock::ScaleByScalar(double s) const {
  CompressedMatrixBlock out = *this;
  for (ColGroup& g : out.groups_) {
    for (double& v : g.dict) v *= s;
    for (double& v : g.values) v *= s;
    // Re-derive the nonfinite flags: scaling by Inf/NaN or overflow can
    // introduce nonfinite values where there were none.
    std::fill(g.col_has_nonfinite.begin(), g.col_has_nonfinite.end(), 0);
    const int64_t c = g.NumCols();
    if (g.IsCompressed()) {
      for (int64_t k = 0; k < g.NumValues(); ++k) {
        for (int64_t j = 0; j < c; ++j) {
          if (!std::isfinite(g.dict[static_cast<size_t>(k * c + j)])) {
            g.col_has_nonfinite[static_cast<size_t>(j)] = 1;
          }
        }
      }
    } else {
      for (int64_t j = 0; j < c; ++j) {
        const double* src = g.values.data() + j * rows_;
        for (int64_t r = 0; r < rows_; ++r) {
          if (!std::isfinite(src[r])) {
            g.col_has_nonfinite[static_cast<size_t>(j)] = 1;
            break;
          }
        }
      }
    }
  }
  if (s == 0.0) out.nnz_ = 0;
  return out;
}

}  // namespace sysds
