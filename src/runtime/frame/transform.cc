#include "runtime/frame/transform.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysds {

namespace {

// transform.* observability of the encoder's fit, apply and decode.
struct TransformMetrics {
  obs::Counter* fit_calls;
  obs::Counter* apply_calls;
  obs::Counter* decode_calls;
  // Rows encoded by Apply (dense and compressed sinks alike).
  obs::Counter* rows_encoded;
  // Apply emitted a CompressedMatrixBlock directly (no dense intermediate).
  obs::Counter* direct_compressed_outputs;
  // Apply emitted a dense/sparse MatrixBlock (kDense, or kAuto under the
  // min-ratio gate).
  obs::Counter* dense_outputs;
  // Byte-pricing ratio (dense bytes / compressed bytes) of direct-compressed
  // outputs, x100 (a ratio of 8.5 observes 850).
  obs::Histogram* output_ratio_x100;
};

TransformMetrics& Metrics() {
  auto& r = obs::MetricsRegistry::Get();
  static TransformMetrics m = {
      r.GetCounter("transform.fit_calls"),
      r.GetCounter("transform.apply_calls"),
      r.GetCounter("transform.decode_calls"),
      r.GetCounter("transform.rows_encoded"),
      r.GetCounter("transform.direct_compressed_outputs"),
      r.GetCounter("transform.dense_outputs"),
      r.GetHistogram("transform.output_ratio_x100"),
  };
  return m;
}

// Resolves a JSON column reference (name string or 1-based number) to a
// 0-based index.
StatusOr<int64_t> ResolveColumn(const JsonValue& v, const FrameBlock& frame) {
  if (v.kind() == JsonValue::Kind::kString) {
    SYSDS_ASSIGN_OR_RETURN(int64_t idx, frame.ColumnIndex(v.AsString()));
    return idx;
  }
  if (v.kind() == JsonValue::Kind::kNumber) {
    int64_t idx = static_cast<int64_t>(v.AsNumber()) - 1;
    if (idx < 0 || idx >= frame.Cols()) {
      return OutOfRange("transform spec column index out of range");
    }
    return idx;
  }
  return InvalidArgument("transform spec: column must be name or index");
}

// Fixed fit chunk size: the chunk decomposition depends only on the row
// count, never on the thread count, so per-chunk partials and their
// chunk-order merge are identical at every parallelism level.
constexpr int64_t kFitChunkRows = 4096;

int64_t NumFitChunks(int64_t rows) {
  return std::max<int64_t>(1, (rows + kFitChunkRows - 1) / kFitChunkRows);
}

// Runs fn(chunk_index) for every chunk in [0, num_chunks) on at most
// `num_threads` threads. Each fit chunk is one schedulable unit (results are
// indexed by chunk id, so the scheduler's chunk->thread assignment never
// affects them); the work-stealing pool load-balances the chunks.
void RunChunks(int64_t num_chunks, int num_threads,
               const std::function<void(int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(
      0, num_chunks, num_chunks,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) fn(i);
      },
      Imbalance().transform, num_threads);
}

}  // namespace

StatusOr<TransformSpec> ParseTransformSpec(const std::string& spec_json,
                                           const FrameBlock& frame) {
  SYSDS_ASSIGN_OR_RETURN(JsonValue root, ParseJson(spec_json));
  if (root.kind() != JsonValue::Kind::kObject) {
    return InvalidArgument("transform spec must be a JSON object");
  }
  TransformSpec spec;
  if (const JsonValue* rc = root.Find("recode")) {
    for (const JsonValue& v : rc->AsArray()) {
      SYSDS_ASSIGN_OR_RETURN(int64_t c, ResolveColumn(v, frame));
      spec.recode_cols.push_back(c);
    }
  }
  if (const JsonValue* dc = root.Find("dummycode")) {
    for (const JsonValue& v : dc->AsArray()) {
      SYSDS_ASSIGN_OR_RETURN(int64_t c, ResolveColumn(v, frame));
      spec.dummycode_cols.push_back(c);
    }
  }
  if (const JsonValue* bins = root.Find("bin")) {
    for (const JsonValue& v : bins->AsArray()) {
      const JsonValue* name = v.Find("name");
      if (name == nullptr) {
        return InvalidArgument("bin spec entries require a 'name'");
      }
      SYSDS_ASSIGN_OR_RETURN(int64_t c, ResolveColumn(*name, frame));
      TransformSpec::BinSpec b;
      b.col = c;
      b.num_bins = 5;
      b.method = "equi-width";
      if (const JsonValue* nb = v.Find("numbins")) {
        b.num_bins = static_cast<int64_t>(nb->AsNumber());
      }
      if (const JsonValue* m = v.Find("method")) b.method = m->AsString();
      if (b.num_bins < 1) return InvalidArgument("bin: numbins must be >= 1");
      spec.bin_cols.push_back(b);
    }
  }
  if (const JsonValue* imp = root.Find("impute")) {
    for (const JsonValue& v : imp->AsArray()) {
      const JsonValue* name = v.Find("name");
      if (name == nullptr) {
        return InvalidArgument("impute spec entries require a 'name'");
      }
      SYSDS_ASSIGN_OR_RETURN(int64_t c, ResolveColumn(*name, frame));
      TransformSpec::ImputeSpec i;
      i.col = c;
      i.method = "mean";
      if (const JsonValue* m = v.Find("method")) i.method = m->AsString();
      if (const JsonValue* cv = v.Find("value")) i.constant = cv->AsString();
      spec.impute_cols.push_back(i);
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// EncodedOutput

EncodedOutput EncodedOutput::FromDense(MatrixBlock m) {
  EncodedOutput out;
  out.is_compressed_ = false;
  out.dense_ = std::move(m);
  return out;
}

EncodedOutput EncodedOutput::FromCompressed(CompressedMatrixBlock c) {
  EncodedOutput out;
  out.is_compressed_ = true;
  out.compressed_ = std::move(c);
  return out;
}

int64_t EncodedOutput::Rows() const {
  return is_compressed_ ? compressed_.Rows() : dense_.Rows();
}

int64_t EncodedOutput::Cols() const {
  return is_compressed_ ? compressed_.Cols() : dense_.Cols();
}

MatrixBlock EncodedOutput::ToMatrix(int num_threads) const {
  if (is_compressed_) return compressed_.Decompress(num_threads);
  return dense_;
}

// ---------------------------------------------------------------------------
// MultiColumnEncoder

void MultiColumnEncoder::AssignOutputOffsets() {
  int64_t off = 0;
  for (ColumnEncoder& e : encoders_) {
    e.recode_lookup =
        std::unordered_map<std::string, int64_t>(e.recode_map.begin(),
                                                 e.recode_map.end());
    e.out_offset = off;
    if (e.dummycode) {
      e.out_width = e.encoding == ColEncodingKind::kRecode
                        ? static_cast<int64_t>(e.recode_tokens.size())
                        : e.num_bins;
      if (e.out_width == 0) e.out_width = 1;
    } else {
      e.out_width = 1;
    }
    off += e.out_width;
  }
}

int64_t MultiColumnEncoder::NumOutputCols() const {
  int64_t n = 0;
  for (const ColumnEncoder& e : encoders_) n += e.out_width;
  return n;
}

StatusOr<MultiColumnEncoder> MultiColumnEncoder::Fit(
    const FrameBlock& frame, const TransformSpec& spec, int num_threads) {
  SYSDS_SPAN("transform", "fit");
  Metrics().fit_calls->Add();

  MultiColumnEncoder enc;
  enc.num_input_cols_ = frame.Cols();
  enc.encoders_.resize(static_cast<size_t>(frame.Cols()));

  for (int64_t c : spec.recode_cols) {
    enc.encoders_[c].encoding = ColEncodingKind::kRecode;
  }
  for (const auto& b : spec.bin_cols) {
    if (enc.encoders_[b.col].encoding == ColEncodingKind::kRecode) {
      return InvalidArgument("column cannot be both recoded and binned");
    }
    enc.encoders_[b.col].encoding = ColEncodingKind::kBin;
    enc.encoders_[b.col].num_bins = b.num_bins;
    enc.encoders_[b.col].bin_method = b.method;
  }
  for (int64_t c : spec.dummycode_cols) {
    enc.encoders_[c].dummycode = true;
    if (enc.encoders_[c].encoding == ColEncodingKind::kPassThrough) {
      // Dummycode over raw values implies recode first (SystemDS behaviour).
      enc.encoders_[c].encoding = ColEncodingKind::kRecode;
    }
  }
  for (const auto& i : spec.impute_cols) {
    enc.encoders_[i.col].impute = true;
    enc.encoders_[i.col].impute_string = i.method;
  }

  const int64_t rows = frame.Rows();
  const int64_t cols = frame.Cols();
  const int64_t nchunks = NumFitChunks(rows);
  auto chunk_range = [rows](int64_t ci) {
    int64_t rb = ci * kFitChunkRows;
    return std::pair<int64_t, int64_t>(rb,
                                       std::min(rows, rb + kFitChunkRows));
  };

  // --- Stage 1: imputation statistics (mean needs sum/count, mode needs
  // token counts). Per-chunk partials merged in chunk order; the resulting
  // impute values feed stage 2's dictionaries and histograms.
  std::vector<int64_t> impute_cols;
  for (int64_t c = 0; c < cols; ++c) {
    if (enc.encoders_[c].impute) impute_cols.push_back(c);
  }
  if (!impute_cols.empty()) {
    struct ImputePartial {
      double sum = 0.0;
      int64_t count = 0;
      std::map<std::string, int64_t> counts;
    };
    std::vector<std::vector<ImputePartial>> partials(
        static_cast<size_t>(nchunks),
        std::vector<ImputePartial>(impute_cols.size()));
    RunChunks(nchunks, num_threads, [&](int64_t ci) {
      auto [rb, re] = chunk_range(ci);
      for (size_t ic = 0; ic < impute_cols.size(); ++ic) {
        const int64_t c = impute_cols[ic];
        const ColumnEncoder& e = enc.encoders_[c];
        ImputePartial& p = partials[static_cast<size_t>(ci)][ic];
        const std::string* sd = frame.StringData(c);
        const double* nd = frame.NumericData(c);
        if (e.impute_string == "mean") {
          // Missing = empty string or NaN (numeric cells render non-empty).
          if (sd != nullptr) {
            for (int64_t r = rb; r < re; ++r) {
              const std::string& s = sd[r];
              if (s.empty()) continue;
              double v = std::strtod(s.c_str(), nullptr);
              if (!std::isnan(v)) {
                p.sum += v;
                ++p.count;
              }
            }
          } else {
            for (int64_t r = rb; r < re; ++r) {
              if (!std::isnan(nd[r])) {
                p.sum += nd[r];
                ++p.count;
              }
            }
          }
        } else if (e.impute_string == "mode") {
          if (sd != nullptr) {
            for (int64_t r = rb; r < re; ++r) {
              if (!sd[r].empty()) ++p.counts[sd[r]];
            }
          } else {
            for (int64_t r = rb; r < re; ++r) {
              ++p.counts[frame.GetString(r, c)];
            }
          }
        }
      }
    });
    for (size_t ic = 0; ic < impute_cols.size(); ++ic) {
      ColumnEncoder& e = enc.encoders_[impute_cols[ic]];
      if (e.impute_string == "mean") {
        double sum = 0.0;
        int64_t count = 0;
        for (int64_t ci = 0; ci < nchunks; ++ci) {
          sum += partials[static_cast<size_t>(ci)][ic].sum;
          count += partials[static_cast<size_t>(ci)][ic].count;
        }
        e.impute_value = count ? sum / count : 0.0;
      } else if (e.impute_string == "mode") {
        std::map<std::string, int64_t> counts;
        for (int64_t ci = 0; ci < nchunks; ++ci) {
          for (const auto& [token, n] : partials[static_cast<size_t>(ci)][ic]
                                            .counts) {
            counts[token] += n;
          }
        }
        // Ties break to the smallest token: ascending map order plus a
        // strictly-greater update.
        int64_t best = -1;
        for (const auto& [token, n] : counts) {
          if (n > best) {
            best = n;
            e.impute_string = token;
          }
        }
        if (best < 0) e.impute_string = "0";
        e.impute_value = std::strtod(e.impute_string.c_str(), nullptr);
      } else {
        // constant
        e.impute_value = std::strtod(e.impute_string.c_str(), nullptr);
      }
    }
  }

  // --- Stage 2: recode dictionaries and bin histograms. Distinct-token
  // sets union across chunks (codes then assigned in sorted-token order);
  // bin samples concatenate in chunk order, reproducing the serial row
  // order exactly before the equi-height sort.
  std::vector<int64_t> fit_cols;
  for (int64_t c = 0; c < cols; ++c) {
    if (enc.encoders_[c].encoding != ColEncodingKind::kPassThrough) {
      fit_cols.push_back(c);
    }
  }
  if (!fit_cols.empty()) {
    struct FitPartial {
      std::set<std::string> distinct;
      std::vector<double> vals;
    };
    std::vector<std::vector<FitPartial>> partials(
        static_cast<size_t>(nchunks),
        std::vector<FitPartial>(fit_cols.size()));
    RunChunks(nchunks, num_threads, [&](int64_t ci) {
      auto [rb, re] = chunk_range(ci);
      for (size_t fc = 0; fc < fit_cols.size(); ++fc) {
        const int64_t c = fit_cols[fc];
        const ColumnEncoder& e = enc.encoders_[c];
        FitPartial& p = partials[static_cast<size_t>(ci)][fc];
        const std::string* sd = frame.StringData(c);
        const double* nd = frame.NumericData(c);
        if (e.encoding == ColEncodingKind::kRecode) {
          if (sd != nullptr) {
            for (int64_t r = rb; r < re; ++r) {
              const std::string* s = &sd[r];
              if (s->empty() && e.impute) s = &e.impute_string;
              if (!s->empty()) p.distinct.insert(*s);
            }
          } else {
            for (int64_t r = rb; r < re; ++r) {
              // Numeric cells render non-empty, so the impute substitution
              // of the reference path cannot fire here.
              p.distinct.insert(frame.GetString(r, c));
            }
          }
        } else {  // kBin
          p.vals.reserve(static_cast<size_t>(re - rb));
          for (int64_t r = rb; r < re; ++r) {
            double v;
            if (sd != nullptr) {
              v = sd[r].empty() ? 0.0
                                : std::strtod(sd[r].c_str(), nullptr);
            } else {
              v = nd[r];
            }
            if (std::isnan(v) && e.impute) v = e.impute_value;
            if (!std::isnan(v)) p.vals.push_back(v);
          }
        }
      }
    });
    for (size_t fc = 0; fc < fit_cols.size(); ++fc) {
      ColumnEncoder& e = enc.encoders_[fit_cols[fc]];
      if (e.encoding == ColEncodingKind::kRecode) {
        std::set<std::string> distinct;
        for (int64_t ci = 0; ci < nchunks; ++ci) {
          auto& part = partials[static_cast<size_t>(ci)][fc].distinct;
          distinct.insert(part.begin(), part.end());
        }
        int64_t code = 1;
        for (const std::string& token : distinct) {
          e.recode_map[token] = code++;
          e.recode_tokens.push_back(token);
        }
      } else {  // kBin
        std::vector<double> vals;
        vals.reserve(static_cast<size_t>(rows));
        for (int64_t ci = 0; ci < nchunks; ++ci) {
          auto& part = partials[static_cast<size_t>(ci)][fc].vals;
          vals.insert(vals.end(), part.begin(), part.end());
        }
        if (vals.empty()) vals.push_back(0.0);
        double lo = *std::min_element(vals.begin(), vals.end());
        double hi = *std::max_element(vals.begin(), vals.end());
        e.bin_min = lo;
        if (e.bin_method == "equi-height") {
          std::sort(vals.begin(), vals.end());
          e.bin_uppers.resize(static_cast<size_t>(e.num_bins));
          for (int64_t b = 0; b < e.num_bins; ++b) {
            size_t idx = static_cast<size_t>(
                std::min<double>(vals.size() - 1,
                                 std::ceil(static_cast<double>(vals.size()) *
                                           (b + 1) / e.num_bins) -
                                     1));
            e.bin_uppers[b] = vals[idx];
          }
          e.bin_uppers.back() = hi;
        } else {
          e.bin_width = (hi - lo) / static_cast<double>(e.num_bins);
          if (e.bin_width == 0.0) e.bin_width = 1.0;
        }
      }
    }
  }
  enc.AssignOutputOffsets();
  return enc;
}

namespace {

// Decodes bin membership exactly like the reference path (shared by all
// sinks): lower_bound over equi-height uppers or the equi-width formula,
// clamped to [1, num_bins].
inline int64_t BinOf(double v, const std::vector<double>& uppers,
                     double bin_min, double bin_width, int64_t num_bins) {
  int64_t bin;
  if (!uppers.empty()) {
    bin = static_cast<int64_t>(
              std::lower_bound(uppers.begin(), uppers.end(), v) -
              uppers.begin()) +
          1;
  } else {
    bin = static_cast<int64_t>(std::floor((v - bin_min) / bin_width)) + 1;
  }
  return std::max<int64_t>(1, std::min<int64_t>(num_bins, bin));
}

}  // namespace

// Emits emit(r, code) for rows [rb, re) of input column c, replicating the
// reference serial semantics cell for cell while reading column storage
// directly (no per-cell string copies on the hot paths).
template <typename ColumnEncoderT, typename Emit>
static void EncodeRange(const FrameBlock& frame, int64_t c,
                        const ColumnEncoderT& e, int encoding_kind,
                        int64_t rb, int64_t re, Emit&& emit) {
  const std::string* sd = frame.StringData(c);
  const double* nd = frame.NumericData(c);
  switch (encoding_kind) {
    case 0: {  // pass-through
      if (sd != nullptr) {
        for (int64_t r = rb; r < re; ++r) {
          const std::string& s = sd[r];
          double v = s.empty() ? 0.0 : std::strtod(s.c_str(), nullptr);
          if (std::isnan(v) && e.impute) v = e.impute_value;
          if (s.empty() && e.impute) v = e.impute_value;
          emit(r, v);
        }
      } else {
        for (int64_t r = rb; r < re; ++r) {
          double v = nd[r];
          if (std::isnan(v) && e.impute) v = e.impute_value;
          emit(r, v);
        }
      }
      break;
    }
    case 1: {  // recode (hash lookup; recode_map only defines assignment)
      const auto end = e.recode_lookup.end();
      if (sd != nullptr) {
        for (int64_t r = rb; r < re; ++r) {
          const std::string* s = &sd[r];
          if (s->empty() && e.impute) s = &e.impute_string;
          auto it = e.recode_lookup.find(*s);
          emit(r, it == end ? 0.0 : static_cast<double>(it->second));
        }
      } else {
        for (int64_t r = rb; r < re; ++r) {
          auto it = e.recode_lookup.find(frame.GetString(r, c));
          emit(r, it == end ? 0.0 : static_cast<double>(it->second));
        }
      }
      break;
    }
    default: {  // bin
      for (int64_t r = rb; r < re; ++r) {
        double v;
        if (sd != nullptr) {
          const std::string& s = sd[r];
          v = s.empty() ? 0.0 : std::strtod(s.c_str(), nullptr);
        } else {
          v = nd[r];
        }
        if (std::isnan(v) && e.impute) v = e.impute_value;
        emit(r, static_cast<double>(BinOf(v, e.bin_uppers, e.bin_min,
                                          e.bin_width, e.num_bins)));
      }
    }
  }
}

StatusOr<EncodedOutput> MultiColumnEncoder::Apply(
    const FrameBlock& frame, const EncodeOptions& options) const {
  SYSDS_SPAN("transform", "apply");
  if (frame.Cols() != num_input_cols_) {
    return InvalidArgument("transformapply: column count mismatch");
  }
  Metrics().apply_calls->Add();
  Metrics().rows_encoded->Add(frame.Rows());
  const int64_t rows = frame.Rows();
  const int64_t out_cols = NumOutputCols();

  // Per-encoder byte pricing, mirroring the compression planner: a DDC
  // group costs its dictionary plus one code per row; the alternative is an
  // uncompressed column-major group. The fitted dictionary gives the exact
  // tuple count, so no sampling is involved.
  bool emit_compressed = false;
  if (options.output == TransformOutputFormat::kCompressed) {
    emit_compressed = true;
  } else if (options.output == TransformOutputFormat::kAuto) {
    double compressed_bytes = 0.0;
    for (const ColumnEncoder& e : encoders_) {
      int64_t dict_vals = 0;
      if (e.encoding == ColEncodingKind::kRecode) {
        dict_vals = static_cast<int64_t>(e.recode_tokens.size()) + 1;
      } else if (e.encoding == ColEncodingKind::kBin) {
        dict_vals = e.num_bins;
      }
      double unc = 64.0 + 8.0 * rows * e.out_width + e.out_width;
      if (dict_vals >= 1 && dict_vals <= 65536) {
        double ddc = 64.0 + 8.0 * dict_vals * e.out_width +
                     (dict_vals <= 256 ? 1.0 : 2.0) * rows + e.out_width;
        compressed_bytes += std::min(ddc, unc);
      } else {
        compressed_bytes += unc;
      }
    }
    double dense_bytes = 8.0 * rows * out_cols;
    if (compressed_bytes > 0.0 &&
        dense_bytes / compressed_bytes >= options.min_ratio) {
      emit_compressed = true;
      Metrics().output_ratio_x100->Observe(
          static_cast<int64_t>(100.0 * dense_bytes / compressed_bytes));
    }
  }

  if (emit_compressed) {
    SYSDS_ASSIGN_OR_RETURN(CompressedMatrixBlock c,
                           ApplyCompressed(frame, options.num_threads));
    Metrics().direct_compressed_outputs->Add();
    return EncodedOutput::FromCompressed(std::move(c));
  }

  MatrixBlock m = MatrixBlock::Dense(rows, out_cols);
  const int64_t chunks = PickChunks(rows);
  ThreadPool::Global().ParallelFor(
      0, rows, chunks, [&](int64_t rb, int64_t re) {
        for (int64_t c = 0; c < num_input_cols_; ++c) {
          const ColumnEncoder& e = encoders_[c];
          const int kind = e.encoding == ColEncodingKind::kPassThrough ? 0
                           : e.encoding == ColEncodingKind::kRecode    ? 1
                                                                       : 2;
          if (e.dummycode) {
            EncodeRange(frame, c, e, kind, rb, re, [&](int64_t r,
                                                       double code) {
              int64_t k = static_cast<int64_t>(code);
              if (k >= 1 && k <= e.out_width) {
                m.DenseRow(r)[e.out_offset + k - 1] = 1.0;
              }
            });
          } else {
            EncodeRange(frame, c, e, kind, rb, re,
                        [&](int64_t r, double code) {
                          m.DenseRow(r)[e.out_offset] = code;
                        });
          }
        }
      },
      Imbalance().transform, options.num_threads);
  m.MarkNnzDirty();
  m.ExamSparsity();
  Metrics().dense_outputs->Add();
  return EncodedOutput::FromDense(std::move(m));
}

StatusOr<CompressedMatrixBlock> MultiColumnEncoder::ApplyCompressed(
    const FrameBlock& frame, int num_threads) const {
  const int64_t rows = frame.Rows();
  const int64_t chunks = PickChunks(rows);
  std::vector<ColGroup> groups;
  groups.reserve(encoders_.size());
  int64_t nnz = 0;

  for (int64_t c = 0; c < num_input_cols_; ++c) {
    const ColumnEncoder& e = encoders_[c];
    std::vector<int64_t> gcols(static_cast<size_t>(e.out_width));
    for (int64_t j = 0; j < e.out_width; ++j) gcols[j] = e.out_offset + j;

    // Dictionary layout: recode code k is DDC code k directly (tuple 0 is
    // the all-zero missing/unseen tuple); bin b maps to code b-1.
    int64_t dict_vals = 0;
    if (e.encoding == ColEncodingKind::kRecode) {
      dict_vals = static_cast<int64_t>(e.recode_tokens.size()) + 1;
    } else if (e.encoding == ColEncodingKind::kBin) {
      dict_vals = e.num_bins;
    }
    const bool ddc = dict_vals >= 1 && dict_vals <= 65536;

    if (ddc) {
      std::vector<double> dict(
          static_cast<size_t>(dict_vals * e.out_width), 0.0);
      if (e.dummycode) {
        if (e.encoding == ColEncodingKind::kRecode) {
          // Tuple k = e_k (one-hot); tuple 0 stays all-zero.
          for (int64_t k = 1; k < dict_vals; ++k) {
            dict[static_cast<size_t>(k * e.out_width + (k - 1))] = 1.0;
          }
        } else {
          // Bin b -> tuple b-1 = e_b.
          for (int64_t k = 0; k < dict_vals; ++k) {
            dict[static_cast<size_t>(k * e.out_width + k)] = 1.0;
          }
        }
      } else {
        if (e.encoding == ColEncodingKind::kRecode) {
          for (int64_t k = 0; k < dict_vals; ++k) {
            dict[static_cast<size_t>(k)] = static_cast<double>(k);
          }
        } else {
          for (int64_t k = 0; k < dict_vals; ++k) {
            dict[static_cast<size_t>(k)] = static_cast<double>(k + 1);
          }
        }
      }
      const int kind = e.encoding == ColEncodingKind::kRecode ? 1 : 2;
      const int64_t code_shift =
          e.encoding == ColEncodingKind::kBin ? 1 : 0;
      std::vector<uint16_t> codes(static_cast<size_t>(rows), 0);
      ThreadPool::Global().ParallelFor(
          0, rows, chunks, [&](int64_t rb, int64_t re) {
            EncodeRange(frame, c, e, kind, rb, re,
                        [&](int64_t r, double code) {
                          codes[static_cast<size_t>(r)] =
                              static_cast<uint16_t>(
                                  static_cast<int64_t>(code) - code_shift);
                        });
          },
          Imbalance().transform, num_threads);
      SYSDS_ASSIGN_OR_RETURN(
          ColGroup g, BuildDdcGroupFromCodes(std::move(gcols),
                                             std::move(dict), codes.data(),
                                             rows, &nnz));
      groups.push_back(std::move(g));
    } else {
      // Pass-through (and over-wide dictionaries): uncompressed
      // column-major fallback, filled row-chunk parallel.
      std::vector<double> values(static_cast<size_t>(e.out_width * rows),
                                 0.0);
      const int kind = e.encoding == ColEncodingKind::kPassThrough ? 0
                       : e.encoding == ColEncodingKind::kRecode    ? 1
                                                                   : 2;
      ThreadPool::Global().ParallelFor(
          0, rows, chunks, [&](int64_t rb, int64_t re) {
            if (e.dummycode) {
              EncodeRange(frame, c, e, kind, rb, re,
                          [&](int64_t r, double code) {
                            int64_t k = static_cast<int64_t>(code);
                            if (k >= 1 && k <= e.out_width) {
                              values[static_cast<size_t>((k - 1) * rows +
                                                         r)] = 1.0;
                            }
                          });
            } else {
              EncodeRange(frame, c, e, kind, rb, re,
                          [&](int64_t r, double code) {
                            values[static_cast<size_t>(r)] = code;
                          });
            }
          },
          Imbalance().transform, num_threads);
      groups.push_back(BuildUncompressedGroup(std::move(gcols),
                                              std::move(values), rows,
                                              &nnz));
    }
  }
  return CompressedMatrixBlock::FromParts(rows, NumOutputCols(), nnz,
                                          std::move(groups));
}

StatusOr<MatrixBlock> MultiColumnEncoder::ApplyReferenceSerial(
    const FrameBlock& frame) const {
  if (frame.Cols() != num_input_cols_) {
    return InvalidArgument("transformapply: column count mismatch");
  }
  MatrixBlock m = MatrixBlock::Dense(frame.Rows(), NumOutputCols());
  for (int64_t c = 0; c < frame.Cols(); ++c) {
    const ColumnEncoder& e = encoders_[c];
    for (int64_t r = 0; r < frame.Rows(); ++r) {
      double code = 0.0;
      switch (e.encoding) {
        case ColEncodingKind::kPassThrough: {
          double v = frame.GetDouble(r, c);
          if (std::isnan(v) && e.impute) v = e.impute_value;
          std::string s = frame.GetString(r, c);
          if (s.empty() && e.impute) v = e.impute_value;
          code = v;
          break;
        }
        case ColEncodingKind::kRecode: {
          std::string s = frame.GetString(r, c);
          if (s.empty() && e.impute) s = e.impute_string;
          auto it = e.recode_map.find(s);
          code = it == e.recode_map.end() ? 0.0
                                          : static_cast<double>(it->second);
          break;
        }
        case ColEncodingKind::kBin: {
          double v = frame.GetDouble(r, c);
          if (std::isnan(v) && e.impute) v = e.impute_value;
          code = static_cast<double>(
              BinOf(v, e.bin_uppers, e.bin_min, e.bin_width, e.num_bins));
          break;
        }
      }
      if (e.dummycode) {
        int64_t k = static_cast<int64_t>(code);
        if (k >= 1 && k <= e.out_width) {
          m.DenseRow(r)[e.out_offset + k - 1] = 1.0;
        }
      } else {
        m.DenseRow(r)[e.out_offset] = code;
      }
    }
  }
  m.MarkNnzDirty();
  m.ExamSparsity();
  return m;
}

FrameBlock MultiColumnEncoder::MetaFrame() const {
  // One string column per input column; rows hold "payload" strings.
  int64_t max_rows = 1;
  for (const ColumnEncoder& e : encoders_) {
    max_rows = std::max<int64_t>(
        max_rows, static_cast<int64_t>(e.recode_tokens.size()) + 2);
    max_rows = std::max<int64_t>(
        max_rows, static_cast<int64_t>(e.bin_uppers.size()) + 2);
  }
  FrameBlock meta(max_rows,
                  std::vector<ValueType>(static_cast<size_t>(num_input_cols_),
                                         ValueType::kString));
  for (int64_t c = 0; c < num_input_cols_; ++c) {
    const ColumnEncoder& e = encoders_[c];
    std::ostringstream hdr;
    // max_digits10 so fitted doubles (means, equi-height boundaries)
    // round-trip exactly through FromMeta.
    hdr << std::setprecision(std::numeric_limits<double>::max_digits10);
    switch (e.encoding) {
      case ColEncodingKind::kPassThrough: hdr << "pass"; break;
      case ColEncodingKind::kRecode: hdr << "recode"; break;
      case ColEncodingKind::kBin: hdr << "bin"; break;
    }
    hdr << "," << (e.dummycode ? 1 : 0) << "," << (e.impute ? 1 : 0) << ","
        << e.impute_value << "," << e.num_bins << "," << e.bin_min << ","
        << e.bin_width;
    meta.SetString(0, c, hdr.str());
    int64_t r = 1;
    for (size_t t = 0; t < e.recode_tokens.size(); ++t) {
      meta.SetString(r++, c,
                     e.recode_tokens[t] + "\t" + std::to_string(t + 1));
    }
    for (double u : e.bin_uppers) {
      std::ostringstream os;
      os << std::setprecision(std::numeric_limits<double>::max_digits10)
         << "ub\t" << u;
      meta.SetString(r++, c, os.str());
    }
  }
  return meta;
}

StatusOr<MultiColumnEncoder> MultiColumnEncoder::FromMeta(
    const TransformSpec& spec, const FrameBlock& meta,
    int64_t num_input_cols) {
  (void)spec;
  if (meta.Cols() != num_input_cols) {
    return InvalidArgument("transformapply: meta column count mismatch");
  }
  MultiColumnEncoder enc;
  enc.num_input_cols_ = num_input_cols;
  enc.encoders_.resize(static_cast<size_t>(num_input_cols));
  for (int64_t c = 0; c < num_input_cols; ++c) {
    ColumnEncoder& e = enc.encoders_[c];
    std::vector<std::string> hdr = SplitString(meta.GetString(0, c), ',');
    if (hdr.size() < 7) return InvalidArgument("malformed transform meta");
    if (hdr[0] == "recode") e.encoding = ColEncodingKind::kRecode;
    else if (hdr[0] == "bin") e.encoding = ColEncodingKind::kBin;
    else e.encoding = ColEncodingKind::kPassThrough;
    e.dummycode = hdr[1] == "1";
    e.impute = hdr[2] == "1";
    e.impute_value = std::strtod(hdr[3].c_str(), nullptr);
    e.num_bins = std::strtoll(hdr[4].c_str(), nullptr, 10);
    e.bin_min = std::strtod(hdr[5].c_str(), nullptr);
    e.bin_width = std::strtod(hdr[6].c_str(), nullptr);
    e.impute_string = hdr[3];
    for (int64_t r = 1; r < meta.Rows(); ++r) {
      std::string cell = meta.GetString(r, c);
      if (cell.empty()) continue;
      size_t tab = cell.find('\t');
      if (tab == std::string::npos) continue;
      std::string key = cell.substr(0, tab);
      std::string val = cell.substr(tab + 1);
      if (e.encoding == ColEncodingKind::kRecode) {
        int64_t code = std::strtoll(val.c_str(), nullptr, 10);
        e.recode_map[key] = code;
        if (static_cast<int64_t>(e.recode_tokens.size()) < code) {
          e.recode_tokens.resize(static_cast<size_t>(code));
        }
        e.recode_tokens[static_cast<size_t>(code - 1)] = key;
      } else if (e.encoding == ColEncodingKind::kBin && key == "ub") {
        e.bin_uppers.push_back(std::strtod(val.c_str(), nullptr));
      }
    }
  }
  enc.AssignOutputOffsets();
  return enc;
}

StatusOr<FrameBlock> MultiColumnEncoder::Decode(const MatrixBlock& m,
                                                const FrameBlock& like,
                                                int num_threads) const {
  SYSDS_SPAN("transform", "decode");
  if (m.Cols() != NumOutputCols()) {
    return InvalidArgument("transformdecode: column count mismatch");
  }
  Metrics().decode_calls->Add();
  FrameBlock out(m.Rows(), like.Schema(), like.ColumnNames());
  const int64_t chunks = PickChunks(m.Rows());
  ThreadPool::Global().ParallelFor(
      0, m.Rows(), chunks, [&](int64_t rb, int64_t re) {
        for (int64_t c = 0; c < num_input_cols_; ++c) {
          const ColumnEncoder& e = encoders_[c];
          for (int64_t r = rb; r < re; ++r) {
            double code;
            if (e.dummycode) {
              code = 0.0;
              for (int64_t k = 0; k < e.out_width; ++k) {
                if (m.Get(r, e.out_offset + k) != 0.0) {
                  code = static_cast<double>(k + 1);
                  break;
                }
              }
            } else {
              code = m.Get(r, e.out_offset);
            }
            if (e.encoding == ColEncodingKind::kRecode) {
              int64_t k = static_cast<int64_t>(code);
              if (k >= 1 &&
                  k <= static_cast<int64_t>(e.recode_tokens.size())) {
                out.SetString(r, c,
                              e.recode_tokens[static_cast<size_t>(k - 1)]);
              } else {
                out.SetString(r, c, "");
              }
            } else {
              out.SetDouble(r, c, code);
            }
          }
        }
      },
      Imbalance().transform, num_threads);
  return out;
}

}  // namespace sysds
