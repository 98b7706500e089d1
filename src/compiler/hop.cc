#include "compiler/hop.h"

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "runtime/matrix/matrix_block.h"

namespace sysds {

const char* HopOpName(HopOp op) {
  switch (op) {
    case HopOp::kLiteral: return "literal";
    case HopOp::kTransientRead: return "tread";
    case HopOp::kTransientWrite: return "twrite";
    case HopOp::kPersistentRead: return "pread";
    case HopOp::kPersistentWrite: return "pwrite";
    case HopOp::kDataGen: return "datagen";
    case HopOp::kBinary: return "binary";
    case HopOp::kUnary: return "unary";
    case HopOp::kAggUnary: return "aggunary";
    case HopOp::kCumAgg: return "cumagg";
    case HopOp::kMatMult: return "ba+*";
    case HopOp::kTsmm: return "tsmm";
    case HopOp::kTmm: return "tmm";
    case HopOp::kReorg: return "reorg";
    case HopOp::kIndexing: return "rightIndex";
    case HopOp::kLeftIndexing: return "leftIndex";
    case HopOp::kNary: return "nary";
    case HopOp::kTernary: return "ternary";
    case HopOp::kParamBuiltin: return "parambuiltin";
    case HopOp::kCast: return "cast";
    case HopOp::kSolve: return "solve";
    case HopOp::kFunctionCall: return "fcall";
    case HopOp::kFedInit: return "fedinit";
    case HopOp::kFusedOp: return "fused";
  }
  return "?";
}

LitValue LitValue::Double(double v) {
  LitValue l;
  l.vt = ValueType::kFP64;
  l.d = v;
  return l;
}
LitValue LitValue::Int(int64_t v) {
  LitValue l;
  l.vt = ValueType::kInt64;
  l.i = v;
  return l;
}
LitValue LitValue::Bool(bool v) {
  LitValue l;
  l.vt = ValueType::kBoolean;
  l.b = v;
  return l;
}
LitValue LitValue::String(std::string v) {
  LitValue l;
  l.vt = ValueType::kString;
  l.s = std::move(v);
  return l;
}

double LitValue::AsDouble() const {
  switch (vt) {
    case ValueType::kFP64: return d;
    case ValueType::kInt64: return static_cast<double>(i);
    case ValueType::kBoolean: return b ? 1.0 : 0.0;
    default: return s.empty() ? 0.0 : std::stod(s);
  }
}
int64_t LitValue::AsInt() const {
  switch (vt) {
    case ValueType::kFP64: return static_cast<int64_t>(d);
    case ValueType::kInt64: return i;
    case ValueType::kBoolean: return b ? 1 : 0;
    default: return s.empty() ? 0 : std::stoll(s);
  }
}
bool LitValue::AsBool() const {
  switch (vt) {
    case ValueType::kFP64: return d != 0.0;
    case ValueType::kInt64: return i != 0;
    case ValueType::kBoolean: return b;
    default: return s == "TRUE" || s == "true";
  }
}
std::string LitValue::AsString() const {
  switch (vt) {
    case ValueType::kFP64: {
      std::ostringstream os;
      os << d;
      return os.str();
    }
    case ValueType::kInt64: return std::to_string(i);
    case ValueType::kBoolean: return b ? "TRUE" : "FALSE";
    default: return s;
  }
}

int64_t Hop::NextId() {
  static std::atomic<int64_t> counter{1};
  return counter.fetch_add(1);
}

Hop::Hop(HopOp op, std::string opcode, DataType dt, ValueType vt)
    : id_(NextId()), op_(op), opcode_(std::move(opcode)), dt_(dt), vt_(vt) {}

double Hop::Sparsity() const {
  if (!DimsKnown() || nnz_ < 0 || dim1_ * dim2_ == 0) return 1.0;
  return static_cast<double>(nnz_) / (dim1_ * dim2_);
}

void Hop::RefreshSizeInformation() {
  auto in = [&](size_t k) -> Hop* {
    return k < inputs_.size() ? inputs_[k].get() : nullptr;
  };
  switch (op_) {
    case HopOp::kLiteral:
      dim1_ = 0;
      dim2_ = 0;
      break;
    case HopOp::kTransientRead:
    case HopOp::kPersistentRead:
    case HopOp::kFedInit:
    case HopOp::kFusedOp:
      break;  // dims set externally (symbol info / metadata / fusion planner)
    case HopOp::kTransientWrite:
    case HopOp::kPersistentWrite:
    case HopOp::kCumAgg:
      if (in(0)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(0)->dim2();
        nnz_ = op_ == HopOp::kCumAgg ? -1 : in(0)->nnz();
        dt_ = in(0)->data_type();
        vt_ = in(0)->value_type();
        if (op_ == HopOp::kCumAgg) { dt_ = DataType::kMatrix; }
      }
      break;
    case HopOp::kDataGen:
      // rand(rows, cols, min, max, sparsity, ...) and matrix(v, rows, cols)
      // (fill/matfromstr); seq and sample sizes stay unknown.
      if (opcode_ == "rand" || opcode_ == "fill" || opcode_ == "matfromstr") {
        size_t r = opcode_ == "rand" ? 0 : 1;
        dim1_ = in(r) ? KnownIntValue(*in(r)) : -1;
        dim2_ = in(r + 1) ? KnownIntValue(*in(r + 1)) : -1;
        nnz_ = -1;
        if (opcode_ == "rand" && DimsKnown() && in(4) &&
            in(4)->op() == HopOp::kLiteral) {
          nnz_ = static_cast<int64_t>(in(4)->literal().AsDouble() * dim1_ *
                                      dim2_);
        }
      }
      break;
    case HopOp::kBinary: {
      if (dt_ == DataType::kScalar) {
        dim1_ = 0;
        dim2_ = 0;
        break;
      }
      Hop* a = in(0);
      Hop* b = in(1);
      const Hop* m = nullptr;
      if (a && a->data_type() == DataType::kMatrix) m = a;
      if (b && b->data_type() == DataType::kMatrix) {
        // Pick the larger (broadcast target).
        if (m == nullptr || (b->DimsKnown() && m->DimsKnown() &&
                             b->dim1() * b->dim2() > m->dim1() * m->dim2())) {
          m = b;
        }
      }
      if (m != nullptr) {
        dim1_ = m->dim1();
        dim2_ = m->dim2();
        // Sparsity: only '*' guaranteed to keep zeros of either side.
        if (opcode_ == "*" && a && b) {
          nnz_ = std::min(a->nnz() < 0 ? INT64_MAX : a->nnz(),
                          b->nnz() < 0 ? INT64_MAX : b->nnz());
          if (nnz_ == INT64_MAX) nnz_ = -1;
        } else {
          nnz_ = -1;
        }
      }
      break;
    }
    case HopOp::kUnary:
      if (dt_ == DataType::kScalar) {
        dim1_ = 0;
        dim2_ = 0;
      } else if (in(0)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(0)->dim2();
        nnz_ = (opcode_ == "uminus" || opcode_ == "sqrt" ||
                opcode_ == "abs" || opcode_ == "sign")
                   ? in(0)->nnz()
                   : -1;
      }
      break;
    case HopOp::kAggUnary: {
      // Direction encoded in the opcode prefix: ua (all), uar (row), uac (col).
      if (opcode_.rfind("uar", 0) == 0) {
        dim1_ = in(0) ? in(0)->dim1() : -1;
        dim2_ = 1;
      } else if (opcode_.rfind("uac", 0) == 0) {
        dim1_ = 1;
        dim2_ = in(0) ? in(0)->dim2() : -1;
      } else {
        dim1_ = 0;
        dim2_ = 0;
      }
      nnz_ = -1;
      break;
    }
    case HopOp::kMatMult:
      if (in(0) && in(1)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(1)->dim2();
        nnz_ = -1;
      }
      break;
    case HopOp::kTsmm:
      if (in(0)) {
        int64_t n = opcode_ == "right" ? in(0)->dim1() : in(0)->dim2();
        dim1_ = n;
        dim2_ = n;
        nnz_ = -1;
      }
      break;
    case HopOp::kTmm:
      if (in(0) && in(1)) {
        dim1_ = in(0)->dim2();
        dim2_ = in(1)->dim2();
        nnz_ = -1;
      }
      break;
    case HopOp::kReorg:
      if (in(0)) {
        if (opcode_ == "t") {
          dim1_ = in(0)->dim2();
          dim2_ = in(0)->dim1();
          nnz_ = in(0)->nnz();
        } else if (opcode_ == "rev" || opcode_ == "sort") {
          dim1_ = in(0)->dim1();
          dim2_ = in(0)->dim2();
          nnz_ = in(0)->nnz();
        } else if (opcode_ == "rdiag") {
          // vector->matrix or matrix->vector
          if (in(0)->dim2() == 1) {
            dim1_ = in(0)->dim1();
            dim2_ = in(0)->dim1();
            nnz_ = in(0)->nnz();
          } else {
            dim1_ = in(0)->dim1();
            dim2_ = 1;
            nnz_ = -1;
          }
        } else if (opcode_ == "reshape") {
          dim1_ = in(1) ? KnownIntValue(*in(1)) : -1;
          dim2_ = in(2) ? KnownIntValue(*in(2)) : -1;
          nnz_ = in(0)->nnz();
        }
      }
      break;
    case HopOp::kIndexing: {
      // inputs: X, rl, ru, cl, cu; literal upper bound -1 means "to end".
      auto bound = [&](size_t k, int64_t to_end) -> int64_t {
        Hop* h = in(k);
        if (h == nullptr) return -1;
        if (h->op() == HopOp::kLiteral && h->literal().AsInt() == -1) {
          return to_end;
        }
        return KnownIntValue(*h);
      };
      int64_t rl = bound(1, -1), cl = bound(3, -1);
      int64_t ru = bound(2, in(0) ? in(0)->dim1() : -1);
      int64_t cu = bound(4, in(0) ? in(0)->dim2() : -1);
      dim1_ = (rl > 0 && ru >= rl) ? ru - rl + 1 : -1;
      dim2_ = (cl > 0 && cu >= cl) ? cu - cl + 1 : -1;
      nnz_ = -1;
      break;
    }
    case HopOp::kLeftIndexing:
      if (in(0)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(0)->dim2();
        nnz_ = -1;
      }
      break;
    case HopOp::kNary: {
      if (opcode_ == "cbind") {
        int64_t rows = -1, cols = 0;
        bool all_known = true;
        for (const HopPtr& h : inputs_) {
          if (h->dim1() >= 0) rows = h->dim1();
          if (h->dim2() < 0) all_known = false;
          else cols += h->dim2();
        }
        dim1_ = rows;
        dim2_ = all_known ? cols : -1;
      } else if (opcode_ == "rbind") {
        int64_t rows = 0, cols = -1;
        bool all_known = true;
        for (const HopPtr& h : inputs_) {
          if (h->dim2() >= 0) cols = h->dim2();
          if (h->dim1() < 0) all_known = false;
          else rows += h->dim1();
        }
        dim1_ = all_known ? rows : -1;
        dim2_ = cols;
      }
      nnz_ = -1;
      break;
    }
    case HopOp::kTernary:
      if (opcode_ == "ifelse") {
        // The test may be a scalar: the first matrix among test/yes/no
        // gives the output shape (none: a scalar result).
        const Hop* shape = nullptr;
        for (const HopPtr& h : inputs_) {
          if (h->data_type() == DataType::kMatrix) {
            shape = h.get();
            break;
          }
        }
        dim1_ = shape != nullptr ? shape->dim1() : 0;
        dim2_ = shape != nullptr ? shape->dim2() : 0;
      }
      nnz_ = -1;
      break;
    case HopOp::kParamBuiltin:
      nnz_ = -1;
      break;
    case HopOp::kCast:
      if (opcode_ == "as.scalar" || opcode_ == "as.double" ||
          opcode_ == "as.integer" || opcode_ == "as.logical") {
        dim1_ = 0;
        dim2_ = 0;
      } else if (in(0)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(0)->dim2();
        nnz_ = in(0)->nnz();
      }
      break;
    case HopOp::kSolve:
      if (opcode_ == "det") {
        dim1_ = 0;
        dim2_ = 0;
      } else if (in(0) && in(1)) {
        dim1_ = in(0)->dim2();
        dim2_ = in(1)->dim2();
      } else if (in(0)) {
        dim1_ = in(0)->dim1();
        dim2_ = in(0)->dim2();
      }
      nnz_ = -1;
      break;
    case HopOp::kFunctionCall:
      break;  // outputs typed at call boundary
  }
}

int64_t Hop::OutputMemEstimate() const {
  if (dt_ == DataType::kScalar) return 64;
  if (!DimsKnown()) return 8LL * 1024 * 1024 * 1024;  // pessimistic unknown
  double sp = nnz_ >= 0 && dim1_ * dim2_ > 0
                  ? static_cast<double>(nnz_) / (dim1_ * dim2_)
                  : 1.0;
  return MatrixBlock::EstimateSizeInBytes(dim1_, dim2_, sp);
}

int64_t Hop::MemEstimate() const {
  int64_t total = OutputMemEstimate();
  for (const HopPtr& h : inputs_) total += h->OutputMemEstimate();
  return total;
}

std::string Hop::DebugString() const {
  std::ostringstream os;
  os << "h" << id_ << " " << HopOpName(op_) << "(" << opcode_ << ")";
  if (!name_.empty()) os << " '" << name_ << "'";
  os << " [" << dim1_ << "x" << dim2_ << ", nnz=" << nnz_ << "] "
     << DataTypeName(dt_) << "/" << ValueTypeName(vt_) << " <-";
  for (const HopPtr& h : inputs_) os << " h" << h->id();
  return os.str();
}

HopPtr MakeLiteralHop(const LitValue& v) {
  auto h = std::make_shared<Hop>(HopOp::kLiteral, "lit", DataType::kScalar,
                                 v.vt);
  h->literal() = v;
  h->set_dims(0, 0);
  return h;
}

HopPtr MakeTransientRead(const std::string& name, DataType dt, ValueType vt,
                         int64_t dim1, int64_t dim2, int64_t nnz) {
  auto h = std::make_shared<Hop>(HopOp::kTransientRead, "tread", dt, vt);
  h->set_name(name);
  h->set_dims(dim1, dim2);
  h->set_nnz(nnz);
  return h;
}

HopPtr MakeTransientWrite(const std::string& name, HopPtr input) {
  auto h = std::make_shared<Hop>(HopOp::kTransientWrite, "twrite",
                                 input->data_type(), input->value_type());
  h->set_name(name);
  h->AddInput(std::move(input));
  h->RefreshSizeInformation();
  return h;
}

int64_t KnownIntValue(const Hop& hop) {
  const std::vector<HopPtr>& in = hop.inputs();
  switch (hop.op()) {
    case HopOp::kLiteral: {
      const LitValue& v = hop.literal();
      if (v.vt == ValueType::kInt64) return v.i >= 0 ? v.i : -1;
      if (v.vt == ValueType::kFP64 && v.d >= 0 && v.d < 9.0e18 &&
          v.d == std::floor(v.d)) {
        return static_cast<int64_t>(v.d);
      }
      return -1;
    }
    case HopOp::kUnary: {
      if (in.size() != 1 || in[0]->data_type() == DataType::kScalar) return -1;
      const Hop& x = *in[0];
      if (hop.opcode() == "nrow") return x.dim1();
      if (hop.opcode() == "ncol") return x.dim2();
      if (hop.opcode() == "length" && x.DimsKnown()) {
        return x.dim1() * x.dim2();
      }
      return -1;
    }
    case HopOp::kBinary: {
      if (in.size() != 2 || hop.data_type() != DataType::kScalar) return -1;
      int64_t a = KnownIntValue(*in[0]);
      int64_t b = KnownIntValue(*in[1]);
      if (a < 0 || b < 0) return -1;
      if (hop.opcode() == "+") return a + b;
      if (hop.opcode() == "-") return a >= b ? a - b : -1;
      if (hop.opcode() == "*") {
        return b == 0 || a <= INT64_MAX / b ? a * b : -1;
      }
      return -1;
    }
    default:
      return -1;
  }
}

namespace {
void TopoVisit(Hop* h, std::set<int64_t>* seen, std::vector<Hop*>* order) {
  if (!seen->insert(h->id()).second) return;
  for (const HopPtr& in : h->inputs()) TopoVisit(in.get(), seen, order);
  order->push_back(h);
}
}  // namespace

std::vector<Hop*> TopoOrder(const std::vector<HopPtr>& roots) {
  std::set<int64_t> seen;
  std::vector<Hop*> order;
  for (const HopPtr& r : roots) TopoVisit(r.get(), &seen, &order);
  return order;
}

void PropagateSizes(const std::vector<HopPtr>& roots) {
  for (Hop* h : TopoOrder(roots)) h->RefreshSizeInformation();
}

}  // namespace sysds
