#include "compiler/codegen.h"

#include <map>
#include <sstream>

#include "compiler/fusion.h"
#include "runtime/controlprog/instructions_cp.h"
#include "runtime/dist/instructions_spark.h"
#include "runtime/matrix/lib_fused.h"

namespace sysds {

std::string Lop::ToString() const {
  std::ostringstream os;
  os << ExecTypeName(exec_type) << " " << opcode;
  for (const Operand& in : inputs) os << " " << in.ToString();
  os << " ->";
  for (const Operand& out : outputs) os << " " << out.ToString();
  return os.str();
}

namespace {

// Ops with a distributed (SPARK-sim) physical implementation.
bool SupportsSpark(const Hop& hop) {
  switch (hop.op()) {
    case HopOp::kMatMult:
    case HopOp::kTsmm:
    case HopOp::kBinary:
    case HopOp::kAggUnary:
      return hop.data_type() == DataType::kMatrix ||
             hop.op() == HopOp::kAggUnary;
    default:
      return false;
  }
}

}  // namespace

void SelectExecTypes(const std::vector<HopPtr>& roots,
                     const DMLConfig& config) {
  for (Hop* hop : TopoOrder(roots)) {
    bool spark = config.force_spark ||
                 hop->MemEstimate() > config.cp_memory_budget;
    hop->set_exec_type(spark && SupportsSpark(*hop) ? ExecType::kSpark
                                                    : ExecType::kCP);
  }
}

namespace {

class LopBuilder {
 public:
  explicit LopBuilder(const DMLConfig& config) : config_(config) {}

  StatusOr<std::vector<Lop>> Build(const std::vector<HopPtr>& roots) {
    for (Hop* hop : TopoOrder(roots)) {
      SYSDS_RETURN_IF_ERROR(Lower(hop));
    }
    // Clean up block-local temporaries (SystemDS emits rmvar likewise); the
    // interpreter drops them from the symbol table and lineage map.
    if (!temps_.empty()) {
      Lop rm;
      rm.opcode = "rmvar";
      rm.exec_type = ExecType::kCP;
      for (const Operand& t : temps_) rm.inputs.push_back(t);
      lops_.push_back(std::move(rm));
    }
    return std::move(lops_);
  }

 private:
  const DMLConfig& config_;
  std::vector<Lop> lops_;
  std::map<int64_t, Operand> operands_;  // hop id -> result operand
  std::vector<Operand> temps_;

  Operand In(const Hop& hop, size_t k) const {
    return operands_.at(hop.inputs()[k]->id());
  }

  Operand MakeTemp(const Hop& hop) {
    Operand out = Operand::Var("_mVar" + std::to_string(hop.id()),
                               hop.data_type(), hop.value_type());
    temps_.push_back(out);
    return out;
  }

  Status Lower(Hop* hop) {
    switch (hop->op()) {
      case HopOp::kLiteral:
        operands_[hop->id()] = Operand::Literal(hop->literal());
        return Status::Ok();
      case HopOp::kTransientRead: {
        Operand var =
            Operand::Var(hop->name(), hop->data_type(), hop->value_type());
        if (hop->params().count("snapshot")) {
          // The variable is reassigned later in this block: snapshot its
          // current value into a temp to avoid write-after-read hazards.
          Lop lop;
          lop.hop = hop;
          lop.opcode = "cpvar";
          lop.inputs.push_back(var);
          lop.outputs.push_back(MakeTemp(*hop));
          operands_[hop->id()] = lop.outputs[0];
          lops_.push_back(std::move(lop));
        } else {
          operands_[hop->id()] = var;
        }
        return Status::Ok();
      }
      case HopOp::kTransientWrite: {
        Operand in = In(*hop, 0);
        if (!in.is_literal && in.name == hop->name()) {
          operands_[hop->id()] = in;
          return Status::Ok();
        }
        Lop lop;
        lop.hop = hop;
        lop.opcode = "cpvar";
        lop.inputs.push_back(in);
        lop.outputs.push_back(
            Operand::Var(hop->name(), hop->data_type(), hop->value_type()));
        operands_[hop->id()] = lop.outputs[0];
        lops_.push_back(std::move(lop));
        return Status::Ok();
      }
      default:
        break;
    }

    Lop lop;
    lop.hop = hop;
    lop.exec_type = hop->exec_type();
    lop.opcode = hop->opcode();
    for (size_t k = 0; k < hop->inputs().size(); ++k) {
      lop.inputs.push_back(In(*hop, k));
    }

    // Output conventions per op class.
    bool has_output = true;
    switch (hop->op()) {
      case HopOp::kPersistentWrite:
        lop.opcode = "pwrite";
        has_output = false;
        break;
      case HopOp::kUnary:
        if (hop->opcode() == "print" || hop->opcode() == "stop") {
          has_output = false;
        }
        break;
      case HopOp::kFunctionCall:
      case HopOp::kParamBuiltin: {
        // Multi-output ops write the declared variable names directly.
        if (!hop->outputs().empty()) {
          has_output = false;
          auto it = hop->params().find("outdts");
          std::vector<std::string> dts;
          if (it != hop->params().end()) {
            std::stringstream ss(it->second);
            std::string tok;
            while (std::getline(ss, tok, ',')) dts.push_back(tok);
          }
          for (size_t k = 0; k < hop->outputs().size(); ++k) {
            DataType dt = DataType::kMatrix;
            ValueType vt = ValueType::kFP64;
            if (k < dts.size()) {
              if (dts[k] == "SCALAR") dt = DataType::kScalar;
              else if (dts[k] == "FRAME") dt = DataType::kFrame;
              else if (dts[k] == "LIST") dt = DataType::kList;
              std::string vts = dts[k].find(':') != std::string::npos
                                    ? dts[k].substr(dts[k].find(':') + 1)
                                    : "";
              if (!vts.empty()) vt = ParseValueType(vts);
              if (dts[k].rfind("SCALAR", 0) == 0) dt = DataType::kScalar;
            }
            lop.outputs.push_back(Operand::Var(hop->outputs()[k], dt, vt));
          }
        }
        break;
      }
      default:
        break;
    }
    if (has_output) {
      lop.outputs.push_back(MakeTemp(*hop));
      operands_[hop->id()] = lop.outputs[0];
    }

    // Physical parameters.
    for (const auto& [key, value] : hop->params()) {
      lop.param_names.push_back(key + "=" + value);
    }
    lops_.push_back(std::move(lop));
    return Status::Ok();
  }
};

// Output representation of transformencode/transformapply: the configured
// format, upgraded from kDense to kAuto when compression is enabled. Encode
// outputs are natural compression candidates (the fitted dictionaries give
// exact cardinalities), so the encoder prices each column and may emit a
// CompressedMatrixBlock directly instead of dense-then-compress.
TransformOutputFormat PlannedTransformOutput(const DMLConfig& config) {
  if (config.transform_output == TransformOutputFormat::kDense &&
      config.compression_enabled) {
    return TransformOutputFormat::kAuto;
  }
  return config.transform_output;
}

StatusOr<InstructionPtr> LopToInstruction(const Lop& lop,
                                          const DMLConfig& config) {
  const Hop* hop = lop.hop;
  InstructionPtr instr;
  auto param = [&](const std::string& key) -> std::string {
    std::string prefix = key + "=";
    for (const std::string& p : lop.param_names) {
      if (p.rfind(prefix, 0) == 0) return p.substr(prefix.size());
    }
    return "";
  };

  if (lop.opcode == "rmvar") {
    instr = std::make_unique<VariableInstr>("rmvar");
  } else if (lop.opcode == "cpvar") {
    instr = std::make_unique<VariableInstr>("cpvar");
  } else if (hop == nullptr) {
    return CompileError("lop without hop: " + lop.opcode);
  } else {
    switch (hop->op()) {
      case HopOp::kBinary:
        if (lop.exec_type == ExecType::kSpark) {
          instr = std::make_unique<SparkBinaryInstr>(lop.opcode);
        } else {
          instr = std::make_unique<BinaryInstr>(lop.opcode);
        }
        break;
      case HopOp::kUnary:
        if (lop.opcode == "print") {
          instr = std::make_unique<PrintInstr>();
        } else if (lop.opcode == "stop") {
          instr = std::make_unique<StopInstr>();
        } else {
          instr = std::make_unique<UnaryInstr>(lop.opcode);
        }
        break;
      case HopOp::kAggUnary:
        if (lop.exec_type == ExecType::kSpark) {
          instr = std::make_unique<SparkAggUnaryInstr>(lop.opcode);
        } else {
          instr = std::make_unique<AggUnaryInstr>(lop.opcode);
        }
        break;
      case HopOp::kCumAgg:
        instr = std::make_unique<CumAggInstr>(lop.opcode);
        break;
      case HopOp::kMatMult:
        if (lop.exec_type == ExecType::kSpark) {
          instr = std::make_unique<SparkMatMultInstr>();
        } else {
          instr = std::make_unique<MatMultInstr>();
        }
        break;
      case HopOp::kTsmm:
        if (lop.exec_type == ExecType::kSpark) {
          instr = std::make_unique<SparkTsmmInstr>(lop.opcode == "left");
        } else {
          instr = std::make_unique<TsmmInstr>(lop.opcode == "left");
        }
        break;
      case HopOp::kTmm:
        instr = std::make_unique<TmmInstr>();
        break;
      case HopOp::kReorg:
        instr = std::make_unique<ReorgInstr>(lop.opcode);
        break;
      case HopOp::kIndexing:
        instr = std::make_unique<IndexingInstr>();
        break;
      case HopOp::kLeftIndexing:
        instr = std::make_unique<LeftIndexingInstr>();
        break;
      case HopOp::kDataGen:
        instr = std::make_unique<DataGenInstr>(lop.opcode);
        break;
      case HopOp::kNary:
        instr = std::make_unique<AppendInstr>(lop.opcode == "cbind");
        break;
      case HopOp::kTernary:
        instr = std::make_unique<TernaryInstr>(lop.opcode);
        break;
      case HopOp::kCast:
        instr = std::make_unique<CastInstr>(lop.opcode);
        break;
      case HopOp::kSolve:
        instr = std::make_unique<SolveInstr>(lop.opcode);
        break;
      case HopOp::kParamBuiltin: {
        auto pb = std::make_unique<ParamBuiltinInstr>(lop.opcode);
        std::stringstream ss(param("pnames"));
        std::string tok;
        while (std::getline(ss, tok, ',')) pb->ParamNames().push_back(tok);
        if (lop.opcode == "transformencode" ||
            lop.opcode == "transformapply") {
          pb->planned_output = PlannedTransformOutput(config);
        }
        instr = std::move(pb);
        break;
      }
      case HopOp::kPersistentRead: {
        auto rd = std::make_unique<ReadInstr>();
        if (!param("format").empty()) rd->format = param("format");
        if (!param("data_type").empty()) rd->data_type = param("data_type");
        rd->header = param("header") == "true";
        if (!param("sep").empty()) rd->sep = param("sep")[0];
        instr = std::move(rd);
        break;
      }
      case HopOp::kPersistentWrite: {
        auto wr = std::make_unique<WriteInstr>();
        if (!param("format").empty()) wr->format = param("format");
        wr->header = param("header") == "true";
        if (!param("sep").empty()) wr->sep = param("sep")[0];
        instr = std::move(wr);
        break;
      }
      case HopOp::kFunctionCall: {
        auto fc = std::make_unique<FunctionCallInstr>(hop->name());
        std::stringstream ss(param("argnames"));
        std::string tok;
        bool any = !param("argnames").empty();
        if (any) {
          while (std::getline(ss, tok, ',')) {
            fc->ArgNames().push_back(tok == "_" ? "" : tok);
          }
        }
        instr = std::move(fc);
        break;
      }
      case HopOp::kFusedOp: {
        if (lop.inputs.empty() || !lop.inputs.back().is_literal) {
          return CompileError("fused op missing micro-plan literal");
        }
        SYSDS_ASSIGN_OR_RETURN(
            FusedPlan plan,
            FusedPlan::Parse(lop.inputs.back().lit.AsString()));
        instr = std::make_unique<FusedInstr>(std::move(plan));
        break;
      }
      case HopOp::kFedInit:
        instr = std::make_unique<SparkBinaryInstr>("fedinit-unsupported");
        return CompileError("federated init must be lowered by the fed module");
      default:
        return CompileError(std::string("cannot lower hop ") +
                            HopOpName(hop->op()) + " opcode " + lop.opcode);
    }
  }

  for (const Operand& in : lop.inputs) instr->AddInput(in);
  for (const Operand& out : lop.outputs) instr->AddOutput(out);
  return instr;
}

}  // namespace

StatusOr<std::vector<Lop>> BuildLops(const std::vector<HopPtr>& roots,
                                     const DMLConfig& config) {
  return LopBuilder(config).Build(roots);
}

StatusOr<std::vector<InstructionPtr>> LopsToInstructions(
    const std::vector<Lop>& lops, const DMLConfig& config) {
  std::vector<InstructionPtr> instructions;
  instructions.reserve(lops.size());
  for (const Lop& lop : lops) {
    SYSDS_ASSIGN_OR_RETURN(InstructionPtr instr,
                           LopToInstruction(lop, config));
    instructions.push_back(std::move(instr));
  }
  return instructions;
}

StatusOr<std::vector<InstructionPtr>> GenerateInstructions(
    const std::vector<HopPtr>& roots, const DMLConfig& config) {
  // Fusion runs on a copy-on-write rebuild so the caller's roots stay
  // pristine for dynamic recompilation (which re-fuses with updated sizes).
  std::vector<HopPtr> planned =
      config.fusion_enabled ? PlanFusion(roots, config) : roots;
  SelectExecTypes(planned, config);
  SYSDS_ASSIGN_OR_RETURN(std::vector<Lop> lops, BuildLops(planned, config));
  return LopsToInstructions(lops, config);
}

}  // namespace sysds
