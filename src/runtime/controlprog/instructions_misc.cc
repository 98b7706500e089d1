#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/io.h"
#include "lineage/lineage.h"
#include "runtime/ps/param_server.h"
#include "runtime/controlprog/execution_context.h"
#include "runtime/controlprog/instructions_cp.h"
#include "runtime/controlprog/program.h"
#include "runtime/frame/transform.h"
#include "runtime/matrix/lib_reorg.h"

namespace sysds {

Status CastInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(inputs()[0]));
  if (op == "as.scalar" || op == "as.double") {
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      if (m->Rows() != 1 || m->Cols() != 1) {
        return RuntimeError("as.scalar: matrix is " +
                            std::to_string(m->Rows()) + "x" +
                            std::to_string(m->Cols()) + ", expected 1x1");
      }
      SYSDS_ACQUIRE_READ(b, m);
      double v = b.Get(0, 0);
      m->Release();
      ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(v));
      return Status::Ok();
    }
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op));
    ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(s->AsDouble()));
    return Status::Ok();
  }
  if (op == "as.integer") {
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op));
    ec->SetOutput(outputs()[0], ScalarObject::MakeInt(s->AsInt()));
    return Status::Ok();
  }
  if (op == "as.logical") {
    SYSDS_ASSIGN_OR_RETURN(ScalarObject * s, AsScalar(d, op));
    ec->SetOutput(outputs()[0], ScalarObject::MakeBool(s->AsBool()));
    return Status::Ok();
  }
  if (op == "as.matrix") {
    if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock m, f->Frame().ToMatrix());
      ec->SetOutput(outputs()[0],
                    std::make_shared<MatrixObject>(std::move(m)));
      return Status::Ok();
    }
    if (auto* s = dynamic_cast<ScalarObject*>(d.get())) {
      MatrixBlock m = MatrixBlock::Dense(1, 1, s->AsDouble());
      ec->SetOutput(outputs()[0],
                    std::make_shared<MatrixObject>(std::move(m)));
      return Status::Ok();
    }
    ec->SetOutput(outputs()[0], d);
    return Status::Ok();
  }
  if (op == "as.frame") {
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      SYSDS_ACQUIRE_READ(b, m);
      FrameBlock f = FrameBlock::FromMatrix(b);
      m->Release();
      ec->SetOutput(outputs()[0],
                    std::make_shared<FrameObject>(std::move(f)));
      return Status::Ok();
    }
    ec->SetOutput(outputs()[0], d);
    return Status::Ok();
  }
  return RuntimeError("unknown cast '" + op + "'");
}

StatusOr<const Operand*> ParamBuiltinInstr::Param(
    const std::string& name) const {
  for (size_t i = 0; i < param_names_.size() && i < inputs().size(); ++i) {
    if (param_names_[i] == name) return &inputs()[i];
  }
  return NotFound("parameter '" + name + "' missing for " + opcode());
}

bool ParamBuiltinInstr::IsReusable() const {
  return opcode() == "replace" || opcode() == "removeEmpty" ||
         opcode() == "order" || opcode() == "table";
}

namespace {

// Encode options for transformencode/transformapply: the compiler-planned
// output format and the context's thread budget.
EncodeOptions TransformEncodeOptions(ExecutionContext* ec,
                                     TransformOutputFormat planned) {
  EncodeOptions opts;
  opts.output = planned;
  opts.num_threads = ec->NumThreads();
  return opts;
}

// Binds an encode result to a variable: compressed outputs become
// compressed matrix objects directly (no dense intermediate), so downstream
// compressed kernels run on them as if the compression rewrite had fired.
void SetEncodedOutput(ExecutionContext* ec, const Operand& out,
                      EncodedOutput x) {
  if (x.IsCompressed()) {
    ec->SetOutput(out,
                  std::make_shared<MatrixObject>(std::move(x.Compressed())));
  } else {
    ec->SetOutput(out, std::make_shared<MatrixObject>(std::move(x.Dense())));
  }
}

}  // namespace

Status ParamBuiltinInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  if (op == "replace") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* pattern, Param("pattern"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* repl, Param("replacement"));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(*target));
    SYSDS_ASSIGN_OR_RETURN(double p, ec->GetDouble(*pattern));
    SYSDS_ASSIGN_OR_RETURN(double r, ec->GetDouble(*repl));
    SYSDS_ACQUIRE_READ(a, m);
    MatrixBlock result = ReplaceValues(a, p, r);
    m->Release();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(result)));
    return Status::Ok();
  }
  if (op == "removeEmpty") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* margin, Param("margin"));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(*target));
    SYSDS_ASSIGN_OR_RETURN(std::string mg, ec->GetString(*margin));
    SYSDS_ACQUIRE_READ(a, m);
    MatrixBlock result = RemoveEmpty(a, mg == "rows");
    m->Release();
    ec->SetOutput(outputs()[0],
                  std::make_shared<MatrixObject>(std::move(result)));
    return Status::Ok();
  }
  if (op == "quantile") {
    // quantile(column vector, p) with linear interpolation.
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* pop, Param("p"));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(*target));
    SYSDS_ASSIGN_OR_RETURN(double p, ec->GetDouble(*pop));
    if (p < 0.0 || p > 1.0) {
      m->Release();
      return RuntimeError("quantile: p must be in [0,1]");
    }
    SYSDS_ACQUIRE_READ(a, m);
    if (a.Cols() != 1 || a.Rows() == 0) {
      m->Release();
      return RuntimeError("quantile requires a non-empty column vector");
    }
    std::vector<double> vals(static_cast<size_t>(a.Rows()));
    for (int64_t r = 0; r < a.Rows(); ++r) vals[static_cast<size_t>(r)] = a.Get(r, 0);
    m->Release();
    std::sort(vals.begin(), vals.end());
    double pos = p * (static_cast<double>(vals.size()) - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(vals.size() - 1, lo + 1);
    double frac = pos - static_cast<double>(lo);
    double q = vals[lo] * (1.0 - frac) + vals[hi] * frac;
    ec->SetOutput(outputs()[0], ScalarObject::MakeDouble(q));
    return Status::Ok();
  }
  if (op == "paramserv") {
    // Mini-batch training on the parameter server backend (§2.3(4)).
    SYSDS_ASSIGN_OR_RETURN(const Operand* xop, Param("features"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* yop, Param("labels"));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * xm, ec->GetMatrix(*xop));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * ym, ec->GetMatrix(*yop));
    PsConfig config;
    auto int_param = [&](const char* name, int64_t* out) -> Status {
      auto p = Param(name);
      if (p.ok()) {
        SYSDS_ASSIGN_OR_RETURN(*out, ec->GetInt(**p));
      }
      return Status::Ok();
    };
    int64_t workers = config.num_workers, epochs = config.epochs;
    SYSDS_RETURN_IF_ERROR(int_param("workers", &workers));
    SYSDS_RETURN_IF_ERROR(int_param("epochs", &epochs));
    SYSDS_RETURN_IF_ERROR(int_param("batchsize", &config.batch_size));
    config.num_workers = static_cast<int>(workers);
    config.epochs = static_cast<int>(epochs);
    if (auto p = Param("lr"); p.ok()) {
      SYSDS_ASSIGN_OR_RETURN(config.learning_rate, ec->GetDouble(**p));
    }
    if (auto p = Param("mode"); p.ok()) {
      SYSDS_ASSIGN_OR_RETURN(std::string mode, ec->GetString(**p));
      config.mode = mode == "ASP" ? PsUpdateMode::kASP : PsUpdateMode::kBSP;
    }
    if (auto p = Param("objective"); p.ok()) {
      SYSDS_ASSIGN_OR_RETURN(std::string obj, ec->GetString(**p));
      config.objective = obj == "logistic"
                             ? PsObjective::kLogisticRegression
                             : PsObjective::kLinearRegression;
    }
    SYSDS_ACQUIRE_READ(x, xm);
    SYSDS_ACQUIRE_READ_CLEANUP(y, ym, xm->Release());
    auto result = PsTrain(x, y, config);
    xm->Release();
    ym->Release();
    if (!result.ok()) return result.status();
    ec->SetOutput(outputs()[0], std::make_shared<MatrixObject>(
                                    std::move(result->weights)));
    return Status::Ok();
  }
  if (op == "toString") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(*target));
    std::string s;
    if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
      SYSDS_ACQUIRE_READ(b, m);
      s = b.ToString(100, 100);
      m->Release();
    } else {
      s = d->DebugString();
    }
    ec->SetOutput(outputs()[0], ScalarObject::MakeString(s));
    return Status::Ok();
  }
  if (op == "transformencode") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* spec, Param("spec"));
    SYSDS_ASSIGN_OR_RETURN(FrameObject * f, ec->GetFrame(*target));
    SYSDS_ASSIGN_OR_RETURN(std::string spec_json, ec->GetString(*spec));
    SYSDS_ASSIGN_OR_RETURN(TransformSpec tspec,
                           ParseTransformSpec(spec_json, f->Frame()));
    EncodeOptions opts = TransformEncodeOptions(ec, planned_output);
    SYSDS_ASSIGN_OR_RETURN(
        MultiColumnEncoder enc,
        MultiColumnEncoder::Fit(f->Frame(), tspec, opts.num_threads));
    SYSDS_ASSIGN_OR_RETURN(EncodedOutput x, enc.Apply(f->Frame(), opts));
    SetEncodedOutput(ec, outputs()[0], std::move(x));
    ec->SetOutput(outputs()[1],
                  std::make_shared<FrameObject>(enc.MetaFrame()));
    return Status::Ok();
  }
  if (op == "transformapply") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* spec, Param("spec"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* meta, Param("meta"));
    SYSDS_ASSIGN_OR_RETURN(FrameObject * f, ec->GetFrame(*target));
    SYSDS_ASSIGN_OR_RETURN(std::string spec_json, ec->GetString(*spec));
    SYSDS_ASSIGN_OR_RETURN(FrameObject * mf, ec->GetFrame(*meta));
    SYSDS_ASSIGN_OR_RETURN(TransformSpec tspec,
                           ParseTransformSpec(spec_json, f->Frame()));
    SYSDS_ASSIGN_OR_RETURN(
        MultiColumnEncoder enc,
        MultiColumnEncoder::FromMeta(tspec, mf->Frame(), f->Frame().Cols()));
    EncodeOptions opts = TransformEncodeOptions(ec, planned_output);
    SYSDS_ASSIGN_OR_RETURN(EncodedOutput x, enc.Apply(f->Frame(), opts));
    SetEncodedOutput(ec, outputs()[0], std::move(x));
    return Status::Ok();
  }
  if (op == "transformdecode") {
    SYSDS_ASSIGN_OR_RETURN(const Operand* target, Param("target"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* spec, Param("spec"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* meta, Param("meta"));
    SYSDS_ASSIGN_OR_RETURN(const Operand* like, Param("frame"));
    SYSDS_ASSIGN_OR_RETURN(MatrixObject * m, ec->GetMatrix(*target));
    SYSDS_ASSIGN_OR_RETURN(std::string spec_json, ec->GetString(*spec));
    SYSDS_ASSIGN_OR_RETURN(FrameObject * mf, ec->GetFrame(*meta));
    SYSDS_ASSIGN_OR_RETURN(FrameObject * lf, ec->GetFrame(*like));
    SYSDS_ASSIGN_OR_RETURN(TransformSpec tspec,
                           ParseTransformSpec(spec_json, lf->Frame()));
    SYSDS_ASSIGN_OR_RETURN(
        MultiColumnEncoder enc,
        MultiColumnEncoder::FromMeta(tspec, mf->Frame(), lf->Frame().Cols()));
    SYSDS_ACQUIRE_READ(b, m);
    auto decoded = enc.Decode(b, lf->Frame(), ec->NumThreads());
    m->Release();
    if (!decoded.ok()) return decoded.status();
    ec->SetOutput(outputs()[0],
                  std::make_shared<FrameObject>(std::move(*decoded)));
    return Status::Ok();
  }
  return RuntimeError("unknown parameterized builtin '" + op + "'");
}

Status ReadInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(std::string path, ec->GetString(inputs()[0]));
  SYSDS_ASSIGN_OR_RETURN(FormatDescriptor desc,
                         FormatDescriptor::FromFormatName(format));
  desc.header = header;
  desc.delimiter = sep;
  desc.num_threads = ec->NumThreads();
  if (data_type == "frame") {
    // Frames are csv text regardless of the matrix format name.
    FormatDescriptor fdesc =
        FormatDescriptor::Csv(sep, header, ec->NumThreads());
    SYSDS_ASSIGN_OR_RETURN(FrameBlock f, io::ReadFrame(path, fdesc));
    ec->SetOutput(outputs()[0], std::make_shared<FrameObject>(std::move(f)));
    return Status::Ok();
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock m, io::Read(path, desc));
  ec->SetOutput(outputs()[0], std::make_shared<MatrixObject>(std::move(m)));
  return Status::Ok();
}

Status WriteInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(inputs()[0]));
  SYSDS_ASSIGN_OR_RETURN(std::string path, ec->GetString(inputs()[1]));
  SYSDS_ASSIGN_OR_RETURN(FormatDescriptor desc,
                         FormatDescriptor::FromFormatName(format));
  desc.header = header;
  desc.delimiter = sep;
  if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
    SYSDS_ACQUIRE_READ(b, m);
    Status s = io::Write(b, path, desc);
    m->Release();
    return s;
  }
  if (auto* f = dynamic_cast<FrameObject*>(d.get())) {
    return io::Write(f->Frame(), path, FormatDescriptor::Csv(sep, header));
  }
  if (auto* s = dynamic_cast<ScalarObject*>(d.get())) {
    std::ofstream out(path);
    if (!out) return IoError("cannot open '" + path + "'");
    out << s->AsString() << "\n";
    return Status::Ok();
  }
  return RuntimeError("write: unsupported data type");
}

Status VariableInstr::Execute(ExecutionContext* ec) {
  const std::string& op = opcode();
  if (op == "rmvar") {
    for (const Operand& in : inputs()) {
      ec->Vars().Remove(in.name);
      if (ec->TracingEnabled()) ec->Lineage()->Remove(in.name);
    }
    return Status::Ok();
  }
  if (op == "cpvar" || op == "assignvar") {
    SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(inputs()[0]));
    ec->SetOutput(outputs()[0], std::move(d));
    return Status::Ok();
  }
  return RuntimeError("unknown variable op '" + op + "'");
}

Status PrintInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(DataPtr d, ec->Resolve(inputs()[0]));
  if (auto* m = dynamic_cast<MatrixObject*>(d.get())) {
    SYSDS_ACQUIRE_READ(b, m);
    ec->Out() << b.ToString() << std::endl;
    m->Release();
  } else if (auto* s = dynamic_cast<ScalarObject*>(d.get())) {
    ec->Out() << s->AsString() << std::endl;
  } else {
    ec->Out() << d->DebugString() << std::endl;
  }
  return Status::Ok();
}

Status StopInstr::Execute(ExecutionContext* ec) {
  std::string msg = "stop";
  if (!inputs().empty()) {
    auto s = ec->GetString(inputs()[0]);
    if (s.ok()) msg = *s;
  }
  return RuntimeError(msg);
}

Status FunctionCallInstr::Execute(ExecutionContext* ec) {
  SYSDS_ASSIGN_OR_RETURN(const FunctionBlock* fn,
                         ec->GetProgram()->GetFunction(function_name_));
  return fn->Execute(ec, inputs(), arg_names_, outputs());
}

}  // namespace sysds
