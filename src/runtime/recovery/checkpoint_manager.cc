#include "runtime/recovery/checkpoint_manager.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/faults.h"
#include "io/atomic_file.h"
#include "io/io.h"
#include "lineage/lineage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/compress/compress_io.h"
#include "runtime/controlprog/execution_context.h"

namespace sysds {

namespace {

constexpr char kManifestHeader[] = "sysds-checkpoint v1";

// Variable file payload tags.
constexpr uint8_t kTagScalar = 0;
constexpr uint8_t kTagMatrix = 1;
constexpr uint8_t kTagCompressed = 2;
constexpr uint8_t kTagFrame = 3;

struct RecoveryMetrics {
  obs::Counter* checkpoints;
  obs::Counter* bytes_written;
  obs::Counter* resumes;
  obs::Counter* boundaries;
  obs::Counter* gate_skips;
  obs::Counter* failures;
};

RecoveryMetrics& Metrics() {
  static RecoveryMetrics m = {
      obs::MetricsRegistry::Get().GetCounter("recovery.checkpoints"),
      obs::MetricsRegistry::Get().GetCounter("recovery.bytes_written"),
      obs::MetricsRegistry::Get().GetCounter("recovery.resumes"),
      obs::MetricsRegistry::Get().GetCounter("recovery.boundaries"),
      obs::MetricsRegistry::Get().GetCounter("recovery.gate_skips"),
      obs::MetricsRegistry::Get().GetCounter("recovery.checkpoint_failures"),
  };
  return m;
}

Status WriteScalarPayload(const ScalarObject& s, std::ostream& out) {
  uint8_t vt = static_cast<uint8_t>(s.GetValueType());
  out.write(reinterpret_cast<const char*>(&vt), 1);
  switch (s.GetValueType()) {
    case ValueType::kInt64: {
      int64_t v = s.AsInt();
      out.write(reinterpret_cast<const char*>(&v), 8);
      break;
    }
    case ValueType::kBoolean: {
      uint8_t v = s.AsBool() ? 1 : 0;
      out.write(reinterpret_cast<const char*>(&v), 1);
      break;
    }
    case ValueType::kString: {
      std::string v = s.AsString();
      int64_t n = static_cast<int64_t>(v.size());
      out.write(reinterpret_cast<const char*>(&n), 8);
      out.write(v.data(), static_cast<std::streamsize>(n));
      break;
    }
    default: {  // FP64 (and FP32/unknown scalars, stored as double bits)
      double v = s.AsDouble();
      out.write(reinterpret_cast<const char*>(&v), 8);
      break;
    }
  }
  if (!out) return IoError("scalar checkpoint write failed");
  return Status::Ok();
}

StatusOr<DataPtr> ReadScalarPayload(io::PayloadReader& in) {
  uint8_t vt = 0;
  if (!in.ReadPod(&vt)) return CorruptError("truncated scalar checkpoint");
  switch (static_cast<ValueType>(vt)) {
    case ValueType::kInt64: {
      int64_t v = 0;
      if (!in.ReadPod(&v)) return CorruptError("truncated scalar checkpoint");
      return ScalarObject::MakeInt(v);
    }
    case ValueType::kBoolean: {
      uint8_t v = 0;
      if (!in.ReadPod(&v)) return CorruptError("truncated scalar checkpoint");
      return ScalarObject::MakeBool(v != 0);
    }
    case ValueType::kString: {
      int64_t n = 0;
      if (!in.ReadPod(&n) || !in.Fits(n, 1)) {
        return CorruptError("truncated scalar checkpoint");
      }
      std::string v(static_cast<size_t>(n), '\0');
      if (!in.Read(v.data(), n)) {
        return CorruptError("truncated scalar checkpoint");
      }
      return ScalarObject::MakeString(std::move(v));
    }
    default: {
      double v = 0.0;
      if (!in.ReadPod(&v)) return CorruptError("truncated scalar checkpoint");
      return ScalarObject::MakeDouble(v);
    }
  }
}

Status WriteVarPayload(Data* d, std::ostream& out) {
  switch (d->GetDataType()) {
    case DataType::kScalar: {
      out.write(reinterpret_cast<const char*>(&kTagScalar), 1);
      return WriteScalarPayload(*static_cast<ScalarObject*>(d), out);
    }
    case DataType::kMatrix: {
      auto* m = static_cast<MatrixObject*>(d);
      if (m->HasCompressed()) {
        out.write(reinterpret_cast<const char*>(&kTagCompressed), 1);
        SYSDS_ASSIGN_OR_RETURN(const CompressedMatrixBlock* cb,
                               m->AcquireCompressed());
        Status st = WriteCompressedStream(*cb, out);
        m->Release();
        return st;
      }
      out.write(reinterpret_cast<const char*>(&kTagMatrix), 1);
      SYSDS_ASSIGN_OR_RETURN(const MatrixBlock* mb, m->AcquireRead());
      Status st = io::WriteMatrixBinaryStream(*mb, out);
      m->Release();
      return st;
    }
    case DataType::kFrame: {
      out.write(reinterpret_cast<const char*>(&kTagFrame), 1);
      return io::WriteFrameBinaryStream(
          static_cast<FrameObject*>(d)->Frame(), out);
    }
    default:
      return Unimplemented("checkpoint: unsupported data type");
  }
}

// Parses a variable file's payload of `size` bytes: a tag byte, then the
// value in its own codec.
StatusOr<DataPtr> ReadVarPayload(std::istream& in, int64_t size) {
  io::PayloadReader reader(in, size);
  uint8_t tag = 0;
  if (!reader.ReadPod(&tag)) {
    return CorruptError("truncated checkpoint payload");
  }
  const int64_t rest = reader.remaining();
  switch (tag) {
    case kTagScalar:
      return ReadScalarPayload(reader);
    case kTagMatrix: {
      SYSDS_ASSIGN_OR_RETURN(MatrixBlock m,
                             io::ReadMatrixBinaryStream(in, rest));
      return std::static_pointer_cast<Data>(
          std::make_shared<MatrixObject>(std::move(m)));
    }
    case kTagCompressed: {
      SYSDS_ASSIGN_OR_RETURN(CompressedMatrixBlock c,
                             ReadCompressedStream(in, rest));
      return std::static_pointer_cast<Data>(
          std::make_shared<MatrixObject>(std::move(c)));
    }
    case kTagFrame: {
      SYSDS_ASSIGN_OR_RETURN(FrameBlock f, io::ReadFrameBinaryStream(in, rest));
      return std::static_pointer_cast<Data>(
          std::make_shared<FrameObject>(std::move(f)));
    }
    default:
      return CorruptError("unknown checkpoint payload tag");
  }
}

bool IsCheckpointableType(const Data& d) {
  switch (d.GetDataType()) {
    case DataType::kScalar:
    case DataType::kMatrix:
    case DataType::kFrame:
      return true;
    default:
      return false;
  }
}

std::string HexU64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

uint64_t ProgramIdentityHash(const std::string& explain_text) {
  static constexpr const char* kPrefixes[] = {"_mVar", "__pred"};
  std::string canon;
  canon.reserve(explain_text.size());
  std::map<std::string, int> remap;
  int next_index[2] = {0, 0};
  size_t i = 0;
  auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  while (i < explain_text.size()) {
    bool matched = false;
    for (int p = 0; p < 2; ++p) {
      const size_t plen = std::char_traits<char>::length(kPrefixes[p]);
      if (explain_text.compare(i, plen, kPrefixes[p]) != 0 ||
          i + plen >= explain_text.size() ||
          !is_digit(explain_text[i + plen])) {
        continue;
      }
      size_t j = i + plen;
      while (j < explain_text.size() && is_digit(explain_text[j])) ++j;
      auto [it, inserted] =
          remap.try_emplace(explain_text.substr(i, j - i), next_index[p]);
      if (inserted) ++next_index[p];
      canon.append(kPrefixes[p]).append(std::to_string(it->second));
      i = j;
      matched = true;
      break;
    }
    if (!matched) canon.push_back(explain_text[i++]);
  }
  return HashString(canon);
}

CheckpointManager::CheckpointManager(Options options, uint64_t program_hash)
    : options_(std::move(options)),
      program_hash_(program_hash),
      seed_start_(GetSeedState()) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
}

std::string CheckpointManager::ManifestPath(int loop_id) const {
  return options_.dir + "/manifest_loop" + std::to_string(loop_id) + ".ckpt";
}

std::string CheckpointManager::VarFilePath(int loop_id, int64_t generation,
                                           size_t var_index) const {
  return options_.dir + "/loop" + std::to_string(loop_id) + "_g" +
         std::to_string(generation) + "_v" + std::to_string(var_index) +
         ".bin";
}

std::string CheckpointManager::SerializeManifest(const Manifest& m) {
  std::ostringstream os;
  os << kManifestHeader << "\n";
  os << "program " << HexU64(m.program_hash) << "\n";
  os << "loop " << m.loop_id << "\n";
  os << "generation " << m.generation << "\n";
  os << "completed " << m.completed << "\n";
  os << "seed_start " << m.seed_start.base << " " << m.seed_start.counter
     << "\n";
  os << "seed_now " << m.seed_now.base << " " << m.seed_now.counter << "\n";
  os << "vars " << m.vars.size() << "\n";
  for (const ManifestVar& v : m.vars) {
    os << "v " << HexU64(v.lineage_hash) << " " << v.file << " " << v.name
       << "\n";
  }
  os << "invariants " << m.invariants.size() << "\n";
  for (const auto& [name, hash] : m.invariants) {
    os << "i " << HexU64(hash) << " " << name << "\n";
  }
  return os.str();
}

StatusOr<CheckpointManager::Manifest> CheckpointManager::ParseManifest(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return CorruptError("checkpoint manifest: bad header");
  }
  Manifest m;
  std::string key;
  auto fail = [] { return CorruptError("checkpoint manifest: malformed"); };
  std::string hex;
  if (!(in >> key >> hex) || key != "program") return fail();
  m.program_hash = std::stoull(hex, nullptr, 16);
  if (!(in >> key >> m.loop_id) || key != "loop") return fail();
  if (!(in >> key >> m.generation) || key != "generation") return fail();
  if (!(in >> key >> m.completed) || key != "completed") return fail();
  if (!(in >> key >> m.seed_start.base >> m.seed_start.counter) ||
      key != "seed_start") {
    return fail();
  }
  if (!(in >> key >> m.seed_now.base >> m.seed_now.counter) ||
      key != "seed_now") {
    return fail();
  }
  size_t nvars = 0;
  if (!(in >> key >> nvars) || key != "vars") return fail();
  m.vars.resize(nvars);
  for (ManifestVar& v : m.vars) {
    if (!(in >> key >> hex >> v.file >> v.name) || key != "v") return fail();
    v.lineage_hash = std::stoull(hex, nullptr, 16);
  }
  size_t ninv = 0;
  if (!(in >> key >> ninv) || key != "invariants") return fail();
  m.invariants.resize(ninv);
  for (auto& [name, hash] : m.invariants) {
    if (!(in >> key >> hex >> name) || key != "i") return fail();
    hash = std::stoull(hex, nullptr, 16);
  }
  return m;
}

Status CheckpointManager::PrepareResume() {
  if (!options_.resume) return Status::Ok();
  SYSDS_SPAN("recovery", "prepare_resume");
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (ec) return Status::Ok();  // empty/missing dir: nothing to resume
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest_loop", 0) != 0) continue;
    // The manifest text is parsed only once its CRC has verified.
    std::string text;
    SYSDS_RETURN_IF_ERROR(io::ReadVerified(
        entry.path().string(), [&text](std::istream& in, int64_t size) {
          text.resize(static_cast<size_t>(size));
          return in.read(text.data(), static_cast<std::streamsize>(size))
                     ? Status::Ok()
                     : CorruptError("truncated checkpoint manifest");
        }));
    SYSDS_ASSIGN_OR_RETURN(Manifest m, ParseManifest(text));
    if (m.program_hash != program_hash_) {
      return ValidateError(
          "checkpoint version mismatch: manifest '" + name +
          "' was written by a different program (hash " +
          HexU64(m.program_hash) + ", this run " + HexU64(program_hash_) +
          "); delete the checkpoint directory to start fresh");
    }
    resumable_[m.loop_id] = std::move(m);
  }
  if (!resumable_.empty()) {
    // Every manifest of one run records the same start state; restore it so
    // the re-executed prefix draws the original run's generated seeds.
    seed_start_ = resumable_.begin()->second.seed_start;
    SetSeedState(seed_start_);
  }
  return Status::Ok();
}

bool CheckpointManager::BeginLoop(int loop_id) {
  if (loop_id < 0 || active_loop_ != -1) return false;
  active_loop_ = loop_id;
  generation_ = 0;
  last_checkpoint_iter_ = 0;
  last_checkpoint_bytes_ = 0;
  since_checkpoint_.Reset();
  return true;
}

void CheckpointManager::EndLoop(int loop_id, bool completed) {
  if (active_loop_ != loop_id) return;
  active_loop_ = -1;
  if (completed) DeleteLoopState(loop_id);
}

void CheckpointManager::DeleteLoopState(int loop_id) {
  std::error_code ec;
  std::filesystem::remove(ManifestPath(loop_id), ec);
  const std::string prefix = "loop" + std::to_string(loop_id) + "_g";
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

StatusOr<int64_t> CheckpointManager::TryResume(int loop_id,
                                               const LoopLiveness& liveness,
                                               ExecutionContext* ec) {
  auto it = resumable_.find(loop_id);
  if (it == resumable_.end()) return static_cast<int64_t>(0);
  SYSDS_SPAN("recovery", "resume");
  Manifest m = std::move(it->second);
  resumable_.erase(it);

  // Invariant reads were recomputed by the re-executed prefix; their lineage
  // must hash to what the original run recorded, or the checkpointed state
  // is inconsistent with this run's inputs.
  for (const auto& [name, hash] : m.invariants) {
    if (hash == 0) continue;
    LineageItemPtr cur = ec->Lineage()->GetOrNull(name);
    if (cur != nullptr && cur->hash() != hash) {
      return ValidateError(
          "checkpoint resume: invariant input '" + name +
          "' has different lineage than when the checkpoint was taken");
    }
  }

  for (const ManifestVar& v : m.vars) {
    DataPtr restored;
    Status read = io::ReadVerified(
        options_.dir + "/" + v.file,
        [&restored](std::istream& in, int64_t size) -> Status {
          SYSDS_ASSIGN_OR_RETURN(restored, ReadVarPayload(in, size));
          return Status::Ok();
        });
    if (!read.ok()) {
      return Status(read.code(), "checkpoint resume: variable '" + v.name +
                                     "': " + read.message());
    }
    ec->SetVar(v.name, std::move(restored));
    if (ec->TracingEnabled()) {
      // Restored state re-enters the trace as a leaf carrying the original
      // lineage key, so downstream tracing (and loop dedup) stays stable.
      ec->Lineage()->Set(
          v.name, LineageItem::Leaf("ckpt", v.name + "#" +
                                                HexU64(v.lineage_hash)));
    }
  }
  (void)liveness;

  // Post-resume iterations must draw the seeds the original run would have.
  SetSeedState(m.seed_now);
  generation_ = m.generation;
  last_checkpoint_iter_ = m.completed;
  since_checkpoint_.Reset();
  Metrics().resumes->Add(1);
  obs::Tracer::Instant("recovery", "resume");
  return m.completed;
}

bool CheckpointManager::GateOpen(int64_t completed) {
  if (options_.interval > 0) {
    return completed - last_checkpoint_iter_ >= options_.interval;
  }
  // Adaptive: balance re-execution cost (work since the last checkpoint)
  // against the cost of writing one. The first boundary always writes to
  // calibrate throughput.
  if (checkpoints_written_ == 0) return true;
  double lost_work = since_checkpoint_.ElapsedSeconds();
  double est_write =
      std::max(static_cast<double>(last_checkpoint_bytes_) / write_throughput_,
               1e-4);
  return lost_work >= options_.cost_factor * est_write;
}

Status CheckpointManager::WriteCheckpoint(int loop_id,
                                          const LoopLiveness& liveness,
                                          int64_t completed,
                                          ExecutionContext* ec) {
  SYSDS_SPAN("recovery", "checkpoint");
  Timer write_timer;
  const int64_t gen = generation_ + 1;
  Manifest m;
  m.program_hash = program_hash_;
  m.loop_id = loop_id;
  m.generation = gen;
  m.completed = completed;
  m.seed_start = seed_start_;
  m.seed_now = GetSeedState();

  int64_t bytes = 0;
  for (size_t i = 0; i < liveness.checkpoint_vars.size(); ++i) {
    const std::string& name = liveness.checkpoint_vars[i];
    DataPtr d = ec->Vars().GetOrNull(name);
    if (d == nullptr) continue;  // not assigned yet (conditional write)
    if (!IsCheckpointableType(*d)) {
      return Unimplemented("checkpoint: variable '" + name +
                           "' has an unsupported data type");
    }
    std::string file = VarFilePath(loop_id, gen, i);
    SYSDS_RETURN_IF_ERROR(io::WriteAtomic(
        file, [&](std::ostream& out) { return WriteVarPayload(d.get(), out); }));
    std::error_code fec;
    bytes += static_cast<int64_t>(std::filesystem::file_size(file, fec));
    ManifestVar mv;
    mv.name = name;
    mv.file = std::filesystem::path(file).filename().string();
    LineageItemPtr li =
        ec->TracingEnabled() ? ec->Lineage()->GetOrNull(name) : nullptr;
    mv.lineage_hash = li != nullptr ? li->hash() : 0;
    m.vars.push_back(std::move(mv));
  }
  for (const std::string& name : liveness.invariant_reads) {
    LineageItemPtr li =
        ec->TracingEnabled() ? ec->Lineage()->GetOrNull(name) : nullptr;
    m.invariants.emplace_back(name, li != nullptr ? li->hash() : 0);
  }

  // The manifest rename is the commit point; only then does the previous
  // generation become garbage.
  std::string manifest_text = SerializeManifest(m);
  SYSDS_RETURN_IF_ERROR(io::WriteAtomic(
      ManifestPath(loop_id), [&](std::ostream& out) -> Status {
        out << manifest_text;
        return out ? Status::Ok() : IoError("manifest write failed");
      }));
  if (generation_ > 0) {
    for (size_t i = 0; i < liveness.checkpoint_vars.size(); ++i) {
      std::error_code fec;
      std::filesystem::remove(VarFilePath(loop_id, generation_, i), fec);
    }
  }
  generation_ = gen;
  last_checkpoint_iter_ = completed;
  last_checkpoint_bytes_ = bytes;
  double elapsed = write_timer.ElapsedSeconds();
  if (bytes > 0 && elapsed > 1e-9) {
    // EMA throughput calibration for the adaptive gate.
    write_throughput_ = 0.7 * write_throughput_ + 0.3 * (bytes / elapsed);
  }
  since_checkpoint_.Reset();
  ++checkpoints_written_;
  Metrics().checkpoints->Add(1);
  Metrics().bytes_written->Add(bytes);
  return Status::Ok();
}

Status CheckpointManager::AtBoundary(int loop_id, const LoopLiveness& liveness,
                                     int64_t completed, ExecutionContext* ec) {
  Metrics().boundaries->Add(1);
  if (GateOpen(completed)) {
    Status st = WriteCheckpoint(loop_id, liveness, completed, ec);
    if (!st.ok()) {
      // Checkpointing is best-effort: a failed write costs recovery
      // granularity, not the run. The committed previous generation (if
      // any) stays valid.
      Metrics().failures->Add(1);
      obs::Tracer::Instant("recovery", "checkpoint_failed");
    }
  } else {
    Metrics().gate_skips->Add(1);
  }
  // Deterministic kill point: simulate a process crash at exactly this
  // boundary. kAborted is non-retryable and unwinds the whole run.
  if (FaultInjector::Get().ShouldInject(FaultLayer::kRecovery, loop_id,
                                        FaultKind::kCrash)) {
    return AbortedError("simulated crash at checkpoint boundary " +
                        std::to_string(completed) + " of loop " +
                        std::to_string(loop_id));
  }
  return Status::Ok();
}

CheckpointScope::CheckpointScope(ExecutionContext* ec,
                                 const LoopLiveness& liveness)
    : liveness_(liveness) {
  CheckpointManager* cm = ec->Checkpoints();
  if (cm != nullptr && cm->BeginLoop(liveness.loop_id)) manager_ = cm;
}

CheckpointScope::~CheckpointScope() {
  if (manager_ != nullptr && !finished_) {
    manager_->EndLoop(liveness_.loop_id, /*completed=*/false);
  }
}

StatusOr<int64_t> CheckpointScope::TryResume(ExecutionContext* ec) {
  if (manager_ == nullptr) return static_cast<int64_t>(0);
  return manager_->TryResume(liveness_.loop_id, liveness_, ec);
}

Status CheckpointScope::AtBoundary(ExecutionContext* ec, int64_t completed) {
  if (manager_ == nullptr) return Status::Ok();
  return manager_->AtBoundary(liveness_.loop_id, liveness_, completed, ec);
}

Status CheckpointScope::Finish() {
  if (manager_ != nullptr && !finished_) {
    finished_ = true;
    manager_->EndLoop(liveness_.loop_id, /*completed=*/true);
  }
  return Status::Ok();
}

}  // namespace sysds
