#include "compiler/compress_rewrite.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/controlprog/instructions_cp.h"

namespace sysds {

namespace {

// Read/write sets over a block subtree. Reads only track matrix-typed
// variable operands (scalars are never compression candidates); writes
// track every output name so a variable updated under any type is treated
// as loop-variant.
void CollectInstructions(const std::vector<InstructionPtr>& instructions,
                         std::set<std::string>* reads,
                         std::set<std::string>* writes) {
  for (const auto& instr : instructions) {
    for (const Operand& in : instr->inputs()) {
      if (!in.is_literal && in.dt == DataType::kMatrix) reads->insert(in.name);
    }
    for (const Operand& out : instr->outputs()) writes->insert(out.name);
  }
}

void CollectPredicate(const Predicate& p, std::set<std::string>* reads,
                      std::set<std::string>* writes) {
  CollectInstructions(p.instructions, reads, writes);
}

void CollectBlocks(const std::vector<ProgramBlockPtr>& blocks,
                   std::set<std::string>* reads,
                   std::set<std::string>* writes) {
  for (const auto& block : blocks) {
    ProgramBlock* b = block.get();
    if (auto* bb = dynamic_cast<BasicBlock*>(b)) {
      CollectInstructions(bb->Instructions(), reads, writes);
    } else if (auto* ifb = dynamic_cast<IfBlock*>(b)) {
      CollectPredicate(ifb->GetPredicate(), reads, writes);
      CollectBlocks(ifb->ThenBlocks(), reads, writes);
      CollectBlocks(ifb->ElseBlocks(), reads, writes);
    } else if (auto* wb = dynamic_cast<WhileBlock*>(b)) {
      CollectPredicate(wb->GetPredicate(), reads, writes);
      CollectBlocks(wb->Body(), reads, writes);
    } else if (auto* fb = dynamic_cast<ForBlock*>(b)) {
      CollectPredicate(fb->From(), reads, writes);
      CollectPredicate(fb->To(), reads, writes);
      CollectPredicate(fb->Increment(), reads, writes);
      writes->insert(fb->LoopVar());
      if (auto* pfb = dynamic_cast<ParForBlock*>(b)) {
        for (const std::string& v : pfb->ResultVars()) writes->insert(v);
      }
      CollectBlocks(fb->Body(), reads, writes);
    }
  }
}

// Builds the injected block: one compress(X) -> X per candidate. The
// instruction reuses the variable name, so downstream instructions see the
// compressed MatrixObject through the ordinary symbol table.
ProgramBlockPtr MakeCompressBlock(const std::set<std::string>& candidates) {
  auto bb = std::make_unique<BasicBlock>();
  for (const std::string& name : candidates) {
    auto instr = std::make_unique<CompressInstr>();
    Operand var = Operand::Var(name, DataType::kMatrix, ValueType::kFP64);
    instr->AddInput(var);
    instr->AddOutput(var);
    bb->Instructions().push_back(std::move(instr));
  }
  return bb;
}

// Walks a block list, injecting a compress block before each loop for the
// matrix variables the loop reads but never writes. Nested loops are
// rewritten too: an inner injection for an already-compressed variable
// early-outs on HasCompressed(), so redundancy costs one symbol lookup.
void RewriteBlockList(std::vector<ProgramBlockPtr>* blocks) {
  for (size_t i = 0; i < blocks->size(); ++i) {
    ProgramBlock* b = (*blocks)[i].get();
    if (auto* ifb = dynamic_cast<IfBlock*>(b)) {
      RewriteBlockList(&ifb->ThenBlocks());
      RewriteBlockList(&ifb->ElseBlocks());
      continue;
    }
    std::set<std::string> reads, writes;
    std::vector<ProgramBlockPtr>* body = nullptr;
    if (auto* wb = dynamic_cast<WhileBlock*>(b)) {
      CollectPredicate(wb->GetPredicate(), &reads, &writes);
      CollectBlocks(wb->Body(), &reads, &writes);
      body = &wb->Body();
    } else if (auto* fb = dynamic_cast<ForBlock*>(b)) {
      CollectPredicate(fb->From(), &reads, &writes);
      CollectPredicate(fb->To(), &reads, &writes);
      CollectPredicate(fb->Increment(), &reads, &writes);
      writes.insert(fb->LoopVar());
      if (auto* pfb = dynamic_cast<ParForBlock*>(b)) {
        for (const std::string& v : pfb->ResultVars()) writes.insert(v);
      }
      CollectBlocks(fb->Body(), &reads, &writes);
      body = &fb->Body();
    } else {
      continue;
    }
    RewriteBlockList(body);
    std::set<std::string> candidates;
    for (const std::string& r : reads) {
      if (writes.count(r) == 0) candidates.insert(r);
    }
    if (candidates.empty()) continue;
    blocks->insert(blocks->begin() + i, MakeCompressBlock(candidates));
    ++i;  // skip back over the loop block we just rewrote
  }
}

}  // namespace

void InjectCompression(Program* program, const DMLConfig& config) {
  if (!config.compression_enabled) return;
  RewriteBlockList(&program->Blocks());
  for (auto& [name, fn] : program->Functions()) {
    (void)name;
    RewriteBlockList(&fn->body);
  }
}

}  // namespace sysds
