//===- core/executor.h - Runtime evaluation of HashPlans --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SynthesizedHash evaluates a HashPlan at runtime — the in-process
/// equivalent of compiling the C++ source that core/codegen.h emits. The
/// plan is compiled once, at attach time, into a pair of fused kernels:
/// a per-key routine (one indirect call plus the plan's straight-line
/// steps, with the common step counts specialized so even the step loop
/// disappears) and a batch routine that hashes many keys per call. The
/// batch dispatch is a ladder: eight-key AVX2 vertical kernels for
/// fixed-length Naive/OffXor/Pext plans (gated on a runtime cpuid
/// probe), the four-way interleaved scalar kernels otherwise, and a
/// per-key loop for the variable-length/partial shapes. A "portable"
/// mode forces the software pext / AES paths, which is how the aarch64
/// experiment of RQ4 is reproduced on this host.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_EXECUTOR_H
#define SEPE_CORE_EXECUTOR_H

#include "core/plan.h"
#include "support/telemetry.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

class JitProgram;

/// Which specialized instructions the executor may use. NoBitExtract
/// models the paper's Jetson (RQ4): AES hardware present, pext/bext
/// absent. Portable forces the bit-exact software routines for
/// everything. The IsaLevel is an *upper bound*: at Native the executor
/// additionally consults the runtime cpuid probe (support/cpu_features.h)
/// before dispatching to the AVX2 wide kernels, so the same binary
/// degrades to the interleaved scalar kernels on hosts without AVX2.
enum class IsaLevel { Native, NoBitExtract, Portable };

/// The batch kernel families hashBatch can dispatch to, in increasing
/// width: a per-key loop over the single-key kernel, the four-way
/// interleaved scalar kernels (PR 1), the eight-key AVX2 vertical
/// kernels, and the attach-time JIT (core/jit.h) — straight-line
/// machine code emitted for the exact plan, no interpreter dispatch at
/// all. Auto picks the widest path the plan shape, the IsaLevel, and
/// the host CPU allow; the explicit values exist so the driver and
/// benchmarks can measure the ladder rung by rung. A request the plan
/// or host cannot honor resolves downward (Jit -> Avx2 -> Interleaved
/// -> Scalar), never upward.
enum class BatchPath { Auto, Scalar, Interleaved, Avx2, Jit };

/// Lower-case path name ("auto", "scalar", "interleaved", "avx2",
/// "jit") — the strings BENCH_*.json records so trajectories name the
/// kernel actually dispatched at runtime, not the compiled-in ceiling.
const char *batchPathName(BatchPath Path);

/// Per-call batch dispatch accounting: which rung ran, how many keys
/// the call carried, and how many tail keys fell off the end of the
/// 4-wide interleave groups (the stragglers every batch kernel finishes
/// on its per-key epilogue). Names must be literals per rung so the
/// macro's static caching applies.
inline void recordBatchDispatch(BatchPath Resolved, size_t N) {
  switch (Resolved) {
  case BatchPath::Auto: // Resolved is never Auto; keep -Wswitch happy.
    break;
  case BatchPath::Scalar:
    SEPE_COUNT("executor.batch.calls.scalar");
    SEPE_RECORD("executor.batch.keys.scalar", N);
    break;
  case BatchPath::Interleaved:
    SEPE_COUNT("executor.batch.calls.interleaved");
    SEPE_RECORD("executor.batch.keys.interleaved", N);
    break;
  case BatchPath::Avx2:
    SEPE_COUNT("executor.batch.calls.avx2");
    SEPE_RECORD("executor.batch.keys.avx2", N);
    break;
  case BatchPath::Jit:
    SEPE_COUNT("executor.batch.calls.jit");
    SEPE_RECORD("executor.batch.keys.jit", N);
    break;
  }
  SEPE_RECORD("executor.batch.tail_keys", N % 4);
}

/// A KeyPattern membership guard compiled against one plan's load
/// schedule (SynthesizedHash::compileGuard). When the plan is a
/// fixed-length xor shape, the guard's per-position constant-bit checks
/// are re-expressed as (mask, value) words aligned to the offsets the
/// batch kernel already loads — the fused kernel then verifies
/// membership with one AND+CMP on each word it was hashing anyway,
/// plus a handful of Extra windows for constant positions no hash load
/// covers (the constant prefixes of the URL formats). Fused() false
/// means the plan shape has no fused kernel and guarded dispatch falls
/// back to the membership-sweep-then-compact path.
struct BatchGuard {
  /// One standalone check: (loadU64Le(Key + Offset) & Mask) == Value.
  struct Check {
    uint32_t Offset = 0;
    uint64_t Mask = 0;
    uint64_t Value = 0;
  };

  bool fused() const { return Fused; }

  bool Fused = false;
  size_t KeyLen = 0;
  /// Aligned index-for-index with the plan's Steps.
  std::vector<uint64_t> StepMasks;
  std::vector<uint64_t> StepValues;
  std::vector<Check> Extra;
};

/// A container-ready hash functor backed by a HashPlan. Copyable and
/// cheap to copy (shared plan ownership), so it can be handed to
/// std::unordered_map like any other hasher.
class SynthesizedHash {
public:
  SynthesizedHash() = default;

  /// Wraps \p Plan, selecting evaluation routines for \p Isa.
  /// \p Preferred pins the batch kernel family; Auto (the default)
  /// dispatches on the plan shape and the host CPU.
  explicit SynthesizedHash(std::shared_ptr<const HashPlan> Plan,
                           IsaLevel Isa = IsaLevel::Native,
                           BatchPath Preferred = BatchPath::Auto);

  /// Convenience: takes ownership of a plan by value.
  explicit SynthesizedHash(HashPlan Plan, IsaLevel Isa = IsaLevel::Native,
                           BatchPath Preferred = BatchPath::Auto)
      : SynthesizedHash(std::make_shared<const HashPlan>(std::move(Plan)),
                        Isa, Preferred) {}

  bool valid() const { return Plan != nullptr; }
  const HashPlan &plan() const {
    assert(Plan && "no plan attached");
    return *Plan;
  }

  /// Hashes \p Key. Precondition: Key conforms to the plan's key format
  /// (length within bounds); out-of-format keys still produce a value
  /// but no dispersion guarantees hold — exactly the contract of the
  /// paper's generated functions.
  size_t operator()(std::string_view Key) const {
    assert(Plan && "hashing with an empty SynthesizedHash");
    return Eval(*Plan, Key.data(), Key.size());
  }

  /// Hashes \p N keys in one call: Out[i] = (*this)(Keys[i]),
  /// bit-identical to the per-key operator. The batch kernel is selected
  /// at attach time alongside the per-key kernel; fixed-length plans run
  /// an evaluator that interleaves four keys per iteration so their
  /// loads overlap. Same precondition as operator(): every key conforms
  /// to the plan's format.
  void hashBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const {
    assert(Plan && "hashing with an empty SynthesizedHash");
    if (telemetry::enabled())
      recordBatchDispatch(Resolved, N);
    Batch(*Plan, Keys, Out, N);
  }

  /// Guard-aware batch dispatch, the entry point the adaptive runtime
  /// (runtime/adaptive_hash.h) hashes through: every key admitted by
  /// \p Guard runs the batch kernel and lands in Out at its own index;
  /// the indices of the rejected keys are appended to \p MissIdx (caller
  /// provides capacity for N) and their Out slots are left untouched for
  /// the caller's fallback lane. The common all-admitted block costs one
  /// word-at-a-time membership sweep plus the ordinary hashBatch call —
  /// no compaction copy; mixed blocks compact the admitted keys so the
  /// batch kernel still runs wide. Returns the number of misses.
  size_t hashBatchGuarded(const KeyPattern &Guard,
                          const std::string_view *Keys, uint64_t *Out,
                          size_t N, uint32_t *MissIdx) const;

  /// Compiles \p Guard against this plan's load schedule (see
  /// BatchGuard). Returns a non-fused guard when the plan shape has no
  /// fused kernel — fixed-length Naive/OffXor plans whose loads lie
  /// inside the guarded length are the fusable set. The caller caches
  /// the result for the lifetime of the (plan, pattern) pair; the
  /// adaptive runtime compiles one per published generation.
  BatchGuard compileGuard(const KeyPattern &Guard) const;

  /// hashBatchGuarded with a precompiled guard. \p Compiled must have
  /// been built by compileGuard on this same hash with this same
  /// \p Guard. Fused guards run the guard compare inside the batch
  /// kernel on words it already loads, so steady-state overhead is a
  /// couple of ALU ops per word instead of a second membership sweep.
  size_t hashBatchGuarded(const KeyPattern &Guard, const BatchGuard &Compiled,
                          const std::string_view *Keys, uint64_t *Out,
                          size_t N, uint32_t *MissIdx) const;

  /// The batch kernel family hashBatch resolved to at attach time —
  /// never Auto; reflects what actually runs on this host.
  BatchPath batchPath() const { return Resolved; }

  /// Name of the resolved batch path ("scalar" | "interleaved" |
  /// "avx2" | "jit"); what the benchmarks record.
  const char *batchPathName() const { return sepe::batchPathName(Resolved); }

  /// The compiled program when the JIT rung resolved, nullptr on every
  /// interpreted rung — exposed so tests can assert the W^X property
  /// of the live mapping and benchmarks can report code bytes. The
  /// shared_ptr rides along with every copy of the hash, which is what
  /// keeps emitted code alive RCU-style inside retired adaptive-runtime
  /// generations until their last reader drops them.
  const JitProgram *jitProgram() const { return Jit.get(); }

private:
  using EvalFn = uint64_t (*)(const HashPlan &, const char *, size_t);
  using BatchFn = void (*)(const HashPlan &, const std::string_view *,
                           uint64_t *, size_t);

  struct BatchChoice {
    BatchFn Fn;
    BatchPath Path;
  };

  static EvalFn selectEval(const HashPlan &Plan, IsaLevel Isa);
  static BatchChoice selectBatch(const HashPlan &Plan, IsaLevel Isa,
                                 BatchPath Preferred);

  std::shared_ptr<const HashPlan> Plan;
  std::shared_ptr<const JitProgram> Jit;
  EvalFn Eval = nullptr;
  BatchFn Batch = nullptr;
  BatchPath Resolved = BatchPath::Scalar;
};

} // namespace sepe

#endif // SEPE_CORE_EXECUTOR_H
