//===- mphf/mphf.cpp - MPHF construction and evaluation ------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Build strategy: compute one 64-bit base image per key (extraction
// plan + bijective finalizer when available, seeded raw mix otherwise),
// then hand the image set to the tier builder. Every tier is a search
// over pilot values scored against the images only — keys are never
// touched again after imaging, which is what keeps million-key builds
// fast. Any search overrun or (astronomically unlikely) image collision
// restarts the whole build under the next seed; restarts that never
// converge mean the input contains duplicate keys, which is detected
// exactly and reported as such.
//
// The Split tier's buckets are independent and each bucket's pilots
// depend only on its set of images, so the build runs flat and in
// parallel without changing a single pilot: one counting sort lays the
// images out bucket by bucket, the node counts of the bucket sizes fix
// where every bucket's pilots go, and workers search contiguous bucket
// ranges writing straight into their slice of the pilot array. Imaging
// and the final bijection check run over key chunks the same way.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf.h"

#include "core/format_spec.h"
#include "core/synthesizer.h"
#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <utility>

using namespace sepe;

const char *sepe::mphfTierName(MphfTier Tier) {
  switch (Tier) {
  case MphfTier::Mixer:
    return "Mixer";
  case MphfTier::Displace:
    return "Displace";
  case MphfTier::Split:
    return "Split";
  }
  return "?";
}

bool sepe::parseMphfTier(std::string_view Name, MphfTier &Tier) {
  if (Name == "Mixer") {
    Tier = MphfTier::Mixer;
    return true;
  }
  if (Name == "Displace") {
    Tier = MphfTier::Displace;
    return true;
  }
  if (Name == "Split") {
    Tier = MphfTier::Split;
    return true;
  }
  return false;
}

std::vector<uint32_t> sepe::mphfSplitNodeCounts(uint32_t MaxBucket,
                                                uint32_t LeafMax) {
  std::vector<uint32_t> Nodes(size_t{MaxBucket} + 1, 1);
  Nodes[0] = 0;
  for (size_t M = size_t{LeafMax} + 1; M <= MaxBucket; ++M)
    Nodes[M] = 1 + Nodes[M / 2] + Nodes[M - M / 2];
  return Nodes;
}

size_t MphfPlan::bytesUsed() const {
  return Displace.size() * sizeof(uint32_t) + Pilots.bytesUsed() +
         Offsets.bytesUsed() + PilotStarts.bytesUsed();
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

Mphf::Mphf(std::shared_ptr<const MphfPlan> PlanIn)
    : Plan(std::move(PlanIn)) {
  assert(Plan && "attaching a null MPHF plan");
  SeedMix = mphfMix64(Plan->Seed);
  if (!Plan->RawBase) {
    assert(Plan->Extract && "extraction-based plan without a HashPlan");
    Base = SynthesizedHash(Plan->Extract);
    ExtractMinLen = Plan->Extract->MinKeyLen;
    ExtractMaxLen = Plan->Extract->MaxKeyLen;
  }
  if (Plan->NumBuckets >= 2 && std::has_single_bit(Plan->NumBuckets))
    BucketShift =
        64 - static_cast<unsigned>(std::countr_zero(Plan->NumBuckets));
  if (Plan->Tier == MphfTier::Split) {
    const std::vector<uint64_t> Offs = Plan->Offsets.decode();
    const std::vector<uint64_t> Starts = Plan->PilotStarts.decode();
    const size_t B = Offs.empty() ? 0 : Offs.size() - 1;
    BucketCache.resize(B);
    uint32_t MaxBucket = 0;
    for (size_t I = 0; I != B; ++I) {
      BucketRef &BR = BucketCache[I];
      BR.Off = static_cast<uint32_t>(Offs[I]);
      BR.Size = static_cast<uint32_t>(Offs[I + 1] - Offs[I]);
      BR.PilotStart = static_cast<uint32_t>(Starts[I]);
      BR.RootPilot =
          BR.Size == 0 ? 0
                       : static_cast<uint32_t>(Plan->Pilots.get(BR.PilotStart));
      MaxBucket = std::max(MaxBucket, BR.Size);
    }
    NodeCount = mphfSplitNodeCounts(MaxBucket, Plan->LeafMax);
  }
}

void Mphf::baseBatch(const std::string_view *Keys, uint64_t *Out,
                     size_t N) const {
  assert(Plan && "evaluating an empty Mphf");
  if (Plan->RawBase ||
      !std::all_of(Keys, Keys + N,
                   [this](std::string_view K) { return extracts(K); })) {
    for (size_t I = 0; I != N; ++I)
      Out[I] = baseImage(Keys[I]);
    return;
  }
  Base.hashBatch(Keys, Out, N);
  for (size_t I = 0; I != N; ++I)
    Out[I] ^= SeedMix;
}

void Mphf::evalBatch(const std::string_view *Keys, uint64_t *Out,
                     size_t N) const {
  baseBatch(Keys, Out, N);
  for (size_t I = 0; I != N; ++I)
    Out[I] = slotFromBase(Out[I]);
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

namespace {

/// True when two of \p Images are equal. A sorted copy finds them; the
/// keys are read only for the images that repeat, to set DuplicateKeys
/// when two of those keys are byte-identical (a user error no reseed
/// can fix). The exact tiers run it over their whole (at most
/// ExactMax-key) set; the Split tier finds repeats bucket by bucket and
/// runs it only to tell what a repeat it found means.
bool imagesCollide(const std::vector<uint64_t> &Images,
                   const std::string_view *Keys, bool &DuplicateKeys) {
  DuplicateKeys = false;
  std::vector<uint64_t> Sorted(Images);
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<uint64_t> Repeated;
  for (size_t I = 0; I + 1 < Sorted.size(); ++I)
    if (Sorted[I] == Sorted[I + 1] &&
        (Repeated.empty() || Repeated.back() != Sorted[I]))
      Repeated.push_back(Sorted[I]);
  if (Repeated.empty())
    return false;
  std::vector<std::pair<uint64_t, std::string_view>> Clash;
  for (size_t I = 0; I != Images.size(); ++I)
    if (std::binary_search(Repeated.begin(), Repeated.end(), Images[I]))
      Clash.emplace_back(Images[I], Keys[I]);
  std::sort(Clash.begin(), Clash.end());
  DuplicateKeys =
      std::adjacent_find(Clash.begin(), Clash.end()) != Clash.end();
  return true;
}

/// Base images grouped by bucket with one counting sort: bucket b holds
/// Images[Start[b], Start[b + 1]), in input order. One flat array, not
/// a heap block per bucket.
struct BucketedImages {
  std::vector<uint64_t> Images;
  std::vector<uint64_t> Start; ///< NumBuckets + 1 cumulative sizes.

  uint64_t *begin(size_t Bucket) { return Images.data() + Start[Bucket]; }
  uint64_t *end(size_t Bucket) { return Images.data() + Start[Bucket + 1]; }
  uint64_t size(size_t Bucket) const {
    return Start[Bucket + 1] - Start[Bucket];
  }
};

BucketedImages bucketImages(const std::vector<uint64_t> &Bases,
                            uint32_t NumBuckets) {
  BucketedImages Out;
  std::vector<uint32_t> BucketOf(Bases.size());
  Out.Start.assign(size_t{NumBuckets} + 1, 0);
  for (size_t I = 0; I != Bases.size(); ++I) {
    BucketOf[I] = static_cast<uint32_t>(
        mphfFastRange(mphfBucketHash(Bases[I]), NumBuckets));
    ++Out.Start[BucketOf[I] + 1];
  }
  for (size_t B = 0; B != NumBuckets; ++B)
    Out.Start[B + 1] += Out.Start[B];
  std::vector<uint64_t> Fill(Out.Start.begin(), Out.Start.end() - 1);
  Out.Images.resize(Bases.size());
  for (size_t I = 0; I != Bases.size(); ++I)
    Out.Images[Fill[BucketOf[I]]++] = Bases[I];
  return Out;
}

/// Exact-synthesis tier: search one multiply-fold constant that is
/// already a bijection onto [0, n).
bool buildMixer(const std::vector<uint64_t> &Bases, uint64_t SeedMix,
                const MphfBuildOptions &Options, MphfPlan &Plan) {
  const uint64_t N = Bases.size();
  assert(N <= 64 && "mixer tier bitmap holds at most 64 slots");
  for (uint64_t Try = 0; Try != Options.MixerTries; ++Try) {
    const uint64_t C = mphfMix64(SeedMix ^ (Try * 0x9E3779B97F4A7C15ull)) | 1;
    uint64_t Taken = 0;
    bool Ok = true;
    for (uint64_t B : Bases) {
      const uint64_t Slot = mphfFastRange(mulFold(B, C), N);
      if ((Taken >> Slot) & 1) {
        Ok = false;
        break;
      }
      Taken |= uint64_t{1} << Slot;
    }
    if (Ok) {
      Plan.Tier = MphfTier::Mixer;
      Plan.MixerC = C;
      return true;
    }
  }
  return false;
}

/// CHD-style displacement: greedy per-bucket pilot search, hardest
/// (largest) buckets first.
bool buildDisplace(const std::vector<uint64_t> &Bases,
                   const MphfBuildOptions &Options, MphfPlan &Plan) {
  const uint64_t N = Bases.size();
  const uint32_t B = static_cast<uint32_t>(std::max<uint64_t>(1, (N + 3) / 4));
  BucketedImages Buckets = bucketImages(Bases, B);
  std::vector<uint32_t> Order(B);
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t C) {
    return Buckets.size(A) > Buckets.size(C);
  });

  std::vector<bool> Used(N, false);
  std::vector<uint64_t> Slots;
  Plan.Displace.assign(B, 0);
  for (uint32_t Bucket : Order) {
    if (Buckets.size(Bucket) == 0)
      continue;
    bool Placed = false;
    for (uint32_t Pilot = 0; Pilot != Options.PilotLimit; ++Pilot) {
      Slots.clear();
      bool Ok = true;
      for (const uint64_t *Base = Buckets.begin(Bucket);
           Base != Buckets.end(Bucket); ++Base) {
        const uint64_t Slot = mphfFastRange(mphfSlotHash(*Base, Pilot), N);
        if (Used[Slot] ||
            std::find(Slots.begin(), Slots.end(), Slot) != Slots.end()) {
          Ok = false;
          break;
        }
        Slots.push_back(Slot);
      }
      if (Ok) {
        for (uint64_t Slot : Slots)
          Used[Slot] = true;
        Plan.Displace[Bucket] = Pilot;
        Placed = true;
        break;
      }
    }
    if (!Placed)
      return false;
  }
  Plan.Tier = MphfTier::Displace;
  Plan.NumBuckets = B;
  return true;
}

/// One recursive splitting tree over the bases [Begin, End) of one
/// bucket. Pilots are written in DFS preorder at Pilot, which advances
/// past them; bases are reordered in place so each child works on a
/// contiguous range. Every pilot found depends only on the set of
/// bases, not on their order.
bool buildSplitNode(uint64_t *Begin, uint64_t *End,
                    const MphfBuildOptions &Options, uint64_t *&Pilot) {
  const uint32_t M = static_cast<uint32_t>(End - Begin);
  if (M == 0)
    return true;
  if (M <= Options.LeafMax) {
    // Leaf: brute-force a pilot whose slot assignment is a bijection.
    for (uint64_t P = 0; P != Options.PilotLimit; ++P) {
      uint64_t Taken = 0;
      bool Ok = true;
      for (const uint64_t *Base = Begin; Base != End; ++Base) {
        const uint64_t Slot = mphfFastRange(mphfSlotHash(*Base, P), M);
        if ((Taken >> Slot) & 1) {
          Ok = false;
          break;
        }
        Taken |= uint64_t{1} << Slot;
      }
      if (Ok) {
        *Pilot++ = P;
        return true;
      }
    }
    return false;
  }
  // Interior node: find a pilot sending exactly floor(M/2) keys into
  // the low half of [0, M), then recurse on the two halves.
  const uint32_t M1 = M >> 1;
  uint64_t Found = ~uint64_t{0};
  for (uint64_t P = 0; P != Options.PilotLimit; ++P) {
    uint32_t Low = 0;
    for (const uint64_t *Base = Begin; Base != End; ++Base)
      if (mphfFastRange(mphfSlotHash(*Base, P), M) < M1)
        ++Low;
    if (Low == M1) {
      Found = P;
      break;
    }
  }
  if (Found == ~uint64_t{0})
    return false;
  *Pilot++ = Found;
  std::stable_partition(Begin, End, [&](uint64_t Base) {
    return mphfFastRange(mphfSlotHash(Base, Found), M) < M1;
  });
  return buildSplitNode(Begin, Begin + M1, Options, Pilot) &&
         buildSplitNode(Begin + M1, End, Options, Pilot);
}

/// How a tier build ended: Collided means two base images are equal,
/// which no pilot can separate.
enum class BuildOutcome { Built, Collided, Failed };

/// RecSplit-style tier: bucket, then one splitting tree per bucket,
/// searched in parallel over contiguous bucket ranges. Equal images
/// share a bucket, so each bucket is checked for repeats before its
/// search instead of sorting the whole set.
BuildOutcome buildSplit(const std::vector<uint64_t> &Bases,
                        const MphfBuildOptions &Options, MphfPlan &Plan) {
  const uint64_t N = Bases.size();
  // Rounding the bucket count UP to a power of two lets the evaluator
  // turn bucket selection into a shift (see Mphf::bucketOf) and only
  // ever shrinks the average bucket, i.e. fewer interior splits.
  const uint32_t B = static_cast<uint32_t>(std::bit_ceil(
      std::max<uint64_t>(1, (N + Options.AvgBucket - 1) / Options.AvgBucket)));
  BucketedImages Buckets = bucketImages(Bases, B);

  // A bucket's pilot count follows from its size alone, so every
  // bucket's place in the DFS-preorder pilot array is known before any
  // search runs.
  uint64_t MaxBucket = 0;
  for (uint32_t Bucket = 0; Bucket != B; ++Bucket)
    MaxBucket = std::max(MaxBucket, Buckets.size(Bucket));
  const std::vector<uint32_t> Nodes =
      mphfSplitNodeCounts(static_cast<uint32_t>(MaxBucket), Options.LeafMax);
  std::vector<uint64_t> PilotStarts(size_t{B} + 1, 0);
  for (uint32_t Bucket = 0; Bucket != B; ++Bucket)
    PilotStarts[Bucket + 1] =
        PilotStarts[Bucket] + Nodes[Buckets.size(Bucket)];
  std::vector<uint64_t> Pilots(PilotStarts[B]);

  std::atomic<BuildOutcome> Outcome{BuildOutcome::Built};
  parallelFor(B, [&](size_t Begin, size_t End) {
    for (size_t Bucket = Begin; Bucket != End; ++Bucket) {
      if (Outcome.load(std::memory_order_relaxed) != BuildOutcome::Built)
        return;
      uint64_t *First = Buckets.begin(Bucket), *Last = Buckets.end(Bucket);
      std::sort(First, Last);
      if (std::adjacent_find(First, Last) != Last) {
        Outcome.store(BuildOutcome::Collided, std::memory_order_relaxed);
        return;
      }
      uint64_t *Pilot = Pilots.data() + PilotStarts[Bucket];
      if (!buildSplitNode(First, Last, Options, Pilot)) {
        // A collision found elsewhere takes precedence: it decides
        // between the duplicate-key error and raw imaging.
        BuildOutcome Built = BuildOutcome::Built;
        Outcome.compare_exchange_strong(Built, BuildOutcome::Failed,
                                        std::memory_order_relaxed);
        return;
      }
      assert(Pilot == Pilots.data() + PilotStarts[Bucket + 1] &&
             "a bucket's pilots overran its node count");
    }
  });
  if (Outcome.load() != BuildOutcome::Built)
    return Outcome.load();

  Plan.Tier = MphfTier::Split;
  Plan.NumBuckets = B;
  Plan.LeafMax = Options.LeafMax;
  Plan.Pilots = PackedArray::pack(Pilots);
  Plan.Offsets = EliasFano::encode(Buckets.Start);
  Plan.PilotStarts = EliasFano::encode(PilotStarts);
  return BuildOutcome::Built;
}

/// Full-set bijectivity check: every key maps to a distinct index in
/// [0, n). The builder never returns an unverified function.
bool verifyBijection(const Mphf &F, const std::string_view *Keys,
                     size_t N) {
  std::vector<std::atomic<uint64_t>> Seen((N + 63) / 64);
  std::atomic<bool> Ok{true};
  parallelFor(N, [&](size_t Begin, size_t End) {
    uint64_t Slots[256];
    for (size_t At = Begin; At < End && Ok.load(std::memory_order_relaxed);
         At += 256) {
      const size_t Chunk = std::min<size_t>(256, End - At);
      F.evalBatch(Keys + At, Slots, Chunk);
      for (size_t I = 0; I != Chunk; ++I) {
        const uint64_t Slot = Slots[I];
        const uint64_t Bit = uint64_t{1} << (Slot % 64);
        if (Slot >= N ||
            (Seen[Slot / 64].fetch_or(Bit, std::memory_order_relaxed) & Bit)) {
          Ok.store(false, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  return Ok.load(std::memory_order_relaxed);
}

Expected<Mphf> buildMphfImpl(const std::string_view *Keys, size_t N,
                             const MphfBuildOptions &Options) {
  if (N == 0)
    return Error{"cannot build an MPHF over an empty key set",
                 std::string::npos};
  if (N > (uint64_t{1} << 32))
    return Error{"key set too large for the static-set tier",
                 std::string::npos};
  MphfBuildOptions Opts = Options;
  Opts.LeafMax = std::min(std::max(Opts.LeafMax, 1u), 16u);
  Opts.MixerMax = std::min(Opts.MixerMax, 64u);

  // Resolve the extraction front-end: an explicit plan wins, else
  // synthesize Pext from the format, else raw-byte imaging.
  std::shared_ptr<const HashPlan> Extract = Opts.Extract;
  if (!Extract && Opts.Format != nullptr && !Opts.Format->empty()) {
    Expected<HashPlan> Synth =
        synthesize(Opts.Format->abstract(), HashFamily::Pext);
    if (Synth && !Synth->FallbackToStl)
      Extract = std::make_shared<const HashPlan>(Synth.take());
  }

  // The plan's loads assume its own key lengths; a set with a key of
  // any other length is imaged raw (and Mphf::baseImage images such a
  // lookup key raw too).
  bool RawBase =
      Extract == nullptr ||
      !std::all_of(Keys, Keys + N, [&](std::string_view K) {
        return K.size() >= Extract->MinKeyLen && K.size() <= Extract->MaxKeyLen;
      });
  std::vector<uint64_t> Raw;
  if (!RawBase) {
    const SynthesizedHash Front(Extract);
    Raw.resize(N);
    parallelFor(N, [&](size_t Begin, size_t End) {
      Front.hashBatch(Keys + Begin, Raw.data() + Begin, End - Begin);
    });
  }

  std::vector<uint64_t> Bases(N);
  for (unsigned Attempt = 0; Attempt <= Opts.MaxRestarts;) {
    const uint64_t Seed = Opts.Seed + Attempt;
    const uint64_t SeedMix = mphfMix64(Seed);
    // The seed xor is a bijection, so distinct extraction images stay
    // distinct under every seed.
    parallelFor(N, [&](size_t Begin, size_t End) {
      for (size_t I = Begin; I != End; ++I)
        Bases[I] = (RawBase ? mphfRawMix(Keys[I], Seed) : Raw[I]) ^ SeedMix;
    });

    auto Plan = std::make_shared<MphfPlan>();
    Plan->N = N;
    Plan->Seed = Seed;
    Plan->RawBase = RawBase;
    Plan->Extract = RawBase ? nullptr : Extract;

    bool DuplicateKeys = false;
    BuildOutcome Outcome = BuildOutcome::Failed;
    if (N > Opts.ExactMax)
      Outcome = buildSplit(Bases, Opts, *Plan);
    else if (imagesCollide(Bases, Keys, DuplicateKeys))
      Outcome = BuildOutcome::Collided;
    else if ((N <= Opts.MixerMax && buildMixer(Bases, SeedMix, Opts, *Plan)) ||
             buildDisplace(Bases, Opts, *Plan))
      Outcome = BuildOutcome::Built;

    if (Outcome == BuildOutcome::Collided) {
      if (N > Opts.ExactMax)
        imagesCollide(Bases, Keys, DuplicateKeys);
      if (DuplicateKeys)
        return Error{"duplicate key in MPHF input", std::string::npos};
      if (!RawBase) {
        // The extraction images are not distinct on this set (e.g. a
        // format with more than 64 relevant bits whose xor-fold
        // collided); fall back to seeded raw imaging, where reseeding
        // can actually help, from the first seed.
        RawBase = true;
        Raw = {};
        continue;
      }
    } else if (Outcome == BuildOutcome::Built) {
      Mphf F(std::move(Plan));
      if (verifyBijection(F, Keys, N))
        return F;
    }
    ++Attempt;
  }
  return Error{"MPHF construction did not converge after reseeds "
               "(pathological or duplicate key set)",
               std::string::npos};
}

} // namespace

Expected<Mphf> sepe::buildMphf(const std::vector<std::string> &Keys,
                               const MphfBuildOptions &Options) {
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  return buildMphfImpl(Views.data(), Views.size(), Options);
}

Expected<Mphf> sepe::buildMphf(const std::vector<std::string_view> &Keys,
                               const MphfBuildOptions &Options) {
  return buildMphfImpl(Keys.data(), Keys.size(), Options);
}
