//===- mphf/mphf.h - Synthesized minimal perfect hashing --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-set tier: when the key *set* (not just the format) is
/// fixed, go past collision-free to *minimal perfect* — a bijection
/// onto [0, n) that turns a hash-table probe into one direct array
/// load. Three constructions sit behind one MphfPlan:
///
///  - Mixer: one multiply-fold constant whose range-mapped image is
///    already a bijection, found by bounded exhaustive search (the
///    exact-synthesis tier, practical for tiny sets).
///  - Displace: a CHD-style seeded displacement table — bucket by one
///    scrambled hash, then per-bucket search a pilot that parks every
///    member in a free slot (small sets, <= ~64 keys).
///  - Split: a RecSplit-style recursive splitting tree (Esposito/
///    Genuzio/Vigna; PAPERS.md) — bucket, then recursively brute-force
///    pilots that split each bucket in half until leaves are small
///    enough to brute-force a bijection directly. Pilots are stored in
///    a fixed-width PackedArray, bucket offsets in Elias-Fano; scales
///    to millions of keys at a few bits per key.
///
/// All three operate on a 64-bit *base image* of the key, which is the
/// point of composing with the paper's synthesizer: when the key set
/// conforms to a format whose Pext extraction is available, the base
/// image is the pext-compacted relevant bits (xor a seed mix; every
/// downstream hash applies its own finalizer), so the pilot search
/// distinguishes exactly the bits that vary instead of raw key bytes.
/// Sets without a usable extraction plan fall back to a seeded
/// raw-byte mix, and so does every key whose length the plan was not
/// synthesized for: the plan's fixed-offset loads would read past a
/// shorter key.
///
/// Construction is flat and parallel: one counting sort groups the
/// base images by bucket into a single array, and since buckets are
/// independent, contiguous bucket ranges run their pilot searches on
/// separate threads (support/parallel.h), each writing the pilots of
/// its buckets where the serial build would have put them.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_MPHF_MPHF_H
#define SEPE_MPHF_MPHF_H

#include "core/executor.h"
#include "core/plan.h"
#include "mphf/packed.h"
#include "support/bit_ops.h"
#include "support/expected.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

class FormatSpec;

/// The three constructions, in increasing set-size ambition.
enum class MphfTier { Mixer, Displace, Split };

/// "Mixer", "Displace", "Split".
const char *mphfTierName(MphfTier Tier);

/// Inverse of mphfTierName; returns false on an unknown name.
bool parseMphfTier(std::string_view Name, MphfTier &Tier);

/// splitmix64's finalizer: a bijection on 64-bit words, so applying it
/// to distinct base images preserves distinctness while uniformizing
/// the bits the pilot searches consume.
inline uint64_t mphfMix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  return X;
}

/// Lemire's fastrange: maps a full-width word onto [0, N) without a
/// modulo.
inline uint64_t mphfFastRange(uint64_t X, uint64_t N) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(X) * N) >> 64);
}

/// Bucket-selection hash; its salt is decorrelated from the slot hash
/// and from every multiplier the containers use (flat_index_map.h), so
/// bucketing never aligns with probe sequences. A single multiply-fold
/// (not a full mix64): it sits on every Displace/Split lookup's serial
/// chain, and the builder's bijection verification catches any set a
/// weaker mix would mishandle (the reseed loop then fixes it).
inline uint64_t mphfBucketHash(uint64_t Base) {
  return mulFold(Base ^ 0x8CB92BA72F3D8DD7ull, 0x2545F4914F6CDD1Dull);
}

/// Pilot-parameterized slot hash: the pilot multiply decorrelates
/// consecutive pilots (and is off the base image's dependency chain —
/// pilots come from the plan, not the key), then one multiply-fold
/// spreads the combination. Effectively independent slot assignments
/// per pilot are what the brute-force search relies on; the per-leaf
/// pilot distributions stay close enough to uniform that search costs
/// match the full-finalizer variant empirically.
inline uint64_t mphfSlotHash(uint64_t Base, uint64_t Pilot) {
  return mulFold(Base ^ ((Pilot + 1) * 0xA24BAED4963EE407ull),
                 0x9FB21C651E98DF25ull);
}

/// Membership fingerprint mix: an independently-salted mulFold for
/// callers that need fingerprint bits without evaluating the MPHF
/// (e.g. hashing a candidate key against a stored fingerprint table
/// built some other way). The direct-index lookup path does NOT pay
/// this: Mphf::slotFpFromBase hands back the slot hash's low bits,
/// which fastRange discards from the slot derivation, as free
/// fingerprint material.
inline uint64_t mphfFingerprintMix(uint64_t Base) {
  return mulFold(Base ^ 0xE7037ED1A0B428DBull, 0xC2B2AE3D27D4EB4Full);
}

/// Seeded raw-byte mix for key sets without a usable extraction plan
/// (or whose extraction images collide): word-at-a-time multiply-fold
/// over the key bytes. Distinct keys give distinct images with
/// overwhelming probability; the builder verifies and reseeds.
inline uint64_t mphfRawMix(std::string_view Key, uint64_t Seed) {
  uint64_t H = Seed ^ (Key.size() * 0x9E3779B97F4A7C15ull);
  size_t I = 0;
  for (; I + 8 <= Key.size(); I += 8)
    H = mulFold(loadU64Le(Key.data() + I) ^ H, 0x2B7E151628AED2A5ull);
  if (I != Key.size())
    H = mulFold(loadBytesLe(Key.data() + I, Key.size() - I) ^ H,
                0xD6E8FEB86659FD93ull);
  return H;
}

/// Tunables for buildMphf. Defaults build every paper format at
/// n = 1e5 in well under a second.
struct MphfBuildOptions {
  /// Extraction front-end: hash keys through this plan to get base
  /// images (ideally a bijective Pext plan). When null and Format is
  /// set, a Pext plan is synthesized from the format.
  std::shared_ptr<const HashPlan> Extract;

  /// The key format, when known; used to synthesize Extract.
  const FormatSpec *Format = nullptr;

  uint64_t Seed = 0x5e7a5e7;

  /// Largest set the Mixer/Displace (exact) tier handles; bigger sets
  /// go to the Split tier.
  unsigned ExactMax = 64;

  /// Largest set the single-mixer search is attempted for (the
  /// success probability n!/n^n collapses past ~a dozen keys).
  unsigned MixerMax = 12;
  unsigned MixerTries = 1u << 16;

  /// Split-tier shape: leaves brute-force a bijection at <= LeafMax
  /// keys; buckets average AvgBucket keys. The defaults keep the
  /// average bucket well below LeafMax so virtually every lookup is
  /// leaf-direct (bucket hash -> one cached pilot -> slot, no tree
  /// descent): at Poisson(4) only ~0.06% of keys sit in buckets past
  /// 12, so the descent branch is effectively never taken and never
  /// mispredicted. Raising AvgBucket or lowering LeafMax trades that
  /// lookup speed for space (fewer 16-byte evaluator bucket entries,
  /// narrower pilots) and faster builds.
  unsigned LeafMax = 12;
  unsigned AvgBucket = 4;

  /// Per-node pilot search bound; overrunning it restarts the whole
  /// build under the next seed.
  unsigned PilotLimit = 1u << 20;

  /// Whole-build reseeds before giving up. Exhausting these means the
  /// input almost certainly contains duplicate keys.
  unsigned MaxRestarts = 16;
};

/// A built minimal perfect hash function in storable form.
struct MphfPlan {
  MphfTier Tier = MphfTier::Mixer;
  uint64_t N = 0;
  uint64_t Seed = 0;

  /// True when base images come from mphfRawMix over the key bytes;
  /// false when Extract is the front-end.
  bool RawBase = true;
  std::shared_ptr<const HashPlan> Extract;

  /// Mixer tier: the multiply-fold constant (odd).
  uint64_t MixerC = 0;

  /// Displace and Split tiers: bucket count of mphfBucketHash.
  uint32_t NumBuckets = 0;

  /// Displace tier: pilot per bucket.
  std::vector<uint32_t> Displace;

  /// Split tier: leaf threshold the tree was built with, pilots in DFS
  /// preorder (concatenated across buckets, one global bit width), and
  /// the two monotone offset sequences (NumBuckets + 1 entries each):
  /// cumulative key counts and cumulative pilot counts per bucket.
  uint32_t LeafMax = 8;
  PackedArray Pilots;
  EliasFano Offsets;
  EliasFano PilotStarts;

  /// Storage footprint of the MPHF itself (pilot/offset structures,
  /// not the extraction plan or the evaluator caches).
  size_t bytesUsed() const;
  double bitsPerKey() const {
    return N == 0 ? 0.0 : 8.0 * static_cast<double>(bytesUsed()) /
                              static_cast<double>(N);
  }
};

/// The evaluator: maps each construction key to a distinct index in
/// [0, n). Copyable and cheap to copy (shared plan). Out-of-set keys
/// still produce an in-range index — membership is the caller's
/// problem (DirectIndexMap adds a fingerprint check).
class Mphf {
public:
  Mphf() = default;

  /// Wraps \p Plan. Decodes the Elias-Fano offset sequences into a
  /// flat per-bucket table (offset, size, pilot start, and the
  /// pre-decoded root pilot in one 16-byte entry) and precomputes the
  /// split-tree node-count memo: the plan stays succinct for storage,
  /// the evaluator trades 16 bytes per bucket of working memory for
  /// select-free, mostly single-metadata-load lookups.
  explicit Mphf(std::shared_ptr<const MphfPlan> Plan);

  bool valid() const { return Plan != nullptr; }
  uint64_t size() const { return Plan ? Plan->N : 0; }

  const MphfPlan &plan() const {
    assert(Plan && "no MPHF plan attached");
    return *Plan;
  }
  std::shared_ptr<const MphfPlan> planPtr() const { return Plan; }

  /// The 64-bit base image the pilot structures consume. Deliberately
  /// *unmixed*: every consumer (mphfBucketHash, mphfSlotHash,
  /// mphfFingerprintMix, the Mixer tier's mulFold) applies its own
  /// finalizer to it, so a finalizer here would only lengthen the
  /// lookup's serial dependency chain. The seed xor is a bijection, so
  /// distinct raw images stay distinct under every seed.
  /// A key of a length the extraction plan was not synthesized for is
  /// imaged by the raw mix, which reads only the key's own bytes: it
  /// cannot be in the set, since the builder images the whole set raw
  /// when any key has such a length.
  uint64_t baseImage(std::string_view Key) const {
    return (extracts(Key) ? Base(Key) : mphfRawMix(Key, Plan->Seed)) ^
           SeedMix;
  }

  /// Base images for \p N keys; uses the extraction plan's fused batch
  /// kernels when the plan has one and every key has one of its
  /// lengths.
  void baseBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const;

  /// An MPHF index plus fingerprint material. FpWord is the final slot
  /// hash word: fastRange keeps only its (value * range) high bits for
  /// the slot, so the low bits are uniform even conditioned on the
  /// slot — free membership-fingerprint bits with no extra mix on the
  /// lookup path. Construction and lookup derive fingerprints from the
  /// same word, so the pairing is stable.
  struct SlotFp {
    uint64_t Slot;
    uint64_t FpWord;
  };

  /// The MPHF index (and fingerprint word) of a base image. Inline
  /// because it sits on the lookup critical path of DirectIndexMap and
  /// ServingTable's static lane: the per-key chains are independent,
  /// so batch loops overlap them only when the body is visible to the
  /// compiler.
  SlotFp slotFpFromBase(uint64_t BaseImage) const {
    const MphfPlan &P = *Plan;
    if (P.Tier == MphfTier::Mixer) {
      const uint64_t X = mulFold(BaseImage, P.MixerC);
      return {mphfFastRange(X, P.N), X};
    }
    const uint64_t Bkt = bucketOf(mphfBucketHash(BaseImage));
    if (P.Tier == MphfTier::Displace) {
      const uint64_t X = mphfSlotHash(BaseImage, P.Displace[Bkt]);
      return {mphfFastRange(X, P.N), X};
    }
    const BucketRef &BR = BucketCache[Bkt];
    uint32_t Off = BR.Off;
    uint32_t M = BR.Size;
    // Out-of-set keys can land in an empty bucket; keep them in range
    // (the base image as fingerprint word keeps rejection uniform).
    if (M == 0)
      return {Off == P.N ? 0 : Off, BaseImage};
    uint64_t Pilot = BR.RootPilot;
    // Common case with the default AvgBucket: the bucket IS a leaf, and
    // the cached root pilot means the lookup touched exactly one
    // 16-byte bucket entry — no packed-pilot-array load at all.
    if (M > P.LeafMax) {
      uint32_t Pi = BR.PilotStart;
      do {
        const uint32_t M1 = M >> 1;
        if (mphfFastRange(mphfSlotHash(BaseImage, Pilot), M) < M1) {
          ++Pi;
          M = M1;
        } else {
          Pi += 1 + NodeCount[M1];
          Off += M1;
          M -= M1;
        }
        Pilot = P.Pilots.get(Pi);
      } while (M > P.LeafMax);
    }
    const uint64_t X = mphfSlotHash(BaseImage, Pilot);
    return {Off + mphfFastRange(X, M), X};
  }

  uint64_t slotFromBase(uint64_t BaseImage) const {
    return slotFpFromBase(BaseImage).Slot;
  }

  /// Pulls the bucket metadata line for \p BaseImage into cache. Batch
  /// loops call this for a whole block before the slotFromBase pass so
  /// the per-key metadata misses overlap instead of serializing; the
  /// redundant bucket-hash recompute is two multiplies, far cheaper
  /// than the miss it hides once the table outgrows L2.
  void prefetchSlot(uint64_t BaseImage) const {
    if (Plan->Tier == MphfTier::Split)
      prefetchRead(&BucketCache[bucketOf(mphfBucketHash(BaseImage))]);
  }

  uint64_t operator()(std::string_view Key) const {
    return slotFromBase(baseImage(Key));
  }

  /// Out[i] = (*this)(Keys[i]).
  void evalBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const;

private:
  /// Bucket index of a bucket-hash word. The Split builder sizes its
  /// bucket count to a power of two, so fastRange degenerates to a
  /// plain shift (fastRange(X, 2^k) == X >> (64 - k)); the evaluator
  /// detects that at attach time and skips the multiply. BucketShift
  /// is 0 for non-power-of-two counts (the Displace tier).
  uint64_t bucketOf(uint64_t BucketHash) const {
    return BucketShift != 0 ? BucketHash >> BucketShift
                            : mphfFastRange(BucketHash, Plan->NumBuckets);
  }

  /// True when \p Key is imaged through the extraction plan: the plan
  /// is the front-end and \p Key has one of its lengths.
  bool extracts(std::string_view Key) const {
    return Key.size() >= ExtractMinLen && Key.size() <= ExtractMaxLen;
  }

  std::shared_ptr<const MphfPlan> Plan;
  SynthesizedHash Base; ///< Valid only when !Plan->RawBase.
  uint64_t SeedMix = 0;
  unsigned BucketShift = 0;
  /// The extraction plan's key lengths; an empty range for raw plans.
  size_t ExtractMinLen = 1;
  size_t ExtractMaxLen = 0;

  /// Split tier, decoded from the plan at attach time: everything a
  /// lookup needs about its bucket in one 16-byte (quarter-cache-line)
  /// entry, root pilot included, so the common leaf-direct lookup
  /// touches a single random line of metadata.
  struct BucketRef {
    uint32_t Off;        ///< First slot of the bucket.
    uint32_t Size;       ///< Keys in the bucket.
    uint32_t PilotStart; ///< Index of the root pilot in Plan->Pilots.
    uint32_t RootPilot;  ///< Pilots.get(PilotStart), pre-decoded.
  };
  std::vector<BucketRef> BucketCache;
  /// NodeCount[m]: pilots in the deterministic subtree over m keys.
  std::vector<uint32_t> NodeCount;
};

/// Pilots of a Split-tier bucket of m keys under \p LeafMax, for every
/// m <= \p MaxBucket: none for an empty bucket, one for a leaf, else
/// one for the node plus its two halves' (floor(m/2) and the rest).
/// The evaluator descends by these counts, the builder places each
/// bucket's pilots by them, and mphf_io rejects plans that disagree.
std::vector<uint32_t> mphfSplitNodeCounts(uint32_t MaxBucket,
                                          uint32_t LeafMax);

/// Builds a minimal perfect hash over \p Keys (distinct; duplicates
/// are reported as an error after reseeds exhaust). Selects the tier
/// from |Keys| and verifies the bijection over every key before
/// returning.
Expected<Mphf> buildMphf(const std::vector<std::string> &Keys,
                         const MphfBuildOptions &Options = {});

/// Convenience: string_view keys (e.g. straight from a fixture pool).
Expected<Mphf> buildMphf(const std::vector<std::string_view> &Keys,
                         const MphfBuildOptions &Options = {});

} // namespace sepe

#endif // SEPE_MPHF_MPHF_H
