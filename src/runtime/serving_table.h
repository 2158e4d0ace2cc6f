//===- runtime/serving_table.h - Adaptive sharded serving layer -*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end serving story: an AdaptiveHash (guarded dispatch,
/// drift detection, hot re-synthesis) in front of a ShardedIndexMap
/// (the image-keyed concurrent fast lane), plus a small sharded spill
/// lane for keys the guard rejects — out-of-format traffic is served
/// from an ordinary string-keyed map until a re-synthesis widens the
/// pattern, at which point maintain() migrates the fast lane to the new
/// plan and sweeps newly admitted spill keys into it.
///
/// Routing discipline (the part that makes hot swaps lossless):
///
///   - The steady-state path uses AdaptiveHash::routeBatch images and
///     the fast lane's *labeled* entry points: every probe validates
///     that the image's generation still keys the active table, inside
///     one table load, so a migration landing between hash and probe is
///     detected, never silently probed across (ProbeResult::Stale).
///   - Stale probes redo through the fast lane's *guarded* entry points
///     (pattern check + hash + probe against one table load).
///   - A key the guard rejects lives in the spill lane. Pattern updates
///     only ever widen (the quad join is monotone), so a rejected key
///     cannot be sitting in the fast lane — no double bookkeeping.
///   - Lookups that miss the fast lane check the spill lane and then
///     retry the fast lane once: a concurrent sweep moves keys
///     spill -> fast (insert first, then remove, under the spill shard
///     lock), so a racing reader that misses both lanes mid-move finds
///     the key on the retry. Erase takes the lanes in the opposite
///     order (spill first), which closes the symmetric race.
///
/// The acceptance property — a hot swap under full read/write/drift
/// traffic completes with zero failed lookups for keys that are present
/// throughout — follows: every present key is in the old fast table
/// (kept current by the container's dual-write protocol), the successor
/// table (seal copy), or the spill lane at every instant, and the probe
/// order above visits whichever lane it can be in.
///
/// Sealed shards can go one step further: sealStatic() snapshots the
/// present subset of a key list into a synthesized minimal perfect
/// hash (mphf/mphf.h) over slot-ordered storage — one record per MPHF
/// slot (8-bit fingerprint, key length, arena offset, value) and one
/// key arena written in slot order. A lookup is the MPHF's bucket load
/// followed by the slot's record and key bytes; when every sealed key
/// has one length the key's address is slot * length, so those two
/// loads overlap instead of running one after the other. No probing, no
/// locks; getBatch() stages the loads of a whole block so the misses of
/// different keys overlap too.
/// The static lane is a pure cache in front of the dynamic lanes:
/// out-of-set keys fall through (the key compare keeps the table
/// exact even on a fingerprint false positive), puts of new keys
/// simply miss it, and put() never overwrites a present key, so the
/// only mutation that can make a sealed value stale is erase() of a
/// sealed key — which atomically invalidates the whole lane.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_SERVING_TABLE_H
#define SEPE_RUNTIME_SERVING_TABLE_H

#include "container/sharded_index_map.h"
#include "mphf/mphf.h"
#include "runtime/adaptive_hash.h"
#include "support/parallel.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sepe {

/// Concurrent key-value table served through an adaptive synthesized
/// hash. Any number of threads may call get/put/erase/getBatch/putBatch
/// concurrently; maintain() may run concurrently with all of them (at
/// most one maintain() makes progress at a time). Destruction requires
/// external quiescence, like AdaptiveHash.
template <typename Value> class ServingTable {
public:
  struct Stats {
    size_t FastSize = 0;
    size_t SpillSize = 0;
    size_t StaticSize = 0;
    uint64_t FastEpoch = 0;
    uint64_t AdaptiveEpoch = 0;
    uint64_t Migrations = 0;
    uint64_t SweptKeys = 0;
    bool FastLane = false;
    bool StaticActive = false;
  };

  /// \p Pattern seeds the adaptive hash (empty cold-starts on the spill
  /// lane). The fast lane appears as soon as a generation's plan is
  /// bijective — FlatIndexMap's soundness condition — which in practice
  /// means AdaptiveOptions::Family should be a bijective family
  /// (HashFamily::Pext) for the fast lane to engage.
  explicit ServingTable(KeyPattern Pattern, AdaptiveOptions Options = {},
                        size_t ShardCountHint = 16)
      : ShardHint(ShardCountHint), Adaptive(std::move(Pattern), Options) {
    const AdaptiveHash::Snapshot Snap = Adaptive.snapshot();
    if (Snap.Fast.valid() && Snap.Fast.plan().Bijective) {
      FastStorage = std::make_unique<ShardedIndexMap<Value>>(
          Snap.Fast, Snap.Pattern, Snap.Epoch, ShardHint);
      FastPtr.store(FastStorage.get(), std::memory_order_release);
    }
  }

  ServingTable(const ServingTable &) = delete;
  ServingTable &operator=(const ServingTable &) = delete;

  /// The adaptive hash driving lane routing; exposed so callers can
  /// pump re-synthesis deterministically and read drift statistics.
  AdaptiveHash &adaptive() { return Adaptive; }
  const AdaptiveHash &adaptive() const { return Adaptive; }

  bool hasFastLane() const { return fast() != nullptr; }

  /// True while a sealed static lane is serving.
  bool staticLaneActive() const { return staticLane() != nullptr; }

  /// Seals the *present* subset of \p Keys (distinct) into a static
  /// MPHF-backed lane probed before every dynamic lane: the bucket load,
  /// then the slot's record (fingerprint check) and key bytes (exact
  /// compare). The extraction front-end reuses the adaptive hash's
  /// current bijective plan when one exists, so the MPHF distinguishes
  /// exactly the format's varying bits. Returns the number of keys
  /// sealed; 0 when none were present, the keys do not fit the lane's
  /// records (a key past 65535 bytes, or 4 GiB of keys in all) or MPHF
  /// construction failed — the table keeps serving from the dynamic
  /// lanes either way. The gather, the MPHF build and the lane's
  /// layout each run over key (or bucket) chunks on one worker per
  /// hardware thread (support/parallel.h); lists under ~2^14 keys stay
  /// on the calling thread. Concurrent gets/puts are safe during the
  /// call; concurrent erases of the keys being sealed are not — seal
  /// quiescent shards.
  size_t sealStatic(const std::string_view *Keys, size_t N) {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    // The dynamic lanes are only read here, under their shared locks,
    // so key chunks gather on separate workers into per-key slots; the
    // compaction after keeps list order.
    std::vector<Value> Got(N);
    std::vector<uint8_t> Found(N);
    parallelFor(N, [&](size_t Begin, size_t End) {
      getBatchDynamic(Keys + Begin, Got.data() + Begin, Found.data() + Begin,
                      End - Begin);
    });
    // Views into the caller's list: the arena makes the only copy.
    std::vector<std::string_view> SealedKeys;
    std::vector<Value> SealedValues;
    SealedKeys.reserve(N);
    SealedValues.reserve(N);
    size_t MinLen = SIZE_MAX, MaxLen = 0;
    uint64_t Bytes = 0;
    for (size_t I = 0; I != N; ++I)
      if (Found[I]) {
        SealedKeys.push_back(Keys[I]);
        SealedValues.push_back(std::move(Got[I]));
        MinLen = std::min(MinLen, Keys[I].size());
        MaxLen = std::max(MaxLen, Keys[I].size());
        Bytes += Keys[I].size();
      }
    if (SealedKeys.empty())
      return 0;
    if (MaxLen > StaticLane::MaxKeyLen ||
        Bytes > StaticLane::MaxArenaBytes) {
      SEPE_COUNT("serving_table.static.seal_failed");
      return 0;
    }
    // buildMphf images the set raw when a sealed key has a length the
    // plan was not synthesized for.
    MphfBuildOptions Options;
    const AdaptiveHash::Snapshot Snap = Adaptive.snapshot();
    if (Snap.Fast.valid() && Snap.Fast.plan().Bijective)
      Options.Extract = std::make_shared<const HashPlan>(Snap.Fast.plan());
    Expected<Mphf> F = buildMphf(SealedKeys, Options);
    if (!F) {
      SEPE_COUNT("serving_table.static.seal_failed");
      return 0;
    }
    const size_t Count = SealedKeys.size();
    auto Lane = std::make_unique<StaticLane>(F.take(), SealedKeys,
                                             SealedValues, MinLen, MaxLen);
    StaticPtr.store(Lane.get(), std::memory_order_release);
    StaticStorage.push_back(std::move(Lane));
    SEPE_COUNT("serving_table.static.sealed");
    SEPE_TRACE_INSTANT(StaticSeal, Count, 0);
    return Count;
  }

  size_t sealStatic(const std::vector<std::string_view> &Keys) {
    return sealStatic(Keys.data(), Keys.size());
  }

  /// Unpublishes the static lane; dynamic lanes keep serving every
  /// key. Retired lane storage is freed at destruction, not here, so
  /// in-flight readers stay safe.
  void dropStatic() {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    StaticPtr.store(nullptr, std::memory_order_release);
  }

  /// Copies the value for \p Key into \p Out; false when absent.
  bool get(std::string_view Key, Value &Out) const {
    if (const StaticLane *S = staticLane()) {
      if (const auto *R = S->lookup(Key)) {
        SEPE_COUNT("serving_table.static.hit");
        Out = R->V;
        return true;
      }
    }
    return getDynamic(Key, Out);
  }

  /// The dynamic-lane probe path (fast -> spill -> guarded retry);
  /// get() puts the static lane in front of this.
  bool getDynamic(std::string_view Key, Value &Out) const {
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    const ShardedIndexMap<Value> *F = fast();
    if (F && R.Admitted) {
      switch (F->getHashed(R.Hash, R.Epoch, Out)) {
      case ProbeResult::Hit:
        return true;
      case ProbeResult::Stale:
        if (F->getGuarded(Key, Out) == ProbeResult::Hit)
          return true;
        break;
      default:
        break;
      }
    }
    if (spillFind(Key, Out))
      return true;
    // A concurrent spill->fast sweep may have moved the key after our
    // fast probe and before our spill probe; one guarded retry closes
    // the window (moves only ever go in that direction). The retry must
    // NOT be gated on R.Admitted: admission was judged by the (possibly
    // retired) generation route() saw, while the sweep moves exactly
    // the keys the *new* generation admits — getGuarded re-judges
    // against the current pattern internally. Reload the lane pointer
    // too, for the cold-start case where maintain() created it
    // mid-call.
    if (const ShardedIndexMap<Value> *F2 = fast();
        F2 && F2->getGuarded(Key, Out) == ProbeResult::Hit)
      return true;
    return false;
  }

  /// Inserts (key, value); returns false (keeping the old value) when
  /// already present.
  bool put(std::string_view Key, Value V) {
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    ShardedIndexMap<Value> *F = fast();
    if (F) {
      bool Inserted = false;
      if (R.Admitted && F->putHashed(Key, R.Hash, R.Epoch, V, Inserted))
        return Inserted;
      // Stale epoch, or route()'s admission verdict came from a retired
      // generation: let the fast lane re-judge against its own current
      // pattern. A key it rejects spills until a widened generation's
      // sweep picks it up; probing even when R.Admitted is false keeps a
      // re-put of an already-swept key out of the spill lane.
      if (F->putGuarded(Key, V, Inserted))
        return Inserted;
    }
    return spillInsert(Key, std::move(V));
  }

  /// Removes \p Key; returns false when absent. Spill lane first: the
  /// sweep moves keys spill -> fast under the spill shard lock, so
  /// probing spill before fast guarantees one of the two sees the key
  /// wherever the move is.
  bool erase(std::string_view Key) {
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    const bool SpillErased = spillErase(Key);
    bool FastErased = false;
    ShardedIndexMap<Value> *F = fast();
    if (F) {
      // Probe the fast lane even when route() said not-admitted: the
      // verdict may predate a swap whose sweep moved this key into the
      // fast lane (eraseGuarded re-judges against the current pattern).
      bool Erased = false;
      if (R.Admitted && F->eraseHashed(Key, R.Hash, R.Epoch, Erased))
        FastErased = Erased;
      else if (F->eraseGuarded(Key, Erased))
        FastErased = Erased;
    }
    const bool Erased = FastErased || SpillErased;
    // put() never overwrites a present key, so erasing a sealed key is
    // the only way a static-lane value can go stale: drop the lane
    // before returning, so a get() ordered after this erase cannot be
    // served the sealed copy. Storage is retired, not freed.
    if (Erased) {
      if (const StaticLane *S = staticLane(); S && S->lookup(Key)) {
        StaticPtr.store(nullptr, std::memory_order_release);
        SEPE_COUNT("serving_table.static.invalidated");
      }
    }
    return Erased;
  }

  /// Batch lookup: Found[I] = 1 and Out[I] = value when present.
  /// Returns the hit count. A sealed table serves each block through
  /// the static lane's staged pipeline first; what it does not serve
  /// (out-of-set keys, unsealed inserts) and every key of an unsealed
  /// table take the dynamic batch path (getBatchDynamic).
  size_t getBatch(const std::string_view *Keys, Value *Out, uint8_t *Found,
                  size_t N) const {
    const StaticLane *S = staticLane();
    if (!S)
      return getBatchDynamic(Keys, Out, Found, N);
    // Staged per block, so each pass's loads are independent across
    // keys and their misses overlap: keys of no sealed length go
    // straight to the residue; base images through the MPHF's fused
    // kernels; bucket prefetches; slots and fingerprints, with the
    // record (and, for a uniform-length lane, the key bytes)
    // prefetched; for a mixed-length lane the key bytes of fingerprint
    // matches; then the compares.
    std::string_view InKeys[RouteBlock];
    uint16_t InIdx[RouteBlock];
    uint64_t Bases[RouteBlock];
    uint32_t Slots[RouteBlock];
    uint8_t Fps[RouteBlock];
    std::string_view ResKeys[RouteBlock];
    uint16_t ResIdx[RouteBlock];
    Value ResOut[RouteBlock];
    uint8_t ResFound[RouteBlock];
    size_t Hits = 0;
    for (size_t Base = 0; Base < N; Base += RouteBlock) {
      const size_t Count = std::min(RouteBlock, N - Base);
      size_t In = 0, Residue = 0;
      for (size_t I = 0; I != Count; ++I) {
        const std::string_view Key = Keys[Base + I];
        if (S->mayHold(Key)) {
          InIdx[In] = static_cast<uint16_t>(I);
          InKeys[In++] = Key;
        } else {
          ResIdx[Residue] = static_cast<uint16_t>(I);
          ResKeys[Residue++] = Key;
        }
      }
      S->F.baseBatch(InKeys, Bases, In);
      for (size_t J = 0; J != In; ++J)
        S->F.prefetchSlot(Bases[J]);
      for (size_t J = 0; J != In; ++J) {
        const Mphf::SlotFp SF = S->F.slotFpFromBase(Bases[J]);
        Slots[J] = static_cast<uint32_t>(SF.Slot);
        Fps[J] = static_cast<uint8_t>(SF.FpWord);
        S->prefetchRecord(Slots[J]);
      }
      if (!S->Uniform)
        for (size_t J = 0; J != In; ++J)
          S->prefetchKeyIfFp(Slots[J], Fps[J]);
      size_t StaticHits = 0;
      for (size_t J = 0; J != In; ++J) {
        const size_t K = Base + InIdx[J];
        if (const auto *R = S->match(Slots[J], Fps[J], InKeys[J])) {
          Out[K] = R->V;
          Found[K] = 1;
          ++StaticHits;
        } else {
          ResIdx[Residue] = InIdx[J];
          ResKeys[Residue++] = InKeys[J];
        }
      }
      SEPE_COUNT_N("serving_table.static.hit", StaticHits);
      Hits += StaticHits;
      if (Residue == 0)
        continue;
      Hits += getBatchDynamic(ResKeys, ResOut, ResFound, Residue);
      for (size_t J = 0; J != Residue; ++J) {
        const size_t K = Base + ResIdx[J];
        Found[K] = ResFound[J];
        if (ResFound[J])
          Out[K] = std::move(ResOut[J]);
      }
    }
    return Hits;
  }

  /// Batch insert; returns the number of keys newly inserted. Without
  /// a fast lane every key goes to the spill lane, whose shards are
  /// first grown once for the whole batch (reserveSpill).
  size_t putBatch(const std::string_view *Keys, const Value *Values,
                  size_t N) {
    ShardedIndexMap<Value> *F = fast();
    if (!F)
      reserveSpill(Keys, N);
    size_t Inserted = 0;
    uint64_t Hashes[RouteBlock];
    uint32_t MissIdx[RouteBlock];
    uint64_t AdmImages[RouteBlock];
    std::string_view AdmKeys[RouteBlock];
    Value AdmValues[RouteBlock];
    uint8_t IsMiss[RouteBlock];
    for (size_t Base = 0; Base < N; Base += RouteBlock) {
      const size_t Count = std::min(RouteBlock, N - Base);
      uint64_t Epoch = 0;
      const size_t Misses =
          Adaptive.routeBatch(Keys + Base, Hashes, Count, MissIdx, Epoch);
      for (size_t I = 0; I != Count; ++I)
        IsMiss[I] = 0;
      for (size_t I = 0; I != Misses; ++I)
        IsMiss[MissIdx[I]] = 1;
      size_t Admitted = 0;
      for (size_t I = 0; I != Count; ++I)
        if (!IsMiss[I]) {
          AdmImages[Admitted] = Hashes[I];
          AdmKeys[Admitted] = Keys[Base + I];
          AdmValues[Admitted] = Values[Base + I];
          ++Admitted;
        }
      size_t FastInserted = 0;
      if (F && Admitted != 0 &&
          F->putBatchHashed(AdmKeys, AdmImages, AdmValues, Admitted, Epoch,
                            FastInserted)) {
        Inserted += FastInserted;
      } else if (Admitted != 0) {
        // No fast lane, or stale epoch: guarded per-key redo, spilling
        // what the table's pattern rejects.
        for (size_t I = 0; I != Admitted; ++I) {
          bool One = false;
          if (F && F->putGuarded(AdmKeys[I], AdmValues[I], One))
            Inserted += One ? 1 : 0;
          else
            Inserted += spillInsert(AdmKeys[I], AdmValues[I]) ? 1 : 0;
        }
      }
      // Guard-rejected keys: offer them to the fast lane's own pattern
      // first (the routing generation may be retired — see put()),
      // spill the true rejects.
      for (size_t I = 0; I != Misses; ++I) {
        const size_t K = Base + MissIdx[I];
        bool One = false;
        if (F && F->putGuarded(Keys[K], Values[K], One))
          Inserted += One ? 1 : 0;
        else
          Inserted += spillInsert(Keys[K], Values[K]) ? 1 : 0;
      }
    }
    return Inserted;
  }

  /// Converges the storage onto the adaptive hash's current generation:
  /// creates the fast lane when a bijective plan first appears,
  /// migrates it when the adaptive epoch moved, then sweeps spill keys
  /// the current pattern admits into the fast lane. Cheap when nothing
  /// changed; returns true when any work was done. Call after
  /// pumpResynthesis(), or periodically from a maintenance thread in
  /// background mode.
  bool maintain() {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    const AdaptiveHash::Snapshot Snap = Adaptive.snapshot();
    ShardedIndexMap<Value> *F = fast();
    bool DidWork = false;
    if (Snap.Fast.valid() && Snap.Fast.plan().Bijective) {
      if (!F) {
        FastStorage = std::make_unique<ShardedIndexMap<Value>>(
            Snap.Fast, Snap.Pattern, Snap.Epoch, ShardHint);
        FastPtr.store(FastStorage.get(), std::memory_order_release);
        F = FastStorage.get();
        SEPE_COUNT("serving_table.fast_lane.created");
        SEPE_TRACE_INSTANT(LaneCreate, Snap.Epoch, 0);
        DidWork = true;
      } else if (F->epoch() != Snap.Epoch) {
        F->migrate(Snap.Fast, Snap.Pattern, Snap.Epoch);
        SEPE_COUNT("serving_table.fast_lane.migrated");
        DidWork = true;
      }
    }
    if (F && SpillCount.load(std::memory_order_acquire) != 0)
      DidWork |= sweepSpill(*F) != 0;
    return DidWork;
  }

  Stats stats() const {
    const ShardedIndexMap<Value> *F = fast();
    Stats S;
    S.FastLane = F != nullptr;
    const StaticLane *SL = staticLane();
    S.StaticActive = SL != nullptr;
    S.StaticSize = SL ? SL->Records.size() : 0;
    S.FastSize = F ? F->size() : 0;
    S.SpillSize = SpillCount.load(std::memory_order_relaxed);
    S.FastEpoch = F ? F->epoch() : 0;
    S.AdaptiveEpoch = Adaptive.epoch();
    S.Migrations = F ? F->migrations() : 0;
    S.SweptKeys = Swept.load(std::memory_order_relaxed);
    return S;
  }

  /// Total elements across both lanes (moment-in-time per shard).
  size_t size() const {
    const ShardedIndexMap<Value> *F = fast();
    return (F ? F->size() : 0) + SpillCount.load(std::memory_order_relaxed);
  }

  /// The fast lane's per-shard lock-contention export
  /// (ShardedIndexMap::contentionJson), or "null" when the fast lane
  /// has not been created yet — sepeserve embeds it in its report so
  /// serving throughput can be read against lock pressure.
  std::string fastLaneContentionJson() const {
    const ShardedIndexMap<Value> *F = fast();
    return F ? F->contentionJson() : std::string("null");
  }

  /// Mirrors the fast lane's contention counters into telemetry
  /// histograms (no-op while telemetry is disabled or before the fast
  /// lane exists).
  void recordContentionTelemetry() const {
    if (const ShardedIndexMap<Value> *F = fast())
      F->recordContentionTelemetry();
  }

private:
  /// Keys per routeBatch block in the batch entry points; bounds the
  /// stack scratch.
  static constexpr size_t RouteBlock = 256;

  static constexpr size_t SpillShardCount = 16; // Power of two.

  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  /// One spill shard: plain string-keyed storage for out-of-format
  /// keys. Write-heavy only under drift, so a mutex-per-shard map is
  /// plenty.
  struct alignas(64) SpillShard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<std::string, Value, TransparentHash, std::equal_to<>>
        Map;
  };

  /// The sealed static lane, slot-ordered: Records[mphf(key)] holds the
  /// key's 8-bit fingerprint, length, arena offset and value, and the
  /// key bytes sit in one arena written in slot order. The fingerprint
  /// rejects nearly every out-of-set key before the exact key compare;
  /// the compare is what keeps the table exact — a fingerprint false
  /// positive (~2^-8 of out-of-set probes) just falls through to the
  /// dynamic lanes instead of serving a wrong value, which a bare
  /// DirectIndexMap would. When every key has one length (all paper
  /// formats), slot s's key starts at s * MinLen, so its bytes can be
  /// fetched alongside the record instead of after it.
  struct StaticLane {
    struct Record {
      Value V;
      uint32_t Off; ///< The key is Arena[Off, Off + Len).
      uint16_t Len;
      uint8_t Fp;
    };
    static constexpr size_t MaxKeyLen = UINT16_MAX;
    static constexpr uint64_t MaxArenaBytes = UINT32_MAX;

    Mphf F;
    std::vector<Record> Records;
    std::unique_ptr<char[]> Arena;
    size_t MinLen; ///< Shortest and longest sealed key.
    size_t MaxLen;
    bool Uniform; ///< MinLen == MaxLen.

    /// Lays out \p Keys (the set \p Fn was built over; each at most
    /// MaxKeyLen bytes, MaxArenaBytes in all, \p MinLen to \p MaxLen
    /// long) and their \p Values in slot order. Every pass walks the
    /// keys in list order, so its random accesses are independent
    /// stores and loads that overlap, never a dependent gather from the
    /// list; and since MPHF slots are distinct, no two keys write one
    /// record or arena byte, so the passes run over key chunks on
    /// separate workers.
    StaticLane(Mphf Fn, const std::vector<std::string_view> &Keys,
               std::vector<Value> &Values, size_t MinLen, size_t MaxLen)
        : F(std::move(Fn)), Records(Keys.size()), MinLen(MinLen),
          MaxLen(MaxLen), Uniform(MinLen == MaxLen) {
      const size_t Count = Keys.size();
      std::vector<uint32_t> SlotOf(Count);
      parallelFor(Count, [&](size_t Begin, size_t End) {
        uint64_t Bases[RouteBlock];
        for (size_t At = Begin; At < End; At += RouteBlock) {
          const size_t Chunk = std::min(RouteBlock, End - At);
          F.baseBatch(Keys.data() + At, Bases, Chunk);
          for (size_t I = 0; I != Chunk; ++I)
            F.prefetchSlot(Bases[I]);
          for (size_t I = 0; I != Chunk; ++I) {
            const Mphf::SlotFp SF = F.slotFpFromBase(Bases[I]);
            Record &R = Records[SF.Slot];
            R.V = std::move(Values[At + I]);
            R.Len = static_cast<uint16_t>(Keys[At + I].size());
            R.Fp = static_cast<uint8_t>(SF.FpWord);
            SlotOf[At + I] = static_cast<uint32_t>(SF.Slot);
          }
        }
      });
      uint32_t Off = 0;
      for (Record &R : Records) {
        R.Off = Off;
        Off += R.Len;
      }
      Arena.reset(new char[Off]);
      parallelFor(Count, [&](size_t Begin, size_t End) {
        for (size_t I = Begin; I != End; ++I)
          std::memcpy(Arena.get() + Records[SlotOf[I]].Off, Keys[I].data(),
                      Keys[I].size());
      });
    }

    /// The record in \p Slot when it holds exactly \p Key under
    /// fingerprint \p Fp, else null. For a uniform lane the key's
    /// address does not wait for the record.
    const Record *match(uint64_t Slot, uint8_t Fp,
                        std::string_view Key) const {
      const Record &R = Records[Slot];
      const char *Bytes = Arena.get() + (Uniform ? Slot * MinLen : R.Off);
      if (R.Fp != Fp || size_t{R.Len} != Key.size() ||
          std::memcmp(Bytes, Key.data(), Key.size()) != 0)
        return nullptr;
      return &R;
    }

    /// False for a key of no sealed length: it cannot be in the lane,
    /// so it skips the MPHF evaluation (the MPHF itself images a key
    /// of a length its extraction plan has no loads for by the raw
    /// mix, so the gate is not what keeps loads inside the key).
    bool mayHold(std::string_view Key) const {
      return Key.size() >= MinLen && Key.size() <= MaxLen;
    }

    /// The record holding \p Key, or null.
    const Record *lookup(std::string_view Key) const {
      if (!mayHold(Key))
        return nullptr;
      const Mphf::SlotFp SF = F.slotFpFromBase(F.baseImage(Key));
      return match(SF.Slot, static_cast<uint8_t>(SF.FpWord), Key);
    }

    /// Pulls slot \p Slot's record, and for a uniform lane its key
    /// bytes, into cache.
    void prefetchRecord(uint64_t Slot) const {
      prefetchRead(&Records[Slot]);
      if (Uniform)
        prefetchKey(Arena.get() + Slot * MinLen, MinLen);
    }

    /// Mixed-length lanes: pulls slot \p Slot's key bytes into cache
    /// when its record's fingerprint is \p Fp (the record is in cache
    /// by then, from prefetchRecord).
    void prefetchKeyIfFp(uint64_t Slot, uint8_t Fp) const {
      const Record &R = Records[Slot];
      if (R.Fp == Fp)
        prefetchKey(Arena.get() + R.Off, R.Len);
    }

    static void prefetchKey(const char *Bytes, size_t Len) {
      prefetchRead(Bytes);
      if (Len > 1)
        prefetchRead(Bytes + Len - 1);
    }
  };

  /// The dynamic-lane batch path: one routeBatch per block, admitted
  /// keys through the dense hash -> partition -> per-shard probe
  /// pipeline, guard misses and fast-lane misses through the spill lane
  /// per key.
  size_t getBatchDynamic(const std::string_view *Keys, Value *Out,
                         uint8_t *Found, size_t N) const {
    const ShardedIndexMap<Value> *F = fast();
    size_t Hits = 0;
    uint64_t Hashes[RouteBlock];
    uint32_t MissIdx[RouteBlock];
    uint16_t AdmIdx[RouteBlock];
    uint64_t AdmImages[RouteBlock];
    Value AdmOut[RouteBlock];
    uint8_t AdmFound[RouteBlock];
    for (size_t Base = 0; Base < N; Base += RouteBlock) {
      const size_t Count = std::min(RouteBlock, N - Base);
      uint64_t Epoch = 0;
      const size_t Misses =
          Adaptive.routeBatch(Keys + Base, Hashes, Count, MissIdx, Epoch);
      for (size_t I = 0; I != Count; ++I)
        Found[Base + I] = 2; // Sentinel: undecided.
      for (size_t I = 0; I != Misses; ++I)
        Found[Base + MissIdx[I]] = 0;
      size_t Admitted = 0;
      for (size_t I = 0; I != Count; ++I)
        if (Found[Base + I] == 2) {
          AdmIdx[Admitted] = static_cast<uint16_t>(I);
          AdmImages[Admitted] = Hashes[I];
          ++Admitted;
        }
      size_t FastHits = 0;
      if (F && Admitted != 0 &&
          F->getBatchHashed(AdmImages, Epoch, AdmOut, AdmFound, Admitted,
                            FastHits)) {
        for (size_t I = 0; I != Admitted; ++I) {
          const size_t K = Base + AdmIdx[I];
          if (AdmFound[I]) {
            Out[K] = AdmOut[I];
            Found[K] = 1;
          } else {
            Found[K] = 0;
          }
        }
      } else if (F && Admitted != 0) {
        // Stale epoch (migration window): guarded per-key redo.
        for (size_t I = 0; I != Admitted; ++I) {
          const size_t K = Base + AdmIdx[I];
          Found[K] =
              F->getGuarded(Keys[K], Out[K]) == ProbeResult::Hit ? 1 : 0;
        }
      } else {
        for (size_t I = 0; I != Admitted; ++I)
          Found[Base + AdmIdx[I]] = 0;
      }
      // Spill lane + sweep-race retry for everything still unresolved
      // (reload the lane pointer: see get() on why the retry must not
      // depend on the admission verdict or the lane snapshot).
      for (size_t I = 0; I != Count; ++I) {
        const size_t K = Base + I;
        if (Found[K] == 1) {
          ++Hits;
          continue;
        }
        if (spillFind(Keys[K], Out[K])) {
          Found[K] = 1;
          ++Hits;
          continue;
        }
        // Loaded after the spill miss so a lane created mid-call is
        // still seen.
        const ShardedIndexMap<Value> *F2 = fast();
        if (F2 && F2->getGuarded(Keys[K], Out[K]) == ProbeResult::Hit) {
          Found[K] = 1;
          ++Hits;
        }
      }
    }
    return Hits;
  }

  const StaticLane *staticLane() const {
    return StaticPtr.load(std::memory_order_acquire);
  }

  const ShardedIndexMap<Value> *fast() const {
    return FastPtr.load(std::memory_order_acquire);
  }
  ShardedIndexMap<Value> *fast() {
    return FastPtr.load(std::memory_order_acquire);
  }

  static size_t spillShardOf(std::string_view Key) {
    return TransparentHash{}(Key) & (SpillShardCount - 1);
  }

  SpillShard &spillShard(std::string_view Key) const {
    return Spill[spillShardOf(Key)];
  }

  /// Grows each spill shard once for the keys of a batch bound there
  /// (keys already present count too: they over-reserve, never under).
  /// Reserving per block instead would rehash a shard again and again
  /// as it fills, and a shard reserved for exactly its keys would end
  /// almost full, lengthening the chains that absent gets and puts
  /// walk: a shard the batch outgrows ends at most 3/4 full (growth one
  /// insert at a time ends it between 1/2 and 1 full; 0.77 for the 2^16
  /// keys a 2^20-key batch puts in each shard) and at least doubles, so
  /// a stream of small batches still grows it geometrically.
  void reserveSpill(const std::string_view *Keys, size_t N) {
    std::array<size_t, SpillShardCount> Bound{};
    for (size_t I = 0; I != N; ++I)
      ++Bound[spillShardOf(Keys[I])];
    for (size_t S = 0; S != SpillShardCount; ++S) {
      std::unique_lock<std::shared_mutex> Lock(Spill[S].Mutex);
      auto &Map = Spill[S].Map;
      const size_t Need = Map.size() + Bound[S];
      if (Need > Map.bucket_count() * Map.max_load_factor())
        Map.reserve(std::max(Need * 4 / 3, 2 * Map.bucket_count()));
    }
  }

  bool spillFind(std::string_view Key, Value &Out) const {
    if (SpillCount.load(std::memory_order_acquire) == 0)
      return false;
    const SpillShard &S = spillShard(Key);
    std::shared_lock<std::shared_mutex> Lock(S.Mutex);
    const auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return false;
    Out = It->second;
    return true;
  }

  bool spillInsert(std::string_view Key, Value V) {
    SpillShard &S = spillShard(Key);
    std::unique_lock<std::shared_mutex> Lock(S.Mutex);
    const bool Inserted =
        S.Map.emplace(std::string(Key), std::move(V)).second;
    if (Inserted)
      SpillCount.fetch_add(1, std::memory_order_release);
    return Inserted;
  }

  bool spillErase(std::string_view Key) {
    if (SpillCount.load(std::memory_order_acquire) == 0)
      return false;
    SpillShard &S = spillShard(Key);
    std::unique_lock<std::shared_mutex> Lock(S.Mutex);
    const auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return false;
    S.Map.erase(It);
    SpillCount.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// Moves every spill key the fast lane's active pattern admits into
  /// the fast lane: insert into fast first, erase from spill second,
  /// both under the spill shard's write lock (lock order spill -> fast,
  /// never reversed anywhere). Returns the number of keys moved.
  size_t sweepSpill(ShardedIndexMap<Value> &F) {
    SEPE_TRACE_SPAN(TraceSpan, SpillSweep, F.epoch());
    size_t Moved = 0;
    for (SpillShard &S : Spill) {
      std::unique_lock<std::shared_mutex> Lock(S.Mutex);
      for (auto It = S.Map.begin(); It != S.Map.end();) {
        bool Inserted = false;
        if (F.putGuarded(It->first, It->second, Inserted)) {
          It = S.Map.erase(It);
          SpillCount.fetch_sub(1, std::memory_order_release);
          ++Moved;
        } else {
          ++It;
        }
      }
    }
    if (Moved != 0) {
      Swept.fetch_add(Moved, std::memory_order_relaxed);
      SEPE_COUNT_N("serving_table.sweep.moved", Moved);
    }
    TraceSpan.setArg(Moved);
    return Moved;
  }

  size_t ShardHint;
  AdaptiveHash Adaptive;

  /// Created at most once (construction or first bijective generation),
  /// then mutated in place by migrations; readers take one acquire
  /// load. Null until a bijective plan exists (cold start).
  std::atomic<ShardedIndexMap<Value> *> FastPtr{nullptr};
  std::unique_ptr<ShardedIndexMap<Value>> FastStorage;

  /// Published static lane, or null. Replaced wholesale by
  /// sealStatic() and nulled by erase() of a sealed key; retired lanes
  /// stay in StaticStorage (guarded by MaintainMutex) until
  /// destruction so a concurrent reader never touches a freed lane —
  /// the same retire-until-destruction discipline the JIT rung uses
  /// for old code buffers.
  std::atomic<const StaticLane *> StaticPtr{nullptr};
  std::vector<std::unique_ptr<const StaticLane>> StaticStorage;

  mutable std::array<SpillShard, SpillShardCount> Spill{};
  std::atomic<size_t> SpillCount{0};
  std::atomic<uint64_t> Swept{0};
  std::mutex MaintainMutex;
};

} // namespace sepe

#endif // SEPE_RUNTIME_SERVING_TABLE_H
