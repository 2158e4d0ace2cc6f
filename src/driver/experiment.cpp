//===- driver/experiment.cpp - The paper's benchmark driver --------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "driver/experiment.h"

#include "container/flat_index_map.h"
#include "support/batch.h"
#include "support/telemetry.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <unordered_map>
#include <unordered_set>

using namespace sepe;

const char *sepe::containerKindName(ContainerKind Kind) {
  switch (Kind) {
  case ContainerKind::Map:
    return "U-Map";
  case ContainerKind::Set:
    return "U-Set";
  case ContainerKind::MultiMap:
    return "UM-Map";
  case ContainerKind::MultiSet:
    return "UM-Set";
  }
  return "<invalid>";
}

const char *sepe::execModeName(ExecMode Mode) {
  switch (Mode) {
  case ExecMode::Batched:
    return "Batched";
  case ExecMode::Inter70_20:
    return "Inter(0.7,0.2)";
  case ExecMode::Inter60_20:
    return "Inter(0.6,0.2)";
  case ExecMode::Inter40_30:
    return "Inter(0.4,0.3)";
  }
  return "<invalid>";
}

namespace {

/// Keeps a value alive past the optimizer.
inline void doNotOptimize(uint64_t Value) {
  asm volatile("" : : "r"(Value) : "memory");
}

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  const auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

// Uniform adapters over the four unordered containers. All expose
// insert/search/erase on string keys plus bucket iteration.
template <typename Hasher> struct MapAdapter {
  std::unordered_map<std::string, uint64_t, Hasher> C;
  explicit MapAdapter(Hasher H) : C(16, std::move(H)) {}
  void insert(const std::string &K) { C.emplace(K, 1); }
  uint64_t search(const std::string &K) const { return C.count(K); }
  void erase(const std::string &K) { C.erase(K); }
  size_t bucketCount() const { return C.bucket_count(); }
  size_t bucketSize(size_t I) const { return C.bucket_size(I); }
};

template <typename Hasher> struct SetAdapter {
  std::unordered_set<std::string, Hasher> C;
  explicit SetAdapter(Hasher H) : C(16, std::move(H)) {}
  void insert(const std::string &K) { C.insert(K); }
  uint64_t search(const std::string &K) const { return C.count(K); }
  void erase(const std::string &K) { C.erase(K); }
  size_t bucketCount() const { return C.bucket_count(); }
  size_t bucketSize(size_t I) const { return C.bucket_size(I); }
};

template <typename Hasher> struct MultiMapAdapter {
  std::unordered_multimap<std::string, uint64_t, Hasher> C;
  explicit MultiMapAdapter(Hasher H) : C(16, std::move(H)) {}
  void insert(const std::string &K) { C.emplace(K, 1); }
  uint64_t search(const std::string &K) const { return C.count(K); }
  void erase(const std::string &K) { C.erase(K); }
  size_t bucketCount() const { return C.bucket_count(); }
  size_t bucketSize(size_t I) const { return C.bucket_size(I); }
};

template <typename Hasher> struct MultiSetAdapter {
  std::unordered_multiset<std::string, Hasher> C;
  explicit MultiSetAdapter(Hasher H) : C(16, std::move(H)) {}
  void insert(const std::string &K) { C.insert(K); }
  uint64_t search(const std::string &K) const { return C.count(K); }
  void erase(const std::string &K) { C.erase(K); }
  size_t bucketCount() const { return C.bucket_count(); }
  size_t bucketSize(size_t I) const { return C.bucket_size(I); }
};

template <typename Adapter>
double timeSchedule(Adapter &&A, const Workload &Work) {
  uint64_t Sink = 0;
  const auto Start = std::chrono::steady_clock::now();
  for (const auto &[Op, Index] : Work.Schedule) {
    const std::string &Key = Work.Keys[Index];
    switch (Op) {
    case Workload::Op::Insert:
      A.insert(Key);
      break;
    case Workload::Op::Search:
      Sink += A.search(Key);
      break;
    case Workload::Op::Erase:
      A.erase(Key);
      break;
    }
  }
  const double Ms = elapsedMs(Start);
  doNotOptimize(Sink);
  return Ms;
}

template <typename Hasher>
double timeHashing(const Hasher &Hash, const Workload &Work) {
  uint64_t Sink = 0;
  const auto Start = std::chrono::steady_clock::now();
  for (const auto &[Op, Index] : Work.Schedule)
    Sink += Hash(Work.Keys[Index]);
  const double Ms = elapsedMs(Start);
  doNotOptimize(Sink);
  return Ms;
}

/// H-Time through the batch API: the scheduled keys are materialized as
/// views once (outside the timed region — a serving path would already
/// hold them contiguously) and hashed many-per-call. Used for the
/// Batched execution mode; interweaved schedules keep the per-key loop
/// above, since their keys arrive one at a time by construction.
template <typename Hasher>
double timeHashingBatch(const Hasher &Hash, const Workload &Work) {
  std::vector<std::string_view> Views;
  Views.reserve(Work.Schedule.size());
  for (const auto &[Op, Index] : Work.Schedule)
    Views.push_back(Work.Keys[Index]);
  std::vector<uint64_t> Hashes(Views.size());

  const auto Start = std::chrono::steady_clock::now();
  hashBatch(Hash, Views.data(), Hashes.data(), Views.size());
  const double Ms = elapsedMs(Start);

  uint64_t Sink = 0;
  for (uint64_t H : Hashes)
    Sink += H;
  doNotOptimize(Sink);
  return Ms;
}

template <typename Adapter, typename Hasher>
uint64_t countBucketCollisions(Hasher Hash, const Workload &Work) {
  Adapter A{std::move(Hash)};
  for (const std::string &Key : Work.Keys)
    A.insert(Key);
  uint64_t Collisions = 0;
  for (size_t I = 0, E = A.bucketCount(); I != E; ++I) {
    const size_t Size = A.bucketSize(I);
    if (Size > 1)
      Collisions += Size - 1;
  }
  return Collisions;
}

template <typename Hasher>
ExperimentResult runWithHasher(const Hasher &Hash, const Workload &Work,
                               const ExperimentConfig &Config) {
  ExperimentResult Result;
  switch (Config.Container) {
  case ContainerKind::Map:
    Result.BTimeMs = timeSchedule(MapAdapter<Hasher>(Hash), Work);
    Result.BucketCollisions =
        countBucketCollisions<MapAdapter<Hasher>>(Hash, Work);
    break;
  case ContainerKind::Set:
    Result.BTimeMs = timeSchedule(SetAdapter<Hasher>(Hash), Work);
    Result.BucketCollisions =
        countBucketCollisions<SetAdapter<Hasher>>(Hash, Work);
    break;
  case ContainerKind::MultiMap:
    Result.BTimeMs = timeSchedule(MultiMapAdapter<Hasher>(Hash), Work);
    Result.BucketCollisions =
        countBucketCollisions<MultiMapAdapter<Hasher>>(Hash, Work);
    break;
  case ContainerKind::MultiSet:
    Result.BTimeMs = timeSchedule(MultiSetAdapter<Hasher>(Hash), Work);
    Result.BucketCollisions =
        countBucketCollisions<MultiSetAdapter<Hasher>>(Hash, Work);
    break;
  }
  Result.HTimeMs = Config.Mode == ExecMode::Batched
                       ? timeHashingBatch(Hash, Work)
                       : timeHashing(Hash, Work);

  std::vector<uint64_t> Hashes;
  Hashes.reserve(Work.Keys.size());
  for (const std::string &Key : Work.Keys)
    Hashes.push_back(Hash(Key));
  std::sort(Hashes.begin(), Hashes.end());
  uint64_t TrueColl = 0;
  for (size_t I = 1; I < Hashes.size(); ++I)
    if (Hashes[I] == Hashes[I - 1])
      ++TrueColl;
  Result.TrueCollisions = TrueColl;
  return Result;
}

} // namespace

Workload sepe::makeWorkload(PaperKey Key, const ExperimentConfig &Config) {
  Workload Work;
  KeyGenerator Gen(paperKeyFormat(Key), Config.Distribution, Config.Seed);
  Work.Keys = Gen.distinct(Config.Spread);

  std::mt19937_64 Rng(Config.Seed ^ 0xabcdef);
  const auto RandomIndex = [&] {
    return static_cast<uint32_t>(Rng() % Work.Keys.size());
  };
  Work.Schedule.reserve(Config.Affectations);

  if (Config.Mode == ExecMode::Batched) {
    // Insertions first, then searches, then eliminations; keys cycle in
    // distribution order.
    const size_t PerPhase = Config.Affectations / 3;
    for (size_t I = 0; I != PerPhase; ++I)
      Work.Schedule.emplace_back(Workload::Op::Insert,
                                 static_cast<uint32_t>(I % Work.Keys.size()));
    for (size_t I = 0; I != PerPhase; ++I)
      Work.Schedule.emplace_back(Workload::Op::Search,
                                 static_cast<uint32_t>(I % Work.Keys.size()));
    while (Work.Schedule.size() != Config.Affectations)
      Work.Schedule.emplace_back(
          Workload::Op::Erase,
          static_cast<uint32_t>(Work.Schedule.size() % Work.Keys.size()));
    return Work;
  }

  double Pi = 0.7, Ps = 0.2;
  if (Config.Mode == ExecMode::Inter60_20)
    Pi = 0.6;
  if (Config.Mode == ExecMode::Inter40_30) {
    Pi = 0.4;
    Ps = 0.3;
  }

  // First half: insertions. Second half: random mix per (Pi, Ps).
  const size_t Half = Config.Affectations / 2;
  for (size_t I = 0; I != Half; ++I)
    Work.Schedule.emplace_back(Workload::Op::Insert, RandomIndex());
  std::uniform_real_distribution<double> Coin(0.0, 1.0);
  while (Work.Schedule.size() != Config.Affectations) {
    const double P = Coin(Rng);
    Workload::Op Op = Workload::Op::Erase;
    if (P < Pi)
      Op = Workload::Op::Insert;
    else if (P < Pi + Ps)
      Op = Workload::Op::Search;
    Work.Schedule.emplace_back(Op, RandomIndex());
  }
  return Work;
}

ExperimentResult sepe::runExperiment(const Workload &Work,
                                     const ExperimentConfig &Config,
                                     HashKind Kind,
                                     const HashFunctionSet &Set) {
  SEPE_SPAN("driver.experiment");
  SEPE_COUNT("driver.experiment.count");
  return Set.visit(Kind, [&](const auto &Hasher) {
    return runWithHasher(Hasher, Work, Config);
  });
}

std::vector<BatchLadderTiming>
sepe::measureBatchLadder(const Workload &Work, HashKind Kind,
                         const HashFunctionSet &Set) {
  std::vector<BatchLadderTiming> Rungs;
  if (!isSynthetic(Kind)) {
    Set.visit(Kind, [&](const auto &Hasher) {
      Rungs.push_back({batchPathOf(Hasher), timeHashingBatch(Hasher, Work)});
    });
    return Rungs;
  }

  const SynthesizedHash &Attached =
      Set.synthesized(syntheticFamily(Kind));
  for (BatchPath Preferred : {BatchPath::Scalar, BatchPath::Interleaved,
                              BatchPath::Avx2, BatchPath::Jit}) {
    const SynthesizedHash Forced(Attached.plan(), Set.isa(), Preferred);
    const std::string Path = Forced.batchPathName();
    bool Seen = false;
    for (const BatchLadderTiming &R : Rungs)
      Seen = Seen || R.Path == Path;
    if (Seen)
      continue;
    Rungs.push_back({Path, timeHashingBatch(Forced, Work)});
  }
  return Rungs;
}

bool sepe::runFlatIndexProbe(const Workload &Work,
                             const HashFunctionSet &Set,
                             FlatIndexProbeResult &Result) {
  const SynthesizedHash &Pext = Set.synthesized(HashFamily::Pext);
  if (!Pext.valid() || !Pext.plan().Bijective)
    return false;
  SEPE_SPAN("driver.flat_index_probe");
  FlatIndexMap<uint64_t> Map(Pext, Work.Keys.size());
  uint64_t Hits = 0, Searches = 0;
  const auto Start = std::chrono::steady_clock::now();
  for (const auto &[Op, Index] : Work.Schedule) {
    const std::string &Key = Work.Keys[Index];
    switch (Op) {
    case Workload::Op::Insert:
      Map.insert(Key, Index);
      break;
    case Workload::Op::Search:
      Hits += Map.find(Key) != nullptr ? 1 : 0;
      ++Searches;
      break;
    case Workload::Op::Erase:
      Map.erase(Key);
      break;
    }
  }
  Result.BTimeMs = elapsedMs(Start);
  doNotOptimize(Hits);
  // The map's probe loops carry no instrumentation: lookups are counted
  // here, and the probe-length distribution is a walk of the final
  // table.
  SEPE_COUNT_N("flat_index_map.find.hit", Hits);
  SEPE_COUNT_N("flat_index_map.find.miss", Searches - Hits);
  if (telemetry::enabled()) {
    telemetry::Histogram &Probe =
        telemetry::histogram("flat_index_map.probe_groups.find");
    Map.forEachProbeLength([&Probe](size_t G) { Probe.record(G); });
  }
  Result.FinalSize = Map.size();
  Result.MaxProbeGroups = Map.maxProbeLength();
  Result.Tombstones = Map.tombstones();
  return true;
}

uint64_t sepe::countTrueCollisions(const std::vector<std::string> &Keys,
                                   HashKind Kind,
                                   const HashFunctionSet &Set) {
  std::vector<uint64_t> Hashes;
  Hashes.reserve(Keys.size());
  for (const std::string &Key : Keys)
    Hashes.push_back(Set.hash(Kind, Key));
  std::sort(Hashes.begin(), Hashes.end());
  uint64_t Collisions = 0;
  for (size_t I = 1; I < Hashes.size(); ++I)
    if (Hashes[I] == Hashes[I - 1])
      ++Collisions;
  return Collisions;
}

std::vector<ExperimentConfig>
sepe::standardGrid(size_t Affectations, const std::vector<size_t> &Spreads,
                   uint64_t Seed) {
  std::vector<ExperimentConfig> Grid;
  Grid.reserve(4 * 3 * Spreads.size() * 4);
  uint64_t Counter = 0;
  for (ContainerKind Container : AllContainerKinds)
    for (KeyDistribution Distribution : AllKeyDistributions)
      for (size_t Spread : Spreads)
        for (ExecMode Mode : AllExecModes) {
          ExperimentConfig Config;
          Config.Container = Container;
          Config.Distribution = Distribution;
          Config.Spread = Spread;
          Config.Mode = Mode;
          Config.Affectations = Affectations;
          Config.Seed = Seed + Counter++;
          Grid.push_back(Config);
        }
  return Grid;
}
