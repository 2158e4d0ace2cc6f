//===- perfbench/src/selftest.cpp - Checks on the benchmark itself --------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tests: the oracle catches a wrong value and a
/// duplicated drift key, the client-thread cap never exceeds the CPUs,
/// percentile reporting drops a percentile without ten samples beyond
/// it, and key generation is distinct and seed-determined. Exits 0
/// when every check passes.
///
///   python3 perfbench/run.py --selftest
///
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "core/regex_parser.h"
#include "runtime/serving_table.h"

#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += Ok ? 0 : 1;
}

void oracle() {
  Tally T;
  T.stored(true, 6, 6);
  check(T.Failed == 0, "oracle accepts the expected value");
  T.stored(true, 5, 6);
  check(T.Failed == 1, "oracle flags a wrong value");
  T.stored(false, 0, 6);
  check(T.Failed == 2, "oracle flags a missing stored key");
  T.absent(true);
  check(T.Failed == 3, "oracle flags an absent key reported present");
  T.churned(false, 0, 7);
  T.churned(true, 7, 7);
  check(T.Failed == 3 && T.Attempted == 6,
        "oracle accepts a churned key either present with its value or absent");

  // End to end: a served table read back against expectations with one
  // deliberately wrong expected value fails exactly that check.
  const KeyFormat &F = formatNamed("SSN");
  const std::vector<uint64_t> Values =
      distinctValues(F, 1000, Distribution::Uniform, 7);
  sepe::Expected<sepe::FormatSpec> Spec = sepe::parseRegex(F.Regex);
  sepe::AdaptiveOptions Options;
  Options.Family = sepe::HashFamily::Pext;
  Options.Background = false;
  sepe::ServingTable<uint64_t> Table(Spec->abstract(), Options);
  std::vector<std::string> Keys;
  for (uint64_t V : Values)
    Keys.push_back(encodeKey(F, V, nullptr));
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  std::vector<uint64_t> Want(Keys.size());
  for (size_t I = 0; I != Want.size(); ++I)
    Want[I] = I;
  Want[123] = 124; // Deliberately wrong.
  Tally E;
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t Got = 0;
    const bool Found = Table.get(Keys[I], Got);
    E.stored(Found, Got, Want[I]);
  }
  check(E.Failed == 1 && E.Attempted == Keys.size(),
        "oracle flags the one wrong expected value in a served table");

  // Drift keys: sources that differ only at the probe position collapse
  // to one drifted key; the drift set must keep one of them.
  KeySet Source(11);
  for (const char *K : {"123-45-6789", "923-45-6789", "223-45-6789",
                        "111-11-1111", "555-55-5555"})
    Source.push(K);
  const KeySet Drift = driftKeys(Source, 0, 'x');
  check(Drift.size() == 3, "drift set dedupes keys that collapse at the probe");
  check(findDuplicate(Drift.views()).empty(), "drift set is distinct");
  std::vector<std::string_view> WithDup = Drift.views();
  WithDup.push_back(Drift[1]);
  check(!findDuplicate(WithDup).empty(),
        "oracle flags a deliberately duplicated drift key");
  const KeySet Again = driftKeys(Source, 0, 'x', {"x11-11-1111"});
  check(Again.size() == 2, "drift set excludes keys already taken");
}

void threadCap() {
  bool Ok = true;
  for (size_t Cpus = 1; Cpus <= 64; ++Cpus)
    for (size_t Wanted = 1; Wanted <= 8; ++Wanted) {
      const size_t C = clientThreads(Wanted, Cpus);
      Ok &= C >= 1 && C <= Cpus && C <= Wanted;
      if (Cpus >= 2)
        Ok &= C + 1 <= Cpus; // Plus the maintenance thread.
    }
  check(Ok, "client cap never exceeds nproc (nproc - 1 with maintenance)");
  check(clientThreads(3, hostCpus()) <= hostCpus(),
        "client cap on this host is within nproc");
}

void percentiles() {
  auto Sorted = [](size_t N) {
    std::vector<uint32_t> V(N);
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<uint32_t>(I + 1);
    return V;
  };
  check(percentile(Sorted(1000), 0.99).Valid,
        "p99 over 1000 samples (10 beyond) is reported");
  check(!percentile(Sorted(999), 0.99).Valid,
        "p99 over 999 samples (9 beyond) is dropped");
  check(percentile(Sorted(20), 0.5).Valid &&
            percentile(Sorted(20), 0.5).Value == 10,
        "p50 over 20 samples is the 10th");
  check(!percentile(Sorted(19), 0.5).Valid,
        "p50 over 19 samples (9 beyond) is dropped");
  check(!percentile({}, 0.5).Valid, "no samples, no percentile");

  // Merging weights threads by operations timed, not samples kept.
  LatencySampler Busy(100, 1), Idle(100, 2);
  for (int I = 0; I != 10000; ++I)
    Busy.add(10);
  for (int I = 0; I != 100; ++I)
    Idle.add(1000);
  const std::vector<uint32_t> M = mergeSamples({&Busy, &Idle});
  check(M.size() == 101 && M.back() == 1000 && M.front() == 10,
        "merged samples keep each thread's share of timed operations");
}

void keys() {
  for (const KeyFormat &F : paperFormats()) {
    const std::vector<uint64_t> A =
        distinctValues(F, 4096, Distribution::Normal, 42);
    const std::vector<uint64_t> B =
        distinctValues(F, 4096, Distribution::Normal, 42);
    std::set<std::string> Seen;
    SplitMix Pad(1);
    bool Shaped = true;
    for (uint64_t V : A) {
      const std::string K = encodeKey(F, V, &Pad);
      Shaped &= K.size() == F.Shape.size();
      Seen.insert(K);
    }
    bool InSpace = true;
    for (uint64_t V : A)
      InSpace &= V < valueSpace(F);
    check(A == B && Seen.size() == A.size() && Shaped && InSpace,
          (std::string(F.Name) +
           " keys are distinct, shaped and seed-determined")
              .c_str());
  }
}

} // namespace

int main() {
  oracle();
  threadCap();
  percentiles();
  keys();
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "passed", Failures);
  return Failures ? 1 : 0;
}
