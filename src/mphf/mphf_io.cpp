//===- mphf/mphf_io.cpp - MphfPlan (de)serialization ----------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf_io.h"

#include "core/plan_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <vector>

using namespace sepe;

namespace {

constexpr const char *Magic = "sepe-mphf v1";

std::string hex64(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

/// Appends \p Values as 'Prefix v v v ...' lines, eight values each, so
/// large plans stay diffable line by line.
void appendValueLines(std::string &Out, char Prefix,
                      const std::vector<uint64_t> &Values) {
  for (size_t I = 0; I < Values.size(); I += 8) {
    Out += Prefix;
    for (size_t J = I; J != std::min(I + 8, Values.size()); ++J) {
      Out += ' ';
      Out += std::to_string(Values[J]);
    }
    Out += '\n';
  }
}

std::vector<std::string_view> tokenize(std::string_view Line) {
  std::vector<std::string_view> Tokens;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    const size_t Begin = I;
    while (I < Line.size() && Line[I] != ' ')
      ++I;
    if (I > Begin)
      Tokens.push_back(Line.substr(Begin, I - Begin));
  }
  return Tokens;
}

bool parseU64(std::string_view Token, uint64_t &Out) {
  int Base = 10;
  if (Token.size() > 2 && Token[0] == '0' &&
      (Token[1] == 'x' || Token[1] == 'X')) {
    Token.remove_prefix(2);
    Base = 16;
  }
  const auto [End, Err] =
      std::from_chars(Token.data(), Token.data() + Token.size(), Out, Base);
  return Err == std::errc() && End == Token.data() + Token.size();
}

Error lineError(size_t LineNo, const std::string &Message) {
  return Error{"line " + std::to_string(LineNo) + ": " + Message,
               std::string::npos};
}

} // namespace

std::string sepe::serializeMphf(const MphfPlan &Plan) {
  std::string Out;
  Out += Magic;
  Out += '\n';
  Out += std::string("tier ") + mphfTierName(Plan.Tier) + '\n';
  Out += "n " + std::to_string(Plan.N) + '\n';
  Out += "seed " + hex64(Plan.Seed) + '\n';

  switch (Plan.Tier) {
  case MphfTier::Mixer:
    Out += "mixer " + hex64(Plan.MixerC) + '\n';
    break;
  case MphfTier::Displace: {
    Out += "buckets " + std::to_string(Plan.NumBuckets) + '\n';
    Out += "displace " + std::to_string(Plan.Displace.size()) + '\n';
    std::vector<uint64_t> Values(Plan.Displace.begin(), Plan.Displace.end());
    appendValueLines(Out, 'd', Values);
    break;
  }
  case MphfTier::Split: {
    Out += "buckets " + std::to_string(Plan.NumBuckets) + '\n';
    Out += "leafmax " + std::to_string(Plan.LeafMax) + '\n';
    std::vector<uint64_t> Pilots(Plan.Pilots.size());
    for (size_t I = 0; I != Pilots.size(); ++I)
      Pilots[I] = Plan.Pilots.get(I);
    Out += "pilots " + std::to_string(Pilots.size()) + '\n';
    appendValueLines(Out, 'p', Pilots);
    const std::vector<uint64_t> Offsets = Plan.Offsets.decode();
    Out += "offsets " + std::to_string(Offsets.size()) + '\n';
    appendValueLines(Out, 'o', Offsets);
    const std::vector<uint64_t> Starts = Plan.PilotStarts.decode();
    Out += "pilotstarts " + std::to_string(Starts.size()) + '\n';
    appendValueLines(Out, 's', Starts);
    break;
  }
  }

  if (!Plan.RawBase && Plan.Extract) {
    Out += "plan\n";
    Out += serializePlan(*Plan.Extract); // ends with its own newline
    Out += "endplan\n";
  }
  return Out;
}

Expected<MphfPlan> sepe::deserializeMphf(std::string_view Text) {
  MphfPlan Plan;
  Plan.RawBase = true;
  bool SawMagic = false, SawTier = false, SawN = false;
  size_t DisplaceCount = 0, PilotCount = 0, OffsetCount = 0, StartCount = 0;
  std::vector<uint64_t> Displace, Pilots, Offsets, Starts;
  bool InPlan = false;
  std::string PlanText;

  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    const size_t LineEnd = Text.find('\n', Pos);
    std::string_view Line =
        Text.substr(Pos, LineEnd == std::string_view::npos
                             ? std::string_view::npos
                             : LineEnd - Pos);
    Pos = LineEnd == std::string_view::npos ? Text.size() + 1 : LineEnd + 1;
    ++LineNo;

    if (InPlan) {
      if (Line == "endplan") {
        InPlan = false;
        Expected<HashPlan> Inner = deserializePlan(PlanText);
        if (!Inner)
          return lineError(LineNo, "embedded extraction plan: " +
                                       Inner.error().Message);
        Plan.Extract = std::make_shared<const HashPlan>(Inner.take());
        Plan.RawBase = false;
        continue;
      }
      PlanText += Line;
      PlanText += '\n';
      continue;
    }

    if (Line.empty() || Line[0] == '#')
      continue;

    if (!SawMagic) {
      if (Line != Magic)
        return lineError(LineNo, "expected the 'sepe-mphf v1' header");
      SawMagic = true;
      continue;
    }

    const std::vector<std::string_view> Tokens = tokenize(Line);
    if (Tokens.empty())
      continue;
    const std::string_view Key = Tokens[0];

    auto parseCount = [&](size_t &Count) {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value))
        return false;
      Count = static_cast<size_t>(Value);
      return true;
    };
    auto parseValues = [&](std::vector<uint64_t> &Values, size_t Count) {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value) || Values.size() >= Count)
          return false;
        Values.push_back(Value);
      }
      return true;
    };

    if (Key == "tier") {
      if (Tokens.size() != 2 || !parseMphfTier(Tokens[1], Plan.Tier))
        return lineError(LineNo, "tier requires Mixer|Displace|Split");
      SawTier = true;
    } else if (Key == "n") {
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Plan.N))
        return lineError(LineNo, "n requires one integer");
      SawN = true;
    } else if (Key == "seed") {
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Plan.Seed))
        return lineError(LineNo, "seed requires one integer");
    } else if (Key == "mixer") {
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Plan.MixerC))
        return lineError(LineNo, "mixer requires one constant");
    } else if (Key == "buckets") {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value))
        return lineError(LineNo, "buckets requires one integer");
      Plan.NumBuckets = static_cast<uint32_t>(Value);
    } else if (Key == "leafmax") {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value) || Value == 0 ||
          Value > 64)
        return lineError(LineNo, "leafmax requires an integer in [1,64]");
      Plan.LeafMax = static_cast<uint32_t>(Value);
    } else if (Key == "displace") {
      if (!parseCount(DisplaceCount))
        return lineError(LineNo, "displace requires one count");
    } else if (Key == "pilots") {
      if (!parseCount(PilotCount))
        return lineError(LineNo, "pilots requires one count");
    } else if (Key == "offsets") {
      if (!parseCount(OffsetCount))
        return lineError(LineNo, "offsets requires one count");
    } else if (Key == "pilotstarts") {
      if (!parseCount(StartCount))
        return lineError(LineNo, "pilotstarts requires one count");
    } else if (Key == "d") {
      if (!parseValues(Displace, DisplaceCount))
        return lineError(LineNo, "malformed or excess displace values");
    } else if (Key == "p") {
      if (!parseValues(Pilots, PilotCount))
        return lineError(LineNo, "malformed or excess pilot values");
    } else if (Key == "o") {
      if (!parseValues(Offsets, OffsetCount))
        return lineError(LineNo, "malformed or excess offset values");
    } else if (Key == "s") {
      if (!parseValues(Starts, StartCount))
        return lineError(LineNo, "malformed or excess pilotstart values");
    } else if (Key == "plan") {
      InPlan = true;
      PlanText.clear();
    } else {
      return lineError(LineNo,
                       "unknown directive '" + std::string(Key) + "'");
    }
  }

  if (!SawMagic)
    return Error{"empty plan: missing 'sepe-mphf v1' header"};
  if (InPlan)
    return Error{"unterminated embedded plan: missing 'endplan'"};
  if (!SawTier || !SawN || Plan.N == 0)
    return Error{"incomplete MPHF plan: tier and n are required"};

  switch (Plan.Tier) {
  case MphfTier::Mixer:
    if (Plan.MixerC == 0)
      return Error{"Mixer tier requires a mixer constant"};
    break;
  case MphfTier::Displace:
    if (Plan.NumBuckets == 0 || Displace.size() != DisplaceCount ||
        DisplaceCount != Plan.NumBuckets)
      return Error{"Displace tier requires buckets and a full table"};
    Plan.Displace.assign(Displace.begin(), Displace.end());
    break;
  case MphfTier::Split: {
    if (Plan.NumBuckets == 0 || Pilots.size() != PilotCount ||
        Offsets.size() != OffsetCount || Starts.size() != StartCount ||
        OffsetCount != Plan.NumBuckets + 1 ||
        StartCount != Plan.NumBuckets + 1)
      return Error{"Split tier requires buckets, pilots and both offset "
                   "sequences"};
    for (size_t I = 0; I + 1 < Offsets.size(); ++I)
      if (Offsets[I] > Offsets[I + 1] || Starts[I] > Starts[I + 1])
        return Error{"offset sequences must be monotone"};
    if (Offsets.back() != Plan.N || Starts.back() != Pilots.size())
      return Error{"offset sequences disagree with n / pilot count"};
    // The evaluator descends a bucket by the node counts its size
    // implies under leafmax, so a bucket with any other pilot count
    // would send it past its pilots. Every leaf holds at most leafmax
    // keys and has a pilot, which bounds the largest bucket (and the
    // node-count table) by the pilot list's length.
    uint64_t MaxBucket = 0;
    for (size_t I = 0; I + 1 < Offsets.size(); ++I)
      MaxBucket = std::max(MaxBucket, Offsets[I + 1] - Offsets[I]);
    if (MaxBucket > uint64_t{Plan.LeafMax} * Pilots.size() ||
        MaxBucket >= UINT32_MAX)
      return Error{"a bucket holds more keys than its pilots can place"};
    const std::vector<uint32_t> Nodes = mphfSplitNodeCounts(
        static_cast<uint32_t>(MaxBucket), Plan.LeafMax);
    for (size_t I = 0; I + 1 < Offsets.size(); ++I)
      if (Starts[I + 1] - Starts[I] != Nodes[Offsets[I + 1] - Offsets[I]])
        return Error{"bucket " + std::to_string(I) +
                     ": pilot count disagrees with its size under leafmax " +
                     std::to_string(Plan.LeafMax)};
    Plan.Pilots = PackedArray::pack(Pilots);
    Plan.Offsets = EliasFano::encode(Offsets);
    Plan.PilotStarts = EliasFano::encode(Starts);
    break;
  }
  }
  return Plan;
}
