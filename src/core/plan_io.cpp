//===- core/plan_io.cpp - HashPlan (de)serialization ----------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/plan_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <vector>

using namespace sepe;

namespace {

constexpr const char *Magic = "sepe-plan v1";

void appendLine(std::string &Out, const std::string &Line) {
  Out += Line;
  Out += '\n';
}

std::string hex64(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

/// Splits \p Text into whitespace-separated tokens.
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

/// The evaluators and the JIT read every fixed-length step as one
/// unguarded 8-byte load at its offset, and a partial-load plan's single
/// step as the key's first min(MaxKeyLen, 8) bytes. A plan whose loads
/// end past the key would read out of bounds on every in-format key, so
/// a plan file is held to the bounds the synthesizer produces. Returns
/// the reason a load is out of bounds, or "" when every load fits.
std::string loadBoundsError(const HashPlan &Plan) {
  if (Plan.FallbackToStl || (!Plan.FixedLength && !Plan.PartialLoad))
    return "";
  if (Plan.PartialLoad && !Plan.FixedLength)
    return "partial-load plan must be fixed-length";
  const uint64_t Width =
      Plan.PartialLoad ? std::min<uint64_t>(Plan.MaxKeyLen, 8) : 8;
  const uint64_t KeyLen = Plan.PartialLoad ? Plan.MaxKeyLen : Plan.MinKeyLen;
  for (const PlanStep &S : Plan.Steps)
    if (S.Offset + Width > KeyLen)
      return std::to_string(Width) + "-byte load at offset " +
             std::to_string(S.Offset) + " ends past the " +
             std::to_string(KeyLen) + "-byte key";
  return "";
}

} // namespace

std::string sepe::serializePlan(const HashPlan &Plan) {
  std::string Out;
  appendLine(Out, Magic);
  appendLine(Out, std::string("family ") + familyName(Plan.Family));
  appendLine(Out, "len " + std::to_string(Plan.MinKeyLen) + " " +
                      std::to_string(Plan.MaxKeyLen));

  std::string Flags = "flags";
  if (Plan.FallbackToStl)
    Flags += " fallback";
  if (Plan.PartialLoad)
    Flags += " partial";
  if (Plan.Bijective)
    Flags += " bijective";
  if (!Plan.FixedLength)
    Flags += " variable";
  appendLine(Out, Flags);
  appendLine(Out, "freebits " + std::to_string(Plan.FreeBits));

  for (const PlanStep &S : Plan.Steps)
    appendLine(Out, "step " + std::to_string(S.Offset) + " " +
                        hex64(S.Mask) + " " + std::to_string(S.Shift));

  if (!Plan.Skip.Skip.empty()) {
    std::string Skip = "skip";
    for (uint32_t S : Plan.Skip.Skip)
      Skip += " " + std::to_string(S);
    appendLine(Out, Skip);
    std::string Masks = "skipmasks";
    for (uint64_t M : Plan.Skip.Masks)
      Masks += " " + hex64(M);
    appendLine(Out, Masks);
    appendLine(Out, "tail " + std::to_string(Plan.Skip.TailStart));
  }
  return Out;
}

Expected<HashPlan> sepe::deserializePlan(std::string_view Text) {
  HashPlan Plan;
  Plan.FixedLength = true;
  bool SawMagic = false, SawFamily = false, SawLen = false;

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
    if (Line.empty() || Line[0] == '#')
      continue;

    if (!SawMagic) {
      if (Line != Magic)
        return lineError(LineNo, "expected the 'sepe-plan v1' header");
      SawMagic = true;
      continue;
    }

    const std::vector<std::string_view> Tokens = tokenize(Line);
    if (Tokens.empty())
      continue;
    const std::string_view Key = Tokens[0];

    if (Key == "family") {
      if (Tokens.size() != 2)
        return lineError(LineNo, "family requires one value");
      bool Found = false;
      for (HashFamily F : {HashFamily::Naive, HashFamily::OffXor,
                           HashFamily::Aes, HashFamily::Pext})
        if (Tokens[1] == familyName(F)) {
          Plan.Family = F;
          Found = true;
        }
      if (!Found)
        return lineError(LineNo, "unknown family '" +
                                     std::string(Tokens[1]) + "'");
      SawFamily = true;
    } else if (Key == "len") {
      uint64_t Min = 0, Max = 0;
      if (Tokens.size() != 3 || !parseU64(Tokens[1], Min) ||
          !parseU64(Tokens[2], Max) || Min > Max || Max > UINT32_MAX)
        return lineError(LineNo, "len requires 'min max' with min <= max "
                                 "< 2^32");
      Plan.MinKeyLen = static_cast<uint32_t>(Min);
      Plan.MaxKeyLen = static_cast<uint32_t>(Max);
      SawLen = true;
    } else if (Key == "flags") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        if (Tokens[I] == "fallback")
          Plan.FallbackToStl = true;
        else if (Tokens[I] == "partial")
          Plan.PartialLoad = true;
        else if (Tokens[I] == "bijective")
          Plan.Bijective = true;
        else if (Tokens[I] == "variable")
          Plan.FixedLength = false;
        else
          return lineError(LineNo, "unknown flag '" +
                                       std::string(Tokens[I]) + "'");
      }
    } else if (Key == "freebits") {
      uint64_t Bits = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Bits))
        return lineError(LineNo, "freebits requires one integer");
      Plan.FreeBits = static_cast<unsigned>(Bits);
    } else if (Key == "step") {
      uint64_t Offset = 0, Mask = 0, Shift = 0;
      if (Tokens.size() != 4 || !parseU64(Tokens[1], Offset) ||
          !parseU64(Tokens[2], Mask) || !parseU64(Tokens[3], Shift) ||
          Shift >= 64)
        return lineError(LineNo, "step requires 'offset mask shift<64'");
      if (Offset > UINT32_MAX)
        return lineError(LineNo, "step offset does not fit 32 bits");
      Plan.Steps.push_back(PlanStep{static_cast<uint32_t>(Offset), Mask,
                                    static_cast<uint8_t>(Shift)});
    } else if (Key == "skip") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value))
          return lineError(LineNo, "malformed skip entry");
        Plan.Skip.Skip.push_back(static_cast<uint32_t>(Value));
      }
    } else if (Key == "skipmasks") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value))
          return lineError(LineNo, "malformed skip mask");
        Plan.Skip.Masks.push_back(Value);
      }
    } else if (Key == "tail") {
      uint64_t Tail = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Tail))
        return lineError(LineNo, "tail requires one integer");
      Plan.Skip.TailStart = static_cast<uint32_t>(Tail);
    } else {
      return lineError(LineNo,
                       "unknown directive '" + std::string(Key) + "'");
    }
  }

  if (!SawMagic)
    return Error{"empty plan: missing 'sepe-plan v1' header"};
  if (!SawFamily || !SawLen)
    return Error{"incomplete plan: family and len are required"};
  if (!Plan.FixedLength &&
      Plan.Skip.Masks.size() != Plan.Skip.loadCount())
    return Error{"skip table and mask count disagree"};
  if (!Plan.FallbackToStl && Plan.FixedLength && Plan.Steps.empty())
    return Error{"fixed-length plan without steps"};
  if (std::string Bad = loadBoundsError(Plan); !Bad.empty())
    return Error{Bad};
  return Plan;
}
