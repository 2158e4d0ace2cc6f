//===- perfbench/src/spans.h - In-memory spans around library calls -------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Each thread appends spans (name, start,
/// end, parent, op id) to its own buffer — no sharing, no locks — and
/// the buffers are written out as Chrome-trace JSON once the run ends.
/// Spans wrap the benchmark's calls into the library's public
/// functions; nothing inside the library is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "harness.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = nullptr;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Op = 0;     ///< Client operation id; 0 for set-up/maintenance.
  int32_t Parent = -1; ///< Index of the enclosing span in the same log.
};

/// One thread's spans.
class SpanLog {
public:
  explicit SpanLog(uint32_t Tid) : Tid(Tid) { Spans.reserve(1u << 16); }

  int32_t open(const char *Name, int32_t Parent, uint64_t Op) {
    Spans.push_back({Name, nowNs(), 0, Op, Parent});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void close(int32_t Index) {
    Spans[static_cast<size_t>(Index)].End = nowNs();
  }

  uint32_t tid() const { return Tid; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  uint32_t Tid;
  std::vector<Span> Spans;
};

/// RAII span; a null log records nothing, so call sites need no branch
/// of their own.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, int32_t Parent = -1,
             uint64_t Op = 0)
      : Log(Log), Index(Log ? Log->open(Name, Parent, Op) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int32_t index() const { return Index; }

private:
  SpanLog *Log;
  int32_t Index;
};

/// Owns every thread's log. The main thread creates all logs before it
/// starts the threads that write them, and reads them only after every
/// such thread has joined.
class Tracer {
public:
  SpanLog *log(uint32_t Tid) {
    Logs.push_back(std::make_unique<SpanLog>(Tid));
    return Logs.back().get();
  }

  size_t spanCount() const {
    size_t N = 0;
    for (const auto &L : Logs)
      N += L->spans().size();
    return N;
  }

  /// Self time per span name, in ns: a span's duration minus the time
  /// its direct children cover. Returns {name -> {total self ns, count}}.
  std::map<std::string, std::pair<double, uint64_t>> selfTimes() const {
    std::map<std::string, std::pair<double, uint64_t>> Out;
    for (const auto &L : Logs) {
      const std::vector<Span> &S = L->spans();
      std::vector<double> Child(S.size(), 0.0);
      for (const Span &Sp : S)
        if (Sp.Parent >= 0 && Sp.End >= Sp.Start)
          Child[static_cast<size_t>(Sp.Parent)] +=
              static_cast<double>(Sp.End - Sp.Start);
      for (size_t I = 0; I != S.size(); ++I) {
        if (S[I].End < S[I].Start)
          continue;
        auto &E = Out[S[I].Name];
        E.first += static_cast<double>(S[I].End - S[I].Start) - Child[I];
        ++E.second;
      }
    }
    return Out;
  }

  /// Chrome-trace ("X" complete events) with parent and op id as args;
  /// loads in chrome://tracing or Perfetto. Returns false on I/O error.
  bool writeChrome(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t Origin = UINT64_MAX;
    for (const auto &L : Logs)
      for (const Span &S : L->spans())
        Origin = std::min(Origin, S.Start);
    std::fputs("{\"traceEvents\": [\n", F);
    bool First = true;
    for (const auto &L : Logs) {
      const std::vector<Span> &S = L->spans();
      for (size_t I = 0; I != S.size(); ++I) {
        if (S[I].End < S[I].Start)
          continue;
        std::fprintf(F,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"op\": %llu}}",
                     First ? "" : ",\n", S[I].Name, L->tid(),
                     static_cast<double>(S[I].Start - Origin) / 1e3,
                     static_cast<double>(S[I].End - S[I].Start) / 1e3, I,
                     S[I].Parent,
                     static_cast<unsigned long long>(S[I].Op));
        First = false;
      }
    }
    std::fputs("\n]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  std::vector<std::unique_ptr<SpanLog>> Logs;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
