//===- support/parallel.h - Fork-join loop over contiguous chunks -*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor splits [0, N) into contiguous chunks, one per hardware
/// thread, and runs them at once: the one-shot passes over a whole key
/// set (MPHF construction, ServingTable::sealStatic) are independent per
/// key or per bucket, so a chunk each is all the scheduling they need.
/// Sets too small to repay a thread start stay on the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_PARALLEL_H
#define SEPE_SUPPORT_PARALLEL_H

#include <algorithm>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace sepe {

/// Items per extra worker: a chunk smaller than this costs more to
/// hand to a thread (~tens of microseconds to start and join) than to
/// run inline, so [0, N) gets at most N / ParallelGrain chunks.
inline constexpr size_t ParallelGrain = size_t{1} << 13;

/// Calls Body(Begin, End) over contiguous chunks that cover [0, N) —
/// min(hardware threads, N / ParallelGrain) of them, at least one — and
/// returns once all have run. The first chunk runs on the calling
/// thread. Chunks run concurrently, so Body may only write state no
/// other chunk touches. An exception thrown by a chunk is rethrown here
/// after every chunk has finished.
template <typename Fn> void parallelFor(size_t N, Fn &&Body) {
  const size_t Threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t Chunks = std::clamp<size_t>(N / ParallelGrain, 1, Threads);
  if (Chunks == 1) {
    Body(size_t{0}, N);
    return;
  }
  std::vector<std::exception_ptr> Errors(Chunks);
  auto Run = [&](size_t C) {
    try {
      Body(N * C / Chunks, N * (C + 1) / Chunks);
    } catch (...) {
      Errors[C] = std::current_exception();
    }
  };
  std::vector<std::thread> Workers;
  Workers.reserve(Chunks - 1);
  for (size_t C = 1; C != Chunks; ++C) {
    try {
      Workers.emplace_back(Run, C);
    } catch (const std::system_error &) {
      Run(C); // No thread to be had: the chunk runs here instead.
    }
  }
  Run(0);
  for (std::thread &W : Workers)
    W.join();
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

} // namespace sepe

#endif // SEPE_SUPPORT_PARALLEL_H
