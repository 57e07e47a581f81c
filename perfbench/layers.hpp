#pragma once
// Layer replays for the traced benchmark run.  Given a copy of a live
// solver's particle state, replay_layers() calls each layer's public entry
// point once to warm its workspaces and once more timed, on the pool it is
// handed, and returns the per-layer numbers by metric name (docs in
// perfbench/README.md).  Nothing here runs inside a timed step.

#include <map>
#include <string>

#include "core/particles.hpp"
#include "core/solver.hpp"
#include "run/runner.hpp"
#include "shard/engine.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

// Key of the serial sum of the replayed stages one step runs (PM plus the
// tree/SPH/short-range chain of the workload's backend).  Internal: the
// driver turns it into sched.overlap_gain_s and trace.coverage.
inline constexpr const char* kSerialStepKey = "_step_serial_s";

struct ReplayContext {
  const hacc::core::SimConfig* sim = nullptr;
  const hacc::run::RunOptions* run = nullptr;
  // The live run's shard options; null when the workload does not shard,
  // in which case the shard layer is replayed at a 4-way decomposition.
  const hacc::shard::ShardOptions* live_shard = nullptr;
  double scale_factor = 0.0;
  std::string scratch_dir;  // where the checkpoint replay writes its file
};

// Replays every layer on copies of `dm`/`gas` on `pool`.  Spans are
// recorded under `rec`.  Throws std::runtime_error when a replayed
// checkpoint fails to write or validate.
LayerValues replay_layers(const ReplayContext& ctx,
                          const hacc::core::ParticleSet& dm,
                          const hacc::core::ParticleSet& gas,
                          hacc::util::ThreadPool& pool, SpanRecorder& rec);

}  // namespace perfbench
