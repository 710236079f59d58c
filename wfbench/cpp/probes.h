// Per-layer probes: the public API of each module called from outside with
// the exact geometry of one Spec, timed with steady_clock.
//
// workflow::run hides its layers behind one call, so the traced run replays
// them: the application writers (advance, output), the box index and reader
// assembly of ndarray, the analytics, a direct client put/get on a bare
// engine + cluster + fabric + transport for each staging library, and a
// bare-engine event replay. The replay follows src/workflow/workflow.cpp;
// the rules it mirrors rather than reads from the code are listed in
// README.md and guarded where a drift would be silent.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workflow/workflow.h"

namespace wfbench {

// Harness rule mirrored from workflow::run: the real micro-kernels run (and
// writers use the full-size kernel) only when nsim <= 64.
inline constexpr int kKernelMaxRanks = 64;

// Totals over the Specs probed so far (seconds, MB = 2^20 bytes, counts).
struct Layers {
  double advance_s = 0;
  double output_s = 0;
  double output_mb = 0;
  std::uint64_t output_compared = 0;  // calls after a rank's first step
  std::uint64_t output_repeats = 0;   // same content as the rank's last step
  double analysis_s = 0;
  std::uint64_t analysis_touched = 0;  // elements the analytics read
  std::uint64_t analysis_built = 0;    // elements materialized or computed
  double assemble_s = 0;
  double assemble_mb = 0;
  double index_s = 0;
  std::uint64_t index_queries = 0;
  std::map<std::string, double> putget_s;  // library -> replay seconds
  double engine_replay_s = 0;
  std::uint64_t engine_replay_events = 0;
};

// Probes every layer one Spec exercises and adds to `out`. `recorded` is the
// Spec's workflow::run result: its events_processed sizes the bare-engine
// replay, and its server peak and bytes moved guard the putget replay.
// Throws std::runtime_error when a parity guard trips or a replay fails.
void probe_spec(const imc::workflow::Spec& spec,
                const imc::workflow::RunResult& recorded, Layers& out);

// Element cap above which the Spec's staging library hands readers a
// synthetic slab instead of assembling one (read from the library configs).
std::uint64_t staging_cap(imc::workflow::MethodSel method);

}  // namespace wfbench
