// Output checks for the campaign benchmark.
//
// Every check recomputes its expectation from the paper's definitions and
// the program's public inputs (the problem, the ground-truth World and the
// campaign parameters); none compares against a stored copy of an earlier
// output. Each returns an empty string when the trace passes and a one-line
// reason when it does not.
#pragma once

#include <cstdint>
#include <string>

#include "sim/problem.h"
#include "sim/trace.h"
#include "sim/world.h"

namespace perfbench {

namespace sim = recon::sim;
namespace graph = recon::graph;

/// Campaign parameters a trace must respect.
struct CampaignLimits {
  double budget = 0.0;              ///< K: total cost may not exceed it
  std::size_t batch_size = 0;       ///< k: requests per batch (0 = unchecked)
  std::uint32_t max_attempts = 1;   ///< requests per node over the campaign
  /// The rolling-window runner charges cost when a request is sent, so a
  /// record's cumulative cost may run ahead of the resolved records' sum.
  bool charged_at_send = false;
};

/// Recomputes the final benefit breakdown from the trace's accepted nodes and
/// the world's ground truth (Eq. 1): Bf over friends, Bfof over non-friends
/// adjacent to a friend through an existing edge, Bi over existing edges
/// incident to a friend. Compares it with the trace's cumulative breakdown,
/// and checks that every batch's delta sums to it.
std::string check_benefit(const sim::Problem& problem, const sim::World& world,
                          const sim::AttackTrace& trace);

/// Checks total cost <= K, cumulative cost bookkeeping, batch size <= k, no
/// request to a node that was already a friend, and the per-node attempt cap.
std::string check_limits(const sim::Problem& problem,
                         const sim::AttackTrace& trace,
                         const CampaignLimits& limits);

/// Both checks above.
std::string check_trace(const sim::Problem& problem, const sim::World& world,
                        const sim::AttackTrace& trace,
                        const CampaignLimits& limits);

/// The trace as write_traces renders it, with the wall-clock `sel=` field
/// zeroed: the byte-level identity used to compare two runs of one campaign.
std::string canonical_trace(sim::AttackTrace trace);

}  // namespace perfbench
