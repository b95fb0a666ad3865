#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "sim/trace_io.h"

namespace perfbench {

namespace {

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

std::string describe(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": trace says " << got << ", recomputed " << want;
  return os.str();
}

}  // namespace

std::string check_benefit(const sim::Problem& problem, const sim::World& world,
                          const sim::AttackTrace& trace) {
  const auto& g = problem.graph;
  const auto& bm = problem.benefit;
  std::vector<std::uint8_t> is_friend(g.num_nodes(), 0);
  for (const auto& b : trace.batches) {
    for (std::size_t i = 0; i < b.requests.size(); ++i) {
      if (b.accepted[i] != 0) is_friend[b.requests[i]] = 1;
    }
  }
  std::vector<std::uint8_t> is_fof(g.num_nodes(), 0);
  std::vector<std::uint8_t> revealed(g.num_edges(), 0);
  sim::BenefitBreakdown want;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (is_friend[u] == 0) continue;
    want.friends += bm.bf[u];
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!world.edge_exists(eids[i])) continue;
      revealed[eids[i]] = 1;
      if (is_friend[nbrs[i]] == 0) is_fof[nbrs[i]] = 1;
    }
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (is_fof[v] != 0) want.fofs += bm.bfof[v];
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (revealed[e] != 0) want.edges += bm.bi[e];
  }

  const sim::BenefitBreakdown got = trace.final_breakdown();
  if (!close(got.friends, want.friends)) return describe("friend benefit", got.friends, want.friends);
  if (!close(got.fofs, want.fofs)) return describe("fof benefit", got.fofs, want.fofs);
  if (!close(got.edges, want.edges)) return describe("edge benefit", got.edges, want.edges);
  sim::BenefitBreakdown summed;
  for (const auto& b : trace.batches) summed += b.delta;
  if (!close(summed.total(), want.total())) {
    return describe("sum of batch deltas", summed.total(), want.total());
  }
  return {};
}

std::string check_limits(const sim::Problem& problem,
                         const sim::AttackTrace& trace,
                         const CampaignLimits& limits) {
  std::vector<std::uint8_t> is_friend(problem.graph.num_nodes(), 0);
  std::unordered_map<graph::NodeId, std::uint32_t> attempts;
  double spent = 0.0;
  for (std::size_t bi = 0; bi < trace.batches.size(); ++bi) {
    const auto& b = trace.batches[bi];
    if (b.requests.empty()) return "batch " + std::to_string(bi) + " is empty";
    if (b.accepted.size() != b.requests.size()) {
      return "batch " + std::to_string(bi) + " has misaligned accept flags";
    }
    if (limits.batch_size != 0 && b.requests.size() > limits.batch_size) {
      return "batch " + std::to_string(bi) + " has " +
             std::to_string(b.requests.size()) + " requests, more than k";
    }
    double cost = 0.0;
    for (const graph::NodeId u : b.requests) {
      if (is_friend[u] != 0) {
        return "batch " + std::to_string(bi) + " requests node " +
               std::to_string(u) + ", already a friend";
      }
      if (++attempts[u] > limits.max_attempts) {
        return "node " + std::to_string(u) + " requested more than " +
               std::to_string(limits.max_attempts) + " times";
      }
      cost += problem.cost_of(u);
    }
    for (std::size_t i = 0; i < b.requests.size(); ++i) {
      if (b.accepted[i] != 0) is_friend[b.requests[i]] = 1;
    }
    // Suspended requests are free, so a faulted batch may cost less.
    if (b.cost > cost + 1e-9) return describe("batch cost", b.cost, cost);
    spent += b.cost;
    if (limits.charged_at_send) {
      if (b.cumulative_cost > limits.budget + 1e-9) {
        return describe("cumulative cost above K", b.cumulative_cost, limits.budget);
      }
    } else if (!close(b.cumulative_cost, spent)) {
      return describe("cumulative cost", b.cumulative_cost, spent);
    }
  }
  if (spent > limits.budget + 1e-9) return describe("total cost above K", spent, limits.budget);
  return {};
}

std::string check_trace(const sim::Problem& problem, const sim::World& world,
                        const sim::AttackTrace& trace,
                        const CampaignLimits& limits) {
  std::string err = check_limits(problem, trace, limits);
  if (err.empty()) err = check_benefit(problem, world, trace);
  return err;
}

std::string canonical_trace(sim::AttackTrace trace) {
  for (auto& b : trace.batches) b.select_seconds = 0.0;
  std::ostringstream os;
  sim::write_traces(os, {trace});
  return os.str();
}

}  // namespace perfbench
