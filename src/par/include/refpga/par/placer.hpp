// Simulated-annealing placement optimizer.
//
// Cost is per-net half-perimeter wirelength, optionally weighted by switching
// activity (the paper's §4.3 observation: "the logic of the nets with higher
// communication rates can be placed closer ... to decrease the distance for
// the signal routing"). activity_beta = 0 reproduces a conventional
// wirelength-driven flow; activity_beta > 0 biases high-toggle nets shorter.
//
// A move picks a random slice and a random site in its region and swaps the
// two sites' contents. It is priced without touching the placement: every
// net keeps a cached bounding box with the number of pins on each edge, a
// move updates the touched nets' boxes in O(1) from the moved pins, and a
// net is rescanned only when an edge loses its last pin (VPR's incremental
// bounding boxes, Betz & Rose 1997). Only accepted moves are applied.
#pragma once

#include <vector>

#include "refpga/obs/obs.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

struct PlacerOptions {
    std::uint64_t seed = 1;
    /// Moves per temperature step scale with design size; this multiplies it.
    /// Must be > 0.
    double effort = 1.0;
    /// Weight of activity in net cost: w = 1 + beta * rate/max_rate. >= 0.
    double activity_beta = 0.0;
    /// Both temperatures must be > 0.
    double initial_temperature = 4.0;
    /// Temperature multiplier per step, in (0, 1).
    double cooling = 0.92;
    double final_temperature = 0.05;
    /// Observability sink (refpga::obs). When set, anneal bumps
    /// anneal.{moves_tried,moves_accepted,temperature_steps,bbox_rescans}_total,
    /// sets the anneal.final_cost gauge and records an "anneal" span into the
    /// anneal.wall_seconds histogram. The placement is identical whether or
    /// not a recorder is attached. Non-owning.
    obs::Recorder* recorder = nullptr;
};

struct PlacerResult {
    long initial_cost = 0;
    long final_cost = 0;
    long moves_tried = 0;
    long moves_accepted = 0;

    friend bool operator==(const PlacerResult&, const PlacerResult&) = default;
};

/// The annealer's own view of the placement when it returns: the running
/// cost (initial cost plus every accepted delta) and the cached per-net
/// half-perimeters. Both must agree with a full recompute, which anneal()
/// also checks before returning; tests read them to check it independently.
struct AnnealState {
    double running_cost = 0.0;
    std::vector<int> cached_hpwl;  ///< per net; 0 for clocks/constants
};

/// Anneals `placement` in place. `activity` may be null (pure wirelength).
/// `state`, when set, receives the annealer's final caches.
PlacerResult anneal(Placement& placement, const PlacerOptions& options,
                    const sim::ActivityMap* activity = nullptr,
                    AnnealState* state = nullptr);

}  // namespace refpga::par
