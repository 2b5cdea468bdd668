#pragma once
// Brute-force iteration-domain utilities.
//
// These walkers execute a nest specification directly (nested loops with
// bound evaluation).  They are the ground truth that the symbolic
// machinery is tested against and the reference executor for
// validation.

#include <functional>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "polyhedral/nest.hpp"

namespace nrc {

using ParamMap = std::map<std::string, i64>;

/// Visit every point of the nest's iteration domain in lexicographic
/// order.  Empty ranges at any level are skipped (the walker is more
/// permissive than the Fig. 5 model, which is what lets validators
/// *detect* model violations).
void walk_domain(const NestSpec& spec, const ParamMap& params,
                 const std::function<void(std::span<const i64>)>& fn);

/// Exact number of points (by enumeration).
i64 count_domain_brute(const NestSpec& spec, const ParamMap& params);

/// All points, in lexicographic order (test-sized domains only).
std::vector<std::vector<i64>> domain_points(const NestSpec& spec, const ParamMap& params);

/// 1-based lexicographic rank of `point` by enumeration; 0 if the point
/// is not in the domain.
i64 rank_brute(const NestSpec& spec, const ParamMap& params, std::span<const i64> point);

/// True when the nest satisfies the Fig. 5 model requirement that every
/// loop body executes at least once for every feasible prefix (no empty
/// ranges).  Ranking polynomials are only valid under this condition.
/// The walk stops after `max_points` points; the answer then covers the
/// prefixes it reached.
bool has_no_empty_ranges(const NestSpec& spec, const ParamMap& params,
                         i64 max_points = std::numeric_limits<i64>::max());

}  // namespace nrc
