#pragma once

// Code divergence (paper §3.3, eqs. 2-3): the average pair-wise Jaccard
// distance between the source-line sets used to target each platform.
// Line sets are represented compactly as a histogram over "usage masks":
// bit i of a mask means configuration i compiles that line (the output of
// the mini Code Base Investigator in metrics/cbi).

#include <cstdint>
#include <map>

namespace hacc::metrics {

// Histogram: usage mask -> number of source lines with that mask.
using MaskHistogram = std::map<std::uint32_t, std::size_t>;

// Jaccard distance between the line sets of two configurations (eq. 3).
// Two empty sets have distance 0 (identical).
double jaccard_distance(const MaskHistogram& hist, int bit_i, int bit_j);

// Code divergence: average pair-wise distance over n_configs (eq. 2).
double code_divergence(const MaskHistogram& hist, int n_configs);

// Code convergence = 1 - divergence (used by the navigation chart, Fig. 13).
double code_convergence(const MaskHistogram& hist, int n_configs);

}  // namespace hacc::metrics
