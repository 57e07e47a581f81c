#pragma once

// The CRK-SPH kernel chain, written once.  run_chain() issues the five
// hot-spot kernels with the paper's timer names
//   upGeo -> upCor -> upBarEx -> upBarAc -> upBarDu
// (upBarAcF / upBarDuF on the corrector force evaluation, which is why
// acceleration and energy carry two wall-clock timers in the figures).
// The solver's sph stage, the shard engine and the standalone pipeline
// below all run it (docs/ARCHITECTURE.md, "The SPH chain").
//
// The standalone pipeline builds a domain over the gas alone and a
// materialized pair list; it serves the tools, tests, and workload profiles.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "domain/domain.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"

namespace hacc::sph {

// Per-kernel launch options of one chain (the solver threads its per-kernel
// communication variants through these).
struct ChainOptions {
  HydroOptions geometry;
  HydroOptions corrections;
  HydroOptions extras;
  HydroOptions acceleration;
  HydroOptions energy;
  bool corrector = false;  // time Acceleration/Energy as upBarAcF/upBarDuF
};

// One gas set the chain runs over: the particles, their species view in an
// interaction domain, and the leaf pairs the kernels walk.
struct ChainPart {
  core::ParticleSet* gas = nullptr;
  domain::SpeciesView view;
  domain::PairSource pairs;
};

// Runs each kernel over every part in order, then the next kernel.
// `after_kernel(round)`, when set, runs after Geometry (round 0),
// Corrections (1) and Extras (2): the points where the fields the next
// kernel reads on neighbors (V; the CRK coefficients; rho, P, cs) are final.
void run_chain(xsycl::Queue& q, std::span<const ChainPart> parts,
               const ChainOptions& opt,
               const std::function<void(std::uint32_t)>& after_kernel = {});

// The pair-list cutoff of a particle set: the kernel support radius at the
// largest smoothing length.  Shared by every chain caller so they cannot
// drift apart.
double support_cutoff(const core::ParticleSet& p);

// Replaces `out` with the leaf pairs of `dom` within `cutoff` that hold gas
// (the domain's second species) on both sides: the pairs that carry SPH
// work.  One walk feeds all five kernels, and `out` keeps its capacity
// across calls.
void collect_gas_pairs(const domain::InteractionDomain& dom, double cutoff,
                       std::vector<tree::LeafPair>& out);

struct PipelineOptions {
  HydroOptions hydro;
  int leaf_size = 32;
  bool corrector_pass = false;  // re-run acceleration/energy as upBarAcF/upBarDuF
};

struct Pipeline {
  std::unique_ptr<domain::InteractionDomain> domain;
  std::vector<tree::LeafPair> pairs;  // materialized list (tools/tests)
};

// Builds the interaction domain and leaf-pair list for the current particle
// positions and smoothing lengths.
Pipeline build_pipeline(const core::ParticleSet& p, const PipelineOptions& opt);

// Runs the kernel chain on a prepared pipeline.
void run_hydro_chain(xsycl::Queue& q, core::ParticleSet& p, const Pipeline& pipe,
                     const PipelineOptions& opt);

// One-shot helper: build + run.
void run_hydro_pipeline(xsycl::Queue& q, core::ParticleSet& p,
                        const PipelineOptions& opt);

}  // namespace hacc::sph
