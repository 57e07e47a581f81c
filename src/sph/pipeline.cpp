#include "sph/pipeline.hpp"

#include <algorithm>

namespace hacc::sph {

void run_chain(xsycl::Queue& q, std::span<const ChainPart> parts,
               const ChainOptions& opt,
               const std::function<void(std::uint32_t)>& after_kernel) {
  const auto between = [&](std::uint32_t round) {
    if (after_kernel) after_kernel(round);
  };
  for (const ChainPart& s : parts) {
    run_geometry(q, *s.gas, s.view, s.pairs, opt.geometry);
  }
  between(0);
  for (const ChainPart& s : parts) {
    run_corrections(q, *s.gas, s.view, s.pairs, opt.corrections);
  }
  between(1);
  for (const ChainPart& s : parts) {
    run_extras(q, *s.gas, s.view, s.pairs, opt.extras);
  }
  between(2);
  for (const ChainPart& s : parts) {
    run_acceleration(q, *s.gas, s.view, s.pairs, opt.acceleration,
                     opt.corrector ? "upBarAcF" : "upBarAc");
  }
  for (const ChainPart& s : parts) {
    run_energy(q, *s.gas, s.view, s.pairs, opt.energy,
               opt.corrector ? "upBarDuF" : "upBarDu");
  }
}

double support_cutoff(const core::ParticleSet& p) {
  float h_max = 0.f;
  for (const float h : p.h) h_max = std::max(h_max, h);
  return kSupport * static_cast<double>(h_max);
}

void collect_gas_pairs(const domain::InteractionDomain& dom, double cutoff,
                       std::vector<tree::LeafPair>& out) {
  out.clear();
  const domain::SpeciesView gas = dom.second();
  dom.for_each_pair(cutoff, [&](const tree::LeafPair& lp) {
    if (gas.leaves[lp.a].count() > 0 && gas.leaves[lp.b].count() > 0) {
      out.push_back(lp);
    }
  });
}

Pipeline build_pipeline(const core::ParticleSet& p, const PipelineOptions& opt) {
  Pipeline pipe;
  domain::DomainOptions dopt;
  dopt.box = opt.hydro.box;
  dopt.leaf_size = opt.leaf_size;
  pipe.domain = std::make_unique<domain::InteractionDomain>(dopt);
  pipe.domain->update(p.positions());
  pipe.pairs = pipe.domain->tree().interacting_pairs(support_cutoff(p));
  return pipe;
}

void run_hydro_chain(xsycl::Queue& q, core::ParticleSet& p, const Pipeline& pipe,
                     const PipelineOptions& opt) {
  const auto& hydro = opt.hydro;
  const ChainPart part{&p, pipe.domain->all(), pipe.pairs};
  run_chain(q, {&part, 1}, {hydro, hydro, hydro, hydro, hydro});
  if (opt.corrector_pass) {
    run_acceleration(q, p, part.view, part.pairs, hydro, "upBarAcF");
    run_energy(q, p, part.view, part.pairs, hydro, "upBarDuF");
  }
}

void run_hydro_pipeline(xsycl::Queue& q, core::ParticleSet& p,
                        const PipelineOptions& opt) {
  const Pipeline pipe = build_pipeline(p, opt);
  run_hydro_chain(q, p, pipe, opt);
}

}  // namespace hacc::sph
