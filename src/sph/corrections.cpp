#include "sph/corrections.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

using core::crk_idx::dB;
using core::crk_idx::kA;
using core::crk_idx::kB;
using core::crk_idx::kdA;

struct CorrectionsTraits {
  using State = CorState;
  using Accum = CrkMoments<float>;  // the flat mom_idx block commit() adds
  static constexpr int kAccumWords = core::mom_idx::kCount;

  const core::ParticleSet* p;
  float* moments_out;
  float box;

  State load(std::int32_t i) const { return load_cor_state(*p, i); }

  bool reaches(const State& own, const State& other) const {
    return reaches_own_support(own, other, box);
  }

  void accumulate(Accum& a, const State& own, const State& other) const {
    corrections_term(a, to_side(own), to_side(other), box);
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    float* base = moments_out + static_cast<std::size_t>(core::mom_idx::kCount) * idx;
    for (int k = 0; k < core::mom_idx::kCount; ++k) {
      xsycl::atomic_ref<float> ref(base[k], sg.counters());
      ref.fetch_add(a.v[k]);
    }
  }
};

}  // namespace

xsycl::LaunchStats run_corrections(xsycl::Queue& q, core::ParticleSet& p,
                                   const domain::SpeciesView& view,
                                   const domain::PairSource& pairs,
                                   const HydroOptions& opt,
                                   const std::string& timer_name) {
  std::fill(p.moments.begin(), p.moments.end(), 0.f);

  CorrectionsTraits traits{&p, p.moments.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: self contribution + double-precision moment solve per particle.
  auto* moments = p.moments.data();
  auto* crk = p.crk.data();
  auto* h = p.h.data();
  auto* V = p.V.data();
  launch_particles(
      q, timer_name, p.size(),
      [moments, crk, h, V](std::int32_t i) {
        CrkMoments<double> m = CrkMoments<double>::from_flat(
            moments + core::mom_idx::kCount * static_cast<std::size_t>(i));
        corrections_self(m, double(V[i]), double(h[i]));
        const CrkCoeffs<double> c = solve_crk(m);
        float* out = crk + core::crk_idx::kCount * static_cast<std::size_t>(i);
        out[kA] = float(c.A);
        for (int a = 0; a < 3; ++a) out[kB + a] = float(c.B[a]);
        for (int g = 0; g < 3; ++g) out[kdA + g] = float(c.dA[g]);
        for (int r = 0; r < 3; ++r) {
          for (int g = 0; g < 3; ++g) out[dB(r, g)] = float(c.dB[r][g]);
        }
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
