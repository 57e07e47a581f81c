#include "core/launch.hpp"

#include <gtest/gtest.h>

#include "../sph/gas_fixture.hpp"
#include "sph/geometry.hpp"
#include "sph/pipeline.hpp"

namespace hacc::core {
namespace {

TEST(KernelRegistry, ContainsAllPaperTimerNames) {
  const auto& reg = KernelRegistry::instance();
  for (const char* name :
       {"upGeo", "upCor", "upBarEx", "upBarAc", "upBarAcF", "upBarDu", "upBarDuF"}) {
    EXPECT_TRUE(reg.has(name)) << name;
  }
  EXPECT_FALSE(reg.has("upNope"));
  EXPECT_GE(reg.names().size(), 7u);
}

TEST(KernelRegistry, UnknownKernelThrows) {
  auto gas = sph::testing::make_gas({});
  util::ThreadPool pool(2);
  xsycl::Queue q(pool);
  sph::PipelineOptions popt;
  const auto pipe = sph::build_pipeline(gas, popt);
  EXPECT_THROW(KernelRegistry::instance().run("bogus", q, gas, pipe.domain->all(), pipe.pairs,
                                              popt.hydro),
               std::out_of_range);
}

TEST(KernelRegistry, LaunchByNameMatchesDirectCall) {
  sph::testing::GasOptions gopt;
  gopt.n_side = 6;
  gopt.jitter = 0.2;
  const auto base = sph::testing::make_gas(gopt);
  util::ThreadPool pool(2);
  sph::PipelineOptions popt;

  // By name through the registry (the §4.2 requirement).
  core::ParticleSet by_name = base;
  {
    xsycl::Queue q(pool);
    const auto pipe = sph::build_pipeline(by_name, popt);
    KernelRegistry::instance().run("upGeo", q, by_name, pipe.domain->all(), pipe.pairs,
                                   popt.hydro);
  }
  // Direct call.
  core::ParticleSet direct = base;
  {
    xsycl::Queue q(pool);
    const auto pipe = sph::build_pipeline(direct, popt);
    sph::run_geometry(q, direct, pipe.domain->all(), pipe.pairs, popt.hydro);
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_NEAR(by_name.V[i], direct.V[i], 1e-7);
  }
}

TEST(KernelRegistry, RegisteredRunnerRecordsTimerUnderItsName) {
  auto gas = sph::testing::make_gas({});
  util::ThreadPool pool(2);
  xsycl::Queue q(pool);
  sph::PipelineOptions popt;
  const auto pipe = sph::build_pipeline(gas, popt);
  KernelRegistry::instance().run("upBarAcF", q, gas, pipe.domain->all(), pipe.pairs,
                                 popt.hydro);
  // Only the registered name shows up in the launch record: upBarAcF ran,
  // upBarAc did not.
  const auto agg = q.aggregate_by_kernel();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_GT(agg.at("upBarAcF").launches, 0u);
}

TEST(KernelRegistry, CustomRegistrationVisible) {
  auto& reg = KernelRegistry::instance();
  reg.register_kernel("testOnly", [](xsycl::Queue& q, ParticleSet& p,
                                     const domain::SpeciesView& view,
                                     const domain::PairSource& pairs,
                                     const sph::HydroOptions& opt) {
    return sph::run_geometry(q, p, view, pairs, opt, "testOnly");
  });
  EXPECT_TRUE(reg.has("testOnly"));
}

}  // namespace
}  // namespace hacc::core
