// The central correctness claim of the reproduction: all five communication
// variants of the half-warp kernels (Select / Memory-32bit / Memory-Object /
// Broadcast / vISA) compute the same physics, across sub-group sizes of 16,
// 32 and 64 — only their communication mechanics (and hence cost) differ.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <sstream>

#include "gas_fixture.hpp"
#include "gravity/pp_short.hpp"
#include "sph/pipeline.hpp"
#include "sph/reference.hpp"

namespace hacc::sph {
namespace {

using testing::GasOptions;
using testing::make_gas;
using xsycl::CommVariant;

GasOptions small_gas_options() {
  GasOptions opt;
  opt.n_side = 7;
  opt.box = 1.0;
  opt.fill = 1.0;
  opt.jitter = 0.25;
  opt.vel_amp = 0.4;
  opt.seed = 2024;
  return opt;
}

PipelineOptions pipeline_options(CommVariant v, int sg_size) {
  PipelineOptions opt;
  opt.hydro.box = 1.0f;
  opt.hydro.variant = v;
  opt.hydro.launch.sub_group_size = sg_size;
  opt.leaf_size = 32;
  return opt;
}

struct PipelineOutputs {
  std::vector<float> V, rho, P, ax, ay, az, du, vsig, crkA;
};

// On the process-wide pool, sized by HACC_NUM_THREADS (8 in the TSan job).
PipelineOutputs run_variant(const core::ParticleSet& base, CommVariant v, int sg_size) {
  core::ParticleSet p = base;
  xsycl::Queue q(util::ThreadPool::global());
  run_hydro_pipeline(q, p, pipeline_options(v, sg_size));
  return {p.V, p.rho, p.P, p.ax, p.ay, p.az, p.du, p.vsig,
          [&p] {
            std::vector<float> a(p.size());
            for (std::size_t i = 0; i < p.size(); ++i) {
              a[i] = p.crk[core::crk_idx::kCount * i + core::crk_idx::kA];
            }
            return a;
          }()};
}

double max_abs(const std::vector<float>& v) {
  double m = 0.0;
  for (const float x : v) m = std::max(m, double(std::fabs(x)));
  return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  double rel_of_max, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  const double scale = std::max(max_abs(a), 1e-20);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], rel_of_max * scale) << what << " particle " << i;
  }
}

// "Memory__Object_sg32"-style test names for the variant x sub-group grid.
std::string variant_sg_name(
    const ::testing::TestParamInfo<std::tuple<CommVariant, int>>& info) {
  std::string v = to_string(std::get<0>(info.param));
  for (char& c : v) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return v + "_sg" + std::to_string(std::get<1>(info.param));
}

class VariantEquivalence
    : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllSgSizes, VariantEquivalence,
    ::testing::Combine(::testing::ValuesIn(xsycl::kAllVariants),
                       ::testing::Values(16, 32, 64)),
    variant_sg_name);

TEST_P(VariantEquivalence, MatchesScalarDoubleReference) {
  const auto [variant, sg_size] = GetParam();
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto got = run_variant(gas, variant, sg_size);
  const auto ref = reference_hydro(gas, opt.box);

  const auto check = [&](const std::vector<float>& a, const std::vector<double>& r,
                         double tol_rel, const char* what) {
    double scale = 1e-20;
    for (const double x : r) scale = std::max(scale, std::fabs(x));
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], r[i], tol_rel * scale) << what << " particle " << i;
    }
  };
  check(got.V, ref.V, 1e-4, "V");
  check(got.crkA, [&] {
    std::vector<double> v(ref.crk.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = ref.crk[i].A;
    return v;
  }(), 1e-4, "crkA");
  check(got.rho, ref.rho, 1e-4, "rho");
  check(got.P, ref.P, 1e-4, "P");
  check(got.du, ref.du, 5e-3, "du");
  check(got.vsig, ref.vsig, 1e-3, "vsig");
  check(got.ax, [&] {
    std::vector<double> v(ref.accel.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = ref.accel[i].x;
    return v;
  }(), 5e-3, "ax");
}

TEST_P(VariantEquivalence, MatchesSelectVariantTightly) {
  const auto [variant, sg_size] = GetParam();
  if (variant == CommVariant::kSelect && sg_size == 32) GTEST_SKIP();
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto got = run_variant(gas, variant, sg_size);
  const auto sel = run_variant(gas, CommVariant::kSelect, 32);

  // Same float math, different summation order: tight tolerances.
  expect_close(got.V, sel.V, 1e-5, "V");
  expect_close(got.crkA, sel.crkA, 1e-5, "crkA");
  expect_close(got.rho, sel.rho, 1e-5, "rho");
  expect_close(got.P, sel.P, 1e-5, "P");
  expect_close(got.du, sel.du, 2e-3, "du");
  expect_close(got.ax, sel.ax, 2e-3, "ax");
  expect_close(got.ay, sel.ay, 2e-3, "ay");
  expect_close(got.az, sel.az, 2e-3, "az");
  expect_close(got.vsig, sel.vsig, 1e-4, "vsig");
}

TEST(VariantCounters, ExchangeVariantsEvaluateIdenticalInteractionCounts) {
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  std::uint64_t select_count = 0;
  for (const auto v : xsycl::kExchangeVariants) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    std::uint64_t total = 0;
    for (const auto& s : q.history()) total += s.ops.interactions;
    if (v == CommVariant::kSelect) {
      select_count = total;
    } else {
      EXPECT_EQ(total, select_count) << to_string(v);
    }
  }
  EXPECT_GT(select_count, 0u);
}

TEST(VariantCounters, BroadcastIssuesFewerAtomics) {
  // §5.3.2: "Restructuring the loops to use broadcasts also allows us to
  // generate fewer atomic instructions."
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto atomics_for = [&](CommVariant v) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    std::uint64_t total = 0;
    for (const auto& s : q.history()) {
      total += s.ops.atomic_f32_add + s.ops.atomic_f32_minmax;
    }
    return total;
  };
  EXPECT_LT(atomics_for(CommVariant::kBroadcast), atomics_for(CommVariant::kSelect));
}

TEST(VariantCounters, VariantSpecificTrafficRecorded) {
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto counters_for = [&](CommVariant v) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    xsycl::OpCounters total;
    for (const auto& s : q.history()) total.merge(s.ops);
    return total;
  };
  const auto sel = counters_for(CommVariant::kSelect);
  EXPECT_GT(sel.select_words, 0u);
  EXPECT_EQ(sel.localobj_bytes, 0u);
  const auto mem = counters_for(CommVariant::kMemoryObject);
  EXPECT_GT(mem.localobj_bytes, 0u);
  EXPECT_EQ(mem.select_ops, 0u);
  const auto bro = counters_for(CommVariant::kBroadcast);
  EXPECT_GT(bro.broadcast_ops, 0u);
  EXPECT_GT(bro.reduce_ops, 0u);
  const auto visa = counters_for(CommVariant::kVISA);
  EXPECT_GT(visa.butterfly_words, 0u);
}


// ---- Op-counter snapshot ----
//
// The OpCounters are the inputs of the platform cost model behind the
// variant-affinity figures (bench_fig09-13), so how the CPU emulation moves
// partner state must never change what it reports.  This pins every counter
// of the five SPH kernels and short-range P-P, per variant and sub-group
// size, on a fixed lattice.  A mismatch prints the measured row in the
// table's own format.

using CounterRow = std::array<std::uint64_t, 21>;

struct SnapshotRow {
  const char* variant;
  int sg_size;
  const char* kernel;
  CounterRow counts;
};

// In OpCounters declaration order.
CounterRow counter_row(const xsycl::OpCounters& c) {
  return {c.select_ops,     c.select_words,      c.local32_words,  c.local32_barriers,
          c.localobj_bytes, c.localobj_barriers, c.broadcast_ops,  c.butterfly_words,
          c.shift_ops,      c.reduce_ops,        c.barriers,       c.atomic_f32_add,
          c.atomic_f32_minmax, c.atomic_i32,     c.interactions,   c.m2p_ops,
          c.lanes_launched, c.sub_groups,        c.work_groups,    c.global_loads,
          c.global_stores};
}

constexpr SnapshotRow kCounterSnapshot[] = {
#include "op_counter_snapshot.inc"
};

// Per-kernel counters of one hydro pipeline plus one P-P launch on the
// small_gas_options() lattice.
std::vector<std::pair<std::string, xsycl::OpCounters>> measured_counters(CommVariant v,
                                                                         int sg_size) {
  const auto opt = small_gas_options();
  core::ParticleSet p = make_gas(opt);
  xsycl::Queue q(util::ThreadPool::global());  // counts do not depend on threads
  run_hydro_pipeline(q, p, pipeline_options(v, sg_size));

  std::vector<util::Vec3d> pos(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) pos[i] = {p.x[i], p.y[i], p.z[i]};
  const gravity::PolyShortForce poly(0.06, 0.24);
  const tree::RcbTree tr(pos, opt.box, 16);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  std::vector<float> ax(p.size(), 0.f), ay(p.size(), 0.f), az(p.size(), 0.f);
  gravity::PpOptions pp;
  pp.box = float(opt.box);
  pp.softening = 0.01f;
  pp.variant = v;
  pp.launch.sub_group_size = sg_size;
  gravity::run_pp_short(q, {p.x.data(), p.y.data(), p.z.data(), p.mass.data(), ax.data(),
                            ay.data(), az.data(), p.size()},
                        tr, pairs, poly, pp);
  std::vector<std::pair<std::string, xsycl::OpCounters>> out;
  for (const auto& [kernel, totals] : q.aggregate_by_kernel()) {
    out.emplace_back(kernel, totals.ops);
  }
  return out;
}

class OpCounterSnapshot
    : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllSgSizes, OpCounterSnapshot,
    ::testing::Combine(::testing::ValuesIn(xsycl::kAllVariants),
                       ::testing::Values(16, 32, 64)),
    variant_sg_name);

TEST_P(OpCounterSnapshot, MatchesRecordedCounts) {
  const auto [variant, sg_size] = GetParam();
  const auto measured = measured_counters(variant, sg_size);
  ASSERT_EQ(measured.size(), 6u);
  for (const auto& [kernel, ops] : measured) {
    const CounterRow got = counter_row(ops);
    std::ostringstream row;
    row << "{\"" << to_string(variant) << "\", " << sg_size << ", \"" << kernel << "\", {";
    for (std::size_t k = 0; k < got.size(); ++k) row << (k ? ", " : "") << got[k];
    row << "}},";
    const SnapshotRow* want = nullptr;
    for (const auto& r : kCounterSnapshot) {
      if (r.variant == std::string(to_string(variant)) && r.sg_size == sg_size &&
          r.kernel == kernel) {
        want = &r;
      }
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no snapshot row; measured:\n" << row.str();
    } else {
      EXPECT_EQ(got, want->counts) << "measured:\n" << row.str();
    }
  }
}

// ---- Output-bits snapshot ----
//
// The pair harness may only skip work whose result is exactly zero, so every
// output bit of the five SPH kernels and short-range P-P is pinned per
// variant and sub-group size, at one thread (a fixed atomic commit order).
// Two fixtures: small_gas_options(), and a full-box lattice whose h spans 4x
// so leaf pairs wrap the periodic faces and the pair-support radius of
// Acceleration/Energy comes from the other particle's h.  P-P uses the
// polynomial-free Newtonian profile so no libm fit enters the hashes.  A
// mismatch prints the measured row in the table's own format.

constexpr int kOutputArrays = 16;
using BitsRow = std::array<std::uint64_t, kOutputArrays>;

struct OutputBitsRow {
  const char* fixture;
  const char* variant;
  int sg_size;
  BitsRow hashes;
};

constexpr OutputBitsRow kOutputBits[] = {
#include "output_bits_snapshot.inc"
};

// FNV-1a over the bit patterns of the floats.
std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const float x : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

core::ParticleSet varied_h_gas() {
  GasOptions opt;
  opt.n_side = 10;
  opt.box = 1.0;
  opt.fill = 1.0;
  opt.jitter = 0.3;
  opt.vel_amp = 0.4;
  opt.seed = 77;
  core::ParticleSet p = make_gas(opt);
  // h scales by 0.45 .. 1.8: the largest support stays below half the box.
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.h[i] *= static_cast<float>(0.45 + 1.35 * double((i * 37) % 64) / 63.0);
  }
  return p;
}

// m0 V moments crk rho dvel P cs ax ay az vsig du | P-P ax ay az.
BitsRow output_bits(const core::ParticleSet& gas, CommVariant v, int sg_size) {
  core::ParticleSet p = gas;
  util::ThreadPool pool(1);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, pipeline_options(v, sg_size));

  std::vector<util::Vec3d> pos(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) pos[i] = {p.x[i], p.y[i], p.z[i]};
  const auto poly = gravity::PolyShortForce::newtonian(0.2);
  const tree::RcbTree tr(pos, 1.0, 16);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  std::vector<float> gx(p.size(), 0.f), gy(p.size(), 0.f), gz(p.size(), 0.f);
  gravity::PpOptions pp;
  pp.box = 1.0f;
  pp.softening = 0.01f;
  pp.variant = v;
  pp.launch.sub_group_size = sg_size;
  gravity::run_pp_short(q, {p.x.data(), p.y.data(), p.z.data(), p.mass.data(), gx.data(),
                            gy.data(), gz.data(), p.size()},
                        tr, pairs, poly, pp);
  return {fnv1a(p.m0),  fnv1a(p.V),  fnv1a(p.moments), fnv1a(p.crk),
          fnv1a(p.rho), fnv1a(p.dvel), fnv1a(p.P),     fnv1a(p.cs),
          fnv1a(p.ax),  fnv1a(p.ay), fnv1a(p.az),      fnv1a(p.vsig),
          fnv1a(p.du),  fnv1a(gx),   fnv1a(gy),        fnv1a(gz)};
}

class OutputBitsSnapshot
    : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllSgSizes, OutputBitsSnapshot,
    ::testing::Combine(::testing::ValuesIn(xsycl::kAllVariants),
                       ::testing::Values(16, 32, 64)),
    variant_sg_name);

TEST_P(OutputBitsSnapshot, MatchesRecordedHashes) {
  const auto [variant, sg_size] = GetParam();
  const std::pair<const char*, core::ParticleSet> fixtures[] = {
      {"small", make_gas(small_gas_options())}, {"varied_h", varied_h_gas()}};
  for (const auto& [fixture, gas] : fixtures) {
    const BitsRow got = output_bits(gas, variant, sg_size);
    std::ostringstream row;
    row << "{\"" << fixture << "\", \"" << to_string(variant) << "\", " << sg_size
        << ", {";
    for (std::size_t k = 0; k < got.size(); ++k) {
      row << (k ? ", " : "") << "0x" << std::hex << got[k] << std::dec << "ull";
    }
    row << "}},";
    const OutputBitsRow* want = nullptr;
    for (const auto& r : kOutputBits) {
      if (r.fixture == std::string(fixture) &&
          r.variant == std::string(to_string(variant)) && r.sg_size == sg_size) {
        want = &r;
      }
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no snapshot row; measured:\n" << row.str();
    } else {
      EXPECT_EQ(got, want->hashes) << "measured:\n" << row.str();
    }
  }
}

}  // namespace
}  // namespace hacc::sph
