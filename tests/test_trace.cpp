// Unit tests for src/trace: generator determinism, profile shape, mix
// convergence, dependency distances, and the in-memory trace sources (the
// on-disk format is pinned in test_sampling.cpp).
#include <gtest/gtest.h>

#include <array>

#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/profile.h"
#include "trace/trace_io.h"

namespace mapg {
namespace {

TEST(Profiles, TwelveBuiltinsWithUniqueNames) {
  const auto& profiles = builtin_profiles();
  EXPECT_EQ(profiles.size(), 12u);
  for (std::size_t i = 0; i < profiles.size(); ++i)
    for (std::size_t j = i + 1; j < profiles.size(); ++j)
      EXPECT_NE(profiles[i].name, profiles[j].name);
}

TEST(Profiles, FindByName) {
  EXPECT_NE(find_profile("mcf-like"), nullptr);
  EXPECT_NE(find_profile("gamess-like"), nullptr);
  EXPECT_EQ(find_profile("not-a-profile"), nullptr);
}

TEST(Profiles, MixFractionsSumBelowOne) {
  for (const auto& p : builtin_profiles()) {
    const double sum =
        p.f_load + p.f_store + p.f_branch + p.f_mul + p.f_div + p.f_fp;
    EXPECT_LT(sum, 1.0) << p.name;
    EXPECT_GT(p.f_load, 0.0) << p.name;
    EXPECT_LE(p.p_stream + p.p_cold, 1.0) << p.name;
    EXPECT_LE(p.hot_set_bytes, p.working_set_bytes) << p.name;
  }
}

TEST(Profiles, RepresentativeSubset) {
  const auto reps = representative_profiles();
  ASSERT_EQ(reps.size(), 4u);
  EXPECT_EQ(reps[0].name, "mcf-like");
}

TEST(Generator, DeterministicAcrossInstances) {
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  TraceGenerator a(*p, 5), b(*p, 5);
  Instr ia, ib;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(a.next(ia));
    ASSERT_TRUE(b.next(ib));
    ASSERT_EQ(ia.op, ib.op);
    ASSERT_EQ(ia.addr, ib.addr);
    ASSERT_EQ(ia.dep_dist, ib.dep_dist);
  }
}

TEST(Generator, ResetReplaysIdentically) {
  const WorkloadProfile* p = find_profile("gcc-like");
  ASSERT_NE(p, nullptr);
  TraceGenerator g(*p, 9);
  std::vector<Instr> first;
  Instr instr;
  for (int i = 0; i < 5000; ++i) {
    g.next(instr);
    first.push_back(instr);
  }
  g.reset();
  for (int i = 0; i < 5000; ++i) {
    g.next(instr);
    EXPECT_EQ(instr.addr, first[i].addr);
    EXPECT_EQ(instr.op, first[i].op);
  }
}

TEST(Generator, RunSeedChangesStream) {
  const WorkloadProfile* p = find_profile("mcf-like");
  TraceGenerator a(*p, 1), b(*p, 2);
  Instr ia, ib;
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    a.next(ia);
    b.next(ib);
    if (ia.op == ib.op && ia.addr == ib.addr) ++same;
  }
  EXPECT_LT(same, 700);  // mostly different draws
}

TEST(Generator, MixConvergesToProfile) {
  const WorkloadProfile* p = find_profile("lbm-like");
  TraceGenerator g(*p, 3);
  std::array<int, kNumOpClasses> counts{};
  Instr instr;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    g.next(instr);
    ++counts[static_cast<std::size_t>(instr.op)];
  }
  auto frac = [&](OpClass c) {
    return static_cast<double>(counts[static_cast<std::size_t>(c)]) / n;
  };
  EXPECT_NEAR(frac(OpClass::kLoad), p->f_load, 0.01);
  EXPECT_NEAR(frac(OpClass::kStore), p->f_store, 0.01);
  EXPECT_NEAR(frac(OpClass::kBranch), p->f_branch, 0.01);
  EXPECT_NEAR(frac(OpClass::kDiv), p->f_div, 0.005);
}

TEST(Generator, AddressesStayInWorkingSetAndAligned) {
  for (const auto& p : builtin_profiles()) {
    TraceGenerator g(p, 11);
    Instr instr;
    for (int i = 0; i < 20000; ++i) {
      g.next(instr);
      if (instr.op == OpClass::kLoad || instr.op == OpClass::kStore) {
        ASSERT_LT(instr.addr, p.working_set_bytes) << p.name;
        ASSERT_EQ(instr.addr % 8, 0u) << p.name;
      } else {
        ASSERT_EQ(instr.addr, kNoAddr);
      }
    }
  }
}

TEST(Generator, DepDistWithinBoundsAndLoadsOnly) {
  const WorkloadProfile* p = find_profile("omnetpp-like");
  TraceGenerator g(*p, 13);
  Instr instr;
  bool saw_dep = false;
  for (int i = 0; i < 50000; ++i) {
    g.next(instr);
    if (instr.op != OpClass::kLoad) {
      ASSERT_EQ(instr.dep_dist, 0u);
      continue;
    }
    ASSERT_LE(instr.dep_dist, p->dep_dist_max);
    saw_dep |= instr.dep_dist > 0;
  }
  EXPECT_TRUE(saw_dep);
}

TEST(Generator, PointerChaseForcesDepDistOne) {
  WorkloadProfile p = *find_profile("mcf-like");
  p.p_pointer_chase = 1.0;  // every load chases
  TraceGenerator g(p, 17);
  Instr instr;
  for (int i = 0; i < 20000; ++i) {
    g.next(instr);
    if (instr.op == OpClass::kLoad) {
      ASSERT_EQ(instr.dep_dist, 1u);
    }
  }
}

TEST(Generator, StreamsAdvanceSequentially) {
  WorkloadProfile p = *find_profile("libquantum-like");
  p.p_stream = 1.0;
  p.p_cold = 0.0;
  p.num_streams = 1;
  p.f_load = 1.0;
  p.f_store = p.f_branch = p.f_mul = p.f_div = p.f_fp = 0.0;
  TraceGenerator g(p, 19);
  Instr a, b;
  g.next(a);
  for (int i = 0; i < 1000; ++i) {
    g.next(b);
    // Single stream, pure loads: consecutive addresses advance by the
    // stride (mod wraparound).
    if (b.addr > a.addr) {
      ASSERT_EQ(b.addr - a.addr, p.stream_stride_bytes & ~7ULL);
    }
    a = b;
  }
}

TEST(PhasedGenerator, AlternatesProfilesOnSchedule) {
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("gamess-like");
  PhasedTraceGenerator g(*a, *b, 100, 3);
  Instr instr;
  EXPECT_EQ(g.current_phase_name(), "mcf-like");
  for (int i = 0; i < 100; ++i) g.next(instr);
  g.next(instr);  // 101st instruction crosses into phase b
  EXPECT_EQ(g.current_phase_name(), "gamess-like");
  EXPECT_EQ(g.phase_switches(), 1u);
  for (int i = 0; i < 100; ++i) g.next(instr);
  EXPECT_EQ(g.current_phase_name(), "mcf-like");
  EXPECT_EQ(g.phase_switches(), 2u);
}

TEST(PhasedGenerator, ResetReplaysIdentically) {
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("lbm-like");
  PhasedTraceGenerator g(*a, *b, 500, 7);
  std::vector<Instr> first;
  Instr instr;
  for (int i = 0; i < 3000; ++i) {
    g.next(instr);
    first.push_back(instr);
  }
  g.reset();
  for (int i = 0; i < 3000; ++i) {
    g.next(instr);
    ASSERT_EQ(instr.addr, first[i].addr);
    ASSERT_EQ(instr.op, first[i].op);
  }
}

TEST(PhasedGenerator, MixReflectsBothPhases) {
  // mcf loads 32%, gamess loads 24%: a balanced phased trace lands between.
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("gamess-like");
  PhasedTraceGenerator g(*a, *b, 1000, 11);
  Instr instr;
  int loads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    g.next(instr);
    if (instr.op == OpClass::kLoad) ++loads;
  }
  const double frac = static_cast<double>(loads) / n;
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.31);
}

TEST(VectorSource, ServesAndResets) {
  std::vector<Instr> v(3);
  v[0].op = OpClass::kAlu;
  v[1].op = OpClass::kLoad;
  v[1].addr = 64;
  v[2].op = OpClass::kStore;
  v[2].addr = 128;
  VectorTraceSource src(v);
  Instr instr;
  int n = 0;
  while (src.next(instr)) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_FALSE(src.next(instr));
  src.reset();
  ASSERT_TRUE(src.next(instr));
  EXPECT_EQ(instr.op, OpClass::kAlu);
}

TEST(LimitedSource, CapsAndResets) {
  const WorkloadProfile* p = find_profile("gcc-like");
  TraceGenerator g(*p, 23);
  LimitedTraceSource lim(g, 100);
  Instr instr;
  int n = 0;
  while (lim.next(instr)) ++n;
  EXPECT_EQ(n, 100);
  lim.reset();
  n = 0;
  while (lim.next(instr)) ++n;
  EXPECT_EQ(n, 100);
}

}  // namespace
}  // namespace mapg
