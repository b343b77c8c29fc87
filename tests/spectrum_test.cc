// Tests for the multi-h spectrum sweep (paper §7 future work): monotonicity
// in h and agreement with independent per-h decompositions.

#include "core/spectrum.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;
using ::hcore::testing::SpectrumIsMonotone;

TEST(Spectrum, PaperFigure1Levels) {
  Graph g = gen::PaperFigure1();
  SpectrumOptions opts;
  opts.max_h = 2;
  SpectrumResult r = KhCoreSpectrum(g, opts);
  ASSERT_EQ(r.max_h(), 2);
  EXPECT_EQ(r.degeneracy[0], 2u);  // classic
  EXPECT_EQ(r.degeneracy[1], 6u);  // (k,2)
  EXPECT_EQ(r.VertexSpectrum(0), (std::vector<uint32_t>{2, 4}));  // v1
  EXPECT_EQ(r.VertexSpectrum(1), (std::vector<uint32_t>{2, 5}));  // v2
  EXPECT_EQ(r.VertexSpectrum(3), (std::vector<uint32_t>{2, 6}));  // v4
  // The sweep sums every per-level counter (h = 1 reports none, so the
  // pops come from the h = 2 peel).
  EXPECT_GT(r.stats.pops, 0u);
}

TEST(Spectrum, SelfCorrelationIsOne) {
  Rng rng(62);
  Graph g = gen::ErdosRenyiGnp(80, 0.06, &rng);
  SpectrumOptions opts;
  opts.max_h = 2;
  SpectrumResult r = KhCoreSpectrum(g, opts);
  EXPECT_NEAR(r.LevelCorrelation(1, 1), 1.0, 1e-9);
  EXPECT_NEAR(r.LevelCorrelation(2, 2), 1.0, 1e-9);
  EXPECT_EQ(r.LevelCorrelation(1, 2), r.LevelCorrelation(2, 1));
}

class SpectrumProperty : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(SpectrumProperty, MatchesIndependentDecompositions) {
  Graph g = MakeRandomGraph(GetParam());
  SpectrumOptions opts;
  opts.max_h = 4;
  SpectrumResult r = KhCoreSpectrum(g, opts);
  for (int h = 1; h <= 4; ++h) {
    KhCoreOptions single;
    single.h = h;
    KhCoreResult expect = KhCoreDecomposition(g, single);
    EXPECT_EQ(r.core[h - 1], expect.core) << "h=" << h;
    EXPECT_EQ(r.degeneracy[h - 1], expect.degeneracy) << "h=" << h;
  }
}

TEST_P(SpectrumProperty, MonotoneInH) {
  Graph g = MakeRandomGraph(GetParam());
  SpectrumOptions opts;
  opts.max_h = 5;
  SpectrumResult r = KhCoreSpectrum(g, opts);
  EXPECT_TRUE(SpectrumIsMonotone(r));
  for (size_t i = 1; i < r.degeneracy.size(); ++i) {
    EXPECT_GE(r.degeneracy[i], r.degeneracy[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, SpectrumProperty,
                         ::testing::ValuesIn(Corpus(40, 2)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

}  // namespace
}  // namespace hcore
