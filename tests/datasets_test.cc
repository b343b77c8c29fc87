// Tests for the synthetic dataset stand-ins.

#include "datasets/datasets.h"

#include <gtest/gtest.h>

#include "graph/connectivity.h"

namespace hcore {
namespace {

TEST(Datasets, AllNamesLoad) {
  for (const std::string& name : DatasetNames()) {
    Dataset d = LoadDataset(name, /*scale=*/0.05);
    EXPECT_EQ(d.name, name);
    EXPECT_FALSE(d.family.empty());
    EXPECT_GT(d.graph.num_vertices(), 0u);
    EXPECT_GT(d.graph.num_edges(), 0u);
  }
}

TEST(Datasets, DeterministicAcrossLoads) {
  Dataset a = LoadDataset("caAs", 0.05);
  Dataset b = LoadDataset("caAs", 0.05);
  EXPECT_EQ(a.graph.Edges(), b.graph.Edges());
}

TEST(Datasets, ScaleShrinksVertexCount) {
  Dataset big = LoadDataset("FBco", 0.2);
  Dataset small = LoadDataset("FBco", 0.05);
  EXPECT_GT(big.graph.num_vertices(), small.graph.num_vertices());
}

TEST(Datasets, TinyScaleClampsToNonEmptyGraph) {
  // A scale that rounds every family to ~zero vertices must still yield a
  // usable graph (the clamp floor), never an empty one.
  for (const std::string& name : {std::string("coli"), std::string("lj")}) {
    Dataset d = LoadDataset(name, 1e-9);
    EXPECT_GE(d.graph.num_vertices(), 1u) << name;
    EXPECT_GT(d.graph.num_edges(), 0u) << name;
  }
}

TEST(DatasetsDeathTest, RejectsOutOfRangeScale) {
  EXPECT_DEATH(LoadDataset("coli", 0.0), "scale must be in \\(0, 1\\]");
  EXPECT_DEATH(LoadDataset("coli", -0.5), "scale must be in \\(0, 1\\]");
  EXPECT_DEATH(LoadDataset("coli", 1.5), "scale must be in \\(0, 1\\]");
}

TEST(Datasets, SmallBioGraphsAtPaperScale) {
  Dataset coli = LoadDataset("coli");
  EXPECT_EQ(coli.graph.num_vertices(), 328u);
  Dataset cele = LoadDataset("cele");
  EXPECT_EQ(cele.graph.num_vertices(), 346u);
}

TEST(Datasets, RoadStandInsAreSparseConnectedHighDiameter) {
  Dataset rn = LoadDataset("rnPA", 0.1);
  EXPECT_LE(rn.graph.MaxDegree(), 8u);
  EXPECT_EQ(ComputeConnectedComponents(rn.graph).num_components, 1u);
  EXPECT_LT(rn.graph.AverageDegree(), 4.0);
}

TEST(Datasets, SocialStandInsAreSkewed) {
  Dataset fb = LoadDataset("FBco", 0.25);
  EXPECT_GT(fb.graph.MaxDegree(), 5 * fb.graph.AverageDegree());
  Dataset sytb = LoadDataset("sytb", 0.1);
  EXPECT_GT(sytb.graph.MaxDegree(), 10 * sytb.graph.AverageDegree());
}

}  // namespace
}  // namespace hcore
