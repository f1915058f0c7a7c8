// Property-based and parameterized suites: invariants that must hold over
// randomized geometry, every orientation, every synthetic node, and every
// testcase preset.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "benchgen/huge.hpp"
#include "benchgen/tech_gen.hpp"
#include "benchgen/testcase.hpp"
#include "drc/verdict_memo.hpp"
#include "geom/polygon.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "pao/evaluate.hpp"

namespace pao {
namespace {

// ---------------------------------------------------------------- geometry

class PolygonProperty : public ::testing::TestWithParam<int> {};

std::vector<geom::Rect> randomRects(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<geom::Coord> pos(0, 2000);
  std::uniform_int_distribution<geom::Coord> size(10, 600);
  std::vector<geom::Rect> rects;
  for (int i = 0; i < n; ++i) {
    const geom::Coord x = pos(rng);
    const geom::Coord y = pos(rng);
    rects.emplace_back(x, y, x + size(rng), y + size(rng));
  }
  return rects;
}

TEST_P(PolygonProperty, UnionAreaBounds) {
  const auto rects = randomRects(GetParam(), 8);
  geom::Area sum = 0;
  geom::Area maxArea = 0;
  for (const geom::Rect& r : rects) {
    sum += r.area();
    maxArea = std::max(maxArea, r.area());
  }
  const geom::Area u = geom::unionArea(rects);
  EXPECT_LE(u, sum);
  EXPECT_GE(u, maxArea);
}

TEST_P(PolygonProperty, SlabsAreDisjointAndCover) {
  const auto rects = randomRects(GetParam(), 8);
  const auto slabs = geom::unionSlabs(rects);
  geom::Area slabArea = 0;
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    slabArea += slabs[i].area();
    for (std::size_t j = i + 1; j < slabs.size(); ++j) {
      EXPECT_FALSE(slabs[i].overlaps(slabs[j]));
    }
  }
  EXPECT_EQ(slabArea, geom::unionArea(rects));
}

TEST_P(PolygonProperty, BoundaryRingsCloseAndHaveEvenEdges) {
  const auto rects = randomRects(GetParam(), 8);
  for (const auto& ring : geom::unionBoundary(rects)) {
    ASSERT_GE(ring.size(), 4u);
    EXPECT_EQ(ring.size() % 2, 0u);  // rectilinear rings alternate H/V
    for (std::size_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i].to, ring[(i + 1) % ring.size()].from);
      EXPECT_NE(ring[i].length(), 0);
      // Consecutive edges alternate orientation.
      EXPECT_NE(ring[i].horizontal(),
                ring[(i + 1) % ring.size()].horizontal());
    }
  }
}

TEST_P(PolygonProperty, MaxRectsCoverTheUnionExactly) {
  const auto rects = randomRects(GetParam(), 6);
  const auto mr = geom::maxRects(rects);
  // Same union area, and every max rect is inside the union (its area
  // within the union equals its own area).
  EXPECT_EQ(geom::unionArea(mr), geom::unionArea(rects));
  for (const geom::Rect& r : mr) {
    std::vector<geom::Rect> clipped;
    for (const geom::Rect& s : geom::unionSlabs(rects)) {
      const geom::Rect c = s.intersect(r);
      if (!c.empty()) clipped.push_back(c);
    }
    EXPECT_EQ(geom::unionArea(clipped), r.area());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolygonProperty,
                         ::testing::Range(1, 21));

// ------------------------------------------------------------ orientations

class OrientProperty : public ::testing::TestWithParam<geom::Orient> {};

TEST_P(OrientProperty, TransformIsAnIsometry) {
  const geom::Transform t({777, -333}, GetParam(), {500, 900});
  std::mt19937 rng(42);
  std::uniform_int_distribution<geom::Coord> pos(0, 900);
  for (int i = 0; i < 50; ++i) {
    const geom::Point a{pos(rng) % 500, pos(rng)};
    const geom::Point b{pos(rng) % 500, pos(rng)};
    // Distances are preserved...
    EXPECT_EQ(geom::manhattanDist(t.apply(a), t.apply(b)),
              geom::manhattanDist(a, b));
    // ...and the inverse really inverts.
    EXPECT_EQ(t.applyInverse(t.apply(a)), a);
  }
}

TEST_P(OrientProperty, RectAreaPreserved) {
  const geom::Transform t({0, 0}, GetParam(), {500, 900});
  const geom::Rect r{10, 20, 480, 850};
  EXPECT_EQ(t.apply(r).area(), r.area());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrients, OrientProperty,
    ::testing::Values(geom::Orient::R0, geom::Orient::R90,
                      geom::Orient::R180, geom::Orient::R270,
                      geom::Orient::MX, geom::Orient::MY,
                      geom::Orient::MX90, geom::Orient::MY90),
    [](const auto& info) {
      return std::string(geom::toString(info.param));
    });

// ------------------------------------------------------------ via checks

// The verdict memo of countFailedPins rests on this: a via check depends on
// its context only up to translation and a renaming of nets that keeps the
// via's net, other nets and obstructions apart. Random vias in random
// contexts (pin bars of the via's net, other nets' shapes, obstructions,
// cut neighbors, extra shapes) are checked, then checked again with every
// shape translated by a random offset and every net renamed. The violations
// must agree exactly once translated and renamed back, markers included,
// for an offset that keeps every coordinate positive and for one that
// takes the context across the origin; the two gathered contexts must get
// the same memo key.
TEST(ViaCheckProperty, VerdictIsInvariantUnderTranslationAndNetRenaming) {
  const std::unique_ptr<db::Tech> tech =
      benchgen::makeTech(benchgen::nodeParams(benchgen::Node::k45));
  const int viaNet = 5;
  const auto rename = [](int net) {
    return net == drc::Shape::kObsNet ? net : 1000 + 7 * (9 - net);
  };
  const auto renameBack = [](int net) {
    return net == drc::Shape::kObsNet ? net : 9 - (net - 1000) / 7;
  };
  int clean = 0;
  int dirty = 0;
  for (unsigned seed = 0; seed < 300; ++seed) {
    std::mt19937 rng(seed);
    const auto uni = [&](geom::Coord lo, geom::Coord hi) {
      return std::uniform_int_distribution<geom::Coord>(lo, hi)(rng);
    };
    const std::vector<const db::ViaDef*> vias =
        tech->viaDefsFromLayer(static_cast<int>(uni(0, 2)) * 2);
    ASSERT_FALSE(vias.empty());
    const db::ViaDef& via = *vias[uni(0, vias.size() - 1)];
    const geom::Point at{5000 + uni(0, 400) * 5, 5000 + uni(0, 400) * 5};

    std::vector<drc::Shape> fixed;
    std::vector<drc::Shape> extra;
    const int layers[3] = {via.botLayer, via.cutLayer, via.topLayer};
    const int nets[5] = {viaNet, viaNet, 6, 7, drc::Shape::kObsNet};
    // A pin bar of the via's net under the via, most of the time.
    if (uni(0, 3) != 0) {
      fixed.push_back({geom::Rect(at.x - uni(50, 900), at.y - uni(40, 80),
                                  at.x + uni(50, 900), at.y + uni(40, 80)),
                       via.botLayer, viaNet, drc::ShapeKind::kPin, true});
    }
    const int numShapes = static_cast<int>(uni(3, 16));
    for (int i = 0; i < numShapes; ++i) {
      const int layer = layers[uni(0, 2)];
      const bool cut = layer == via.cutLayer;
      const geom::Coord x = at.x + uni(-700, 700);
      const geom::Coord y = at.y + uni(-700, 700);
      const geom::Coord w = cut ? 140 : uni(20, 500);
      const geom::Coord h = cut ? 140 : uni(20, 500);
      const drc::Shape s{geom::Rect(x, y, x + w, y + h), layer,
                         nets[uni(0, 4)], drc::ShapeKind::kPin, true};
      (uni(0, 3) == 0 ? extra : fixed).push_back(s);
    }

    drc::DrcEngine a(*tech);
    for (const drc::Shape& s : fixed) a.region().add(s);
    std::vector<drc::Violation> va = a.checkVia(via, at, viaNet, extra);
    drc::sortViolations(va);
    (va.empty() ? clean : dirty) += 1;
    drc::ViaContext ctxA;
    a.gatherVia(via, at, viaNet, extra, ctxA);
    drc::ViaVerdictMemo memo;
    EXPECT_FALSE(memo.knownClean(ctxA));
    memo.recordClean();

    // One offset keeping every coordinate positive, one across the origin.
    const geom::Point offsets[2] = {
        {uni(-2500, 300000), uni(-2500, 300000)},
        {-2 * at.x - uni(0, 999), -2 * at.y - uni(0, 999)}};
    for (int k = 0; k < 2; ++k) {
      const geom::Point d = offsets[k];
      const auto moved = [&](drc::Shape s) {
        s.rect = s.rect.translate(d.x, d.y);
        s.net = rename(s.net);
        return s;
      };
      drc::DrcEngine b(*tech);
      for (const drc::Shape& s : fixed) b.region().add(moved(s));
      std::vector<drc::Shape> extraB;
      for (const drc::Shape& s : extra) extraB.push_back(moved(s));

      std::vector<drc::Violation> vb =
          b.checkVia(via, at + d, rename(viaNet), extraB);
      for (drc::Violation& v : vb) {
        v.bbox = v.bbox.translate(-d.x, -d.y);
        v.netA = renameBack(v.netA);
        v.netB = renameBack(v.netB);
      }
      drc::sortViolations(vb);
      EXPECT_EQ(va, vb) << "seed " << seed << " offset " << k;

      drc::ViaContext ctxB;
      b.gatherVia(via, at + d, rename(viaNet), extraB, ctxB);
      EXPECT_TRUE(memo.knownClean(ctxB)) << "seed " << seed << " offset " << k;
    }
  }
  // The sample must exercise both verdicts.
  EXPECT_GT(clean, 30);
  EXPECT_GT(dirty, 30);
}

// ------------------------------------------------------------ tech nodes

class NodeProperty
    : public ::testing::TestWithParam<benchgen::Node> {};

TEST_P(NodeProperty, GeneratedLibraryIsAnalyzable) {
  const benchgen::NodeParams node = benchgen::nodeParams(GetParam());
  // Rule sanity the generators rely on.
  EXPECT_LT(node.minStep, node.m1Width + 1);
  EXPECT_GT(node.m1Pitch, node.m1Width + node.spacing);

  benchgen::TestcaseSpec spec;
  spec.name = "prop";
  spec.node = GetParam();
  spec.numCells = 60;
  spec.numNets = 30;
  spec.siteWidth = node.m1Pitch / 2;
  spec.seed = 99;
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  const core::DirtyApStats dirty = core::countDirtyAps(*tc.design, res);
  EXPECT_GT(dirty.totalAps, 0u);
  EXPECT_EQ(dirty.dirtyAps, 0u);
  // Every signal pin of every analyzable class has at least one AP.
  for (std::size_t c = 0; c < res.unique.classes.size(); ++c) {
    const core::ClassAccess& ca = res.classes[c];
    for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
      EXPECT_FALSE(ca.pinAps[p].empty())
          << res.unique.classes[c].master->name << " pin " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNodes, NodeProperty,
                         ::testing::Values(benchgen::Node::k45,
                                           benchgen::Node::k32,
                                           benchgen::Node::k14),
                         [](const auto& info) {
                           switch (info.param) {
                             case benchgen::Node::k45: return "n45";
                             case benchgen::Node::k32: return "n32";
                             case benchgen::Node::k14: return "n14";
                           }
                           return "unknown";
                         });

// --------------------------------------------------------- testcase sweep

class SuiteProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuiteProperty, PaafInvariantsHoldOnEveryPreset) {
  const benchgen::TestcaseSpec spec =
      benchgen::ispd18Suite()[static_cast<std::size_t>(GetParam())];
  const benchgen::Testcase tc = benchgen::generate(spec, 0.004);

  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();

  // Invariant 1: PAAF never emits a dirty access point.
  const core::DirtyApStats dirty = core::countDirtyAps(*tc.design, res);
  EXPECT_EQ(dirty.dirtyAps, 0u) << spec.name;

  // Invariant 2: every access point lies on its pin's shapes.
  for (std::size_t c = 0; c < res.unique.classes.size(); ++c) {
    const core::ClassAccess& ca = res.classes[c];
    if (ca.pinAps.empty()) continue;
    const core::InstContext ctx(*tc.design, res.unique.classes[c]);
    for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
      for (const core::AccessPoint& ap : ca.pinAps[p]) {
        bool onPin = false;
        for (const geom::Rect& r :
             ctx.pinShapes(ctx.signalPins()[p], ap.layer)) {
          onPin = onPin || r.contains(ap.loc);
        }
        EXPECT_TRUE(onPin) << spec.name;
      }
    }
  }

  // Invariant 3: chosen patterns exist for every core instance with pins.
  for (int i = 0; i < static_cast<int>(tc.design->instances.size()); ++i) {
    const db::Instance& inst = tc.design->instances[i];
    if (inst.master->signalPinIndices().empty()) continue;
    EXPECT_GE(res.chosenPattern[i], 0) << spec.name << " " << inst.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SuiteProperty,
                         ::testing::Range(0, 10));

// ------------------------------------------------- serialization fixpoint

// write -> parse -> write must be a byte-level fixpoint: the first written
// text, parsed back into a fresh database and written again, reproduces
// itself exactly. This pins the writer/parser pair as mutual inverses on
// the statement subset we claim to support (anything the writer can emit,
// the parser reads losslessly, at full numeric precision).
class RoundTripFixpoint : public ::testing::TestWithParam<int> {
 protected:
  benchgen::Testcase tc_ = benchgen::generate(
      benchgen::ispd18Suite()[static_cast<std::size_t>(GetParam())], 0.004);
};

TEST_P(RoundTripFixpoint, LefWriteParseWriteIsByteStable) {
  const std::string first = lefdef::writeLef(*tc_.tech, *tc_.lib);
  db::Tech tech2;
  db::Library lib2;
  const lefdef::ParseResult res =
      lefdef::parseLef(first, tech2, lib2, lefdef::ParseOptions{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(lefdef::writeLef(tech2, lib2), first);
}

TEST_P(RoundTripFixpoint, DefWriteParseWriteIsByteStable) {
  const std::string lefText = lefdef::writeLef(*tc_.tech, *tc_.lib);
  const std::string first = lefdef::writeDef(*tc_.design);

  // Parse both back through text so the DEF resolves masters against the
  // re-parsed library, exactly as a cold run of pao_cli would.
  db::Tech tech2;
  db::Library lib2;
  lefdef::parseLef(lefText, tech2, lib2);
  db::Design design2;
  design2.tech = &tech2;
  design2.lib = &lib2;
  const lefdef::ParseResult res =
      lefdef::parseDef(first, design2, lefdef::ParseOptions{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(lefdef::writeDef(design2), first);
}

INSTANTIATE_TEST_SUITE_P(Presets, RoundTripFixpoint,
                         ::testing::Values(0, 3, 7));

TEST(HugeFixpoint, StreamedGenerateParseWriteIsByteStable) {
  // The huge generator never materializes a design, so the fixpoint runs
  // the other way around: generated DEF text -> streamed parse -> writeDef
  // must reproduce the generated bytes exactly (they share the defout
  // emitters). ~50k instances keeps the round trip testable in-process.
  benchgen::HugeSpec spec = benchgen::hugeSpec();
  const double scale =
      50000.0 / static_cast<double>(spec.numCells);  // ~50k cells
  const benchgen::HugeTechLib tl = benchgen::makeHugeTechLib(spec);

  std::ostringstream def;
  const benchgen::HugeCounts counts =
      benchgen::writeHugeDef(spec, scale, *tl.tech, *tl.lib, def);
  EXPECT_GE(counts.cells, 49000u);
  const std::string first = def.str();

  // Determinism: a second emission is byte-identical.
  std::ostringstream again;
  benchgen::writeHugeDef(spec, scale, *tl.tech, *tl.lib, again);
  ASSERT_EQ(again.str(), first);

  db::Design design;
  design.tech = tl.tech.get();
  design.lib = tl.lib.get();
  lefdef::StreamOptions opts;
  opts.numThreads = 0;
  opts.chunkBytes = 1 << 18;
  lefdef::IngestStats stats;
  const lefdef::ParseResult res =
      lefdef::parseDefStream(first, design, opts, &stats);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(design.instances.size(), counts.cells);
  EXPECT_EQ(design.nets.size(), counts.nets);
  EXPECT_EQ(design.ioPins.size(), counts.ioPins);
  EXPECT_GT(stats.chunks, 1u);

  EXPECT_EQ(lefdef::writeDef(design), first);
}

}  // namespace
}  // namespace pao
