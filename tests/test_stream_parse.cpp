// DEF ingest invariance: the chunked parse must not depend on how the
// input is cut or scheduled — same design bytes (compared via
// db::designFingerprint), same diagnostics in the same order, same
// recovery and GEN001 bail-out — at every preset, thread count and chunk
// size; and the sharded unique-instance extraction must reproduce the
// serial class numbering exactly. The one-chunk results are
// anchored to literals captured from the former single-pass parser, so
// chunk invariance cannot hide a change both paths share.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "benchgen/testcase.hpp"
#include "db/fingerprint.hpp"
#include "db/unique_inst.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "pao/oracle.hpp"
#include "pao/session.hpp"
#include "util/fault.hpp"

namespace pao {
namespace {

using lefdef::IngestStats;
using lefdef::ParseError;
using lefdef::ParseOptions;
using lefdef::ParseResult;
using lefdef::StreamOptions;

benchgen::Testcase smallCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 150;
  spec.numNets = 80;
  return benchgen::generate(spec, 1.0);
}

/// Parse options with chunks small enough that even test-sized DEFs split
/// into several of them.
StreamOptions tinyChunks(int threads, bool recover = false,
                         std::size_t maxErrors = 64) {
  StreamOptions opts;
  opts.parse.recover = recover;
  opts.parse.maxErrors = maxErrors;
  opts.numThreads = threads;
  opts.chunkBytes = 2048;
  return opts;
}

/// The reference cut: one chunk per section, one thread.
StreamOptions oneChunk(bool recover = false, std::size_t maxErrors = 64) {
  StreamOptions opts = tinyChunks(1, recover, maxErrors);
  opts.chunkBytes = std::numeric_limits<std::size_t>::max();
  return opts;
}

void expectSameDiags(const std::vector<util::Diag>& got,
                     const std::vector<util::Diag>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("diag " + std::to_string(i));
    EXPECT_EQ(got[i].code, want[i].code);
    EXPECT_EQ(got[i].loc.file, want[i].loc.file);
    EXPECT_EQ(got[i].loc.line, want[i].loc.line);
    EXPECT_EQ(got[i].loc.col, want[i].loc.col);
    EXPECT_EQ(got[i].message, want[i].message);
    EXPECT_EQ(got[i].excerpt, want[i].excerpt);
  }
}

/// Breaks identifiers in the generated DEF so the parse must recover:
/// every 5th component's master ('~' prefix -> DEF002), every 7th net term
/// ('~' on the component or PIN name -> DEF004/DEF003), and optionally the
/// first TRACKS layer (DEF001, in the serial preamble). '~' never starts a
/// real identifier, so each edit is a guaranteed unknown-name error.
std::string corruptDef(std::string text, bool corruptTracks) {
  std::vector<std::size_t> inserts;
  if (corruptTracks) {
    const std::size_t layer = text.find(" LAYER ");
    if (layer != std::string::npos) inserts.push_back(layer + 7);
  }
  const std::size_t compBegin = text.find("COMPONENTS ");
  const std::size_t compEnd = text.find("END COMPONENTS");
  int nComp = 0;
  for (std::size_t p = text.find("\n - ", compBegin);
       p != std::string::npos && p < compEnd;
       p = text.find("\n - ", p + 1)) {
    const std::size_t master = text.find(' ', p + 4) + 1;
    if (++nComp % 5 == 0) inserts.push_back(master);
  }
  const std::size_t netsBegin = text.find("\nNETS ");
  const std::size_t netsEnd = text.find("END NETS");
  int nTerm = 0;
  for (std::size_t p = text.find("( ", netsBegin);
       p != std::string::npos && p < netsEnd; p = text.find("( ", p + 2)) {
    if (++nTerm % 7 == 0) inserts.push_back(p + 2);
  }
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    text.insert(*it, "~");
  }
  return text;
}

db::Design freshTarget(const benchgen::Testcase& tc) {
  db::Design d;
  d.tech = tc.tech.get();
  d.lib = tc.lib.get();
  return d;
}

// ------------------------------------------------------ clean-input parity

TEST(StreamEquivalence, EveryPresetIsChunkInvariantAtEveryThreadCount) {
  std::vector<benchgen::TestcaseSpec> specs = benchgen::ispd18Suite();
  specs.push_back(benchgen::aes14Spec());
  specs.push_back(benchgen::mixedSpec());
  for (const benchgen::TestcaseSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const benchgen::Testcase tc = benchgen::generate(spec, /*scale=*/0.01);
    const std::string text = lefdef::writeDef(*tc.design);

    db::Design whole = freshTarget(tc);
    IngestStats wholeStats;
    ASSERT_TRUE(
        lefdef::parseDefStream(text, whole, oneChunk(), &wholeStats).ok());
    const std::uint64_t want = db::designFingerprint(whole);
    EXPECT_EQ(wholeStats.components, tc.design->instances.size());
    EXPECT_EQ(wholeStats.nets, tc.design->nets.size());

    for (const int threads : {1, 4, 0}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      db::Design chunked = freshTarget(tc);
      IngestStats stats;
      const ParseResult res =
          lefdef::parseDefStream(text, chunked, tinyChunks(threads), &stats);
      EXPECT_TRUE(res.ok());
      EXPECT_EQ(db::designFingerprint(chunked), want);
      EXPECT_GT(stats.chunks, wholeStats.chunks);
      EXPECT_EQ(stats.components, wholeStats.components);
      EXPECT_EQ(stats.nets, wholeStats.nets);
      EXPECT_EQ(stats.bytes, text.size());
    }
  }
}

TEST(StreamEquivalence, ChunkSizeNeverChangesTheResult) {
  // designFingerprint of smallCase() as parsed by the former single-pass
  // parser.
  constexpr std::uint64_t kSinglePassFingerprint = 0x6cc712231eebe5e6ULL;
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design whole = freshTarget(tc);
  ASSERT_TRUE(lefdef::parseDefStream(text, whole, oneChunk()).ok());
  EXPECT_EQ(db::designFingerprint(whole), kSinglePassFingerprint);

  for (const std::size_t chunkBytes :
       {std::size_t{1}, std::size_t{512}, std::size_t{1} << 14,
        std::size_t{1} << 26}) {
    SCOPED_TRACE("chunkBytes=" + std::to_string(chunkBytes));
    StreamOptions opts = tinyChunks(/*threads=*/4);
    opts.chunkBytes = chunkBytes;
    db::Design chunked = freshTarget(tc);
    EXPECT_TRUE(lefdef::parseDefStream(text, chunked, opts).ok());
    EXPECT_EQ(db::designFingerprint(chunked), kSinglePassFingerprint);
  }
}

// ------------------------------------------------- diagnostics invariance

TEST(StreamEquivalence, RecoveryDiagsAreChunkInvariant) {
  const benchgen::Testcase tc = smallCase();
  const std::string text =
      corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/true);

  // maxErrors 1000 is plenty: the whole error list, no bail.
  db::Design whole = freshTarget(tc);
  const ParseResult wantRes = lefdef::parseDefStream(
      text, whole, oneChunk(/*recover=*/true, /*maxErrors=*/1000));
  // Captured from the former single-pass parser: 94 errors, and the
  // design they leave behind.
  EXPECT_EQ(wantRes.diags.size(), 94u);
  EXPECT_EQ(wantRes.errorCount(), 94u);
  EXPECT_EQ(whole.instances.size(), 130u);
  EXPECT_EQ(whole.nets.size(), 19u);
  EXPECT_EQ(db::designFingerprint(whole), 0xadf42abc57467175ULL);

  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db::Design chunked = freshTarget(tc);
    const ParseResult res = lefdef::parseDefStream(
        text, chunked, tinyChunks(threads, /*recover=*/true, 1000));
    expectSameDiags(res.diags, wantRes.diags);
    EXPECT_EQ(db::designFingerprint(chunked), db::designFingerprint(whole));
  }
}

TEST(StreamEquivalence, MaxErrorsBailReproducesLegacyStateExactly) {
  const benchgen::Testcase tc = smallCase();
  const std::string text =
      corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/false);

  // The former single-pass parser's bail-out on this input: the first ten
  // DEF002 errors (every 5th component), then GEN001 — with the 40 good
  // components before the 10th error committed and no nets.
  struct Want {
    const char* code;
    std::size_t line;
    std::size_t col;
  };
  const std::vector<Want> want = {
      {"DEF002", 43, 11}, {"DEF002", 48, 11}, {"DEF002", 53, 12},
      {"DEF002", 58, 12}, {"DEF002", 63, 12}, {"DEF002", 68, 12},
      {"DEF002", 73, 12}, {"DEF002", 78, 12}, {"DEF002", 83, 12},
      {"DEF002", 88, 12}, {"GEN001", 0, 0}};
  const auto check = [&](const StreamOptions& opts) {
    db::Design design = freshTarget(tc);
    const ParseResult res = lefdef::parseDefStream(text, design, opts);
    ASSERT_EQ(res.diags.size(), want.size());
    EXPECT_EQ(res.errorCount(), 11u);
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("diag " + std::to_string(i));
      EXPECT_EQ(res.diags[i].code, want[i].code);
      EXPECT_EQ(res.diags[i].loc.line, want[i].line);
      EXPECT_EQ(res.diags[i].loc.col, want[i].col);
    }
    EXPECT_EQ(res.diags.front().message,
              "component references unknown master '~BUFX2'");
    EXPECT_EQ(res.diags.back().message, "too many errors; giving up");
    EXPECT_EQ(design.instances.size(), 40u);
    EXPECT_TRUE(design.nets.empty());
    EXPECT_EQ(db::designFingerprint(design), 0x9aa6c5943908e038ULL);
  };
  {
    SCOPED_TRACE("one chunk");
    check(oneChunk(/*recover=*/true, /*maxErrors=*/10));
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    check(tinyChunks(threads, /*recover=*/true, /*maxErrors=*/10));
  }
}

TEST(StreamEquivalence, StrictModeThrowsTheFileFirstError) {
  const benchgen::Testcase tc = smallCase();
  // No TRACKS corruption: the first error sits inside a COMPONENTS chunk,
  // so the lowest-failing-job rethrow is what is under test here.
  const std::string text =
      corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/false);

  // The file's first error, as the former single-pass parser reported it.
  const auto check = [&](const StreamOptions& opts) {
    db::Design design = freshTarget(tc);
    try {
      lefdef::parseDefStream(text, design, opts);
      FAIL() << "strict parse should have thrown";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.diag.code, "DEF002");
      EXPECT_EQ(e.diag.loc.line, 43u);
      EXPECT_EQ(e.diag.loc.col, 11u);
      EXPECT_EQ(e.diag.message,
                "component references unknown master '~BUFX2'");
    }
    // A strict-mode throw leaves the target design untouched.
    EXPECT_TRUE(design.instances.empty());
    EXPECT_TRUE(design.nets.empty());
    EXPECT_TRUE(design.name.empty());
  };
  {
    SCOPED_TRACE("one chunk");
    check(oneChunk());
  }
  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    check(tinyChunks(threads));
  }
}

// ------------------------------------------------------- file-backed forms

class StreamFileTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().reset(); }
  void TearDown() override { util::FaultRegistry::instance().reset(); }

  static std::string writeTemp(const std::string& name,
                               const std::string& text) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream f(path, std::ios::binary);
    f << text;
    return path;
  }
};

TEST_F(StreamFileTest, FileParseMatchesInMemoryParse) {
  const benchgen::Testcase tc = smallCase();
  const std::string defPath =
      writeTemp("stream_ok.def", lefdef::writeDef(*tc.design));
  const std::string lefPath =
      writeTemp("stream_ok.lef", lefdef::writeLef(*tc.tech, *tc.lib));

  db::Tech tech;
  db::Library lib;
  IngestStats lefStats;
  EXPECT_TRUE(
      lefdef::parseLefFile(lefPath, tech, lib, ParseOptions{}, &lefStats)
          .ok());
  EXPECT_EQ(tech.layers().size(), tc.tech->layers().size());
  EXPECT_EQ(lib.masters().size(), tc.lib->masters().size());
  EXPECT_GT(lefStats.bytes, 0u);

  db::Design fromFile;
  fromFile.tech = &tech;
  fromFile.lib = &lib;
  IngestStats stats;
  EXPECT_TRUE(
      lefdef::parseDefFile(defPath, fromFile, tinyChunks(4), &stats).ok());
  EXPECT_GT(stats.parseSeconds, 0.0);
  EXPECT_EQ(stats.bytes, std::filesystem::file_size(defPath));

  db::Design inMemory = freshTarget(tc);
  lefdef::parseDef(lefdef::writeDef(*tc.design), inMemory);
  EXPECT_EQ(db::designFingerprint(fromFile), db::designFingerprint(inMemory));
}

TEST_F(StreamFileTest, IoFaultPointsFireOnTheStreamingPath) {
  const benchgen::Testcase tc = smallCase();
  const std::string defPath =
      writeTemp("stream_fault.def", lefdef::writeDef(*tc.design));
  const std::string lefPath =
      writeTemp("stream_fault.lef", lefdef::writeLef(*tc.tech, *tc.lib));

  ASSERT_TRUE(util::FaultRegistry::instance().configure("def.io"));
  db::Design design = freshTarget(tc);
  EXPECT_THROW(lefdef::parseDefFile(defPath, design, tinyChunks(1)),
               util::FaultInjected);

  ASSERT_TRUE(util::FaultRegistry::instance().configure("lef.io"));
  db::Tech tech;
  db::Library lib;
  EXPECT_THROW(lefdef::parseLefFile(lefPath, tech, lib, ParseOptions{}),
               util::FaultInjected);
}

TEST_F(StreamFileTest, MissingFileThrowsLocatedIoDiag) {
  db::Design design;
  try {
    lefdef::parseDefFile("/nonexistent/no_such.def", design, tinyChunks(1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.code, "IO001");
    EXPECT_EQ(e.diag.loc.file, "/nonexistent/no_such.def");
  }
}

// ------------------------------------------- sharded unique-inst extraction

TEST(ShardedUnique, AnyThreadCountMatchesSerialExtraction) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[1], /*scale=*/0.02);
  const db::UniqueInstances serial =
      db::extractUniqueInstances(*tc.design);
  for (const int threads : {1, 2, 3, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const db::UniqueInstances sharded =
        db::extractUniqueInstances(*tc.design, threads);
    EXPECT_EQ(sharded.classOf, serial.classOf);
    ASSERT_EQ(sharded.classes.size(), serial.classes.size());
    for (std::size_t c = 0; c < serial.classes.size(); ++c) {
      SCOPED_TRACE("class " + std::to_string(c));
      EXPECT_EQ(sharded.classes[c].master, serial.classes[c].master);
      EXPECT_EQ(sharded.classes[c].orient, serial.classes[c].orient);
      EXPECT_EQ(sharded.classes[c].offsets, serial.classes[c].offsets);
      EXPECT_EQ(sharded.classes[c].representative,
                serial.classes[c].representative);
      EXPECT_EQ(sharded.classes[c].members, serial.classes[c].members);
    }
  }
}

TEST(ShardedUnique, OracleResultIdenticalOnStreamedDesign) {
  // End to end on the new front end: stream-parse a generated case, then
  // check the oracle (whose session index now builds via the sharded
  // extraction) produces byte-identical access at different thread counts.
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design design = freshTarget(tc);
  ASSERT_TRUE(
      lefdef::parseDefStream(text, design, tinyChunks(/*threads=*/0)).ok());

  const auto runWith = [&](int threads) {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.numThreads = threads;
    return core::PinAccessOracle(design, cfg).run();
  };
  const core::OracleResult base = runWith(1);
  for (const int threads : {2, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::OracleResult res = runWith(threads);
    EXPECT_EQ(res.unique.classOf, base.unique.classOf);
    EXPECT_EQ(res.chosenPattern, base.chosenPattern);
    ASSERT_EQ(res.classes.size(), base.classes.size());
    for (std::size_t c = 0; c < base.classes.size(); ++c) {
      EXPECT_EQ(res.classes[c].pinOrder, base.classes[c].pinOrder);
      ASSERT_EQ(res.classes[c].patterns.size(),
                base.classes[c].patterns.size());
      for (std::size_t p = 0; p < base.classes[c].patterns.size(); ++p) {
        EXPECT_EQ(res.classes[c].patterns[p].apIdx,
                  base.classes[c].patterns[p].apIdx);
      }
    }
  }
}

TEST(ShardedUnique, IncrementalSessionStaysEquivalentOnStreamedDesign) {
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design design = freshTarget(tc);
  ASSERT_TRUE(
      lefdef::parseDefStream(text, design, tinyChunks(/*threads=*/4)).ok());

  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = 4;
  core::OracleSession session(design, cfg);

  // Class indices are NOT compared: the session keeps them stable across
  // mutations (empty classes persist) while a fresh batch renumbers, so
  // equivalence is judged on per-instance access, which is index-free.
  const auto expectMatchesBatch = [&]() {
    core::PinAccessOracle fresh(design, cfg);
    const core::OracleResult batch = fresh.run();
    EXPECT_EQ(batch.chosenPattern, session.chosenPattern());
    const core::OracleResult snap = session.snapshot();
    for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
      const int cls = batch.unique.classOf[i];
      if (cls < 0 || batch.classes[cls].pinAps.empty()) continue;
      const int numPins = static_cast<int>(batch.classes[cls].pinAps.size());
      for (int p = 0; p < numPins; ++p) {
        const auto apA = batch.chosenAp(design, i, p);
        const auto apB = snap.chosenAp(design, i, p);
        ASSERT_EQ(apA.has_value(), apB.has_value())
            << "inst " << i << " pin " << p;
        if (apA) {
          EXPECT_EQ(apA->loc, apB->loc) << "inst " << i << " pin " << p;
        }
      }
    }
  };
  expectMatchesBatch();

  // One of each mutation kind, checked against a fresh batch run each time
  // (the batch run itself goes through the sharded extraction too).
  session.moveInstance(0, geom::Point{design.rows[1].origin.x,
                                      design.rows[1].origin.y});
  expectMatchesBatch();

  db::Instance clone = design.instances[2];
  clone.name = "streamed_clone";
  clone.origin = design.rows[0].origin;
  session.addInstance(clone);
  expectMatchesBatch();

  session.removeInstance(1);
  expectMatchesBatch();
}

}  // namespace
}  // namespace pao
