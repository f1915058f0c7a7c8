#include "lefdef/def_parser.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lefdef/source.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/fault.hpp"
#include "util/interner.hpp"
#include "util/jobs.hpp"

namespace pao::lefdef {

namespace {

using db::Design;

// ---------------------------------------------------------------- grammar
// Entity parsers are called with the leading '-' already consumed and
// never consume past the entity's terminating ';' — the invariant the
// chunker relies on to cut COMPONENTS/NETS sections at after-';' token
// boundaries.

void parseRowEntity(Lexer& lex, db::Design& design) {
  lex.expect("ROW");
  db::Row row;
  row.name = std::string(lex.next());
  row.site = std::string(lex.next());
  row.origin.x = lex.nextInt();
  row.origin.y = lex.nextInt();
  row.orient = geom::orientFromString(lex.next());
  if (lex.accept("DO")) {
    row.numSites = static_cast<int>(lex.nextInt());
    lex.expect("BY");
    lex.nextInt();  // rows in y (always 1 for std rows)
    lex.expect("STEP");
    row.siteWidth = lex.nextInt();
    lex.nextInt();  // y step
  }
  lex.expect(";");
  design.rows.push_back(std::move(row));
}

void parseTracksEntity(Lexer& lex, db::Design& design) {
  lex.expect("TRACKS");
  db::TrackPattern tp;
  const std::string_view axis = lex.next();
  // DEF TRACKS X: vertical tracks (fixed x); TRACKS Y: horizontal tracks.
  tp.axis = axis == "X" ? db::Dir::kVertical : db::Dir::kHorizontal;
  tp.start = lex.nextInt();
  lex.expect("DO");
  tp.count = static_cast<int>(lex.nextInt());
  lex.expect("STEP");
  tp.step = lex.nextInt();
  lex.expect("LAYER");
  const std::string layerName(lex.next());
  const db::Layer* layer = design.tech->findLayer(layerName);
  if (layer == nullptr) {
    throw ParseError(lex.diagPrev(
        "DEF001", "TRACKS references unknown layer '" + layerName + "'"));
  }
  tp.layer = layer->index;
  lex.expect(";");
  design.trackPatterns.push_back(tp);
}

/// One COMPONENTS entity (leading '-' consumed). `resolveMaster` maps a
/// master name to a const db::Master* (null for unknown -> DEF002).
template <typename ResolveMaster>
db::Instance parseComponentEntity(Lexer& lex, ResolveMaster&& resolveMaster) {
  db::Instance inst;
  inst.name = std::string(lex.next());
  const std::string masterName(lex.next());
  inst.master = resolveMaster(masterName);
  if (inst.master == nullptr) {
    throw ParseError(lex.diagPrev(
        "DEF002",
        "component references unknown master '" + masterName + "'"));
  }
  while (!lex.accept(";")) {
    if (lex.accept("+")) {
      const std::string_view kw = lex.next();
      if (kw == "PLACED" || kw == "FIXED") {
        lex.expect("(");
        inst.origin.x = lex.nextInt();
        inst.origin.y = lex.nextInt();
        lex.expect(")");
        inst.orient = geom::orientFromString(lex.next());
      }
    } else {
      lex.next();
    }
  }
  return inst;
}

/// One PINS entity (leading '-' consumed).
db::IoPin parsePinEntity(Lexer& lex, const db::Tech& tech) {
  db::IoPin pin;
  pin.name = std::string(lex.next());
  geom::Rect shape;
  geom::Point placed;
  while (!lex.accept(";")) {
    if (lex.accept("+")) {
      const std::string_view kw = lex.next();
      if (kw == "LAYER") {
        const db::Layer* layer = tech.findLayer(lex.next());
        pin.layer = layer ? layer->index : -1;
        lex.expect("(");
        const geom::Coord x1 = lex.nextInt();
        const geom::Coord y1 = lex.nextInt();
        lex.expect(")");
        lex.expect("(");
        const geom::Coord x2 = lex.nextInt();
        const geom::Coord y2 = lex.nextInt();
        lex.expect(")");
        shape = {x1, y1, x2, y2};
      } else if (kw == "PLACED" || kw == "FIXED") {
        lex.expect("(");
        placed.x = lex.nextInt();
        placed.y = lex.nextInt();
        lex.expect(")");
        lex.next();  // orient
      }
    } else {
      lex.next();
    }
  }
  pin.rect = shape.translate(placed.x, placed.y);
  return pin;
}

/// One NETS entity (leading '-' consumed). `findInst` maps a component
/// name to its instance index (-1 for unknown -> DEF004); instance pin and
/// IO pin names resolve against `design`, which must already hold the
/// COMPONENTS and PINS sections (in-file-order parses guarantee this).
template <typename FindInst>
db::Net parseNetEntity(Lexer& lex, const db::Design& design,
                       FindInst&& findInst) {
  db::Net net;
  net.name = std::string(lex.next());
  while (!lex.accept(";")) {
    if (lex.peek() == "+") {
      // '+' attributes (ROUTED wiring, USE, ...) follow the terms; skip
      // the remainder of this net statement.
      while (!lex.accept(";")) lex.next();
      break;
    }
    if (lex.accept("(")) {
      const std::string a(lex.next());
      db::NetTerm term;
      if (a != "PIN") {
        term.instIdx = findInst(a);
        if (term.instIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF004", "net references unknown component '" + a + "'"));
        }
      }
      const std::string b(lex.next());
      if (a == "PIN") {
        for (int i = 0; i < static_cast<int>(design.ioPins.size()); ++i) {
          if (design.ioPins[i].name == b) {
            term.ioPinIdx = i;
            break;
          }
        }
        if (term.ioPinIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF003", "net references unknown IO pin '" + b + "'"));
        }
      } else {
        const db::Master& m = *design.instances[term.instIdx].master;
        for (int i = 0; i < static_cast<int>(m.pins.size()); ++i) {
          if (m.pins[i].name == b) {
            term.pinIdx = i;
            break;
          }
        }
        if (term.pinIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF005",
              "net references unknown pin '" + b + "' on '" + a + "'"));
        }
      }
      lex.expect(")");
      net.terms.push_back(term);
    } else {
      lex.next();
    }
  }
  return net;
}

/// Top-level statements outside the entity sections: DESIGN, UNITS,
/// DIEAREA, ROW, TRACKS, END, and the skip-unknown default. Returns false
/// when the current token opens a section (COMPONENTS/PINS/NETS) the
/// caller must handle.
bool parseSimpleDefStatement(Lexer& lex, db::Design& design, int& dbu) {
  const std::string_view tok = lex.peek();
  if (tok == "COMPONENTS" || tok == "PINS" || tok == "NETS") return false;
  if (tok == "DESIGN") {
    lex.next();
    design.name = std::string(lex.next());
    lex.expect(";");
  } else if (tok == "UNITS") {
    lex.next();
    lex.expect("DISTANCE");
    lex.expect("MICRONS");
    dbu = static_cast<int>(lex.nextInt());
    lex.expect(";");
  } else if (tok == "DIEAREA") {
    lex.next();
    lex.expect("(");
    const geom::Coord x1 = lex.nextInt();
    const geom::Coord y1 = lex.nextInt();
    lex.expect(")");
    lex.expect("(");
    const geom::Coord x2 = lex.nextInt();
    const geom::Coord y2 = lex.nextInt();
    lex.expect(")");
    lex.expect(";");
    design.dieArea = {x1, y1, x2, y2};
  } else if (tok == "ROW") {
    parseRowEntity(lex, design);
  } else if (tok == "TRACKS") {
    parseTracksEntity(lex, design);
  } else if (tok == "END") {
    lex.next();
    if (!lex.done()) lex.next();
  } else {
    lex.skipStatement();
  }
  return true;
}

// ----------------------------------------------------------------- reader

/// Entity layout of one COMPONENTS/NETS section: byte offsets of every
/// `-` entity start (positions where the section loop begins an
/// iteration) plus the offset where the entity region ends (the END
/// keyword, trailing junk, or end of input).
struct SectionScan {
  std::vector<std::size_t> starts;
  std::size_t regionEnd = 0;
};

/// Byte range of one chunk plus the number of entities it holds.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t entities = 0;
};

/// "No early stop" sentinel for ChunkOut::earlyStop.
constexpr std::size_t kNoStop = static_cast<std::size_t>(-1);

/// Per-chunk parse output. Instances/nets commit in chunk order, so the
/// merged result is independent of the schedule.
template <typename Entity>
struct ChunkOut {
  std::vector<Entity> parsed;
  /// Recovery-mode diagnostics, each paired with parsed.size() at the
  /// time it was raised, so the merge interleaves entities and
  /// diagnostics in file order.
  std::vector<std::pair<std::size_t, util::Diag>> diags;
  /// Strict mode: the first entity error in this chunk. The in-order merge
  /// rethrows the earliest chunk's failure so the file-first error wins
  /// even when a later chunk finished sooner.
  std::optional<util::Diag> failure;
  /// Byte offset of a non-entity statement token the chunk's loop stopped
  /// at (junk after a successfully parsed entity). The serial section loop
  /// ends there, so the merge discards every later chunk and the reader
  /// re-enters the serial grammar at this offset.
  std::size_t earlyStop = kNoStop;
};

class DefReader {
 public:
  DefReader(std::string_view text, Design& design, const StreamOptions& opts,
            IngestStats* stats)
      : text_(text),
        lines_(text),
        opts_(opts),
        lex_(text, lines_, opts.parse.file),
        design_(design),
        stats_(stats) {}

  ParseResult run() {
    local_ = design_;
    try {
      // A strict-mode ParseError propagates from here with the caller's
      // design untouched (the partial parse lives in the discarded
      // local_).
      while (!lex_.done()) {
        const std::size_t before = lex_.pos();
        try {
          step();
        } catch (const ParseError& e) {
          if (!opts_.parse.recover) throw;
          record(e.diag);
          resync(before, {"DESIGN", "UNITS", "DIEAREA", "ROW", "TRACKS",
                          "COMPONENTS", "PINS", "NETS", "END"});
        }
      }
    } catch (const Bail&) {
      // maxErrors reached; res_ already ends with GEN001 and local_ holds
      // everything committed before the bailing error.
    }
    local_.buildInstanceIndex();
    const std::size_t instBefore = design_.instances.size();
    const std::size_t netsBefore = design_.nets.size();
    design_ = std::move(local_);
    finishStats(design_.instances.size() - instBefore,
                design_.nets.size() - netsBefore);
    return std::move(res_);
  }

 private:
  /// Thrown (recovery mode only) once maxErrors is reached.
  struct Bail {};

  /// Records one error in file order; at the maxErrors-th error appends
  /// GEN001 and stops the parse.
  void record(const util::Diag& d) {
    res_.diags.push_back(d);
    if (res_.errorCount() >= opts_.parse.maxErrors) {
      res_.diags.push_back(tooManyErrors(opts_.parse.file));
      throw Bail{};
    }
  }

  void resync(std::size_t before,
              std::initializer_list<std::string_view> stops) {
    if (lex_.pos() == before && !lex_.done()) lex_.next();
    lex_.syncTo(stops);
  }

  void step() {
    if (parseSimpleDefStatement(lex_, local_, dbu_)) return;
    const std::string_view tok = lex_.peek();
    if (tok == "COMPONENTS") {
      parseComponents();
    } else if (tok == "PINS") {
      parsePins();
    } else {
      parseNets();
    }
  }

  /// Tokenizes (without parsing) through a section's entity region,
  /// recording entity-start offsets. Entities begin at a `-` in statement
  /// position (= right after a consumed ';', where forEachEntity tests);
  /// an entity's bytes run to the next statement position, so a malformed
  /// entity that swallows following `-` tokens stays in one piece exactly
  /// as the serial parse would consume it. Leaves lex_ at the region end.
  SectionScan scanEntities() {
    SectionScan scan;
    while (!lex_.done() && lex_.peek() == "-") {
      scan.starts.push_back(lex_.byteOffset());
      lex_.next();
      while (!lex_.done() && lex_.next() != ";") {
      }
      // Junk tokens between this entity's ';' and the next '-'/END belong
      // to this entity's byte range: the serial parse reaches them either
      // inside a failed entity's resync (which skips ahead to '-'/END) or
      // at the loop condition after a successful parse, where the section
      // stops. The chunk runner reproduces both (see earlyStop).
      while (!lex_.done() && lex_.peek() != "-" && lex_.peek() != "END") {
        lex_.next();
      }
    }
    scan.regionEnd = lex_.byteOffset();
    return scan;
  }

  /// Groups scanned entities into byte-contiguous chunks of roughly
  /// opts_.chunkBytes. Chunking granularity is schedule only — results
  /// are committed per entity in file order regardless.
  std::vector<ChunkRange> makeChunks(const SectionScan& scan) const {
    std::vector<ChunkRange> chunks;
    if (scan.starts.empty()) return chunks;
    const std::size_t target = std::max<std::size_t>(1, opts_.chunkBytes);
    ChunkRange cur{scan.starts[0], 0, 0};
    for (std::size_t i = 0; i < scan.starts.size(); ++i) {
      const std::size_t entityEnd =
          i + 1 < scan.starts.size() ? scan.starts[i + 1] : scan.regionEnd;
      if (cur.entities > 0 && entityEnd - cur.begin > target) {
        cur.end = scan.starts[i];
        chunks.push_back(cur);
        cur = {scan.starts[i], 0, 0};
      }
      ++cur.entities;
      cur.end = entityEnd;
    }
    chunks.push_back(cur);
    return chunks;
  }

  /// Runs one entity chunk: the section loop over a range-bounded Lexer,
  /// with per-entity recovery (error counting is deferred to the in-order
  /// merge). `makeParseOne` is invoked once per chunk on the
  /// worker thread, inside the chunk's ArenaScope, and returns the
  /// entity-parsing callable — chunk-local state (the master-resolution
  /// cache) lives in that closure, on the worker's arena.
  template <typename Entity, typename MakeParseOne>
  void runChunks(const std::vector<ChunkRange>& chunks,
                 std::vector<ChunkOut<Entity>>& outs,
                 MakeParseOne makeParseOne) {
    outs.resize(chunks.size());
    util::JobGraph graph;
    graph.addJobRange(chunks.size(), [&](std::size_t ci) {
      util::ArenaScope scope(util::scratchArena());
      const ChunkRange& range = chunks[ci];
      ChunkOut<Entity>& out = outs[ci];
      out.parsed.reserve(range.entities);
      Lexer cl(text_, range.begin, range.end, lines_, opts_.parse.file);
      auto parseOne = makeParseOne();
      while (cl.accept("-")) {
        const std::size_t before = cl.pos();
        try {
          out.parsed.push_back(parseOne(cl));
        } catch (const ParseError& e) {
          if (!opts_.parse.recover) {
            // Strict mode: stop this chunk at its first error. Jobs never
            // throw; the in-order merge rethrows the earliest chunk's
            // failure so an earlyStop in an earlier chunk still wins.
            out.failure = e.diag;
            return;
          }
          out.diags.emplace_back(out.parsed.size(), e.diag);
          if (cl.pos() == before && !cl.done()) cl.next();
          cl.syncTo({"-", "END"});
        }
      }
      // The loop exits mid-chunk only on junk that isn't an entity start
      // (chunks end at entity boundaries, and a failed entity's resync
      // already consumed its trailing junk). The serial section loop ends
      // at this exact token.
      if (!cl.done()) out.earlyStop = cl.byteOffset();
    });
    // Chunk jobs are independent and added in file order; strict-mode
    // errors and early stops are resolved by the in-order merge.
    graph.run(opts_.numThreads);
    if (stats_ != nullptr) stats_->chunks += chunks.size();
  }

  /// Merges chunk outputs in chunk (= file) order: entities append to
  /// `sink` and diagnostics flow through record() interleaved at their
  /// file positions, so a maxErrors bail-out keeps exactly the entities
  /// before the bailing error. A strict-mode failure rethrows here
  /// (earliest chunk = file-first error). Returns the first chunk's
  /// earlyStop offset — everything after it is discarded, entities and
  /// diagnostics alike, because the section ends there — or kNoStop.
  template <typename Entity>
  std::size_t mergeChunks(std::vector<ChunkOut<Entity>>& outs,
                          std::vector<Entity>& sink) {
    std::size_t total = 0;
    for (const ChunkOut<Entity>& out : outs) total += out.parsed.size();
    sink.reserve(sink.size() + total);
    for (ChunkOut<Entity>& out : outs) {
      std::size_t committed = 0;
      const auto commitUpTo = [&](std::size_t n) {
        for (; committed < n; ++committed) {
          sink.push_back(std::move(out.parsed[committed]));
        }
      };
      for (const auto& [parsedBefore, d] : out.diags) {
        commitUpTo(parsedBefore);
        record(d);
      }
      commitUpTo(out.parsed.size());
      if (out.failure) throw ParseError(std::move(*out.failure));
      if (out.earlyStop != kNoStop) return out.earlyStop;
    }
    return kNoStop;
  }

  void parseComponents() {
    lex_.expect("COMPONENTS");
    lex_.nextInt();
    lex_.expect(";");
    const SectionScan scan = scanEntities();
    const std::vector<ChunkRange> chunks = makeChunks(scan);
    std::vector<ChunkOut<db::Instance>> outs;
    // Per-chunk master resolution: a tiny arena-backed cache in front of
    // Library::findMaster. Libraries hold tens of masters while chunks
    // hold thousands of components, so a linear probe over the names this
    // chunk has already seen beats a map lookup per component. Key bytes
    // are copied into the chunk's arena scratch (the incoming std::string
    // dies with the entity); the cache vector itself is arena-allocated
    // and reclaimed wholesale by the chunk's ArenaScope rewind.
    using CacheEntry = std::pair<std::string_view, const db::Master*>;
    runChunks(chunks, outs, [this] {
      return [this, cache = util::ArenaVector<CacheEntry>()](
                 Lexer& cl) mutable {
        return parseComponentEntity(cl, [&](const std::string& name) {
          for (const CacheEntry& e : cache) {
            if (e.first == name) return e.second;
          }
          const db::Master* m = local_.lib->findMaster(name);
          char* buf = static_cast<char*>(
              util::scratchArena().allocate(std::max<std::size_t>(
                                                name.size(), 1),
                                            1));
          std::memcpy(buf, name.data(), name.size());
          cache.emplace_back(std::string_view(buf, name.size()), m);
          return m;
        });
      };
    });
    const std::size_t stop = mergeChunks(outs, local_.instances);
    // On an early stop, re-enter the serial grammar at the junk statement
    // the chunk worker stopped at; expect() then fails exactly where a
    // one-chunk section loop would.
    if (stop != kNoStop) lex_.seekTo(stop);
    lex_.expect("END");
    lex_.expect("COMPONENTS");
  }

  void parsePins() {
    lex_.expect("PINS");
    lex_.nextInt();
    lex_.expect(";");
    while (lex_.accept("-")) {
      const std::size_t before = lex_.pos();
      try {
        local_.ioPins.push_back(parsePinEntity(lex_, *local_.tech));
      } catch (const ParseError& e) {
        if (!opts_.parse.recover) throw;
        record(e.diag);
        resync(before, {"-", "END"});
      }
    }
    lex_.expect("END");
    lex_.expect("PINS");
    local_.buildInstanceIndex();
  }

  void parseNets() {
    lex_.expect("NETS");
    lex_.nextInt();
    lex_.expect(";");
    // Component references resolve through an interner over the merged
    // instances: the interned id is dense in first-appearance order, so
    // idToInst is a flat array and each lookup is one hash probe with no
    // std::string construction. Duplicate names keep the last index, the
    // same last-wins rule as Design::buildInstanceIndex.
    util::StringInterner names;
    std::vector<int> idToInst;
    idToInst.reserve(local_.instances.size());
    for (int i = 0; i < static_cast<int>(local_.instances.size()); ++i) {
      const std::uint32_t id = names.intern(local_.instances[i].name);
      if (id == static_cast<std::uint32_t>(idToInst.size())) {
        idToInst.push_back(i);
      } else {
        idToInst[id] = i;
      }
    }
    const auto findInst = [&](const std::string& name) -> int {
      const std::uint32_t id = names.find(name);
      return id == util::StringInterner::kNone ? -1 : idToInst[id];
    };
    const SectionScan scan = scanEntities();
    const std::vector<ChunkRange> chunks = makeChunks(scan);
    std::vector<ChunkOut<db::Net>> outs;
    runChunks(chunks, outs, [this, &findInst] {
      return [this, &findInst](Lexer& cl) {
        return parseNetEntity(cl, local_, findInst);
      };
    });
    const std::size_t stop = mergeChunks(outs, local_.nets);
    if (stop != kNoStop) lex_.seekTo(stop);
    lex_.expect("END");
    lex_.expect("NETS");
  }

  void finishStats(std::size_t components, std::size_t nets) {
    if (stats_ != nullptr) {
      stats_->bytes = text_.size();
      stats_->components += components;
      stats_->nets += nets;
    }
    PAO_COUNTER_ADD("pao.ingest.def_bytes",
                    static_cast<long long>(text_.size()));
    PAO_COUNTER_ADD("pao.ingest.components", static_cast<long long>(components));
    PAO_COUNTER_ADD("pao.ingest.nets", static_cast<long long>(nets));
  }

  std::string_view text_;
  LineIndex lines_;
  StreamOptions opts_;
  Lexer lex_;
  Design& design_;
  IngestStats* stats_;
  Design local_;
  ParseResult res_;
  int dbu_ = 2000;
};

}  // namespace

void parseDef(std::string_view text, db::Design& design) {
  parseDef(text, design, ParseOptions{});
}

ParseResult parseDef(std::string_view text, db::Design& design,
                     const ParseOptions& opts) {
  StreamOptions so;
  so.parse = opts;
  so.numThreads = 1;
  return parseDefStream(text, design, so);
}

ParseResult parseDefStream(std::string_view text, db::Design& design,
                           const StreamOptions& opts, IngestStats* stats) {
  return DefReader(text, design, opts, stats).run();
}

ParseResult parseDefFile(const std::string& path, db::Design& design,
                         const StreamOptions& opts, IngestStats* stats) {
  PAO_FAULT_INJECT("def.io");
  const auto t0 = std::chrono::steady_clock::now();
  FileSource src(path);
  ParseResult r = parseDefStream(src.text(), design, opts, stats);
  if (stats != nullptr) {
    stats->mapped = src.mapped();
    stats->parseSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return r;
}

}  // namespace pao::lefdef
