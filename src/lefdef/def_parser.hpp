// DEF subset parser: DESIGN/UNITS/DIEAREA, ROW, TRACKS, COMPONENTS, PINS,
// NETS. Populates a db::Design bound to an already-parsed Tech and Library.
//
// One reader serves every input size. It tokenizes lazily over one
// immutable view of the input (mmap-backed via FileSource for
// parseDefFile), splits the COMPONENTS and NETS sections into
// entity-aligned chunks, parses the chunks on a util::JobGraph with
// per-chunk util::Arena scratch, and commits them in file order. The
// result — design, diagnostics, recovery and GEN001 bail-out — is the same
// for one chunk or many, at any thread count:
//
//   * Chunk boundaries are only ever cut at after-';' entity starts, so
//     per-entity recovery resyncs never cross a boundary. Junk tokens
//     between an entity's ';' and the next entity stay in the preceding
//     entity's chunk; where the section loop would stop at such junk, the
//     chunk worker flags an early stop, the merge discards every later
//     chunk, and the reader re-enters the serial grammar at that byte.
//   * Strict mode: each chunk stops at its first entity error and the
//     in-order merge rethrows the earliest chunk's error (or reproduces
//     an earlier chunk's early stop), i.e. the file's first error. A
//     strict-mode throw leaves the target design untouched.
//   * Recovery mode: entities and diagnostics commit in file order. At
//     the ParseOptions::maxErrors-th error the merge appends GEN001 and
//     stops; everything before that error stays committed.
//
// The NETS section resolves component references through a
// util::StringInterner built over the just-merged instances (one hash
// probe per term, no per-lookup std::string).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "db/design.hpp"
#include "lefdef/lexer.hpp"

namespace pao::lefdef {

struct StreamOptions {
  ParseOptions parse;
  /// Worker count for the chunk jobs (util::resolveThreads semantics:
  /// 0 = hardware concurrency). Results are byte-identical at any value.
  int numThreads = 0;
  /// Target bytes per chunk; chunks never split an entity. Granularity
  /// affects scheduling only, never results.
  std::size_t chunkBytes = 1 << 20;
};

/// Parses DEF text into `design` (design.tech and design.lib must already
/// point at the technology and library the DEF references) on one thread.
/// Throws ParseError on malformed input or unknown master/pin references.
void parseDef(std::string_view text, db::Design& design);

/// Located-diagnostics form. With opts.recover a bad component/pin/net is
/// dropped and reported while the rest of its section still parses (the
/// call never throws); without it the first error throws ParseError
/// carrying the same Diag.
ParseResult parseDef(std::string_view text, db::Design& design,
                     const ParseOptions& opts);

/// parseDef with explicit chunking and worker count, plus ingest stats.
ParseResult parseDefStream(std::string_view text, db::Design& design,
                           const StreamOptions& opts,
                           IngestStats* stats = nullptr);

/// Opens `path` via FileSource (mmap with read() fallback) and runs
/// parseDefStream. Injects the "def.io" fault point before opening.
ParseResult parseDefFile(const std::string& path, db::Design& design,
                         const StreamOptions& opts,
                         IngestStats* stats = nullptr);

}  // namespace pao::lefdef
