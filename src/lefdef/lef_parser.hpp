// LEF subset parser: UNITS, LAYER (routing + cut with the rules the DRC
// engine models), VIA, SITE, and MACRO (CLASS/SIZE/PIN/PORT/OBS).
// Populates a db::Tech and db::Library.
#pragma once

#include <string>
#include <string_view>

#include "db/lib.hpp"
#include "db/tech.hpp"
#include "lefdef/lexer.hpp"

namespace pao::lefdef {

/// Parses LEF text into `tech` and `lib`. Throws ParseError on malformed
/// input. Statements outside the supported subset are skipped.
void parseLef(std::string_view text, db::Tech& tech, db::Library& lib);

/// Located-diagnostics form. With opts.recover the parser resyncs after
/// each error (accumulating diagnostics in the result, never throwing);
/// without it the first error throws ParseError carrying the same Diag.
/// Entities parsed before (or partially, around) an error stay in
/// tech/lib — callers that need all-or-nothing must check ok() and drop.
ParseResult parseLef(std::string_view text, db::Tech& tech, db::Library& lib,
                     const ParseOptions& opts);

/// parseLef over a FileSource view of `path` (mmap with read() fallback).
/// Injects the "lef.io" fault point before opening.
ParseResult parseLefFile(const std::string& path, db::Tech& tech,
                         db::Library& lib, const ParseOptions& opts,
                         IngestStats* stats = nullptr);

}  // namespace pao::lefdef
