// The tokenizer of the LEF/DEF parsers. LEF/DEF are whitespace-separated
// token streams where ';', '(' and ')' are standalone tokens, '#' starts a
// comment, and double-quoted strings are single tokens.
//
// Every token carries its byte offset, resolved to a 1-based line/column
// and source excerpt through a LineIndex, so parse errors carry a full
// util::Diag (file:line:col, stable error code, source excerpt). Parsers
// have two modes:
//   - strict (default): the first error throws ParseError, whose .diag
//     holds the located diagnostic (what() is the formatted form);
//   - recovery (ParseOptions::recover): errors are accumulated into a
//     ParseResult and the parser resyncs via syncTo() and keeps going.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geom/geom.hpp"
#include "util/diag.hpp"

namespace pao::lefdef {

struct ParseError : std::runtime_error {
  /// Located diagnostic; what() returns diag.format().
  explicit ParseError(util::Diag d)
      : std::runtime_error(d.format()), diag(std::move(d)) {
  }
  /// Legacy message-only form (no location, generic code GEN000).
  explicit ParseError(const std::string& msg) : std::runtime_error(msg) {
    diag.code = "GEN000";
    diag.message = msg;
  }

  util::Diag diag;
};

/// How to parse: strict (throw on first error) or recovering (accumulate
/// diagnostics into a ParseResult, resync, continue).
struct ParseOptions {
  std::string file = "<input>";  ///< name shown in diagnostics
  bool recover = false;
  std::size_t maxErrors = 64;  ///< recovery gives up (GEN001) past this
};

struct ParseResult {
  std::vector<util::Diag> diags;

  std::size_t errorCount() const;
  bool ok() const { return errorCount() == 0; }
};

/// Observability of one file-backed or DEF ingest run (all fields are
/// outputs).
struct IngestStats {
  std::size_t bytes = 0;       ///< input size
  std::size_t chunks = 0;      ///< DEF section chunks parsed
  std::size_t components = 0;  ///< instances appended
  std::size_t nets = 0;        ///< nets appended
  bool mapped = false;         ///< file came from mmap (vs read fallback)
  double parseSeconds = 0;     ///< wall seconds (file forms only)
};

/// The GEN001 "too many errors; giving up" diagnostic that recovery-mode
/// parsers append when ParseOptions::maxErrors is reached.
util::Diag tooManyErrors(const std::string& file);

/// Rounds `v` to integer, clamping magnitudes to ±2^50 and NaN to 0. All
/// integers the parsers derive from source numbers go through this so that
/// downstream geometry arithmetic cannot overflow int64 on hostile input;
/// legitimate LEF/DEF values are orders of magnitude below the clamp.
long long roundClamped(double v);

/// Newline index over the full source text: maps byte offsets to 1-based
/// line/column and extracts excerpt lines. Built once per file, shared
/// read-only by every lexer over that text (including chunk workers).
class LineIndex {
 public:
  explicit LineIndex(std::string_view text);

  std::size_t lineOf(std::size_t offset) const;
  std::size_t colOf(std::size_t offset) const;
  /// The full source line `line` lives on (1-based; "" when unknown).
  std::string lineText(std::size_t line) const;

 private:
  std::string_view text_;
  std::vector<std::size_t> lineStart_;
};

/// Lazy tokenizer: tokens are string_views into the source (a FileSource
/// mapping or a caller-owned string), produced on demand, so a
/// multi-hundred-MB DEF costs no token vector and no per-token allocation.
/// A Lexer is bounded to a byte range [begin, end) of the full text — the
/// whole file for the serial parsers, one entity-aligned chunk for a DEF
/// chunk worker — while line/column/excerpt information always resolves
/// against the full text through the shared LineIndex, so a chunk
/// worker's diagnostics are the ones a whole-file lexer would report.
class Lexer {
 public:
  /// Tokenizes fullText[begin, end). `fullText` and `lines` (an index of
  /// the same text) must outlive the lexer. Ranges are token-aligned by
  /// construction (the DEF chunker only cuts at entity starts).
  Lexer(std::string_view fullText, std::size_t begin, std::size_t end,
        const LineIndex& lines, std::string_view file = "<input>");
  /// Whole-text form.
  Lexer(std::string_view fullText, const LineIndex& lines,
        std::string_view file = "<input>")
      : Lexer(fullText, 0, fullText.size(), lines, file) {}

  bool done() { return buffered(0) == nullptr; }
  /// Current token without consuming ("" at end of input).
  std::string_view peek(std::size_t ahead = 0);
  /// Consumes and returns the current token.
  std::string_view next();
  /// Consumes the current token iff it equals `tok`.
  bool accept(std::string_view tok);
  /// Consumes the current token, raising ParseError unless it equals `tok`.
  void expect(std::string_view tok);
  /// Consumes tokens up to and including the next ';'. Raises LEX001 if
  /// input ends first (truncated statement).
  void skipStatement();

  /// Consumes a token and parses it as a decimal number (may be fractional).
  double nextDouble();
  /// Consumes a token and parses it as an integer.
  long long nextInt();
  /// nextDouble() scaled by dbuPerMicron and rounded — LEF distances.
  geom::Coord nextDbu(int dbuPerMicron);

  /// Count of tokens consumed — recovery progress guard (only ever
  /// compared for equality).
  std::size_t pos() const { return consumed_; }
  /// Byte offset (into the full text) where the current token starts, or
  /// the range end at end of input. Drives the DEF section chunker.
  std::size_t byteOffset();

  /// Repositions the scan to byte `offset`, discarding the lookahead
  /// buffer. pos() is preserved (it only guards recovery progress). Used
  /// by the DEF reader to re-enter the serial grammar at a junk statement
  /// a chunk worker stopped at.
  void seekTo(std::size_t offset);

  /// Error-recovery resync: consumes tokens until a ';' has been consumed
  /// or the next token is one of `stops` (or input ends). Unlike
  /// skipStatement() this refuses to eat a following statement whose
  /// keyword is a known resync point.
  void syncTo(std::initializer_list<std::string_view> stops);

  /// Located diagnostic at the current token (diagHere; the last consumed
  /// token at end of input) or at the most recently consumed token
  /// (diagPrev — for semantic errors discovered after consuming, e.g.
  /// "unknown master 'X'").
  util::Diag diagHere(std::string_view code, std::string message);
  util::Diag diagPrev(std::string_view code, std::string message);

 private:
  struct Tok {
    std::string_view text;
    std::size_t off = 0;
  };

  /// Pointer to the ahead-th unconsumed token, or nullptr past the end.
  const Tok* buffered(std::size_t ahead);
  /// Consumes the (already buffered) current token `t`.
  void consume(const Tok& t);
  util::Diag diagAt(std::size_t off, bool located, std::string_view code,
                    std::string message);

  std::string_view text_;  ///< full source (excerpts, bounds)
  std::size_t cur_;        ///< scan position
  std::size_t end_;        ///< range end (treated as end of input)
  const LineIndex* lines_;
  std::string file_;
  std::vector<Tok> buf_;  ///< lookahead buffer: buf_[head_..) pending
  std::size_t head_ = 0;
  std::size_t consumed_ = 0;
  std::size_t lastOff_ = 0;  ///< offset of most recently consumed token
  bool haveLast_ = false;
};

}  // namespace pao::lefdef
