#include "lefdef/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace pao::lefdef {

util::Diag tooManyErrors(const std::string& file) {
  util::Diag d;
  d.code = "GEN001";
  d.loc.file = file;
  d.message = "too many errors; giving up";
  return d;
}

std::size_t ParseResult::errorCount() const {
  std::size_t n = 0;
  for (const util::Diag& d : diags) {
    if (d.severity == util::Severity::kError) ++n;
  }
  return n;
}

LineIndex::LineIndex(std::string_view text) : text_(text) {
  lineStart_.push_back(0);
  for (std::size_t i = text.find('\n'); i != std::string_view::npos;
       i = text.find('\n', i + 1)) {
    lineStart_.push_back(i + 1);
  }
}

std::size_t LineIndex::lineOf(std::size_t offset) const {
  const auto it =
      std::upper_bound(lineStart_.begin(), lineStart_.end(), offset);
  return static_cast<std::size_t>(it - lineStart_.begin());
}

std::size_t LineIndex::colOf(std::size_t offset) const {
  return offset - lineStart_[lineOf(offset) - 1] + 1;
}

std::string LineIndex::lineText(std::size_t line) const {
  if (line == 0 || line > lineStart_.size()) return std::string();
  const std::size_t begin = lineStart_[line - 1];
  std::size_t end = text_.find('\n', begin);
  if (end == std::string_view::npos) end = text_.size();
  return std::string(text_.substr(begin, end - begin));
}

Lexer::Lexer(std::string_view fullText, std::size_t begin, std::size_t end,
             const LineIndex& lines, std::string_view file)
    : text_(fullText),
      cur_(begin),
      end_(std::min(end, fullText.size())),
      lines_(&lines),
      file_(file) {}

const Lexer::Tok* Lexer::buffered(std::size_t ahead) {
  if (head_ > 0 && head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  }
  while (buf_.size() - head_ <= ahead) {
    // Scan one more token: skip whitespace and comments first.
    while (cur_ < end_) {
      const char c = text_[cur_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++cur_;
        continue;
      }
      if (c == '#') {  // comment to end of line
        while (cur_ < end_ && text_[cur_] != '\n') ++cur_;
        continue;
      }
      break;
    }
    if (cur_ >= end_) return nullptr;
    const std::size_t at = cur_;
    const char c = text_[cur_];
    if (c == ';' || c == '(' || c == ')') {
      buf_.push_back({text_.substr(cur_, 1), at});
      ++cur_;
      continue;
    }
    if (c == '"') {
      std::size_t j = cur_ + 1;
      while (j < end_ && text_[j] != '"') ++j;
      buf_.push_back({text_.substr(cur_ + 1, j - cur_ - 1), at});
      cur_ = j < end_ ? j + 1 : j;
      continue;
    }
    std::size_t j = cur_;
    while (j < end_ && !std::isspace(static_cast<unsigned char>(text_[j])) &&
           text_[j] != ';' && text_[j] != '(' && text_[j] != ')' &&
           text_[j] != '#') {
      ++j;
    }
    buf_.push_back({text_.substr(cur_, j - cur_), at});
    cur_ = j;
  }
  return &buf_[head_ + ahead];
}

std::string_view Lexer::peek(std::size_t ahead) {
  const Tok* t = buffered(ahead);
  return t != nullptr ? t->text : std::string_view();
}

void Lexer::consume(const Tok& t) {
  lastOff_ = t.off;
  haveLast_ = true;
  ++head_;
  ++consumed_;
}

std::string_view Lexer::next() {
  const Tok* t = buffered(0);
  if (t == nullptr) {
    throw ParseError(diagHere("LEX001", "unexpected end of input"));
  }
  const std::string_view text = t->text;
  consume(*t);
  return text;
}

bool Lexer::accept(std::string_view tok) {
  const Tok* t = buffered(0);
  if (t == nullptr || t->text != tok) return false;
  consume(*t);
  return true;
}

void Lexer::expect(std::string_view tok) {
  const Tok* t = buffered(0);
  if (t == nullptr || t->text != tok) {
    const std::string got =
        t == nullptr ? "end of input" : "'" + std::string(t->text) + "'";
    throw ParseError(diagHere(
        "LEX002", "expected '" + std::string(tok) + "', got " + got));
  }
  consume(*t);
}

void Lexer::skipStatement() {
  // next() raises LEX001 if input ends before the ';': a silent return at
  // end of input would leave callers' `while (!accept("END"))` loops
  // spinning forever on truncated files.
  while (next() != ";") {
  }
}

void Lexer::syncTo(std::initializer_list<std::string_view> stops) {
  while (!done()) {
    const std::string_view tok = peek();
    for (const std::string_view stop : stops) {
      if (tok == stop) return;
    }
    if (next() == ";") return;
  }
}

double Lexer::nextDouble() {
  const std::string tok(next());
  try {
    return std::stod(tok);
  } catch (const std::exception&) {
    throw ParseError(diagPrev("LEX003", "expected number, got '" + tok + "'"));
  }
}

// 2^50 DBU is ~5e8 microns at a 2000 DBU grid, far beyond any real die, so
// legitimate files are unaffected; llround on an unclamped out-of-range
// double returns an unspecified value (often LLONG_MIN), which poisons
// later sums with UB.
long long roundClamped(double v) {
  constexpr long long kMaxMagnitude = 1LL << 50;
  if (std::isnan(v)) return 0;
  const double lim = static_cast<double>(kMaxMagnitude);
  if (v >= lim) return kMaxMagnitude;
  if (v <= -lim) return -kMaxMagnitude;
  return std::llround(v);
}

long long Lexer::nextInt() {
  return roundClamped(nextDouble());
}

geom::Coord Lexer::nextDbu(int dbuPerMicron) {
  return static_cast<geom::Coord>(roundClamped(nextDouble() * dbuPerMicron));
}

std::size_t Lexer::byteOffset() {
  const Tok* t = buffered(0);
  return t != nullptr ? t->off : end_;
}

void Lexer::seekTo(std::size_t offset) {
  cur_ = offset;
  buf_.clear();
  head_ = 0;
}

util::Diag Lexer::diagHere(std::string_view code, std::string message) {
  // At end of input point at the most recently consumed token — the caller
  // is reporting "input ended while I expected more", and the last token
  // is where.
  const Tok* t = buffered(0);
  if (t != nullptr) return diagAt(t->off, true, code, std::move(message));
  return diagAt(lastOff_, haveLast_, code, std::move(message));
}

util::Diag Lexer::diagPrev(std::string_view code, std::string message) {
  // Before the first consumed token, point at the current one.
  if (haveLast_) return diagAt(lastOff_, true, code, std::move(message));
  const Tok* t = buffered(0);
  if (t != nullptr) return diagAt(t->off, true, code, std::move(message));
  return diagAt(0, false, code, std::move(message));
}

util::Diag Lexer::diagAt(std::size_t off, bool located, std::string_view code,
                         std::string message) {
  util::Diag d;
  d.code = std::string(code);
  d.message = std::move(message);
  d.loc.file = file_;
  if (located) {
    d.loc.line = lines_->lineOf(off);
    d.loc.col = lines_->colOf(off);
    d.excerpt = lines_->lineText(d.loc.line);
  }
  return d;
}

}  // namespace pao::lefdef
