// File-backed input for the LEF/DEF parsers. Maps the file
// read-only with mmap where available (one copy of the bytes, shared by
// every chunk worker) and falls back to a plain read() slurp on platforms
// or filesystems where mapping fails. Either way the parser sees one
// immutable std::string_view for the file's whole lifetime, so chunk
// workers can hold sub-views with no copying or synchronization.
//
// Open failures throw lefdef::ParseError carrying an unlocated IO001 diag
// naming the file; callers inject the "lef.io" / "def.io" fault points
// *before* constructing a FileSource.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace pao::lefdef {

class FileSource {
 public:
  /// Opens and maps (or slurps) `path`. Throws lefdef::ParseError (code
  /// IO001) when the file cannot be opened.
  explicit FileSource(const std::string& path);
  ~FileSource();

  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  /// The file's bytes; valid for the FileSource's lifetime.
  std::string_view text() const { return text_; }
  std::size_t sizeBytes() const { return text_.size(); }
  /// True when the bytes are a shared read-only mapping (false: heap copy).
  bool mapped() const { return mapped_; }

 private:
  std::string_view text_;
  std::string fallback_;  ///< owns the bytes when !mapped_
  void* map_ = nullptr;
  std::size_t mapLen_ = 0;
  bool mapped_ = false;
};

}  // namespace pao::lefdef
