#pragma once

#include <string>
#include <vector>

#include "support/json.h"

namespace gks::bench {

/// Versioned machine-readable benchmark recording. Every JSON-emitting
/// bench writes the same envelope so CI can diff a fresh run's key
/// shape against a recording committed at the repo root:
///
///   {
///     "schema_version": 1,
///     "bench": "<name>",
///     "git_rev": "<short rev, +dirty if uncommitted, or "unknown">",
///     "date": "<UTC, YYYY-MM-DDTHH:MM:SSZ>",
///     "entries": [ {...}, {...} ]
///   }
///
/// Entries are bench-specific flat objects rendered one per line, so
/// committed recordings diff cleanly run to run.
class Recording {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit Recording(std::string bench_name);

  /// Opens the next entry object; fill it with key()/value() calls on
  /// the returned writer, then close it with end_entry().
  json::Writer& begin_entry();
  void end_entry();

  /// The full document, trailing newline included.
  std::string render() const;

  /// Renders to `path`, truncating any previous recording. Throws on
  /// I/O failure.
  void write(const std::string& path) const;

  /// `git rev-parse --short HEAD`, with "+dirty" appended when tracked
  /// files differ from HEAD, or "unknown" when git or the work tree is
  /// unavailable.
  static std::string git_rev();
  /// The current UTC time, ISO-8601 with a Z suffix.
  static std::string utc_now();

 private:
  std::string name_;
  std::vector<std::string> entries_;  ///< pre-rendered entry objects
  json::Writer entry_;
  bool open_ = false;
};

}  // namespace gks::bench
