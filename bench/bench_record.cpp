#include "bench_record.h"

#include <stdio.h>

#include <cstdlib>
#include <ctime>
#include <fstream>

#include "support/error.h"

namespace gks::bench {

Recording::Recording(std::string bench_name) : name_(std::move(bench_name)) {}

json::Writer& Recording::begin_entry() {
  GKS_REQUIRE(!open_, "previous recording entry was not closed");
  entry_ = json::Writer();
  entry_.begin_object();
  open_ = true;
  return entry_;
}

void Recording::end_entry() {
  GKS_REQUIRE(open_, "no recording entry is open");
  entry_.end_object();
  entries_.push_back(entry_.str());
  open_ = false;
}

std::string Recording::render() const {
  GKS_REQUIRE(!open_, "cannot render with an entry still open");
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kSchemaVersion) + ",\n";
  out += "  \"bench\": \"" + json::escape(name_) + "\",\n";
  out += "  \"git_rev\": \"" + json::escape(git_rev()) + "\",\n";
  out += "  \"date\": \"" + json::escape(utc_now()) + "\",\n";
  out += "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "    " + entries_[i];
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void Recording::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  GKS_REQUIRE(out.is_open(), "cannot open recording for write: " + path);
  out << render();
  out.flush();
  GKS_REQUIRE(static_cast<bool>(out), "failed writing recording: " + path);
}

std::string Recording::git_rev() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string rev;
  if (fgets(buf, sizeof buf, pipe) != nullptr) rev = buf;
  const int status = pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  if (status != 0 || rev.empty()) return "unknown";
  // Numbers measured on uncommitted changes must not pass for HEAD's.
  if (std::system("git diff --quiet HEAD -- 2>/dev/null") != 0) {
    rev += "+dirty";
  }
  return rev;
}

std::string Recording::utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm = {};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace gks::bench
