// The batch-file format shared by gks-jobs (local and --connect modes)
// and gks-coordd: one job per line, `key=value` tokens separated by
// whitespace, # starts a comment.
//
//   name=audit1 algo=md5 hash=HEX[,HEX...] charset=lower min=1 max=4
//       priority=2 weight=1.5 salt_suffix=pepper cancel_after=2.5
//
// Keys: name (required), hash (required, comma-separated or repeated),
// algo md5|sha1 [md5], charset lower|upper|digits|alpha|alnum|
// printable|custom:S [lower], min/max [1/4], priority [0], weight [1],
// salt_prefix/salt_suffix, cancel_after=SECS (request cancellation
// that long after the run starts), add_after=SECS:HEX[,HEX...] /
// remove_after=SECS:HEX[,HEX...] (live target mutation; repeatable).

#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "keyspace/charset.h"
#include "service/job.h"
#include "support/error.h"

namespace gks::tools {

struct TimedMutation {
  double at_s = 0;
  bool add = false;  // attach the hexes; false = detach them
  std::vector<std::string> hexes;
};

struct BatchJob {
  service::JobSpec spec;
  std::optional<double> cancel_after;
  std::vector<TimedMutation> mutations;
};

inline std::vector<std::string> split_hashes(const std::string& list) {
  std::vector<std::string> hexes;
  std::stringstream ss(list);
  std::string hex;
  while (std::getline(ss, hex, ',')) {
    if (!hex.empty()) hexes.push_back(hex);
  }
  return hexes;
}

inline TimedMutation parse_mutation(bool add, const std::string& value,
                                    std::size_t line_no) {
  const auto colon = value.find(':');
  GKS_REQUIRE(colon != std::string::npos && colon > 0,
              "batch line " + std::to_string(line_no) +
                  ": expected SECS:HEX[,HEX...], got '" + value + "'");
  TimedMutation m;
  m.at_s = std::stod(value.substr(0, colon));
  m.add = add;
  m.hexes = split_hashes(value.substr(colon + 1));
  GKS_REQUIRE(!m.hexes.empty(), "batch line " + std::to_string(line_no) +
                                    ": mutation lists no digests");
  return m;
}

inline BatchJob parse_batch_line(const std::string& line,
                                 std::size_t line_no) {
  BatchJob job;
  job.spec.request.min_length = 1;
  job.spec.request.max_length = 4;
  job.spec.request.charset = keyspace::Charset::lower();
  std::stringstream ss(line);
  std::string token;
  while (ss >> token) {
    const auto eq = token.find('=');
    GKS_REQUIRE(eq != std::string::npos && eq > 0,
                "batch line " + std::to_string(line_no) +
                    ": expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "name") {
      job.spec.name = value;
    } else if (key == "algo") {
      if (value == "md5") {
        job.spec.request.algorithm = hash::Algorithm::kMd5;
      } else if (value == "sha1") {
        job.spec.request.algorithm = hash::Algorithm::kSha1;
      } else {
        throw InvalidArgument("batch line " + std::to_string(line_no) +
                              ": unsupported algo '" + value + "'");
      }
    } else if (key == "hash") {
      for (std::string& hex : split_hashes(value)) {
        job.spec.request.target_hexes.push_back(std::move(hex));
      }
    } else if (key == "charset") {
      job.spec.request.charset = keyspace::Charset::by_name(value);
    } else if (key == "min") {
      job.spec.request.min_length = static_cast<unsigned>(std::stoul(value));
    } else if (key == "max") {
      job.spec.request.max_length = static_cast<unsigned>(std::stoul(value));
    } else if (key == "priority") {
      job.spec.priority = std::stoi(value);
    } else if (key == "weight") {
      job.spec.weight = std::stod(value);
    } else if (key == "salt_prefix") {
      job.spec.request.salt = {hash::SaltPosition::kPrefix, value};
    } else if (key == "salt_suffix") {
      job.spec.request.salt = {hash::SaltPosition::kSuffix, value};
    } else if (key == "cancel_after") {
      job.cancel_after = std::stod(value);
    } else if (key == "add_after") {
      job.mutations.push_back(parse_mutation(true, value, line_no));
    } else if (key == "remove_after") {
      job.mutations.push_back(parse_mutation(false, value, line_no));
    } else {
      throw InvalidArgument("batch line " + std::to_string(line_no) +
                            ": unknown key '" + key + "'");
    }
  }
  GKS_REQUIRE(!job.spec.name.empty(),
              "batch line " + std::to_string(line_no) + ": missing name=");
  GKS_REQUIRE(!job.spec.request.target_hexes.empty(),
              "batch line " + std::to_string(line_no) + ": missing hash=");
  return job;
}

inline std::vector<BatchJob> parse_batch(const std::string& path) {
  std::ifstream in(path);
  GKS_REQUIRE(in.is_open(), "cannot open batch file: " + path);
  std::vector<BatchJob> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash_pos = line.find('#');
    if (hash_pos != std::string::npos) line.erase(hash_pos);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    jobs.push_back(parse_batch_line(line, line_no));
  }
  GKS_REQUIRE(!jobs.empty(), "batch file has no jobs: " + path);
  return jobs;
}

}  // namespace gks::tools
