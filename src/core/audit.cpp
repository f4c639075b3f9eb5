#include "core/audit.h"

#include <map>
#include <tuple>

#include "core/cracker.h"
#include "support/error.h"

namespace gks::core {

std::vector<AuditVerdict> run_audit(const std::vector<AuditEntry>& entries,
                                    const AuditPolicy& policy) {
  // Credentials sharing an algorithm and salt hash every candidate the
  // same way, so a group of two or more is one batch sweep.
  std::map<std::tuple<hash::Algorithm, hash::SaltPosition, std::string>,
           std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AuditEntry& entry = entries[i];
    groups[{entry.algorithm, entry.salt.position, entry.salt.salt}]
        .push_back(i);
  }

  std::vector<AuditVerdict> verdicts(entries.size());
  const LocalCracker cracker(policy.threads);
  for (const auto& [key, members] : groups) {
    const AuditEntry& first = entries[members.front()];
    if (members.size() == 1 || first.algorithm == hash::Algorithm::kSha256) {
      // A lone credential (a per-user salt) keeps the single-target
      // engine: its kernels test against one known digest and outrun
      // a one-target batch sweep. Batch sweeps do not cover SHA256.
      for (const std::size_t i : members) {
        const CrackResult r = cracker.crack(
            {.algorithm = first.algorithm, .target_hex = entries[i].digest_hex,
             .charset = policy.charset, .min_length = policy.min_length,
             .max_length = policy.max_length, .salt = first.salt});
        verdicts[i] = {entries[i].user, r.found, r.key, r.tested, r.elapsed_s};
      }
      continue;
    }
    MultiCrackRequest request{
        .algorithm = first.algorithm, .target_hexes = {},
        .charset = policy.charset, .min_length = policy.min_length,
        .max_length = policy.max_length, .salt = first.salt};
    for (const std::size_t i : members) {
      request.target_hexes.push_back(entries[i].digest_hex);
    }
    const MultiCrackResult r = multi_crack(request, policy.threads);
    for (std::size_t m = 0; m < members.size(); ++m) {
      verdicts[members[m]] = {entries[members[m]].user, r.targets[m].found,
                              r.targets[m].key, r.tested, r.elapsed_s};
    }
  }
  return verdicts;
}

AuditEntry make_entry(std::string user, hash::Algorithm algorithm,
                      const std::string& plaintext, hash::SaltSpec salt) {
  GKS_REQUIRE(algorithm != hash::Algorithm::kSha256,
              "audits support MD5 and SHA1 credentials");
  AuditEntry entry;
  entry.user = std::move(user);
  entry.algorithm = algorithm;
  entry.salt = std::move(salt);
  entry.digest_hex = salted_digest_hex(algorithm, entry.salt, plaintext);
  return entry;
}

}  // namespace gks::core
