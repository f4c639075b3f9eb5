#pragma once

#include <string>
#include <vector>

#include "core/multi_crack.h"
#include "hash/digest.h"
#include "hash/salted.h"
#include "keyspace/charset.h"

namespace gks::core {

/// One stored credential of an auditing session (Section I: "periodic
/// cracking tests, called auditing sessions, to assess the reliability
/// of the employees' passwords").
struct AuditEntry {
  std::string user;
  hash::Algorithm algorithm = hash::Algorithm::kMd5;
  std::string digest_hex;
  hash::SaltSpec salt;  ///< per-user salt, stored beside the hash
};

/// Per-credential audit verdict.
struct AuditVerdict {
  std::string user;
  bool cracked = false;
  std::string recovered_key;
  u128 tested{0};
  double elapsed_s = 0;
};

/// Policy of the audit: what key shapes are tried before a password
/// is declared resistant.
struct AuditPolicy {
  keyspace::Charset charset = keyspace::Charset::lower();
  unsigned min_length = 1;
  unsigned max_length = 5;
  std::size_t threads = 0;
};

/// Runs the brute-force audit over all entries; salted hashes cost no
/// more than unsalted ones since the salt is known (Section I). Two or
/// more MD5/SHA1 entries sharing an (algorithm, salt) are cracked by one
/// multi_crack sweep, each verdict carrying the group's `tested` and
/// `elapsed_s`; any other entry gets its own single-target LocalCracker
/// run. Verdicts come back in entry order.
std::vector<AuditVerdict> run_audit(const std::vector<AuditEntry>& entries,
                                    const AuditPolicy& policy);

/// Helper for tests and examples: builds the stored entry for a known
/// plaintext (what the IT department's password database would hold).
AuditEntry make_entry(std::string user, hash::Algorithm algorithm,
                      const std::string& plaintext, hash::SaltSpec salt);

}  // namespace gks::core
