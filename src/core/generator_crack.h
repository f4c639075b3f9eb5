#pragma once

#include <string>
#include <vector>

#include "core/multi_crack.h"
#include "hash/digest.h"
#include "hash/salted.h"
#include "keyspace/generator.h"

namespace gks::core {

/// Exhaustively tests an arbitrary candidate enumeration — mask,
/// dictionary, hybrid, anything implementing keyspace::Generator —
/// against a set of digests. This is the generic C(f(i)) of the
/// Section III-A problem definition with no kernel specialization:
/// each part runs the sweep engines' full-hash loop (hash_candidates,
/// core/sweep_walk.h), which steps with the generator's `next`
/// operator, salts and fully hashes each candidate, and probes one
/// TargetIndex over the deduplicated digests
/// (hash::for_each_digest_match), so its cost does not grow with the
/// target count. Slower per candidate than the word-0 engines,
/// but it accepts any f(i), which is the pattern's whole point.
///
/// Hexes parse in either case; verdicts come back in request order,
/// and a digest listed twice resolves both slots. Stops early once
/// every digest is recovered. `threads` = 0 uses the hardware
/// concurrency.
MultiCrackResult crack_generator(const keyspace::Generator& generator,
                                 hash::Algorithm algorithm,
                                 const std::vector<std::string>& target_hexes,
                                 const hash::SaltSpec& salt = {},
                                 std::size_t threads = 0);

}  // namespace gks::core
