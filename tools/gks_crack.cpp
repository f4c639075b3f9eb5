// gks-crack: command-line front end to the cracking library.
//
// Modes (mutually exclusive):
//   (default)            brute force over a charset/length range
//   --mask PATTERN       mask attack (?l ?u ?d ?s ?a, literals)
//   --wordlist FILE      dictionary attack (one word per line)
//   --markov FILE        likelihood-ordered fixed-length search, per-
//                        position character order trained on FILE
//                        (uses --charset and --max as the length)
//
// Common options:
//   --algo md5|sha1          hash algorithm            [md5]
//   --hash HEX               target digest (repeatable)
//   --batch FILE             file of digests, one hex per line
//   --charset NAME|custom:S  lower|upper|digits|alpha|alnum|printable
//   --min N / --max N        key length range          [1 / 5]
//   --salt-prefix S / --salt-suffix S
//   --mangle                 dictionary case mangling (as-is/Cap/UPPER)
//   --rules common|FILE      dictionary mangling rules (hashcat-style
//                            subset; FILE = one rule per line)
//   --suffix-mask PATTERN    hybrid: dictionary x mask tail
//   --threads N              worker threads            [hardware]
//   --json                   machine-readable result on stdout (keys,
//                            throughput, chunks the threads claimed)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/generator_crack.h"
#include "core/multi_crack.h"
#include "keyspace/charset.h"
#include "keyspace/dictionary.h"
#include "keyspace/keyspace_generator.h"
#include "keyspace/markov.h"
#include "keyspace/mask.h"
#include "keyspace/rules.h"
#include "support/error.h"
#include "support/json.h"
#include "support/table.h"

namespace {

using namespace gks;

struct Options {
  hash::Algorithm algorithm = hash::Algorithm::kMd5;
  std::vector<std::string> hashes;
  std::string charset_name = "lower";
  unsigned min_length = 1;
  unsigned max_length = 5;
  hash::SaltSpec salt;
  std::optional<std::string> mask;
  std::optional<std::string> wordlist;
  std::optional<std::string> markov_corpus;
  bool mangle = false;
  std::optional<std::string> rules;
  std::optional<std::string> suffix_mask;
  std::size_t threads = 0;
  bool json = false;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --hash HEX [--hash HEX ...] [options]\n"
               "       %s --batch FILE [options]\n"
               "see the header of tools/gks_crack.cpp for all options\n",
               argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], "missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algo") {
      const std::string v = need_value(i);
      if (v == "md5") {
        opt.algorithm = hash::Algorithm::kMd5;
      } else if (v == "sha1") {
        opt.algorithm = hash::Algorithm::kSha1;
      } else {
        usage(argv[0], "unsupported --algo (md5|sha1)");
      }
    } else if (arg == "--hash") {
      opt.hashes.push_back(need_value(i));
    } else if (arg == "--batch") {
      std::ifstream in(need_value(i));
      if (!in) usage(argv[0], "cannot open --batch file");
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) opt.hashes.push_back(line);
      }
    } else if (arg == "--charset") {
      opt.charset_name = need_value(i);
    } else if (arg == "--min") {
      opt.min_length = static_cast<unsigned>(std::stoul(need_value(i)));
    } else if (arg == "--max") {
      opt.max_length = static_cast<unsigned>(std::stoul(need_value(i)));
    } else if (arg == "--salt-prefix") {
      opt.salt = {hash::SaltPosition::kPrefix, need_value(i)};
    } else if (arg == "--salt-suffix") {
      opt.salt = {hash::SaltPosition::kSuffix, need_value(i)};
    } else if (arg == "--mask") {
      opt.mask = need_value(i);
    } else if (arg == "--wordlist") {
      opt.wordlist = need_value(i);
    } else if (arg == "--markov") {
      opt.markov_corpus = need_value(i);
    } else if (arg == "--mangle") {
      opt.mangle = true;
    } else if (arg == "--rules") {
      opt.rules = need_value(i);
    } else if (arg == "--suffix-mask") {
      opt.suffix_mask = need_value(i);
    } else if (arg == "--threads") {
      opt.threads = std::stoul(need_value(i));
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], ("unknown option: " + arg).c_str());
    }
  }
  if (opt.hashes.empty()) usage(argv[0], "no target hashes given");
  const int modes = (opt.mask ? 1 : 0) + (opt.wordlist ? 1 : 0) +
                    (opt.markov_corpus ? 1 : 0);
  if (modes > 1) {
    usage(argv[0], "--mask, --wordlist and --markov are mutually exclusive");
  }
  return opt;
}

std::vector<std::string> load_words(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open wordlist: " + path);
  std::vector<std::string> words;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) words.push_back(line);
  }
  return words;
}

int report_json(const core::MultiCrackResult& result) {
  json::Writer w;
  w.begin_object()
      .key("cracked").value(static_cast<std::uint64_t>(result.cracked))
      .key("targets_total")
      .value(static_cast<std::uint64_t>(result.targets.size()))
      .key("tested").value(result.tested.to_string())
      .key("intervals").value(result.intervals)
      .key("elapsed_s").value(result.elapsed_s)
      .key("keys_per_s")
      .value(result.elapsed_s > 0
                 ? result.tested.to_double() / result.elapsed_s
                 : 0.0)
      .key("filter_gate_hits").value(result.filter_gate_hits)
      .key("filter_false_positives").value(result.filter_false_positives)
      .key("targets").begin_array();
  for (const auto& t : result.targets) {
    w.begin_object()
        .key("digest").value(t.digest_hex)
        .key("found").value(t.found);
    if (t.found) w.key("key").value(t.key);
    w.end_object();
  }
  w.end_array().end_object();
  std::printf("%s\n", w.str().c_str());
  return result.cracked == result.targets.size() ? 0 : 1;
}

int report(const core::MultiCrackResult& result, bool json) {
  if (json) return report_json(result);
  TablePrinter table;
  table.header({"digest", "verdict", "key"});
  for (const auto& t : result.targets) {
    table.row({t.digest_hex, t.found ? "CRACKED" : "not found",
               t.found ? t.key : "-"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("%zu of %zu recovered; tested %s candidates in %.2f s "
              "(%.2f Mkeys/s)\n",
              result.cracked, result.targets.size(),
              result.tested.to_string().c_str(), result.elapsed_s,
              result.tested.to_double() / result.elapsed_s / 1e6);
  return result.cracked == result.targets.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);

    if (opt.mask) {
      const keyspace::MaskGenerator mask(*opt.mask);
      if (!opt.json) {
        std::printf("mask attack: %s candidates\n",
                    mask.size().to_string().c_str());
      }
      return report(core::crack_generator(mask, opt.algorithm, opt.hashes,
                                          opt.salt, opt.threads),
                    opt.json);
    }

    if (opt.markov_corpus) {
      const keyspace::MarkovOrderedGenerator markov(
          keyspace::Charset::by_name(opt.charset_name), opt.max_length,
          load_words(*opt.markov_corpus));
      if (!opt.json) {
        std::printf("markov-ordered search: %s candidates of length %u, "
                    "likely ones first\n",
                    markov.size().to_string().c_str(), opt.max_length);
      }
      return report(core::crack_generator(markov, opt.algorithm, opt.hashes,
                                          opt.salt, opt.threads),
                    opt.json);
    }

    if (opt.wordlist && opt.rules) {
      const std::vector<std::string> words = load_words(*opt.wordlist);
      const keyspace::RuleSet rules =
          *opt.rules == "common" ? keyspace::RuleSet::common()
                                 : keyspace::RuleSet(load_words(*opt.rules));
      const keyspace::RuledDictionaryGenerator gen(words, rules);
      if (!opt.json) {
        std::printf("rule-based dictionary attack: %s candidates "
                    "(%zu words x %zu rules)\n",
                    gen.size().to_string().c_str(), words.size(),
                    rules.size());
      }
      return report(core::crack_generator(gen, opt.algorithm, opt.hashes,
                                          opt.salt, opt.threads),
                    opt.json);
    }

    if (opt.wordlist) {
      const keyspace::DictionaryGenerator words(
          load_words(*opt.wordlist),
          opt.mangle ? keyspace::DictionaryGenerator::Mangle::kCommonCase
                     : keyspace::DictionaryGenerator::Mangle::kNone);
      if (opt.suffix_mask) {
        const keyspace::MaskGenerator tail(*opt.suffix_mask);
        const keyspace::HybridGenerator hybrid(words, tail);
        if (!opt.json) {
          std::printf("hybrid attack: %s candidates\n",
                      hybrid.size().to_string().c_str());
        }
        return report(core::crack_generator(hybrid, opt.algorithm,
                                            opt.hashes, opt.salt,
                                            opt.threads),
                      opt.json);
      }
      if (!opt.json) {
        std::printf("dictionary attack: %s candidates\n",
                    words.size().to_string().c_str());
      }
      return report(core::crack_generator(words, opt.algorithm, opt.hashes,
                                          opt.salt, opt.threads),
                    opt.json);
    }

    core::MultiCrackRequest request;
    request.algorithm = opt.algorithm;
    request.target_hexes = opt.hashes;
    request.charset = keyspace::Charset::by_name(opt.charset_name);
    request.min_length = opt.min_length;
    request.max_length = opt.max_length;
    request.salt = opt.salt;
    if (!opt.json) {
      std::printf(
          "brute force: %s candidates (charset %zu, lengths %u..%u)\n",
          request.space_size().to_string().c_str(),
          request.charset.size(), request.min_length, request.max_length);
    }
    return report(core::multi_crack(request, opt.threads), opt.json);
  } catch (const gks::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
