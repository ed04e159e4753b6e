// Seeded inputs shared by the load generator (drive.cc) and the traced
// in-process replay (layers.cc): the query streams, the Zipf pool, and the
// held-out ingest tail. Every generator here is the benchmark's own
// (splitmix64, explicit CDF), so the same seed yields the same inputs on
// every commit, whatever the program's own RNG does.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/corpus.h"
#include "ontology/ontology.h"

namespace perfbench {

/// Fixed shape of every workload (README "Inputs").
inline constexpr size_t kTopK = 10;
/// Queries of the warm-up pass (bypassing the result cache).
inline constexpr size_t kWarmupQueries = 4000;
/// Timed searches a search workload completes at the least.
inline constexpr size_t kMinSearches = 100000;
/// text-zipf and pattern-zipf: the daemon's merged-result cache, the query pool drawn
/// from, and the Zipf exponent over pool ranks. The cache size and the
/// exponent are the ones bench/perf_daemon.cc serves its Zipf load with;
/// the pool is 8x the cache, so the tail beyond it keeps missing (hit
/// ratio about 0.84, README "Inputs and seeds"). run.py passes the same
/// cache size to ctxrankd --cache.
inline constexpr size_t kCacheEntries = 8192;
inline constexpr size_t kZipfPool = 8 * kCacheEntries;
inline constexpr double kZipfExponent = 1.1;
/// ingest-live: papers held out of the base and ingested per second of
/// --seconds, and stream searches after each ack.
inline constexpr size_t kIngestPerSecond = 15;
inline constexpr size_t kStreamPerIngest = 1;
/// Searches compared bitwise before and after /compact.
inline constexpr size_t kCompactSamples = 64;

/// splitmix64: tiny, fast, and fully specified.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Distinct query strings built from ontology term-name words (so each
/// query routes to contexts) plus corpus title vocabulary. Every string a
/// stream returns is new to the stream and to every string excluded.
class QueryStream {
 public:
  QueryStream(const ctxrank::ontology::Ontology& onto,
              const ctxrank::corpus::Corpus& corpus, uint64_t seed);

  /// The next distinct query.
  std::string Next();
  /// Marks `q` as used, so Next() never returns it.
  void Exclude(const std::string& q) { seen_.insert(q); }

 private:
  std::vector<std::string> term_words_;
  std::vector<std::string> corpus_words_;
  std::unordered_set<std::string> seen_;
  SplitMix rng_;
};

/// Zipf(s) draws over ranks [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  SplitMix rng_;
};

/// Seed mixing for the independent streams of one run.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix m(seed * 0x100000001b3ULL + stream);
  return m.Next();
}
enum : uint64_t {
  kWarmupStream = 1,
  kTimedStream = 2,
  kPoolStream = 3,
  kZipfStream = 4,
  kSampleStream = 5,
};

/// Papers held out of the ingest-live base for a run of `seconds`.
inline size_t HeldOut(double seconds) {
  const size_t n = static_cast<size_t>(seconds * kIngestPerSecond + 0.5);
  return n < 10 ? 10 : n;
}

/// The ingest-live base: the first `base` papers of `world` and their
/// annotation evidence over `num_terms` terms; nullopt if a paper is
/// refused.
std::optional<ctxrank::corpus::Corpus> BaseCorpus(
    const ctxrank::corpus::Corpus& world, size_t num_terms, size_t base);

/// Terms each paper is annotation evidence for (the corpus keeps the
/// inverse map).
std::vector<std::vector<ctxrank::ontology::TermId>> EvidenceByPaper(
    const ctxrank::corpus::Corpus& corpus, size_t num_terms);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
