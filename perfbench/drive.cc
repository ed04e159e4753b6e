// The load generator: one single-threaded closed loop over one CTXQ1
// connection to a running ctxrankd, checking every answer. Prints
// progress lines and, last, one JSON object the runner (run.py) reads.
#include "perfbench.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "context/context_io.h"
#include "corpus/corpus_io.h"
#include "ontology/obo_io.h"
#include "report.h"
#include "serve/net.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace net = ctxrank::serve::net;
using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

std::string SearchFrame(const std::string& query, bool exact, bool bypass) {
  net::WireRequest req;
  req.query = query;
  req.options.top_k = kTopK;
  req.options.exact_scan = exact;
  req.options.bypass_cache = bypass;
  return net::EncodeSearchRequest(req);
}

/// One run's client state: the connection, the checks' verdicts, and the
/// operation counts.
class Driver {
 public:
  Driver(const Flags& flags, Report* report) : flags_(flags), report_(report) {}

  int Main();

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
    return false;
  }
  /// One request/answer round trip on the main connection (depth 1).
  bool RoundTrip(const std::string& frame, uint8_t want_type,
                 std::string* body);
  /// Decodes and checks one search answer.
  bool CheckAnswer(const std::string& body, bool membership);
  /// The closed loop at depth 1: `next()` yields the next query; runs for
  /// --seconds and at least kMinSearches searches. Fills latencies and
  /// keeps a seeded reservoir of (query, answer) samples.
  bool TimedSearchLoop(const std::function<std::string()>& next,
                       size_t reservoir);
  /// Every reservoir sample must equal the exact-scan, cache-bypassing
  /// answer to the same query.
  bool CheckSamplesAgainstExact(const char* what);
  bool Warmup(QueryStream* warm);
  /// The median over whole `width`-second windows of the timed loop of
  /// each window's completion rate (searches per second).
  double WindowMedian(double width) const;
  bool TextCold();
  /// text-zipf and pattern-zipf: Zipf draws through the merged-result
  /// cache of a 2-shard daemon.
  bool Zipf();
  bool IngestLive();

  const Flags& flags_;
  Report* report_;
  WireConn conn_;
  uint16_t port_ = 0;
  std::optional<ctxrank::ontology::Ontology> onto_;
  std::optional<ctxrank::corpus::Corpus> corpus_;
  std::optional<ctxrank::context::ContextAssignment> assignment_;
  std::vector<double> search_us_;
  /// Completion times (seconds into the timed loop) of search_us_.
  std::vector<double> done_s_;
  double timed_s_ = 0.0;
  size_t attempted_ = 0;
  std::vector<std::pair<std::string, std::string>> samples_;
  std::string error_;
};

bool Driver::RoundTrip(const std::string& frame, uint8_t want_type,
                       std::string* body) {
  uint8_t type = 0;
  if (!conn_.Send(frame) || !conn_.Read(&type, body)) {
    return Fail("connection to the daemon lost");
  }
  if (type != want_type) return Fail("unexpected frame type");
  return true;
}

bool Driver::CheckAnswer(const std::string& body, bool membership) {
  const auto decoded = net::DecodeSearchResponseBody(body);
  if (!decoded.ok()) return Fail("undecodable search answer");
  const std::string bad = CheckSearchResponse(
      decoded.value(), kTopK, membership ? &*assignment_ : nullptr);
  return bad.empty() || Fail(bad);
}

bool Driver::Warmup(QueryStream* warm) {
  std::string body;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    if (!RoundTrip(SearchFrame(warm->Next(), false, true),
                   net::kFrameSearchResponse, &body) ||
        !CheckAnswer(body, false)) {
      return false;
    }
  }
  return true;
}

bool Driver::TimedSearchLoop(const std::function<std::string()>& next,
                             size_t reservoir) {
  SplitMix pick(StreamSeed(flags_.seed, kSampleStream));
  std::string body;
  const auto t0 = Clock::now();
  for (;;) {
    const std::string query = next();
    const auto sent = Clock::now();
    ++attempted_;
    if (!RoundTrip(SearchFrame(query, false, false), net::kFrameSearchResponse,
                   &body)) {
      return false;
    }
    const auto now = Clock::now();
    const double elapsed_s = std::chrono::duration<double>(now - t0).count();
    search_us_.push_back(UsSince(sent, now));
    done_s_.push_back(elapsed_s);
    if (!CheckAnswer(body, true)) return false;
    // Reservoir sampling keeps a uniform sample over the whole run.
    const size_t done = search_us_.size();
    if (samples_.size() < reservoir) {
      samples_.emplace_back(query, body);
    } else {
      const size_t j = pick.Below(done);
      if (j < reservoir) samples_[j] = {query, body};
    }
    if (done >= kMinSearches && elapsed_s >= flags_.seconds) break;
  }
  timed_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
  return true;
}

double Driver::WindowMedian(double width) const {
  const size_t n = static_cast<size_t>(timed_s_ / width);
  if (n == 0) return static_cast<double>(done_s_.size()) / timed_s_;
  std::vector<double> per_window(n, 0.0);
  for (const double t : done_s_) {
    const size_t w = static_cast<size_t>(t / width);
    if (w < n) per_window[w] += 1.0 / width;
  }
  return Quantile(per_window, 0.5);
}

bool Driver::CheckSamplesAgainstExact(const char* what) {
  std::string exact;
  for (const auto& [query, answer] : samples_) {
    if (!RoundTrip(SearchFrame(query, true, true), net::kFrameSearchResponse,
                   &exact)) {
      return false;
    }
    const std::string bad = CheckSameAnswer(answer, exact);
    if (!bad.empty()) return Fail(std::string(what) + " '" + query + "': " + bad);
  }
  report_->Count(std::string(what) + "_checked", samples_.size());
  return true;
}

bool Driver::TextCold() {
  QueryStream warm(*onto_, *corpus_, StreamSeed(flags_.seed, kWarmupStream));
  if (!Warmup(&warm)) return false;
  // The timed stream never repeats a query, warm-up ones included.
  QueryStream timed(*onto_, *corpus_, StreamSeed(flags_.seed, kTimedStream));
  QueryStream replay(*onto_, *corpus_, StreamSeed(flags_.seed, kWarmupStream));
  for (size_t i = 0; i < kWarmupQueries; ++i) timed.Exclude(replay.Next());
  if (!TimedSearchLoop([&] { return timed.Next(); }, 400)) return false;
  return CheckSamplesAgainstExact("pruned_vs_exact");
}

bool Driver::Zipf() {
  QueryStream gen(*onto_, *corpus_, StreamSeed(flags_.seed, kPoolStream));
  std::vector<std::string> pool(kZipfPool);
  for (auto& q : pool) q = gen.Next();
  // Warm-up queries come from outside the pool and bypass the cache, so
  // the timed phase starts with an empty result cache.
  if (!Warmup(&gen)) return false;
  int status = 0;
  const std::string before = HttpGet(port_, "/metrics", &status);
  if (status != 200) return Fail("/metrics unavailable");
  ZipfSampler zipf(kZipfPool, kZipfExponent,
                   StreamSeed(flags_.seed, kZipfStream));
  if (!TimedSearchLoop([&] { return pool[zipf.Next()]; }, 150)) {
    return false;
  }
  const std::string after = HttpGet(port_, "/metrics", &status);
  if (status != 200) return Fail("/metrics unavailable");
  const double hits = PromCounter(after, "ctxrank_sharded_cache_hits_total") -
                      PromCounter(before, "ctxrank_sharded_cache_hits_total");
  const double misses =
      PromCounter(after, "ctxrank_sharded_cache_misses_total") -
      PromCounter(before, "ctxrank_sharded_cache_misses_total");
  if (hits <= 0 || misses <= 0) return Fail("result cache not exercised");
  report_->Value("cache_hit_ratio", hits / (hits + misses));
  if (!CheckSamplesAgainstExact("cached_vs_exact")) return false;
  // A query answered twice in a row is served from the cache the second
  // time; it must equal the exact scan.
  std::string first, cached, exact;
  for (size_t r = 0; r < 32; ++r) {
    const std::string& q = pool[r];
    if (!RoundTrip(SearchFrame(q, false, false), net::kFrameSearchResponse,
                   &first) ||
        !RoundTrip(SearchFrame(q, false, false), net::kFrameSearchResponse,
                   &cached) ||
        !RoundTrip(SearchFrame(q, true, true), net::kFrameSearchResponse,
                   &exact)) {
      return false;
    }
    const std::string bad = CheckSameAnswer(cached, exact);
    if (!bad.empty()) return Fail("cached answer '" + q + "': " + bad);
  }
  return true;
}

bool Driver::IngestLive() {
  const size_t total = corpus_->size();
  const size_t held = HeldOut(flags_.seconds);
  const size_t base = total - held;
  const auto evidence = EvidenceByPaper(*corpus_, onto_->size());
  int status = 0;
  std::string health = HttpGet(port_, "/healthz", &status);
  if (status != 200 || JsonInt(health, "papers") != static_cast<long long>(base)) {
    return Fail("daemon base is not the corpus minus the held-out tail");
  }
  const long long gen0 = JsonInt(health, "generation");

  QueryStream warm(*onto_, *corpus_, StreamSeed(flags_.seed, kWarmupStream));
  if (!Warmup(&warm)) return false;
  QueryStream stream(*onto_, *corpus_, StreamSeed(flags_.seed, kTimedStream));

  std::vector<double> ingest_us, fresh_us;
  std::string body;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < held; ++i) {
    const auto& p = corpus_->paper(static_cast<uint32_t>(base + i));
    net::WireAddPaper add;
    add.title = p.title;
    add.abstract_text = p.abstract_text;
    add.body = p.body;
    add.index_terms = p.index_terms;
    add.authors.assign(p.authors.begin(), p.authors.end());
    add.references.assign(p.references.begin(), p.references.end());
    add.evidence_terms.assign(evidence[base + i].begin(),
                              evidence[base + i].end());
    auto sent = Clock::now();
    ++attempted_;
    if (!RoundTrip(net::EncodeAddPaperRequest(add),
                   net::kFrameAddPaperResponse, &body)) {
      return false;
    }
    ingest_us.push_back(UsSince(sent, Clock::now()));
    const auto ack = net::DecodeAddPaperResponseBody(body);
    if (!ack.ok()) return Fail("undecodable ingest ack");
    const std::string bad =
        CheckIngestAck(ack.value(), static_cast<uint32_t>(base + i));
    if (!bad.empty()) return Fail(bad);
    // The first search after the ack, for the new paper's title, then a
    // few from the seeded stream.
    for (size_t s = 0; s <= kStreamPerIngest; ++s) {
      const std::string q = s == 0 ? p.title : stream.Next();
      sent = Clock::now();
      ++attempted_;
      if (!RoundTrip(SearchFrame(q, false, false), net::kFrameSearchResponse,
                     &body) ||
          !CheckAnswer(body, false)) {
        return false;
      }
      const double us = UsSince(sent, Clock::now());
      search_us_.push_back(us);
      if (s == 0) fresh_us.push_back(us);
    }
  }
  timed_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
  report_->Latencies("ingest", ingest_us);
  report_->Latencies("fresh_search", fresh_us);

  health = HttpGet(port_, "/healthz", &status);
  if (status != 200 || JsonInt(health, "papers") != static_cast<long long>(total) ||
      JsonInt(health, "delta_papers") != static_cast<long long>(held)) {
    return Fail("/healthz does not count base + ingested papers");
  }
  // Searches answered just before /compact must read the same after it.
  QueryStream sample(*onto_, *corpus_, StreamSeed(flags_.seed, kSampleStream));
  std::vector<std::string> queries;
  for (size_t i = 0; i < kCompactSamples; ++i) {
    queries.push_back(i % 4 == 0
                          ? corpus_->paper(static_cast<uint32_t>(base + i % held)).title
                          : sample.Next());
  }
  std::vector<std::string> before(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!RoundTrip(SearchFrame(queries[i], false, false),
                   net::kFrameSearchResponse, &before[i]) ||
        !CheckAnswer(before[i], false)) {
      return false;
    }
  }
  const auto c0 = Clock::now();
  const std::string compact = HttpGet(port_, "/compact", &status);
  report_->Value("compact_s",
                 std::chrono::duration<double>(Clock::now() - c0).count());
  if (status != 200 || compact.find("\"ok\":true") == std::string::npos ||
      JsonInt(compact, "generation") != gen0 + 1 ||
      JsonInt(compact, "delta_papers") != 0 ||
      JsonInt(compact, "papers") != static_cast<long long>(total)) {
    return Fail("/compact did not fold the delta into the next generation");
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!RoundTrip(SearchFrame(queries[i], false, false),
                   net::kFrameSearchResponse, &body)) {
      return false;
    }
    const std::string bad = CheckSameAnswer(body, before[i]);
    if (!bad.empty()) return Fail("'" + queries[i] + "' across /compact: " + bad);
  }
  report_->Count("compact_identity_checked", queries.size());
  return true;
}

int Driver::Main() {
  port_ = static_cast<uint16_t>(flags_.port);
  auto onto = ctxrank::ontology::LoadOboFile(flags_.world + "/ontology.obo");
  auto corpus = ctxrank::corpus::LoadCorpus(flags_.world + "/corpus.txt");
  if (!onto.ok() || !corpus.ok()) {
    std::fprintf(stderr, "perfbench: cannot load the world in %s\n",
                 flags_.world.c_str());
    return 1;
  }
  onto_.emplace(std::move(onto).value());
  corpus_.emplace(std::move(corpus).value());
  if (!flags_.assignment.empty()) {
    auto a = ctxrank::context::LoadAssignment(flags_.assignment);
    if (!a.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", a.status().ToString().c_str());
      return 1;
    }
    assignment_.emplace(std::move(a).value());
  }
  std::string err;
  bool ok = conn_.Dial(port_, &err) || Fail(err);
  if (ok) {
    if (flags_.workload == "text-cold") {
      ok = TextCold();
    } else if (flags_.workload == "text-zipf" ||
               flags_.workload == "pattern-zipf") {
      ok = Zipf();
    } else if (flags_.workload == "ingest-live") {
      ok = IngestLive();
    } else {
      ok = Fail("unknown workload " + flags_.workload);
    }
  }
  report_->Count("attempted", attempted_);
  // Every operation that fails ends the run as incorrect, so a finished
  // run has none to count.
  report_->Count("failed", 0);
  report_->Value("timed_s", timed_s_);
  report_->Count("searches", search_us_.size());
  report_->Latencies("search", search_us_);
  if (timed_s_ > 0) {
    report_->Value("search_qps",
                   static_cast<double>(search_us_.size()) / timed_s_);
  }
  if (!done_s_.empty()) {
    // The shared host steals CPU from its guests in bursts of a few ms. A
    // burst stalls the request in flight, so the whole-run rate swings with
    // the neighbours' load; the windowed rate is the median over 100 ms
    // windows of the completion rate.
    report_->Value("search_qps_window", WindowMedian(0.1));
  }
  report_->Flag("correct", ok);
  if (!ok) report_->Text("error", error_);
  report_->Print();
  return ok ? 0 : 1;
}

}  // namespace

int Drive(const Flags& flags) {
  Report report;
  Driver driver(flags, &report);
  return driver.Main();
}

}  // namespace perfbench
