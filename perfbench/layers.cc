// The traced run: replays the workloads' inputs in-process and times the
// calls into each module's public functions, layer by layer. Spans (name,
// start, end, parent span, request id) stay in memory and are written as
// JSON lines at the end. End-to-end numbers never come from this run.
//
// Every traced run measures every layer, whatever --workload says, so that
// each run prints the same metrics: the build ladder of both context sets,
// the text set's serving stack (engine, RequestContext, codec, daemon
// wire) on text-cold's query stream, the 2-shard text set on text-zipf's
// Zipf stream, and the mutable index on ingest-live's
// world and held-out tail.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "context/assignment_builders.h"
#include "context/author_similarity.h"
#include "context/citation_prestige.h"
#include "context/pattern_prestige.h"
#include "context/search_engine.h"
#include "context/text_prestige.h"
#include "corpus/corpus_io.h"
#include "corpus/full_text_search.h"
#include "corpus/tokenized_corpus.h"
#include "graph/citation_graph.h"
#include "ontology/obo_io.h"
#include "perfbench.h"
#include "report.h"
#include "serve/daemon.h"
#include "serve/mutable_index.h"
#include "serve/net.h"
#include "serve/request_context.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "serve/supervisor.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace ctx = ctxrank::context;
namespace net = ctxrank::serve::net;
namespace serve = ctxrank::serve;
using Clock = std::chrono::steady_clock;

/// Replay sizes of the traced run (fixed, so every traced run does the
/// same work).
constexpr size_t kTextQueries = 20000;  // Rounds of three queries.
constexpr size_t kWireQueries = 10000;
constexpr size_t kScatterQueries = 2000;
constexpr size_t kZipfDraws = 20000;

/// In-memory span store; request id 0 is the build.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  size_t Begin(const char* name, size_t parent, size_t request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return spans_.size();  // Span ids start at 1; 0 means "no parent".
  }
  /// Closes span `id`; returns its duration in microseconds.
  double End(size_t id) {
    Span& s = spans_[id - 1];
    s.end_ns = Now();
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }
  bool Write(const std::string& path) const {
    std::ofstream f(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
    }
    return f.good();
  }
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    size_t parent;
    size_t request;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Median of paired differences a[i] - b[i].
double MedianDiff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d(a.size());
  for (size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  return Quantile(d, 0.5);
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

class LayerRun {
 public:
  LayerRun(const Flags& flags, Report* report) : f_(flags), out_(report) {}
  bool Run();
  const std::string& error() const { return error_; }
  size_t operations() const { return ops_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
    return false;
  }
  void Metric(const std::string& name, double v, const char* unit) {
    out_->Metric(name, v, unit);
  }
  bool Build();
  bool TextServing();
  bool ShardedServing();
  bool MutableServing();

  const Flags& f_;
  Report* out_;
  Tracer tr_;
  std::string error_;
  size_t ops_ = 0;
  size_t request_ = 0;  // Last request id handed out.

  std::optional<ctxrank::ontology::Ontology> onto_;
  std::optional<ctxrank::corpus::Corpus> corpus_;
  std::unique_ptr<ctxrank::corpus::TokenizedCorpus> tc_;
  std::optional<ctx::ContextAssignment> text_set_;
  std::optional<ctx::PrestigeScores> text_prestige_;
  std::optional<ctx::PatternAssignmentResult> pattern_set_;
};

bool LayerRun::Build() {
  size_t id = tr_.Begin("corpus.load", 0, 0);
  auto onto = ctxrank::ontology::LoadOboFile(f_.world + "/ontology.obo");
  auto corpus = ctxrank::corpus::LoadCorpus(f_.world + "/corpus.txt");
  Metric("corpus.load_s", tr_.End(id) / 1e6, "s");
  if (!onto.ok() || !corpus.ok()) return Fail("cannot load the world");
  onto_.emplace(std::move(onto).value());
  corpus_.emplace(std::move(corpus).value());

  id = tr_.Begin("text.analyze", 0, 0);
  tc_ = std::make_unique<ctxrank::corpus::TokenizedCorpus>(*corpus_);
  Metric("text.analyze_s", tr_.End(id) / 1e6, "s");
  const ctxrank::graph::CitationGraph graph(*corpus_);
  const ctxrank::corpus::FullTextSearch fts(*tc_);
  const ctx::AuthorSimilarity authors(*corpus_);

  id = tr_.Begin("context.text_assignment", 0, 0);
  auto ta = ctx::BuildTextBasedAssignment(*tc_, *onto_, fts);
  Metric("context.text_assignment_s", tr_.End(id) / 1e6, "s");
  if (!ta.ok()) return Fail("text assignment failed");
  text_set_.emplace(std::move(ta).value());

  ctx::TextPrestigeOptions text_opts;
  text_opts.num_threads = f_.threads;
  id = tr_.Begin("context.text_prestige", 0, 0);
  auto tp = ctx::ComputeTextPrestige(*onto_, *text_set_, *tc_, graph, authors,
                                     text_opts);
  Metric("context.text_prestige_s", tr_.End(id) / 1e6, "s");
  if (!tp.ok()) return Fail("text prestige failed");
  text_prestige_.emplace(std::move(tp).value());

  id = tr_.Begin("context.pattern_assignment", 0, 0);
  auto pa = ctx::BuildPatternBasedAssignment(*tc_, *onto_);
  Metric("context.pattern_assignment_s", tr_.End(id) / 1e6, "s");
  if (!pa.ok()) return Fail("pattern assignment failed");
  pattern_set_.emplace(std::move(pa).value());

  ctx::PatternPrestigeOptions pattern_opts;
  pattern_opts.num_threads = f_.threads;
  id = tr_.Begin("context.pattern_prestige", 0, 0);
  auto pp = ctx::ComputePatternPrestige(*onto_, *pattern_set_, pattern_opts);
  Metric("context.pattern_prestige_s", tr_.End(id) / 1e6, "s");
  if (!pp.ok()) return Fail("pattern prestige failed");

  // `ctxrank index` computes citation prestige once per set.
  ctx::CitationPrestigeOptions cit_opts;
  cit_opts.num_threads = f_.threads;
  double cit_us = 0.0;
  for (const ctx::ContextAssignment* a :
       {&*text_set_, &pattern_set_->assignment}) {
    id = tr_.Begin("context.citation_prestige", 0, 0);
    const bool ok = ctx::ComputeCitationPrestige(*onto_, *a, graph, cit_opts).ok();
    cit_us += tr_.End(id);
    if (!ok) return Fail("citation prestige failed");
  }
  Metric("context.citation_prestige_s", cit_us / 1e6, "s");
  return true;
}

bool LayerRun::TextServing() {
  ctx::ContextSearchEngine::EngineOptions eng_opts;
  eng_opts.num_threads = f_.threads;
  const std::string path = f_.work + "/text.snap";
  {
    const ctx::ContextSearchEngine engine(*tc_, *onto_, *text_set_,
                                          *text_prestige_, eng_opts);
    serve::SnapshotInputs in;
    in.tc = tc_.get();
    in.onto = &*onto_;
    in.assignment = &*text_set_;
    in.prestige = &*text_prestige_;
    in.engine = &engine;
    in.corpus = &*corpus_;
    const size_t id = tr_.Begin("serve.snapshot_save", 0, 0);
    const bool ok = serve::SaveSnapshot(in, path, f_.threads).ok();
    Metric("serve.snapshot_save_s", tr_.End(id) / 1e6, "s");
    if (!ok) return Fail("SaveSnapshot failed");
  }
  size_t id = tr_.Begin("serve.snapshot_load", 0, 0);
  auto snap = serve::ServingSnapshot::Load(path, f_.threads);
  Metric("serve.snapshot_load_s", tr_.End(id) / 1e6, "s");
  if (!snap.ok()) return Fail("ServingSnapshot::Load failed");
  const ctx::ContextSearchEngine& engine = snap.value()->engine();

  // As in text-cold: warm-up queries fault the snapshot in (and carry the
  // tracing-overhead passes), and the timed stream never repeats one. Each
  // timed call below gets a query no call has run before, so no call
  // reads data that the one before it just brought into the CPU caches.
  QueryStream warm_stream(*onto_, *corpus_, StreamSeed(f_.seed, kWarmupStream));
  std::vector<std::string> warm(kWarmupQueries);
  for (auto& q : warm) q = warm_stream.Next();
  QueryStream stream(*onto_, *corpus_, StreamSeed(f_.seed, kTimedStream));
  for (const std::string& q : warm) stream.Exclude(q);
  ctx::SearchOptions opts;
  opts.top_k = kTopK;
  opts.bypass_cache = true;
  ctx::SearchOptions traced = opts;
  traced.trace = true;

  // Tracing overhead: alternate passes of SearchEx over the warm-up
  // queries with and without a span around each call (the first pass only
  // warms); spans of these passes go to a throwaway tracer.
  double pass_us[2] = {0.0, 0.0};
  for (int pass = 0; pass < 5; ++pass) {
    Tracer probe;
    const bool spanned = pass % 2 == 0;
    const auto p0 = Clock::now();
    for (const std::string& q : warm) {
      const size_t sid = spanned ? probe.Begin("context.search", 0, 0) : 0;
      if (!engine.SearchEx(q, opts).status.ok()) return Fail("text query failed");
      if (spanned) probe.End(sid);
    }
    if (pass > 0) {
      pass_us[spanned ? 1 : 0] +=
          std::chrono::duration<double, std::micro>(Clock::now() - p0).count();
    }
  }
  std::fprintf(stderr, "perfbench: span overhead %.3f us per traced call\n",
               (pass_us[1] - pass_us[0]) / 2 / static_cast<double>(warm.size()));

  std::vector<double> route, scan, search, run, encode, decode;
  std::vector<double> scanned, pruned, blocks, skipped;
  for (size_t i = 0; i < kTextQueries; ++i) {
    // Routed and scanned in two calls.
    const std::string q_scan = stream.Next();
    size_t req = ++request_;
    size_t root = tr_.Begin("query", 0, req);
    id = tr_.Begin("context.route", root, req);
    const auto routed = engine.RouteQueryText(q_scan, opts);
    route.push_back(tr_.End(id));
    id = tr_.Begin("context.scan", root, req);
    const auto leg =
        engine.SearchRouted(q_scan, routed, opts, ctxrank::Deadline());
    scan.push_back(tr_.End(id));
    tr_.End(root);

    // Through SearchEx, then its request and answer through the codec.
    const std::string q = stream.Next();
    req = ++request_;
    root = tr_.Begin("query", 0, req);
    id = tr_.Begin("context.search", root, req);
    const ctx::SearchResponse resp = engine.SearchEx(q, opts);
    search.push_back(tr_.End(id));
    net::WireRequest wreq{q, opts};
    id = tr_.Begin("serve.net_encode", root, req);
    const std::string req_frame = net::EncodeSearchRequest(wreq);
    const std::string resp_frame = net::EncodeSearchResponse(resp);
    encode.push_back(tr_.End(id));
    id = tr_.Begin("serve.net_decode", root, req);
    const bool decoded =
        net::DecodeSearchRequestBody(
            std::string_view(req_frame).substr(net::kFrameHeaderBytes))
            .ok() &&
        net::DecodeSearchResponseBody(
            std::string_view(resp_frame).substr(net::kFrameHeaderBytes))
            .ok();
    decode.push_back(tr_.End(id));
    tr_.End(root);

    // Through RequestContext::Run.
    const std::string q_run = stream.Next();
    req = ++request_;
    serve::RequestContext rc(q_run, opts);
    root = tr_.Begin("query", 0, req);
    id = tr_.Begin("serve.request_context", root, req);
    rc.Run(engine);
    run.push_back(tr_.End(id));
    tr_.End(root);
    ops_ += 3;

    if (!decoded || !resp.status.ok() || resp.degraded || !leg.status.ok()) {
      return Fail("text query '" + q + "' failed in-process");
    }
    // The funnel counts come from an untimed traced call.
    const auto t = engine.SearchEx(q, traced).trace;
    if (t == nullptr) return Fail("no query trace");
    scanned.push_back(static_cast<double>(t->contexts_scanned));
    pruned.push_back(static_cast<double>(t->contexts_pruned));
    blocks.push_back(static_cast<double>(t->blocks_scanned));
    skipped.push_back(static_cast<double>(t->blocks_skipped));
  }
  Metric("context.route_us", Quantile(route, 0.5), "us");
  Metric("context.scan_us", Quantile(scan, 0.5), "us");
  Metric("context.search_us", Quantile(search, 0.5), "us");
  Metric("context.contexts_scanned", Mean(scanned), "count");
  Metric("context.contexts_pruned", Mean(pruned), "count");
  Metric("context.blocks_scanned", Mean(blocks), "count");
  Metric("context.blocks_skipped", Mean(skipped), "count");
  const double run_us = Quantile(run, 0.5);
  Metric("serve.request_context_us", run_us - Quantile(search, 0.5), "us");
  Metric("serve.net_encode_us", Quantile(encode, 0.5), "us");
  Metric("serve.net_decode_us", Quantile(decode, 0.5), "us");

  // Wire cost: an in-process daemon over the same snapshot, one client at
  // depth 1, on fresh queries; client latency minus RequestContext::Run.
  serve::SnapshotSupervisor::Options sup_opts;
  sup_opts.num_threads = f_.threads;
  serve::SnapshotSupervisor supervisor(sup_opts);
  if (!supervisor.Reload(path).ok()) return Fail("supervisor load failed");
  serve::Daemon::Options d_opts;
  d_opts.port = 0;
  d_opts.workers = f_.threads;
  d_opts.inline_execution = true;  // As the benchmark's ctxrankd runs.
  serve::Daemon daemon(supervisor, d_opts);
  if (!daemon.Start().ok()) return Fail("in-process daemon failed to start");
  WireConn conn;
  std::string err, body;
  if (!conn.Dial(daemon.port(), &err)) return Fail(err);
  // The daemon's own snapshot copy is faulted in by warm-up queries first.
  uint8_t type = 0;
  for (const std::string& q : warm) {
    if (!conn.Send(net::EncodeSearchRequest(net::WireRequest{q, opts})) ||
        !conn.Read(&type, &body)) {
      return Fail("in-process daemon connection lost");
    }
  }
  std::vector<double> wire;
  for (size_t i = 0; i < kWireQueries; ++i) {
    net::WireRequest wreq{stream.Next(), opts};
    const size_t req = ++request_;
    ++ops_;
    id = tr_.Begin("serve.wire_round_trip", 0, req);
    if (!conn.Send(net::EncodeSearchRequest(wreq)) || !conn.Read(&type, &body)) {
      return Fail("in-process daemon connection lost");
    }
    wire.push_back(tr_.End(id));
    if (type != net::kFrameSearchResponse) return Fail("unexpected frame");
  }
  daemon.Stop();
  Metric("serve.wire_us", Quantile(wire, 0.5) - run_us, "us");
  return true;
}

bool LayerRun::ShardedServing() {
  ctx::ContextSearchEngine::EngineOptions eng_opts;
  eng_opts.num_threads = f_.threads;
  const std::string base = f_.work + "/text-shards.snap";
  size_t id = tr_.Begin("serve.shard_save", 0, 0);
  const bool saved =
      serve::SaveShardedSnapshot(*tc_, *onto_, *text_set_, *text_prestige_,
                                 *corpus_, base, 2,
                                 eng_opts, f_.threads)
          .ok();
  Metric("serve.shard_save_s", tr_.End(id) / 1e6, "s");
  if (!saved) return Fail("SaveShardedSnapshot failed");

  serve::ShardedEngine::Options sh_opts;
  sh_opts.cache_capacity = kCacheEntries;
  serve::ShardedEngine sharded(sh_opts);
  id = tr_.Begin("serve.shard_open", 0, 0);
  const bool opened = sharded.Open(base, 2).ok();
  Metric("serve.shard_open_s", tr_.End(id) / 1e6, "s");
  if (!opened) return Fail("ShardedEngine::Open failed");
  const ctx::ContextSearchEngine mono(*tc_, *onto_, *text_set_,
                                      *text_prestige_, eng_opts);

  QueryStream gen(*onto_, *corpus_, StreamSeed(f_.seed, kPoolStream));
  std::vector<std::string> pool(kZipfPool);
  for (auto& q : pool) q = gen.Next();
  ctx::SearchOptions opts;
  opts.top_k = kTopK;
  ctx::SearchOptions bypass = opts;
  bypass.bypass_cache = true;

  std::vector<double> mono_us, sharded_us;
  for (size_t i = 0; i < kScatterQueries; ++i) {
    const std::string& q = pool[i];
    const size_t req = ++request_;
    ops_ += 2;
    // The two engines alternate which runs the query first, so the
    // second call's warmer caches favour neither.
    ctx::SearchResponse a, b;
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == (i % 2 == 0)) {
        id = tr_.Begin("context.search", 0, req);
        a = mono.SearchEx(q, bypass);
        mono_us.push_back(tr_.End(id));
      } else {
        id = tr_.Begin("serve.sharded_search", 0, req);
        b = sharded.SearchEx(q, bypass);
        sharded_us.push_back(tr_.End(id));
      }
    }
    if (!a.status.ok() || !b.status.ok() || a.hits.size() != b.hits.size()) {
      return Fail("sharded query '" + q + "' failed in-process");
    }
  }
  Metric("serve.scatter_us", MedianDiff(sharded_us, mono_us), "us");

  auto& registry = ctxrank::obs::MetricsRegistry::Instance();
  auto& hits = registry.GetCounter("ctxrank_sharded_cache_hits_total");
  auto& misses = registry.GetCounter("ctxrank_sharded_cache_misses_total");
  const uint64_t hits0 = hits.Value(), misses0 = misses.Value();
  ZipfSampler zipf(kZipfPool, kZipfExponent, StreamSeed(f_.seed, kZipfStream));
  std::vector<double> hit_us;
  for (size_t i = 0; i < kZipfDraws; ++i) {
    const std::string& q = pool[zipf.Next()];
    const size_t req = ++request_;
    ++ops_;
    const uint64_t before = hits.Value();
    id = tr_.Begin("serve.sharded_search", 0, req);
    const auto r = sharded.SearchEx(q, opts);
    const double us = tr_.End(id);
    if (!r.status.ok()) return Fail("cached sharded query failed");
    if (hits.Value() != before) hit_us.push_back(us);
  }
  const double h = static_cast<double>(hits.Value() - hits0);
  const double m = static_cast<double>(misses.Value() - misses0);
  if (h <= 0 || m <= 0) return Fail("merged-result cache not exercised");
  Metric("serve.cache_hit_ratio", h / (h + m), "ratio");
  Metric("serve.cache_hit_us", Quantile(hit_us, 0.5), "us");
  return true;
}

bool LayerRun::MutableServing() {
  // ingest-live's own (smaller) world: same ontology, fewer papers.
  auto loaded = ctxrank::corpus::LoadCorpus(f_.ingest_world + "/corpus.txt");
  if (!loaded.ok()) return Fail("cannot load the ingest world");
  const ctxrank::corpus::Corpus& world = loaded.value();
  const size_t held = HeldOut(f_.seconds);
  const size_t base = world.size() - held;
  auto base_corpus = BaseCorpus(world, onto_->size(), base);
  if (!base_corpus.has_value()) return Fail("bad base corpus");
  const auto evidence = EvidenceByPaper(world, onto_->size());
  serve::MutableIndex::Options mi_opts;
  mi_opts.num_threads = f_.threads;
  mi_opts.snapshot_path = f_.work + "/compact.snap";
  size_t id = tr_.Begin("serve.mutable_build", 0, 0);
  auto built = serve::MutableIndex::Build(std::move(*base_corpus), *onto_, mi_opts);
  Metric("serve.mutable_build_s", tr_.End(id) / 1e6, "s");
  if (!built.ok()) return Fail("MutableIndex::Build failed");
  serve::MutableIndex& index = *built.value();

  QueryStream stream(*onto_, world, StreamSeed(f_.seed, kTimedStream));
  ctx::SearchOptions opts;
  opts.top_k = kTopK;
  std::vector<double> ingest, affected, fresh, memo;
  for (size_t i = 0; i < held; ++i) {
    const auto& p = world.paper(static_cast<uint32_t>(base + i));
    serve::MutableIndex::IngestPaper in;
    in.paper = p;
    in.evidence_terms = evidence[base + i];
    const size_t req = ++request_;
    ops_ += 3 + kStreamPerIngest;
    const size_t root = tr_.Begin("ingest_round", 0, req);
    id = tr_.Begin("serve.ingest", root, req);
    const auto added = index.Ingest(std::move(in));
    ingest.push_back(tr_.End(id));
    if (!added.ok() || added.value() != base + i) return Fail("ingest failed");
    affected.push_back(static_cast<double>(index.affected_contexts().size()));
    id = tr_.Begin("serve.fresh_search", root, req);
    const bool ok1 = index.SearchEx(p.title, opts).status.ok();
    fresh.push_back(tr_.End(id));
    id = tr_.Begin("serve.memo_search", root, req);
    const bool ok2 = index.SearchEx(p.title, opts).status.ok();
    memo.push_back(tr_.End(id));
    for (size_t s = 0; s < kStreamPerIngest; ++s) {
      id = tr_.Begin("serve.stream_search", root, req);
      const bool ok = index.SearchEx(stream.Next(), opts).status.ok();
      tr_.End(id);
      if (!ok) return Fail("stream search failed");
    }
    tr_.End(root);
    if (!ok1 || !ok2) return Fail("fresh search failed");
  }
  const size_t tenth = std::max<size_t>(1, held / 10);
  Metric("serve.ingest_first_tenth_us",
         Quantile(std::vector<double>(ingest.begin(), ingest.begin() + tenth), 0.5), "us");
  Metric("serve.ingest_last_tenth_us",
         Quantile(std::vector<double>(ingest.end() - tenth, ingest.end()), 0.5), "us");
  Metric("serve.affected_contexts", Mean(affected), "count");
  Metric("serve.fresh_search_us", Quantile(fresh, 0.5), "us");
  Metric("serve.memo_search_us", Quantile(memo, 0.5), "us");

  id = tr_.Begin("serve.compact", 0, 0);
  const bool compacted = index.Compact().ok();
  Metric("serve.compact_s", tr_.End(id) / 1e6, "s");
  ++ops_;
  if (!compacted || index.delta_papers() != 0) return Fail("compaction failed");
  return true;
}

bool LayerRun::Run() {
  const bool ok = Build() && TextServing() && ShardedServing() && MutableServing();
  if (!f_.spans.empty() && !tr_.Write(f_.spans)) return Fail("cannot write spans");
  std::fprintf(stderr, "perfbench: %zu spans\n", tr_.size());
  return ok;
}

}  // namespace

int Layers(const Flags& flags) {
  std::filesystem::create_directories(flags.work);
  Report report;
  LayerRun run(flags, &report);
  const bool ok = run.Run();
  report.Flag("correct", ok);
  report.Count("attempted", run.operations());
  report.Count("failed", 0);
  if (!ok) report.Text("error", run.error());
  report.Print();
  return ok ? 0 : 1;
}

}  // namespace perfbench
