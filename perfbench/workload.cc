#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

namespace perfbench {
namespace {

/// Lower-case alphabetic words of `text` that are at least 3 letters long.
void CollectWords(std::string_view text, std::set<std::string>* out) {
  std::string word;
  for (size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ' ';
    if (c >= 'a' && c <= 'z') {
      word.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      word.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      if (word.size() >= 3) out->insert(word);
      word.clear();
    }
  }
}

}  // namespace

QueryStream::QueryStream(const ctxrank::ontology::Ontology& onto,
                         const ctxrank::corpus::Corpus& corpus, uint64_t seed)
    : rng_(seed) {
  std::set<std::string> terms;
  for (const auto& t : onto.terms()) CollectWords(t.name, &terms);
  std::set<std::string> titles;
  for (const auto& p : corpus.papers()) CollectWords(p.title, &titles);
  for (const auto& w : terms) titles.erase(w);
  term_words_.assign(terms.begin(), terms.end());
  corpus_words_.assign(titles.begin(), titles.end());
}

std::string QueryStream::Next() {
  for (;;) {
    // Shapes: term word + corpus word, two term words, or two term words
    // + a corpus word. Every shape names an ontology word, so it routes.
    const size_t shape = rng_.Below(4);
    std::string q = term_words_[rng_.Below(term_words_.size())];
    if (shape >= 2) {
      q += ' ';
      q += term_words_[rng_.Below(term_words_.size())];
    }
    if (shape != 2 && !corpus_words_.empty()) {
      q += ' ';
      q += corpus_words_[rng_.Below(corpus_words_.size())];
    }
    if (seen_.insert(q).second) return q;
  }
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Next() {
  const double u = rng_.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

std::optional<ctxrank::corpus::Corpus> BaseCorpus(
    const ctxrank::corpus::Corpus& world, size_t num_terms, size_t base) {
  ctxrank::corpus::Corpus out;
  out.set_num_authors(world.num_authors());
  for (size_t i = 0; i < base; ++i) {
    ctxrank::corpus::Paper p = world.paper(static_cast<uint32_t>(i));
    if (!out.Add(std::move(p)).ok()) return std::nullopt;
  }
  for (size_t t = 0; t < num_terms; ++t) {
    const auto term = static_cast<ctxrank::ontology::TermId>(t);
    for (const auto p : world.Evidence(term)) {
      if (p < base) out.AddEvidence(term, p);
    }
  }
  return out;
}

std::vector<std::vector<ctxrank::ontology::TermId>> EvidenceByPaper(
    const ctxrank::corpus::Corpus& corpus, size_t num_terms) {
  std::vector<std::vector<ctxrank::ontology::TermId>> out(corpus.size());
  for (size_t t = 0; t < num_terms; ++t) {
    const auto term = static_cast<ctxrank::ontology::TermId>(t);
    for (const auto p : corpus.Evidence(term)) {
      if (p < out.size()) out[p].push_back(term);
    }
  }
  return out;
}

}  // namespace perfbench
