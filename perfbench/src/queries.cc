#include "queries.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "gen/bsbm.h"
#include "query/plan.h"
#include "query/sparql_parser.h"

namespace perf {

using rdfsum::Random;

namespace {

constexpr std::string_view kPrefix = "PREFIX b: <http://bsbm.example.org/>\n";
constexpr std::string_view kAnchor = "<P>";

/// The hot shapes: the classic anchored star and snowflakes.
constexpr const char* kHotBodies[kHotShapes] = {
    "<P> b:label ?l . <P> b:producer ?pr . <P> b:productFeature ?f",
    "?o b:offerProduct <P> . ?o b:price ?price . ?o b:offerVendor ?v . "
    "?v b:country ?c",
    "?r b:reviewFor <P> . ?r b:reviewer ?x . ?x b:country ?c . "
    "<P> b:producer ?pr",
    "<P> a ?t . <P> b:label ?l . ?o b:offerProduct <P> . "
    "?o b:deliveryDays ?d",
};

/// Tail arms around the anchor product, grouped by family; a tail query
/// takes at most one arm per family, so its rows stay few (each family
/// matches a handful of triples per product). `?a ?b ?c` are renamed per
/// arm.
const std::vector<std::vector<std::string>>& ArmFamilies() {
  static const std::vector<std::vector<std::string>> families = {
      {"<P> b:label ?a"},
      {"<P> b:producer ?a", "<P> b:producer ?a . ?a b:country ?b",
       "<P> b:producer ?a . ?a b:label ?b"},
      {"<P> b:productFeature ?a", "<P> b:productFeature ?a . ?a b:label ?b"},
      {"<P> a ?a"},
      {"?a b:offerProduct <P>", "?a b:offerProduct <P> . ?a b:price ?b",
       "?a b:offerProduct <P> . ?a b:offerVendor ?b . ?b b:country ?c",
       "?a b:offerProduct <P> . ?a b:deliveryDays ?b"},
      {"?a b:reviewFor <P>", "?a b:reviewFor <P> . ?a b:reviewer ?b",
       "?a b:reviewFor <P> . ?a b:reviewer ?b . ?b b:country ?c"},
  };
  return families;
}

void ReplaceAll(std::string* s, std::string_view from, std::string_view to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

std::string QueryText(const std::string& body, const std::string& anchor) {
  std::string b = body;
  ReplaceAll(&b, kAnchor, anchor);
  return std::string(kPrefix) + "SELECT * WHERE { " + b + " }";
}

std::string ShapeOf(const std::string& text) {
  auto q = rdfsum::query::ParseSparql(text);
  return q.ok() ? rdfsum::query::NormalizedBgpShape(*q) : std::string();
}

/// The tail bodies: a fixed-seed walk over arm sequences, kept while their
/// normalized shape is new and not a hot shape.
std::vector<std::string> TailBodies() {
  std::unordered_set<std::string> seen;
  for (const char* hot : kHotBodies) {
    seen.insert(ShapeOf(QueryText(hot, "<http://x/>")));
  }
  const auto& families = ArmFamilies();
  Random rng(0x5eed7a11u);
  std::vector<std::string> bodies;
  for (int attempt = 0; attempt < 200000 && bodies.size() < kTailShapes;
       ++attempt) {
    std::vector<size_t> order(families.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    const size_t arms = 2 + rng.Uniform(4);
    std::string body;
    for (size_t k = 0; k < arms; ++k) {
      const auto& variants = families[order[k]];
      std::string arm = variants[rng.Uniform(variants.size())];
      const std::string n = std::to_string(k);
      ReplaceAll(&arm, "?a", "?a" + n);
      ReplaceAll(&arm, "?b", "?b" + n);
      ReplaceAll(&arm, "?c", "?c" + n);
      body += (k > 0 ? " . " : "") + arm;
    }
    if (seen.insert(ShapeOf(QueryText(body, "<http://x/>"))).second) {
      bodies.push_back(body);
    }
  }
  return bodies;
}

std::string ProductIri(uint64_t i) {
  return "<http://bsbm.example.org/product/Product" + std::to_string(i) + ">";
}

}  // namespace

rdfsum::Graph MakeBsbmGraph(uint64_t triples, uint64_t seed,
                            uint64_t* num_products) {
  rdfsum::gen::BsbmOptions options;
  options.num_products = rdfsum::gen::BsbmProductsForTriples(triples);
  options.seed = seed;
  *num_products = options.num_products;
  return rdfsum::gen::GenerateBsbm(options);
}

std::vector<CheapQuery> MakeCheapPool(uint64_t seed, uint64_t num_products) {
  static const std::vector<std::string> tail = TailBodies();
  Random rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<CheapQuery> pool;
  pool.reserve(kHotPoolEntries + kTailPoolEntries);
  auto add = [&](const std::string& body) {
    CheapQuery q;
    q.text = QueryText(body, ProductIri(rng.Uniform(num_products)));
    q.shape = ShapeOf(q.text);
    pool.push_back(std::move(q));
  };
  for (size_t i = 0; i < kHotPoolEntries; ++i) add(kHotBodies[i % kHotShapes]);
  for (size_t i = 0; i < kTailPoolEntries; ++i) add(tail[i % tail.size()]);
  return pool;
}

size_t NextCheap(Random* rng, size_t pool_size) {
  if (rng->NextDouble() < kHotShare) return rng->Uniform(kHotPoolEntries);
  return kHotPoolEntries + rng->Uniform(pool_size - kHotPoolEntries);
}

std::vector<std::string> HeavyQueries() {
  const std::string p(kPrefix);
  return {
      p + "SELECT ?r ?price WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
          "?x b:country ?c . ?o b:offerProduct ?p . ?o b:price ?price }",
      p + "SELECT * WHERE { ?o b:offerProduct ?p . ?o b:offerVendor ?v . "
          "?o b:price ?pr . ?o b:deliveryDays ?d . ?o b:validTo ?t }",
      p + "SELECT ?o ?c ?vc WHERE { ?o b:offerProduct ?p . "
          "?p b:producer ?pr . ?pr b:country ?c . ?o b:offerVendor ?v . "
          "?v b:country ?vc }",
      p + "SELECT * WHERE { ?r b:reviewFor ?p . ?r b:reviewer ?x . "
          "?r b:reviewTitle ?t . ?r b:reviewDate ?d }",
  };
}

rdfsum::StatusOr<Expected> ComputeExpected(
    const rdfsum::query::BgpEvaluator& ev, const std::string& text) {
  auto q = rdfsum::query::ParseSparql(text);
  if (!q.ok()) return q.status();
  auto cursor = ev.Open(*q, rdfsum::query::PlannerMode::kGreedy);
  if (!cursor.ok()) return cursor.status();
  Expected e;
  rdfsum::query::IdRow row;
  std::vector<std::string> terms;
  while ((*cursor)->Next(&row)) {
    terms.clear();
    for (const rdfsum::Term& t : ev.Decode(row)) {
      terms.push_back(t.ToNTriples());
    }
    e.hash += RowDigest(terms);
    ++e.rows;
  }
  if (!(*cursor)->status().ok()) return (*cursor)->status();
  return e;
}

}  // namespace perf
