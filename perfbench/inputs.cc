#include "perfbench/inputs.h"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <map>
#include <set>
#include <random>
#include <utility>

#include "src/schema/workload.h"
#include "src/util/json.h"

namespace perfbench {

namespace {

/// splitmix64 over (seed, stream, index): independent sub-seeds, so adding
/// a schema or a pair never shifts the others.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               index + 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Fisher-Yates with raw engine output, so the order does not depend on the
// standard library's distribution implementations.
template <typename T>
void Shuffle(std::vector<T>* v, std::mt19937_64* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[(*rng)() % i]);
  }
}

std::string Join(const std::vector<std::string>& atoms) {
  std::string out;
  for (const std::string& a : atoms) {
    if (!out.empty()) out += ", ";
    out += a;
  }
  return out;
}

/// Q = P with a seeded nonempty proper subset of its atoms dropped (Q = P
/// when P has one atom). The identity maps Q into P, so P ⊑ Q under any
/// schema.
std::string SubQuery(const std::string& p, std::mt19937_64* rng) {
  std::vector<std::string> atoms = SplitAtoms(p);
  if (atoms.size() <= 1) return p;
  std::vector<std::string> kept;
  for (const std::string& a : atoms) {
    if ((*rng)() % 2 == 0) kept.push_back(a);
  }
  if (kept.empty() || kept.size() == atoms.size()) {
    kept.assign(1, atoms[(*rng)() % atoms.size()]);
  }
  return Join(kept);
}

/// Q = some atoms of P plus Z(x0), a concept P never mentions: under the
/// empty schema P's canonical graph satisfies P but not Q.
std::string FreshQuery(const std::string& p, std::mt19937_64* rng) {
  std::string sub = SubQuery(p, rng);
  return sub + ", Z(x0)";
}

/// The fixed structure every seed's inputs are drawn from: which schemas,
/// queries and popularity ranks a workload has. Fixing it keeps the
/// workloads' difficulty the same across seeds, so a spread between runs
/// measures the program and the host rather than which questions a seed
/// happened to draw.
constexpr uint64_t kCorpusSeed = 1;

bool IsKeyword(const std::string& word) {
  for (const char* kw : {"top", "bottom", "and", "or", "not", "exists",
                         "forall", "atleast", "atmost"}) {
    if (word == kw) return true;
  }
  return false;
}

/// Presents the fixed corpus in a seed's own words: every concept, role and
/// variable gets a seeded random name, one name per symbol across all texts,
/// so shared symbols stay shared. The questions keep their meaning, their
/// known answers and their atom order (the searches are sensitive to atom
/// order, and shuffling it doubled some pairs' cost between seeds); their
/// texts, fingerprints and cache keys change with the seed.
class Renamer {
 public:
  explicit Renamer(uint64_t seed) : seed_(seed) {}

  std::string Rename(const std::string& text) {
    std::string out;
    for (std::size_t i = 0; i < text.size();) {
      unsigned char c = static_cast<unsigned char>(text[i]);
      if (!std::isalpha(c) && c != '_') {
        out.push_back(text[i++]);
        continue;
      }
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
        ++j;
      }
      std::string word = text.substr(i, j - i);
      out += IsKeyword(word) ? word : NameOf(word);
      i = j;
    }
    return out;
  }

 private:
  const std::string& NameOf(const std::string& word) {
    auto it = names_.find(word);
    if (it != names_.end()) return it->second;
    // Roles and variables keep their leading letter (r, x); every concept
    // becomes K...; the rest is seeded.
    char head = word[0] == 'r' || word[0] == 'x' ? word[0] : 'K';
    uint64_t h = seed_;
    for (char c : word) h = Mix(h, 9, static_cast<unsigned char>(c));
    std::string name(1, head);
    for (int k = 0; k < 6; ++k, h /= 26) name.push_back(static_cast<char>('a' + h % 26));
    while (used_.count(name) > 0) name.push_back('q');
    used_.insert(name);
    return names_.emplace(word, name).first->second;
  }

  uint64_t seed_;
  std::map<std::string, std::string> names_;
  std::set<std::string> used_;
};

gqc::WorkloadInstance Generate(uint64_t seed, bool simple) {
  gqc::WorkloadOptions options;
  options.simple_queries = simple;
  return gqc::GenerateInstance(options, seed);
}

/// Rewrites a generated question's Q to make it a `kind` question and sets
/// what is expected of its answer.
void Assign(Question* question, Kind kind, std::mt19937_64* rng) {
  question->kind = kind;
  switch (kind) {
    case Kind::kSub:
      question->q = SubQuery(question->p, rng);
      question->expect = Expect::kContained;
      break;
    case Kind::kFresh:
      question->q = FreshQuery(question->p, rng);
      question->expect = question->schema.empty() ? Expect::kNotContained
                                                  : Expect::kNone;
      break;
    default:
      question->expect = Expect::kNone;
      break;
  }
}

Kind PairKind(std::mt19937_64* rng) {
  uint64_t r = (*rng)() % 16;
  if (r < 2) return Kind::kSub;
  if (r == 2) return Kind::kFresh;
  return Kind::kGenerated;
}

void NumberContexts(std::vector<Question>* questions, std::size_t* keys) {
  std::map<std::pair<std::string, std::string>, uint32_t> ids;
  for (Question& question : *questions) {
    auto [it, inserted] = ids.try_emplace({question.schema, question.q},
                                          static_cast<uint32_t>(ids.size()));
    question.ctx_key = it->second;
  }
  *keys = ids.size();
}

}  // namespace

std::vector<std::string> SplitAtoms(const std::string& query) {
  std::vector<std::string> atoms;
  std::string current;
  int depth = 0;
  for (char c : query) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      atoms.push_back(current);
      current.clear();
      continue;
    }
    if (current.empty() && c == ' ') continue;
    current.push_back(c);
  }
  if (!current.empty()) atoms.push_back(current);
  return atoms;
}

ServeInputs MakeServeInputs(uint64_t seed, std::size_t schemas,
                            std::size_t pairs, std::size_t cells) {
  Renamer renamer(seed);
  ServeInputs in;
  std::vector<std::string> schema_texts{""};
  for (std::size_t i = 0; i < schemas; ++i) {
    schema_texts.push_back(
        renamer.Rename(Generate(Mix(kCorpusSeed, 1, i), true).schema_text));
  }
  std::vector<Question> pair_list;  // the corpus's own words until crossed
  std::mt19937_64 rng(Mix(kCorpusSeed, 2, 0));
  for (std::size_t j = 0; j < pairs; ++j) {
    gqc::WorkloadInstance inst = Generate(Mix(kCorpusSeed, 3, j), true);
    Question question;
    question.p = inst.p_text;
    question.q = inst.q_text;
    Assign(&question, PairKind(&rng), &rng);
    pair_list.push_back(std::move(question));
  }
  // Cell k pairs schema k mod S with pair k mod P. The workloads' S and P
  // are coprime, so the first S * P cells are the whole grid, each once,
  // and any prefix spreads over the schemas and the pairs as evenly as its
  // length allows (the self-test checks that no cell repeats).
  const std::size_t row = schema_texts.size();
  std::size_t grid = row * pairs;
  if (cells == 0 || cells > grid) cells = grid;
  for (std::size_t k = 0; k < cells; ++k) {
    Question question = pair_list[k % pairs];
    question.schema = schema_texts[k % row];
    if (question.schema.empty() && question.kind == Kind::kGenerated &&
        (k / row) % 4 == 0) {
      // One in four generated pairs asked under the empty schema becomes a
      // kFresh question there: few pairs are kFresh, and only the empty
      // schema knows their answer.
      std::mt19937_64 cell_rng(Mix(kCorpusSeed, 7, k));
      Assign(&question, Kind::kFresh, &cell_rng);
    }
    if (question.kind == Kind::kFresh) {
      question.expect =
          question.schema.empty() ? Expect::kNotContained : Expect::kNone;
    }
    question.p = renamer.Rename(question.p);
    question.q = renamer.Rename(question.q);
    in.questions.push_back(std::move(question));
  }
  in.schemas = row;
  in.pairs = pairs;
  NumberContexts(&in.questions, &in.ctx_keys);
  return in;
}

std::vector<Question> MakeBatchInputs(uint64_t seed, std::size_t count) {
  std::vector<Question> out;
  std::mt19937_64 rng(Mix(kCorpusSeed, 4, 0));
  std::size_t chains = std::max<std::size_t>(1, count / 20);
  for (std::size_t c = 0; c < chains; ++c) {
    // Participation chain C0 ⊑ ∃r0.C1 ⊑ ... of depth 10-13 (the shape of
    // BM_E6_SequentialVsPortfolio): every countermodel carries the whole
    // chain. Concept names carry the chain index so no two texts repeat.
    std::size_t depth = 10 + rng() % 4;
    std::string prefix = "C" + std::to_string(c) + "L";
    Question question;
    for (std::size_t l = 0; l < depth; ++l) {
      question.schema += prefix + std::to_string(l) + " <= exists r" +
                         std::to_string(l) + "." + prefix +
                         std::to_string(l + 1) + "\n";
    }
    question.p = prefix + "0(x)";
    question.q = "B(x)";
    question.kind = Kind::kChain;
    question.expect = Expect::kNotContained;
    out.push_back(std::move(question));
  }
  for (std::size_t i = 0; out.size() < count; ++i) {
    bool simple = i % 2 == 0;
    gqc::WorkloadInstance inst = Generate(Mix(kCorpusSeed, 5, i), simple);
    Question question;
    question.schema = inst.schema_text;
    question.p = inst.p_text;
    question.q = inst.q_text;
    Kind kind = PairKind(&rng);
    if (kind == Kind::kFresh) question.schema.clear();
    Assign(&question, kind, &rng);
    out.push_back(std::move(question));
  }
  // Generated texts can coincide; keep the first of each (schema, P, Q).
  std::set<std::string> seen;
  std::vector<Question> unique;
  for (Question& question : out) {
    if (seen.insert(question.schema + '\x1f' + question.p + '\x1f' + question.q)
            .second) {
      unique.push_back(std::move(question));
    }
  }
  Renamer renamer(seed);
  for (Question& question : unique) {
    question.schema = renamer.Rename(question.schema);
    question.p = renamer.Rename(question.p);
    question.q = renamer.Rename(question.q);
  }
  std::size_t keys = 0;
  NumberContexts(&unique, &keys);
  return unique;
}

std::vector<uint32_t> BatchOrder(uint64_t seed, uint64_t pass, std::size_t n) {
  std::vector<uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::mt19937_64 rng(Mix(seed, 10, pass));
  Shuffle(&order, &rng);
  return order;
}

std::vector<uint32_t> QuotaStream(uint64_t seed, std::size_t n, double exponent,
                                  std::size_t count, uint64_t ranking) {
  // Rank r -> question index. Ranking 0 is the order the questions were
  // built in, which deals the ranks round-robin over the schemas and the
  // pairs; a ranking above 0 is a random permutation drawn from it.
  std::vector<uint32_t> rank_to_question(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank_to_question[i] = static_cast<uint32_t>(i);
  }
  if (ranking > 0) {
    std::mt19937_64 rng(Mix(ranking, 6, 0));
    Shuffle(&rank_to_question, &rng);
  }
  // Largest-remainder apportionment of `count` requests over the ranks.
  std::vector<double> weight(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    weight[r] = std::pow(static_cast<double>(r + 1), -exponent);
    total += weight[r];
  }
  std::vector<std::size_t> quota(n);
  std::vector<std::pair<double, std::size_t>> remainder(n);
  std::size_t given = 0;
  for (std::size_t r = 0; r < n; ++r) {
    double exact = static_cast<double>(count) * weight[r] / total;
    quota[r] = static_cast<std::size_t>(exact);
    given += quota[r];
    remainder[r] = {exact - static_cast<double>(quota[r]), r};
  }
  // Larger remainders first; ties to the more popular rank.
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < count && i < n; ++i, ++given) {
    ++quota[remainder[i].second];
  }
  std::vector<uint32_t> out;
  out.reserve(count);
  for (std::size_t r = 0; r < n; ++r) {
    out.insert(out.end(), quota[r], rank_to_question[r]);
  }
  std::mt19937_64 rng(Mix(seed, 11, 0));
  Shuffle(&out, &rng);
  return out;
}

std::string RequestBody(const Question& question) {
  std::string out = ",\"schema\":";
  gqc::AppendJsonString(&out, question.schema);
  out += ",\"p\":";
  gqc::AppendJsonString(&out, question.p);
  out += ",\"q\":";
  gqc::AppendJsonString(&out, question.q);
  out += "}\n";
  return out;
}

}  // namespace perfbench
