// Independent computations the benchmark checks the library against, plus
// the tracer and report helpers.

#include <algorithm>
#include <cctype>
#include <deque>
#include <set>
#include <stdexcept>

#include "bench.h"

namespace recurbench {

std::vector<Value> RandomLabels(size_t n, Rng* rng) {
  std::unordered_set<Value> used;
  std::vector<Value> labels;
  labels.reserve(n);
  while (labels.size() < n) {
    // Non-negative and well inside int64 so no arithmetic can overflow.
    const Value v = static_cast<Value>(rng->Next() >> 20);
    if (used.insert(v).second) labels.push_back(v);
  }
  return labels;
}

Digest DigestOf(const recur::ra::Relation& rel) {
  Digest d;
  for (recur::ra::TupleRef t : rel.rows()) d.Add(t.data(), t.size());
  return d;
}

Digest DigestOf(const TupleSet& set) {
  Digest d;
  for (const Tuple& t : set) d.Add(t);
  return d;
}

std::unordered_map<Value, Digest> DigestByFirst(const TupleSet& set) {
  std::unordered_map<Value, Digest> out;
  for (const Tuple& t : set) out[t[0]].Add(t);
  return out;
}

// ---------------------------------------------------------------------------
// Rule text.

namespace {

[[noreturn]] void ParseFail(const std::string& text, size_t pos) {
  throw std::runtime_error("reference parser: unexpected input at " +
                           std::to_string(pos) + " in: " + text);
}

struct Cursor {
  const std::string& s;
  size_t i = 0;
  void Skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool At(const char* tok) {
    Skip();
    return s.compare(i, std::char_traits<char>::length(tok), tok) == 0;
  }
  void Expect(const char* tok) {
    if (!At(tok)) ParseFail(s, i);
    i += std::char_traits<char>::length(tok);
  }
  std::string Ident() {
    Skip();
    const size_t start = i;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
      ++i;
    }
    if (i == start) ParseFail(s, i);
    return s.substr(start, i - start);
  }
};

RefAtom ParseAtom(Cursor* c, std::vector<std::string>* vars) {
  RefAtom atom;
  atom.pred = c->Ident();
  c->Expect("(");
  while (true) {
    const std::string v = c->Ident();
    if (!std::isupper(static_cast<unsigned char>(v[0]))) ParseFail(c->s, c->i);
    auto it = std::find(vars->begin(), vars->end(), v);
    atom.vars.push_back(static_cast<int>(it - vars->begin()));
    if (it == vars->end()) vars->push_back(v);
    if (c->At(")")) break;
    c->Expect(",");
  }
  c->Expect(")");
  return atom;
}

}  // namespace

std::vector<RefRule> ParseRules(const std::string& text) {
  std::vector<RefRule> rules;
  Cursor c{text};
  while (true) {
    c.Skip();
    if (c.i >= text.size()) break;
    RefRule rule;
    rule.head = ParseAtom(&c, &rule.var_names);
    c.Expect(":-");
    while (true) {
      rule.body.push_back(ParseAtom(&c, &rule.var_names));
      if (c.At(".")) break;
      c.Expect(",");
    }
    c.Expect(".");
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::string RenderRule(const RefRule& rule,
                       const std::vector<std::string>& rename) {
  const std::vector<std::string>& names =
      rename.empty() ? rule.var_names : rename;
  auto atom = [&](const RefAtom& a) {
    std::string out = a.pred + "(";
    for (size_t i = 0; i < a.vars.size(); ++i) {
      if (i > 0) out += ", ";
      out += names[a.vars[i]];
    }
    return out + ")";
  };
  std::string out = atom(rule.head) + " :- ";
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += atom(rule.body[i]);
  }
  return out + ".";
}

// ---------------------------------------------------------------------------
// Reference fixpoint.

namespace {

// A tuple set with lazily built, incrementally kept single-column indexes.
struct RefRel {
  std::vector<Tuple> rows;
  TupleSet set;
  std::vector<std::unordered_map<Value, std::vector<uint32_t>>> index;
  std::vector<bool> built;

  bool Insert(const Tuple& t) {
    if (!set.insert(t).second) return false;
    if (index.size() < t.size()) {
      index.resize(t.size());
      built.resize(t.size(), false);
    }
    const auto id = static_cast<uint32_t>(rows.size());
    rows.push_back(t);
    for (size_t c = 0; c < index.size(); ++c) {
      if (built[c]) index[c][t[c]].push_back(id);
    }
    return true;
  }
  const std::vector<uint32_t>* Lookup(size_t column, Value v) {
    if (index.size() <= column) {
      index.resize(column + 1);
      built.resize(column + 1, false);
    }
    if (!built[column]) {
      for (uint32_t id = 0; id < rows.size(); ++id) {
        index[column][rows[id][column]].push_back(id);
      }
      built[column] = true;
    }
    auto it = index[column].find(v);
    return it == index[column].end() ? nullptr : &it->second;
  }
};

class RuleJoin {
 public:
  RuleJoin(const RefRule& rule, std::vector<RefRel*> rels)
      : rule_(rule),
        rels_(std::move(rels)),
        value_(rule.var_names.size(), 0),
        bound_(rule.var_names.size(), false),
        done_(rule.body.size(), false) {}

  void Run(std::vector<Tuple>* out) {
    out_ = out;
    Step(0);
  }

 private:
  void Step(size_t depth) {
    if (depth == rule_.body.size()) {
      Tuple t;
      for (int v : rule_.head.vars) t.push_back(value_[v]);
      out_->push_back(std::move(t));
      return;
    }
    // Greedy order: the atom with the most bound variables next.
    int pick = -1;
    int best = -1;
    for (size_t a = 0; a < rule_.body.size(); ++a) {
      if (done_[a]) continue;
      int nb = 0;
      for (int v : rule_.body[a].vars) nb += bound_[v] ? 1 : 0;
      if (nb > best) {
        best = nb;
        pick = static_cast<int>(a);
      }
    }
    const RefAtom& atom = rule_.body[pick];
    RefRel* rel = rels_[pick];
    done_[pick] = true;
    int key_col = -1;
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      if (bound_[atom.vars[c]]) {
        key_col = static_cast<int>(c);
        break;
      }
    }
    auto visit = [&](const Tuple& row) {
      std::vector<int> newly;
      bool ok = true;
      for (size_t c = 0; c < atom.vars.size() && ok; ++c) {
        const int v = atom.vars[c];
        if (bound_[v]) {
          ok = value_[v] == row[c];
        } else {
          bound_[v] = true;
          value_[v] = row[c];
          newly.push_back(v);
        }
      }
      if (ok) Step(depth + 1);
      for (int v : newly) bound_[v] = false;
    };
    if (key_col >= 0) {
      const auto* ids = rel->Lookup(key_col, value_[atom.vars[key_col]]);
      if (ids != nullptr) {
        // Copy: a nested step may extend the index of the same relation.
        const std::vector<uint32_t> snapshot = *ids;
        for (uint32_t id : snapshot) visit(rel->rows[id]);
      }
    } else {
      const size_t n = rel->rows.size();
      for (size_t id = 0; id < n; ++id) visit(rel->rows[id]);
    }
    done_[pick] = false;
  }

  const RefRule& rule_;
  std::vector<RefRel*> rels_;
  std::vector<Value> value_;
  std::vector<bool> bound_;
  std::vector<bool> done_;
  std::vector<Tuple>* out_ = nullptr;
};

}  // namespace

RefDb ReferenceFixpoint(const std::vector<RefRule>& rules, const RefDb& edb) {
  std::map<std::string, RefRel> base;
  for (const auto& [name, set] : edb) {
    RefRel& rel = base[name];
    for (const Tuple& t : set) rel.Insert(t);
  }
  std::set<std::string> idb;
  for (const RefRule& r : rules) idb.insert(r.head.pred);
  std::map<std::string, RefRel> full;
  std::map<std::string, RefRel> delta;
  for (const std::string& p : idb) {
    full[p];
    delta[p];
  }
  RefRel empty;

  auto rel_for = [&](const std::string& pred, bool use_delta) -> RefRel* {
    if (idb.count(pred) != 0) return use_delta ? &delta[pred] : &full[pred];
    auto it = base.find(pred);
    return it == base.end() ? &empty : &it->second;
  };

  bool first = true;
  while (true) {
    std::map<std::string, std::vector<Tuple>> derived;
    for (const RefRule& rule : rules) {
      std::vector<size_t> idb_atoms;
      for (size_t a = 0; a < rule.body.size(); ++a) {
        if (idb.count(rule.body[a].pred) != 0) idb_atoms.push_back(a);
      }
      // The first round fires the rules without IDB atoms; later rounds
      // fire every rule once per IDB atom, that atom reading the delta.
      std::vector<int> delta_positions;
      if (first) {
        if (idb_atoms.empty()) delta_positions.push_back(-1);
      } else {
        for (size_t a : idb_atoms) delta_positions.push_back(static_cast<int>(a));
      }
      for (int dp : delta_positions) {
        std::vector<RefRel*> rels;
        for (size_t a = 0; a < rule.body.size(); ++a) {
          rels.push_back(rel_for(rule.body[a].pred, static_cast<int>(a) == dp));
        }
        RuleJoin(rule, rels).Run(&derived[rule.head.pred]);
      }
    }
    first = false;
    bool changed = false;
    for (const std::string& p : idb) delta[p] = RefRel();
    for (auto& [p, tuples] : derived) {
      for (Tuple& t : tuples) {
        if (full[p].set.count(t) != 0) continue;
        if (delta[p].Insert(t)) changed = true;
      }
    }
    if (!changed) break;
    for (const std::string& p : idb) {
      for (const Tuple& t : delta[p].rows) full[p].Insert(t);
    }
  }
  RefDb out;
  for (auto& [p, rel] : full) out[p] = std::move(rel.set);
  return out;
}

Digest BfsClosureDigest(const std::vector<std::pair<Value, Value>>& edges) {
  std::unordered_map<Value, std::vector<Value>> adj;
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  Digest d;
  std::unordered_set<Value> seen;
  std::deque<Value> queue;
  for (const auto& [src, unused] : adj) {
    seen.clear();
    queue.assign(1, src);
    while (!queue.empty()) {
      const Value x = queue.front();
      queue.pop_front();
      auto it = adj.find(x);
      if (it == adj.end()) continue;
      for (Value y : it->second) {
        if (seen.insert(y).second) {
          const Value t[2] = {src, y};
          d.Add(t, 2);
          queue.push_back(y);
        }
      }
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Tracer and report.

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int Tracer::Begin(const char* name, int64_t op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(), op});
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  stack_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns -
                                              child_ns[i]) / 1e3);
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

}  // namespace recurbench
