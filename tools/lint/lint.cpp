#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace celect::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// One `// celect-lint: allow(...)` comment. It silences the listed
// rules on its own line and on the line directly below, so it can ride
// at the end of the offending statement or on its own line above it.
struct Suppression {
  int line = 0;  // 1-based line of the comment
  std::set<std::string> rules;
  bool used = false;
};

struct SourceFile {
  std::string rel;  // e.g. "celect/sim/runtime.cpp"
  std::string dir;  // subsystem under celect/: "sim", "proto", ...
  std::vector<std::string> raw;   // verbatim lines
  std::vector<std::string> code;  // comments/strings blanked
  std::string joined;             // code lines joined with '\n'
  std::vector<std::size_t> line_start;  // joined offset of each line
  std::vector<Suppression> suppressions;
  std::vector<Finding> parse_findings;  // bad-suppression etc.
};

// 1-based line of a joined-text offset.
int LineOf(const SourceFile& f, std::size_t pos) {
  auto it = std::upper_bound(f.line_start.begin(), f.line_start.end(), pos);
  return static_cast<int>(it - f.line_start.begin());
}

// Blanks comments and string/char literals (preserving length and line
// structure) so token scans never match inside either. Handles //, /**/,
// "..." with escapes, '...' with escapes, and digit separators (1'000).
std::vector<std::string> StripComments(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  enum class St { kCode, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (const std::string& line : raw) {
    std::string code(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (st) {
        case St::kCode:
          if (c == '/' && next == '/') {
            i = line.size();  // rest of the line is comment
          } else if (c == '/' && next == '*') {
            st = St::kBlockComment;
            ++i;
          } else if (c == '"') {
            code[i] = '"';
            st = St::kString;
          } else if (c == '\'') {
            // A quote directly after an identifier character is a
            // digit separator (1'000'000), not a char literal.
            bool separator = i > 0 && IsIdentChar(line[i - 1]) &&
                             !(i >= 2 && line[i - 2] == '\'') &&
                             std::isdigit(static_cast<unsigned char>(
                                 line[i - 1])) != 0;
            if (separator) {
              code[i] = c;
            } else {
              code[i] = '\'';
              st = St::kChar;
            }
          } else {
            code[i] = c;
          }
          break;
        case St::kBlockComment:
          if (c == '*' && next == '/') {
            st = St::kCode;
            ++i;
          }
          break;
        case St::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            code[i] = '"';
            st = St::kCode;
          }
          break;
        case St::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            code[i] = '\'';
            st = St::kCode;
          }
          break;
      }
    }
    // Strings and chars never span lines in this codebase; recover
    // rather than corrupt the rest of the file on a stray quote.
    if (st == St::kString || st == St::kChar) st = St::kCode;
    out.push_back(std::move(code));
  }
  return out;
}

const std::vector<std::string> kRuleIds = {
    "no-wall-clock",     "no-unseeded-rng",  "no-unordered-iteration",
    "no-pointer-keys",   "proto-observe",    "proto-phase-spans",
    "proto-packet-arms", "metrics-surfaced", "layering",
    "bad-suppression",   "unused-suppression",
};

void ParseSuppressions(SourceFile& f) {
  static const std::string kTag = "celect-lint:";
  for (std::size_t li = 0; li < f.raw.size(); ++li) {
    const std::string& line = f.raw[li];
    std::size_t tag = line.find(kTag);
    if (tag == std::string::npos) continue;
    int lineno = static_cast<int>(li + 1);
    std::size_t open = line.find("allow(", tag);
    std::size_t close =
        open == std::string::npos ? std::string::npos : line.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      f.parse_findings.push_back(
          {f.rel, lineno, "bad-suppression", "error",
           "malformed suppression: expected "
           "\"celect-lint: allow(<rule>[, <rule>...]) <justification>\""});
      continue;
    }
    Suppression s;
    s.line = lineno;
    std::string rules = line.substr(open + 6, close - open - 6);
    std::stringstream ss(rules);
    std::string rule;
    bool ok = true;
    while (std::getline(ss, rule, ',')) {
      rule = Trim(rule);
      if (rule.empty()) continue;
      if (std::find(kRuleIds.begin(), kRuleIds.end(), rule) ==
          kRuleIds.end()) {
        f.parse_findings.push_back({f.rel, lineno, "bad-suppression",
                                    "error",
                                    "unknown rule id \"" + rule +
                                        "\" in suppression"});
        ok = false;
        continue;
      }
      s.rules.insert(rule);
    }
    if (Trim(line.substr(close + 1)).empty()) {
      f.parse_findings.push_back(
          {f.rel, lineno, "bad-suppression", "error",
           "suppression needs a justification after allow(...)"});
    }
    if (ok && !s.rules.empty()) f.suppressions.push_back(std::move(s));
  }
}

class Linter {
 public:
  explicit Linter(std::string root) : root_(std::move(root)) {}

  LintResult Run();

 private:
  // Reports unless a suppression on the line (or the line above)
  // covers the rule.
  void Report(SourceFile& f, int line, const std::string& rule,
              const std::string& message) {
    for (Suppression& s : f.suppressions) {
      if ((s.line == line || s.line + 1 == line) && s.rules.count(rule)) {
        s.used = true;
        return;
      }
    }
    findings_.push_back({f.rel, line, rule, "error", message});
  }

  void LoadTree();
  SourceFile* Pair(const SourceFile& f);

  // Rule passes.
  void CheckWallClock(SourceFile& f);
  void CheckUnseededRng(SourceFile& f);
  void CheckUnorderedIteration(SourceFile& f);
  void CheckPointerKeys(SourceFile& f);
  void CheckProtoContracts(SourceFile& f);
  void CheckPacketArms(SourceFile& f);
  void CheckMetricsSurfaced();
  void CheckLayering(SourceFile& f);

  // Occurrences of `word` as a whole identifier in the stripped text.
  static std::vector<std::size_t> FindWord(const std::string& text,
                                           const std::string& word);
  // Like FindWord, but only matches that are calls (next non-space char
  // is '(') and not member accesses (.word( / ->word( / foo::word( for
  // a non-std qualifier).
  static std::vector<std::size_t> FindCall(const std::string& text,
                                           const std::string& word);

  std::string root_;
  std::vector<SourceFile> files_;
  std::vector<Finding> findings_;
};

std::vector<std::size_t> Linter::FindWord(const std::string& text,
                                          const std::string& word) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    bool left = pos == 0 || !IsIdentChar(text[pos - 1]);
    std::size_t end = pos + word.size();
    bool right = end >= text.size() || !IsIdentChar(text[end]);
    if (left && right) out.push_back(pos);
    pos = end;
  }
  return out;
}

std::vector<std::size_t> Linter::FindCall(const std::string& text,
                                          const std::string& word) {
  std::vector<std::size_t> out;
  for (std::size_t pos : FindWord(text, word)) {
    std::size_t end = pos + word.size();
    while (end < text.size() &&
           std::isspace(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    if (end >= text.size() || text[end] != '(') continue;
    if (pos > 0) {
      char prev = text[pos - 1];
      if (prev == '.') continue;  // member call on a repo type
      if (prev == '>' && pos > 1 && text[pos - 2] == '-') continue;
      if (prev == ':') {
        // Only std:: / :: qualifiers reach the C library function.
        std::size_t q = pos >= 2 && text[pos - 2] == ':' ? pos - 2 : pos;
        bool std_qualified =
            q >= 3 && text.compare(q - 3, 3, "std") == 0 &&
            (q == 3 || !IsIdentChar(text[q - 4]));
        bool global_qualified = q >= 1 && !IsIdentChar(text[q - 1]);
        if (!(std_qualified || (q != pos && global_qualified &&
                                !std_qualified))) {
          if (!std_qualified) continue;
        }
      }
    }
    out.push_back(pos);
  }
  return out;
}

void Linter::LoadTree() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root_, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".h" || p.extension() == ".cpp") {
      paths.push_back(p);
    }
  }
  if (ec) {
    findings_.push_back({root_, 1, "io", "error",
                         "cannot walk tree: " + ec.message()});
    return;
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    SourceFile f;
    f.rel = fs::relative(p, root_).generic_string();
    // Subsystem = path component after a leading "celect/" (or the
    // first component when the root points directly at subsystems).
    std::string tail = f.rel;
    if (tail.rfind("celect/", 0) == 0) tail = tail.substr(7);
    f.dir = tail.substr(0, tail.find('/'));
    std::ifstream in(p);
    if (!in) {
      findings_.push_back({f.rel, 1, "io", "error", "cannot read file"});
      continue;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      f.raw.push_back(line);
    }
    f.code = StripComments(f.raw);
    std::size_t offset = 0;
    for (const std::string& l : f.code) {
      f.line_start.push_back(offset);
      f.joined += l;
      f.joined += '\n';
      offset += l.size() + 1;
    }
    ParseSuppressions(f);
    files_.push_back(std::move(f));
  }
}

// The other half of a foo.h / foo.cpp pair (nullptr when headerless).
SourceFile* Linter::Pair(const SourceFile& f) {
  std::string other = f.rel;
  if (other.size() > 4 && other.compare(other.size() - 4, 4, ".cpp") == 0) {
    other = other.substr(0, other.size() - 4) + ".h";
  } else {
    other = other.substr(0, other.size() - 2) + ".cpp";
  }
  for (SourceFile& g : files_) {
    if (g.rel == other) return &g;
  }
  return nullptr;
}

void Linter::CheckWallClock(SourceFile& f) {
  static const char* kWords[] = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime",        "mktime",
  };
  for (const char* w : kWords) {
    for (std::size_t pos : FindWord(f.joined, w)) {
      Report(f, LineOf(f, pos), "no-wall-clock",
             std::string("host clock source \"") + w +
                 "\" — sim results must be a pure function of the seed "
                 "(wrap sanctioned throughput probes in a suppression)");
    }
  }
  for (const char* w : {"time", "clock"}) {
    for (std::size_t pos : FindCall(f.joined, w)) {
      Report(f, LineOf(f, pos), "no-wall-clock",
             std::string("call to ") + w +
                 "() reads the host clock — sim results must be a pure "
                 "function of the seed");
    }
  }
}

void Linter::CheckUnseededRng(SourceFile& f) {
  // util/rng.h is the sanctioned seeded, splittable RNG; the rest of
  // the tree must not reach for std engines or the C library.
  if (f.dir == "util") return;
  static const char* kWords[] = {
      "random_device",      "mt19937",
      "mt19937_64",         "default_random_engine",
      "minstd_rand",        "minstd_rand0",
      "uniform_int_distribution",  "uniform_real_distribution",
      "normal_distribution",       "bernoulli_distribution",
      "poisson_distribution",      "discrete_distribution",
  };
  for (const char* w : kWords) {
    for (std::size_t pos : FindWord(f.joined, w)) {
      Report(f, LineOf(f, pos), "no-unseeded-rng",
             std::string("\"") + w +
                 "\" — use the seeded celect::Rng (util/rng.h); std "
                 "engines/distributions vary across library versions");
    }
  }
  for (const char* w : {"rand", "srand", "rand_r", "drand48", "shuffle"}) {
    for (std::size_t pos : FindCall(f.joined, w)) {
      Report(f, LineOf(f, pos), "no-unseeded-rng",
             std::string("call to ") + w +
                 "() — use the seeded celect::Rng (util/rng.h)");
    }
  }
}

void Linter::CheckUnorderedIteration(SourceFile& f) {
  // Names declared with std::unordered_* types in this file and its
  // pair (members declared in foo.h are iterated in foo.cpp).
  std::set<std::string> names;
  const SourceFile* pair = Pair(f);
  const SourceFile* sources[] = {&f, pair};
  for (const SourceFile* src : sources) {
    if (src == nullptr) continue;
    const std::string& text = src->joined;
    std::size_t pos = 0;
    while ((pos = text.find("std::unordered_", pos)) != std::string::npos) {
      std::size_t lt = text.find('<', pos);
      if (lt == std::string::npos) break;
      int depth = 1;
      std::size_t i = lt + 1;
      for (; i < text.size() && depth > 0; ++i) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>') --depth;
      }
      // Skip refs/pointers/whitespace, then take the declared name.
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) != 0 ||
              text[i] == '&' || text[i] == '*')) {
        ++i;
      }
      std::size_t b = i;
      while (i < text.size() && IsIdentChar(text[i])) ++i;
      if (i > b) {
        std::string name = text.substr(b, i - b);
        if (name != "const" && name != "constexpr") names.insert(name);
      }
      pos = lt + 1;
    }
  }
  if (names.empty()) return;
  const std::string& text = f.joined;
  for (const std::string& name : names) {
    for (std::size_t pos : FindWord(text, name)) {
      // Range-for: the name is the range expression — preceded
      // (modulo whitespace / this->) by ':' and followed by ')'.
      std::size_t before = pos;
      if (before >= 6 && text.compare(before - 6, 6, "this->") == 0) {
        before -= 6;
      }
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(text[before - 1])) !=
                 0) {
        --before;
      }
      std::size_t after = pos + name.size();
      while (after < text.size() &&
             std::isspace(static_cast<unsigned char>(text[after])) != 0) {
        ++after;
      }
      bool range_for = before > 0 && text[before - 1] == ':' &&
                       (before < 2 || text[before - 2] != ':') &&
                       after < text.size() && text[after] == ')';
      bool begin_call =
          after + 1 < text.size() &&
          (text.compare(after, 7, ".begin(") == 0 ||
           text.compare(after, 8, ".cbegin(") == 0 ||
           text.compare(after, 8, ".rbegin(") == 0 ||
           text.compare(after, 9, "->begin(") == 0);
      if (range_for || begin_call) {
        Report(f, LineOf(f, pos), "no-unordered-iteration",
               "iteration over std::unordered_* container \"" + name +
                   "\" — bucket order is implementation-defined and "
                   "leaks into message order / traces / fingerprints; "
                   "use an ordered or index-keyed container, or "
                   "suppress if provably order-independent");
      }
    }
  }
}

void Linter::CheckPointerKeys(SourceFile& f) {
  static const char* kContainers[] = {
      "std::map<",           "std::set<",
      "std::multimap<",      "std::multiset<",
      "std::unordered_map<", "std::unordered_set<",
  };
  const std::string& text = f.joined;
  for (const char* c : kContainers) {
    std::size_t pos = 0;
    std::size_t clen = std::string(c).size();
    while ((pos = text.find(c, pos)) != std::string::npos) {
      if (pos > 0 && IsIdentChar(text[pos - 1])) {
        pos += clen;
        continue;
      }
      // First template argument: up to a top-level ',' or '>'.
      int depth = 1;
      std::size_t i = pos + clen;
      std::size_t arg_end = std::string::npos;
      for (; i < text.size(); ++i) {
        if (text[i] == '<' || text[i] == '(') ++depth;
        if (text[i] == '>' || text[i] == ')') --depth;
        if (depth == 0 || (depth == 1 && text[i] == ',')) {
          arg_end = i;
          break;
        }
      }
      if (arg_end != std::string::npos) {
        std::string key = Trim(text.substr(pos + clen, arg_end - pos - clen));
        if (!key.empty() && key.back() == '*') {
          Report(f, LineOf(f, pos), "no-pointer-keys",
                 "container keyed by pointer type \"" + key +
                     "\" — address order differs between runs; key by a "
                     "stable id instead");
        }
      }
      pos += clen;
    }
  }
}

// Offset just past the ')' closing the '(' at open (text.size() when
// unbalanced), and likewise for a '{' and its '}'.
std::size_t PastClose(const std::string& text, std::size_t open, char o,
                      char c) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    if (text[i] == c && --depth == 0) return i + 1;
  }
  return text.size();
}

// Class declarations deriving (transitively, by token) from the
// asynchronous Process hierarchy.
struct ClassDecl {
  std::string name;
  std::size_t body_begin = 0;  // offset just past '{'
  std::size_t body_end = 0;    // offset of matching '}'
  std::size_t decl_pos = 0;
};

std::vector<ClassDecl> FindProcessClasses(const std::string& text) {
  std::vector<ClassDecl> out;
  std::size_t pos = 0;
  while ((pos = text.find("class", pos)) != std::string::npos) {
    if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
        (pos + 5 < text.size() && IsIdentChar(text[pos + 5]))) {
      pos += 5;
      continue;
    }
    std::size_t decl_pos = pos;
    std::size_t i = pos + 5;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    std::size_t name_b = i;
    while (i < text.size() && IsIdentChar(text[i])) ++i;
    std::string name = text.substr(name_b, i - name_b);
    // Up to the first '{', ';' or '(' lies the (optional) base clause.
    std::size_t stop = text.find_first_of("{;(", i);
    if (stop == std::string::npos || text[stop] != '{' || name.empty()) {
      pos += 5;
      continue;
    }
    std::string bases = text.substr(i, stop - i);
    if (bases.find(':') == std::string::npos) {
      pos += 5;
      continue;
    }
    bool from_process = (bases.find("Process") != std::string::npos) &&
                        (bases.find("SyncProcess") == std::string::npos);
    if (!from_process) {
      pos += 5;
      continue;
    }
    std::size_t b = PastClose(text, stop, '{', '}');
    out.push_back({name, stop + 1, b - 1, decl_pos});
    pos = stop + 1;
  }
  return out;
}

// The receiver of a member access ending at pos (`x.` or `x->` right
// before it), or "" when the name at pos is not a member access.
std::string Receiver(const std::string& text, std::size_t pos) {
  std::size_t b = pos;
  while (b > 0 && std::isspace(static_cast<unsigned char>(text[b - 1])) != 0) {
    --b;
  }
  if (b >= 1 && text[b - 1] == '.') {
    b -= 1;
  } else if (b >= 2 && text.compare(b - 2, 2, "->") == 0) {
    b -= 2;
  } else {
    return "";
  }
  std::size_t e = b;
  if (e > 0 && text[e - 1] == ')') {  // a call: real().
    std::size_t open = text.rfind('(', e - 1);
    if (open == std::string::npos) return ")";
    b = open;
  }
  while (b > 0 && IsIdentChar(text[b - 1])) --b;
  return text.substr(b, e - b);
}

// What a class contributes to its engine contract: its body plus the
// bodies of its `Name::member(...) { ... }` definitions in its own file
// or the pair file.
struct OwnCode {
  struct Range {
    const std::string* text;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Range> ranges;
  bool defines_observe = false;  // an Observe override with a body
};

OwnCode CollectOwnCode(const ClassDecl& c, const SourceFile& f,
                       const SourceFile* pair) {
  OwnCode own;
  const std::string& text = f.joined;
  own.ranges.push_back({&text, c.body_begin, c.body_end});
  // An in-class Observe definition: a declarator, not a member call,
  // whose parameter list is followed by qualifiers and then a body.
  std::size_t pos = c.body_begin;
  while ((pos = text.find("Observe(", pos)) < c.body_end) {
    if ((pos == 0 || !IsIdentChar(text[pos - 1])) &&
        Receiver(text, pos).empty()) {
      std::size_t i = PastClose(text, pos + 7, '(', ')');
      while (i < c.body_end &&
             (IsIdentChar(text[i]) ||
              std::isspace(static_cast<unsigned char>(text[i])) != 0)) {
        ++i;
      }
      if (i < c.body_end && text[i] == '{') own.defines_observe = true;
    }
    pos += 8;
  }
  // Out-of-line members: Name::member(...) ... { body }.
  const std::string qualifier = c.name + "::";
  for (const SourceFile* file : {&f, pair}) {
    if (file == nullptr) continue;
    const std::string& t = file->joined;
    std::size_t q = 0;
    while ((q = t.find(qualifier, q)) != std::string::npos) {
      bool word = q == 0 || !IsIdentChar(t[q - 1]);
      q += qualifier.size();
      if (!word) continue;
      std::size_t name_end = q;
      while (name_end < t.size() &&
             (IsIdentChar(t[name_end]) || t[name_end] == '~')) {
        ++name_end;
      }
      if (name_end >= t.size() || t[name_end] != '(') continue;
      std::size_t stop =
          t.find_first_of("{;", PastClose(t, name_end, '(', ')'));
      if (stop == std::string::npos || t[stop] != '{') continue;
      own.ranges.push_back({&t, stop + 1, PastClose(t, stop, '{', '}')});
      if (t.compare(q, name_end - q, "Observe") == 0) {
        own.defines_observe = true;
      }
    }
  }
  return own;
}

// Whether code calls `name(` on a context of its own: `ctx.name(` or
// `ctx->name(`, but not a forwarding call on the context it wraps
// (`real_.name(`, `real().name(`) and not a declaration.
bool CallsOnOwnContext(const OwnCode& own, const std::string& name) {
  const std::string token = name + "(";
  for (const OwnCode::Range& r : own.ranges) {
    const std::string& text = *r.text;
    std::size_t pos = r.begin;
    while ((pos = text.find(token, pos)) < r.end) {
      if (pos > 0 && !IsIdentChar(text[pos - 1])) {
        const std::string recv = Receiver(text, pos);
        if (!recv.empty() && recv != "real_" && recv != "real()") {
          return true;
        }
      }
      pos += token.size();
    }
  }
  return false;
}

void Linter::CheckProtoContracts(SourceFile& f) {
  if (f.dir != "proto") return;
  const SourceFile* pair = Pair(f);
  for (const ClassDecl& c : FindProcessClasses(f.joined)) {
    std::string body =
        f.joined.substr(c.body_begin, c.body_end - c.body_begin);
    // Abstract protocol scaffolding (pure virtuals) carries no engine
    // contract of its own. A pure-virtual's "= 0;" is preceded by ')'
    // or a trailing qualifier — member initializers ("int x_ = 0;")
    // are not, so they don't exempt a class.
    bool abstract = false;
    std::size_t pv = 0;
    while ((pv = body.find("= 0;", pv)) != std::string::npos) {
      std::size_t b = pv;
      while (b > 0 && std::isspace(static_cast<unsigned char>(
                          body[b - 1])) != 0) {
        --b;
      }
      bool qualifier =
          (b > 0 && body[b - 1] == ')') ||
          (b >= 5 && body.compare(b - 5, 5, "const") == 0) ||
          (b >= 8 && body.compare(b - 8, 8, "noexcept") == 0) ||
          (b >= 8 && body.compare(b - 8, 8, "override") == 0);
      if (qualifier) {
        abstract = true;
        break;
      }
      pv += 4;
    }
    if (abstract) continue;
    // Only the class's own code counts: its body and its Name::
    // members. Another class in the same file or the pair file, a
    // forwarding context, or an override declaration does not.
    const OwnCode own = CollectOwnCode(c, f, pair);
    int line = LineOf(f, c.decl_pos);
    if (!own.defines_observe) {
      Report(f, line, "proto-observe",
             "engine class " + c.name +
                 " never overrides Observe() — the invariant registry "
                 "needs per-protocol monotone progress gauges");
    }
    if (!CallsOnOwnContext(own, "BeginPhase") ||
        !CallsOnOwnContext(own, "EndPhase")) {
      Report(f, line, "proto-phase-spans",
             "engine class " + c.name +
                 " emits no BeginPhase/EndPhase spans — phase tables "
                 "and the Perfetto export stay empty for it");
    }
  }
}

void Linter::CheckPacketArms(SourceFile& f) {
  if (f.dir != "proto") return;
  const SourceFile* pair = Pair(f);
  const std::string& text = f.joined;
  std::size_t pos = 0;
  while ((pos = text.find("enum", pos)) != std::string::npos) {
    if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
        (pos + 4 < text.size() && IsIdentChar(text[pos + 4]))) {
      pos += 4;
      continue;
    }
    std::size_t i = pos + 4;
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) != 0)) {
      ++i;
    }
    if (text.compare(i, 5, "class") == 0 && !IsIdentChar(text[i + 5])) {
      i += 5;
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i])) != 0) {
        ++i;
      }
    }
    std::size_t name_b = i;
    while (i < text.size() && IsIdentChar(text[i])) ++i;
    std::string name = text.substr(name_b, i - name_b);
    std::size_t open = text.find('{', i);
    if (name.find("Msg") == std::string::npos ||
        open == std::string::npos) {
      pos += 4;
      continue;
    }
    std::size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    std::string body = text.substr(open + 1, close - open - 1);
    // Enumerators: identifiers at the start of each comma entry.
    std::size_t entry = 0;
    while (entry < body.size()) {
      std::size_t comma = body.find(',', entry);
      if (comma == std::string::npos) comma = body.size();
      std::string item = Trim(body.substr(entry, comma - entry));
      std::size_t e = 0;
      while (e < item.size() && IsIdentChar(item[e])) ++e;
      std::string enumerator = item.substr(0, e);
      if (!enumerator.empty()) {
        std::size_t at = open + 1 + entry;
        int line = LineOf(f, text.find(enumerator, at));
        auto arms = [&](const SourceFile& s, bool& has_case,
                        bool& has_send) {
          for (std::size_t p : FindWord(s.joined, enumerator)) {
            // Ignore the declaration itself.
            if (&s == &f && p > open && p < close) continue;
            std::size_t b = p;
            while (b > 0 && std::isspace(static_cast<unsigned char>(
                                s.joined[b - 1])) != 0) {
              --b;
            }
            bool is_case =
                b >= 4 && s.joined.compare(b - 4, 4, "case") == 0 &&
                (b == 4 || !IsIdentChar(s.joined[b - 5]));
            (is_case ? has_case : has_send) = true;
          }
        };
        bool has_case = false;
        bool has_send = false;
        arms(f, has_case, has_send);
        if (pair != nullptr) arms(*pair, has_case, has_send);
        if (!has_case) {
          Report(f, line, "proto-packet-arms",
                 "packet enumerator " + enumerator + " of " + name +
                     " has no handler (case) arm — received packets of "
                     "this kind would be silently mis-dispatched");
        }
        if (!has_send) {
          Report(f, line, "proto-packet-arms",
                 "packet enumerator " + enumerator + " of " + name +
                     " is never constructed/sent — dead packet kind or "
                     "missing encoder arm");
        }
      }
      entry = comma + 1;
    }
    pos = close;
  }
}

void Linter::CheckMetricsSurfaced() {
  SourceFile* metrics = nullptr;
  for (SourceFile& f : files_) {
    if (f.rel.size() >= 13 &&
        f.rel.compare(f.rel.size() - 13, 13, "sim/metrics.h") == 0) {
      metrics = &f;
    }
  }
  if (metrics == nullptr) return;
  // Getters: const member functions of the form `name(...) const`.
  const std::string& text = metrics->joined;
  std::size_t pos = 0;
  while ((pos = text.find("(", pos)) != std::string::npos) {
    std::size_t close = text.find(')', pos);
    if (close == std::string::npos) break;
    std::size_t after = close + 1;
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after])) != 0) {
      ++after;
    }
    if (text.compare(after, 5, "const") != 0 ||
        (after + 5 < text.size() && IsIdentChar(text[after + 5]))) {
      ++pos;
      continue;
    }
    std::size_t name_e = pos;
    while (name_e > 0 && std::isspace(static_cast<unsigned char>(
                             text[name_e - 1])) != 0) {
      --name_e;
    }
    std::size_t name_b = name_e;
    while (name_b > 0 && IsIdentChar(text[name_b - 1])) --name_b;
    std::string getter = text.substr(name_b, name_e - name_b);
    ++pos;
    if (getter.empty() || getter == "operator") continue;
    bool surfaced = false;
    std::string impl = metrics->rel.substr(0, metrics->rel.size() - 2) +
                       ".cpp";
    for (const SourceFile& g : files_) {
      if (g.rel == metrics->rel || g.rel == impl) continue;
      if (!FindWord(g.joined, getter).empty()) {
        surfaced = true;
        break;
      }
    }
    if (!surfaced) {
      Report(*metrics, LineOf(*metrics, name_b), "metrics-surfaced",
             "Metrics getter " + getter +
                 "() is read nowhere outside sim/metrics.{h,cpp} — "
                 "every counter must be surfaced in RunResult or the "
                 "bench JSON emitter (or deleted)");
    }
  }
}

void Linter::CheckLayering(SourceFile& f) {
  // Allowed #include targets per subsystem. The load-bearing edges:
  // util is freestanding, obs sits under sim (it may see sim's trace
  // vocabulary but nothing above), the deterministic core (sim/proto/
  // topo) never sees harness/analysis, and only harness sees everyone.
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"util", {"util"}},
      {"wire", {"wire", "util"}},
      {"obs", {"obs", "sim", "util"}},
      {"sim", {"sim", "wire", "obs", "util"}},
      {"net", {"net", "sim", "obs", "wire", "util"}},
      {"topo", {"topo", "sim", "util"}},
      {"proto", {"proto", "sim", "topo", "obs", "wire", "util"}},
      {"adversary", {"adversary", "sim", "topo", "util"}},
      {"apps", {"apps", "proto", "sim", "util"}},
      {"analysis", {"analysis", "obs", "proto", "sim", "util"}},
      {"harness",
       {"harness", "adversary", "analysis", "apps", "net", "obs", "proto",
        "sim", "topo", "util", "wire"}},
  };
  auto allowed = kAllowed.find(f.dir);
  // Raw lines: include paths are string literals, which the stripped
  // text blanks out. Restricting to preprocessor lines keeps comments
  // that merely mention an include from matching.
  for (std::size_t li = 0; li < f.raw.size(); ++li) {
    const std::string& line = f.raw[li];
    std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    std::size_t inc = line.find("#include \"celect/");
    if (inc == std::string::npos) continue;
    std::size_t b = inc + 17;
    std::size_t e = line.find('/', b);
    if (e == std::string::npos) continue;
    std::string target = line.substr(b, e - b);
    if (allowed == kAllowed.end() || allowed->second.count(target) == 0) {
      Report(f, static_cast<int>(li + 1), "layering",
             "\"" + f.dir + "\" must not include \"celect/" + target +
                 "/...\" — it breaks the subsystem layering (see "
                 "DESIGN.md §13)");
    }
  }
}

LintResult Linter::Run() {
  LoadTree();
  for (SourceFile& f : files_) {
    CheckWallClock(f);
    CheckUnseededRng(f);
    CheckUnorderedIteration(f);
    CheckPointerKeys(f);
    CheckProtoContracts(f);
    CheckPacketArms(f);
    CheckLayering(f);
  }
  CheckMetricsSurfaced();
  LintResult result;
  result.files_scanned = files_.size();
  result.findings = std::move(findings_);
  for (SourceFile& f : files_) {
    for (Finding& pf : f.parse_findings) {
      result.findings.push_back(std::move(pf));
    }
    for (const Suppression& s : f.suppressions) {
      if (!s.used) {
        result.findings.push_back(
            {f.rel, s.line, "unused-suppression", "warning",
             "suppression silences nothing — delete it or fix the rule "
             "list"});
      }
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return result;
}

}  // namespace

bool LintResult::HasErrors() const { return ErrorCount() > 0; }

std::size_t LintResult::ErrorCount() const {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.severity == "error" ? 1 : 0;
  return n;
}

std::size_t LintResult::WarningCount() const {
  return findings.size() - ErrorCount();
}

const std::vector<std::string>& RuleIds() { return kRuleIds; }

LintResult LintTree(const std::string& root) {
  return Linter(root).Run();
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": " << f.severity << ": [" << f.rule
     << "] " << f.message;
  return os.str();
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}
}  // namespace

std::string FindingsJson(const LintResult& r) {
  std::ostringstream os;
  os << "{\n  \"files_scanned\": " << r.files_scanned
     << ",\n  \"errors\": " << r.ErrorCount()
     << ",\n  \"warnings\": " << r.WarningCount()
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    os << (i ? ",\n    " : "\n    ") << "{\"file\": " << JsonEscape(f.file)
       << ", \"line\": " << f.line
       << ", \"rule\": " << JsonEscape(f.rule)
       << ", \"severity\": " << JsonEscape(f.severity)
       << ", \"message\": " << JsonEscape(f.message) << "}";
  }
  os << (r.findings.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace celect::lint
