#include "core/instance_io.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace msrs {

void write_text(std::ostream& out, const Instance& instance) {
  out << "msrs 1\n";
  out << "machines " << instance.machines() << '\n';
  out << "classes " << instance.num_classes() << '\n';
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto& jobs = instance.class_jobs(c);
    out << "class " << jobs.size();
    for (JobId j : jobs) out << ' ' << instance.size(j);
    out << '\n';
  }
}

std::string to_text(const Instance& instance) {
  std::ostringstream out;
  write_text(out, instance);
  return out.str();
}

FlatInstance flatten(const Instance& instance) {
  FlatInstance flat;
  flat.machines = instance.machines();
  flat.sizes.reserve(static_cast<std::size_t>(instance.num_jobs()));
  flat.classes.reserve(static_cast<std::size_t>(instance.num_classes()));
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto& jobs = instance.class_jobs(c);
    for (const JobId j : jobs) flat.sizes.push_back(instance.size(j));
    flat.classes.push_back(static_cast<std::int32_t>(jobs.size()));
  }
  return flat;
}

namespace {

// The whitespace `std::istream >>` skips in the classic locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// A cursor with the token rules of `std::istream >>` in the classic
// locale, so the grammar and every error message stay those of the
// format's first, stream-based parser (kept in tests/test_fuzz.cpp as the
// differential oracle).
class Scanner {
 public:
  explicit Scanner(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  // The next whitespace-delimited token; empty at the end of the input.
  std::string_view token() {
    skip_space();
    const char* begin = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  // The next integer: an optional sign and base-10 digits, read up to the
  // first non-digit. False when no digit follows or the value overflows.
  bool number(std::int64_t* out) {
    skip_space();
    const char* first = pos_;
    if (first != end_ && *first == '+') {
      // from_chars takes no '+', and would take a '-' right after one.
      ++first;
      if (first == end_ || !is_digit(*first)) return false;
    }
    const auto [ptr, ec] = std::from_chars(first, end_, *out);
    if (ec != std::errc()) return false;
    pos_ = ptr;
    return true;
  }

  // Bytes not yet consumed (an upper bound on what the rest can hold).
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

 private:
  void skip_space() {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

std::string quoted(std::string_view token) {
  std::string out;
  out.reserve(token.size() + 2);
  out += '\'';
  out += token;
  out += '\'';
  return out;
}

// Parses one instance into *out. Returns 1 on success, 0 on clean EOF
// before the header (end of a corpus), -1 on malformed input (*error
// describes it). Consumes nothing past the instance's own tokens, so
// concatenated instances parse by repeated calls.
int parse_one(Scanner& in, FlatInstance* out, std::string* error) {
  auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return -1;
  };

  // Keywords echo the offending token back in the error, so a typo in a
  // keyword is distinguishable from a truncated file.
  std::string_view token = in.token();
  if (token != "msrs") {
    if (token.empty()) return 0;  // clean EOF: no (further) instance
    return fail("bad header: expected 'msrs', got " + quoted(token));
  }
  std::int64_t version = 0;
  if (!in.number(&version) || version != 1)
    return fail("unsupported format version (expected 1)");

  token = in.token();
  if (token != "machines")
    return fail(token.empty() ? "missing 'machines <m>' line"
                              : "expected 'machines', got " + quoted(token));
  std::int64_t machines = 0;
  if (!in.number(&machines)) return fail("machine count is not a number");
  if (machines < 1)
    return fail("machine count must be >= 1, got " + std::to_string(machines));
  if (machines > kMaxMachines)
    return fail("machine count " + std::to_string(machines) +
                " exceeds the supported maximum of " +
                std::to_string(kMaxMachines));

  token = in.token();
  if (token != "classes")
    return fail(token.empty() ? "missing 'classes <k>' line"
                              : "expected 'classes', got " + quoted(token));
  std::int64_t num_classes = 0;
  if (!in.number(&num_classes) || num_classes < 0)
    return fail("class count must be a number >= 0");

  out->machines = static_cast<int>(machines);
  out->sizes.clear();
  out->classes.clear();
  // A class line takes more than 8 bytes ("class 1 1"): the reservation is
  // bounded by the input, never by the untrusted count.
  out->classes.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(num_classes,
                             static_cast<std::int64_t>(in.remaining() / 8))));
  Time total = 0;
  for (std::int64_t c = 0; c < num_classes; ++c) {
    const auto fail_class = [&](const std::string& message) {
      return fail("class " + std::to_string(c) + message);
    };
    token = in.token();
    if (token != "class")
      return fail_class(token.empty()
                            ? ": missing 'class' line (file declares " +
                                  std::to_string(num_classes) + " classes)"
                            : ": expected 'class', got " + quoted(token));
    std::int64_t count = 0;
    if (!in.number(&count)) return fail_class(": job count is not a number");
    if (count < 1)
      return fail_class(count == 0 ? " is empty (every class needs >= 1 job)"
                                   : ": job count must be >= 1, got " +
                                         std::to_string(count));
    for (std::int64_t i = 0; i < count; ++i) {
      Time p = 0;
      if (!in.number(&p))
        return fail_class(": job " + std::to_string(i) + " of " +
                          std::to_string(count) +
                          " is missing or not a number");
      if (p < 1) return fail_class(": job size " + std::to_string(p) + " < 1");
      if (p > kMaxJobSize)
        return fail_class(": job size " + std::to_string(p) +
                          " exceeds the supported maximum of " +
                          std::to_string(kMaxJobSize));
      total += p;  // <= kMaxTotalLoad + kMaxJobSize: no overflow
      if (total > kMaxTotalLoad)
        return fail_class(": total load exceeds the supported maximum of " +
                          std::to_string(kMaxTotalLoad));
      if (static_cast<std::int64_t>(out->sizes.size()) == kMaxJobs)
        return fail("more than " + std::to_string(kMaxJobs) + " jobs");
      out->sizes.push_back(p);
    }
    out->classes.push_back(static_cast<std::int32_t>(count));
  }
  return 1;
}

std::string slurp(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

std::optional<FlatInstance> parse_flat(std::string_view text,
                                       std::string* error) {
  auto fail = [&](std::string message) -> std::optional<FlatInstance> {
    if (error) *error = std::move(message);
    return std::nullopt;
  };
  Scanner in(text);
  FlatInstance flat;
  // The text holds one instance, and a job size takes at least 2 bytes (a
  // digit and a separator): one reservation bounded by the input replaces
  // growing the buffer job by job.
  flat.sizes.reserve(text.size() / 2);
  const int status = parse_one(in, &flat, error);
  if (status == 0) return fail("empty input: missing 'msrs 1' header");
  if (status < 0) return std::nullopt;
  if (const std::string_view rest = in.token(); !rest.empty())
    return fail("trailing garbage after " +
                std::to_string(flat.classes.size()) + " classes: " +
                quoted(rest));
  return flat;
}

std::optional<Instance> from_text(std::string_view text, std::string* error) {
  std::optional<FlatInstance> flat = parse_flat(text, error);
  if (!flat) return std::nullopt;
  return flat->build();
}

std::optional<Instance> read_text(std::istream& in, std::string* error) {
  return from_text(slurp(in), error);
}

std::optional<std::vector<Instance>> read_corpus(std::istream& in,
                                                 std::string* error) {
  const std::string text = slurp(in);
  Scanner scanner(text);
  std::vector<Instance> corpus;
  FlatInstance flat;
  for (;;) {
    const int status = parse_one(scanner, &flat, error);
    if (status == 0) return corpus;
    if (status < 0) {
      if (error)
        *error = "corpus instance " + std::to_string(corpus.size()) + ": " +
                 *error;
      return std::nullopt;
    }
    corpus.push_back(flat.build());
  }
}

}  // namespace msrs
