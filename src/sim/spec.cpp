#include "sim/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/rng.hpp"

namespace msrs {
namespace {

// Splits on `sep`, but never inside parentheses (dist arguments contain
// commas: `classes=uniform(1,8)`).
std::vector<std::string_view> split_outside_parens(std::string_view text,
                                                   char sep) {
  std::vector<std::string_view> out;
  std::size_t begin = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] == '(') ++depth;
    if (i < text.size() && text[i] == ')') --depth;
    if (i == text.size() || (text[i] == sep && depth == 0)) {
      if (i > begin) out.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

bool parse_int(std::string_view text, std::int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_double(std::string_view text, double* out) {
  // std::from_chars for double is not universally available; strtod on a
  // bounded copy is portable and locale headaches are avoided by rejecting
  // anything but plain digits, '.', '-', '+'.
  if (text.empty() ||
      text.find_first_not_of("0123456789.+-eE") != std::string_view::npos)
    return false;
  const std::string copy(text);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

std::optional<Dist> parse_dist(std::string_view text, std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<Dist> {
    if (error) *error = message;
    return std::nullopt;
  };
  const std::size_t open = text.find('(');
  if (open == std::string_view::npos || text.back() != ')')
    return fail("distribution '" + std::string(text) +
                "' must look like name(args), e.g. zipf(1.2)");
  const std::string_view name = text.substr(0, open);
  const std::string_view inner =
      text.substr(open + 1, text.size() - open - 2);
  const std::vector<std::string_view> args =
      split_outside_parens(inner, ',');
  Dist dist;
  if (name == "uniform") {
    dist.kind = Dist::Kind::kUniform;
    if (args.size() != 2 || !parse_int(args[0], &dist.lo) ||
        !parse_int(args[1], &dist.hi))
      return fail("uniform needs two integer arguments: uniform(lo,hi)");
    if (dist.lo > dist.hi)
      return fail("uniform(lo,hi) needs lo <= hi, got " + std::string(inner));
  } else if (name == "zipf") {
    dist.kind = Dist::Kind::kZipf;
    if (args.size() != 1 || !parse_double(args[0], &dist.s))
      return fail("zipf needs one numeric argument: zipf(s)");
    if (!(dist.s > 0.0) || !std::isfinite(dist.s))
      return fail("zipf exponent must be a finite number > 0");
  } else if (name == "const") {
    dist.kind = Dist::Kind::kConst;
    if (args.size() != 1 || !parse_int(args[0], &dist.value))
      return fail("const needs one integer argument: const(v)");
    if (dist.value < 1) return fail("const value must be >= 1");
  } else {
    return fail("unknown distribution '" + std::string(name) +
                "' (known: uniform, zipf, const)");
  }
  return dist;
}

std::string known_families() {
  std::string out;
  for (const Family family : kAllFamilies) {
    if (!out.empty()) out += ", ";
    out += family_name(family);
  }
  return out;
}

}  // namespace

std::optional<Family> parse_family(std::string_view name) {
  for (const Family family : kAllFamilies)
    if (name == family_name(family)) return family;
  // Aliases for the long names, matching the ISSUE/README shorthand.
  if (name == "huge") return Family::kHugeHeavy;
  if (name == "lemma9" || name == "tight") return Family::kLemma9Tight;
  if (name == "dominant") return Family::kSingleDominant;
  return std::nullopt;
}

std::int64_t Dist::sample(Rng& rng, std::int64_t lo_default,
                          std::int64_t hi_default, std::int64_t hi_cap) const {
  const auto clamp = [&](std::int64_t v) {
    return std::clamp<std::int64_t>(v, 1, std::max<std::int64_t>(1, hi_cap));
  };
  switch (kind) {
    case Kind::kDefault:
      return clamp(rng.uniform(lo_default, std::max(lo_default, hi_default)));
    case Kind::kUniform:
      return clamp(rng.uniform(lo, hi));
    case Kind::kConst:
      return clamp(value);
    case Kind::kZipf: {
      // P(r) proportional to r^-s on ranks [lo_default, hi_default] (the
      // family's natural support, so zipf only reshapes, never rescales).
      // Sampled by rejection-inversion (Hörmann & Derflinger 1996): invert
      // the integral envelope of x^-s, accept against the true pmf — exact
      // and O(1) expected per draw, independent of the support size.
      const std::int64_t first = std::max<std::int64_t>(1, lo_default);
      const std::int64_t last = std::max(first, hi_default);
      if (first == last) return clamp(first);
      const auto h = [this](double x) {
        return s == 1.0 ? std::log(x)
                        : (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
      };
      const auto h_inverse = [this](double y) {
        return s == 1.0 ? std::exp(y)
                        : std::pow(1.0 + (1.0 - s) * y, 1.0 / (1.0 - s));
      };
      const double lo_integral = h(static_cast<double>(first) - 0.5);
      const double hi_integral = h(static_cast<double>(last) + 0.5);
      for (;;) {
        const double u =
            lo_integral + rng.uniform01() * (hi_integral - lo_integral);
        const std::int64_t r = std::clamp<std::int64_t>(
            std::llround(h_inverse(u)), first, last);
        // Accept when u lands in the top r^-s slice of r's envelope bucket
        // [h(r-1/2), h(r+1/2)] — the bucket is at least that wide because
        // x^-s is convex, so acceptance reproduces the pmf exactly.
        if (u >= h(static_cast<double>(r) + 0.5) -
                     std::pow(static_cast<double>(r), -s))
          return clamp(r);
      }
    }
  }
  return 1;
}

std::string Dist::str() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kDefault: break;
    case Kind::kUniform: out << "uniform(" << lo << ',' << hi << ')'; break;
    case Kind::kConst: out << "const(" << value << ')'; break;
    case Kind::kZipf: {
      // Shortest representation that round-trips through strtod, so
      // parse_spec(str()) reproduces the exact double (Dist::hash() mixes
      // the bit pattern into the RNG seed).
      char buffer[32];
      const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, s);
      out << "zipf("
          << std::string_view(buffer, static_cast<std::size_t>(end - buffer))
          << ')';
      break;
    }
  }
  return out.str();
}

std::uint64_t Dist::hash() const {
  std::uint64_t state = static_cast<std::uint64_t>(kind);
  std::uint64_t h = splitmix64(state);
  state ^= static_cast<std::uint64_t>(lo) * 0x9e3779b97f4a7c15ULL;
  h ^= splitmix64(state);
  state ^= static_cast<std::uint64_t>(hi) * 0xbf58476d1ce4e5b9ULL;
  h ^= splitmix64(state);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(s));
  __builtin_memcpy(&bits, &s, sizeof(bits));
  state ^= bits;
  h ^= splitmix64(state);
  state ^= static_cast<std::uint64_t>(value);
  h ^= splitmix64(state);
  return h;
}

std::string GeneratorSpec::str() const {
  std::ostringstream out;
  out << family_name(family) << ":n=" << jobs << ",m=" << machines
      << ",max=" << max_size << ",seed=" << seed;
  if (class_size.set()) out << ",classes=" << class_size.str();
  if (job_size.set()) out << ",sizes=" << job_size.str();
  return out.str();
}

std::optional<GeneratorSpec> parse_spec(std::string_view text,
                                        std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<GeneratorSpec> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (text.empty()) return fail("empty spec (expected family[:key=value,...])");

  GeneratorSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view family_part = text.substr(0, colon);
  const auto family = parse_family(family_part);
  if (!family)
    return fail("unknown family '" + std::string(family_part) +
                "' (known: " + known_families() + ")");
  spec.family = *family;
  if (colon == std::string_view::npos) return spec;

  for (const std::string_view clause :
       split_outside_parens(text.substr(colon + 1), ',')) {
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos)
      return fail("bad clause '" + std::string(clause) +
                  "' (expected key=value)");
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value = clause.substr(eq + 1);
    std::int64_t number = 0;
    if (key == "n") {
      if (!parse_int(value, &number) || number < 0 || number > kMaxJobs)
        return fail("n must be an integer in [0, " + std::to_string(kMaxJobs) +
                    "], got '" + std::string(value) + "'");
      spec.jobs = static_cast<int>(number);
    } else if (key == "m") {
      if (!parse_int(value, &number) || number < 1 || number > kMaxMachines)
        return fail("m must be an integer in [1, " +
                    std::to_string(kMaxMachines) + "], got '" +
                    std::string(value) + "'");
      spec.machines = static_cast<int>(number);
    } else if (key == "max") {
      if (!parse_int(value, &number) || number < 1 || number > kMaxJobSize)
        return fail("max must be an integer in [1, " +
                    std::to_string(kMaxJobSize) + "], got '" +
                    std::string(value) + "'");
      spec.max_size = number;
    } else if (key == "seed") {
      if (!parse_int(value, &number) || number < 0)
        return fail("seed must be an integer >= 0, got '" +
                    std::string(value) + "'");
      spec.seed = static_cast<std::uint64_t>(number);
    } else if (key == "classes" || key == "sizes") {
      const auto dist = parse_dist(value, error);
      if (!dist) return std::nullopt;
      (key == "classes" ? spec.class_size : spec.job_size) = *dist;
    } else {
      return fail("unknown key '" + std::string(key) +
                  "' (known: n, m, max, seed, classes, sizes)");
    }
  }
  return spec;
}

std::string SweepSpec::str() const {
  std::ostringstream out;
  out << "families=";
  for (std::size_t i = 0; i < families.size(); ++i)
    out << (i ? "," : "") << family_name(families[i]);
  out << ";n=";
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out << (i ? "," : "") << jobs[i];
  out << ";m=";
  for (std::size_t i = 0; i < machines.size(); ++i)
    out << (i ? "," : "") << machines[i];
  out << ";max=";
  for (std::size_t i = 0; i < max_sizes.size(); ++i)
    out << (i ? "," : "") << max_sizes[i];
  out << ";seeds=" << seeds;
  if (class_size.set()) out << ";classes=" << class_size.str();
  if (job_size.set()) out << ";sizes=" << job_size.str();
  return out.str();
}

std::size_t SweepSpec::size() const {
  return families.size() * jobs.size() * machines.size() * max_sizes.size() *
         static_cast<std::size_t>(std::max(0, seeds));
}

std::optional<SweepSpec> parse_sweep(std::string_view text,
                                     std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<SweepSpec> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (text.empty())
    return fail("empty sweep (expected families=...;n=...;m=...;seeds=K)");

  SweepSpec sweep;
  for (const std::string_view clause : split_outside_parens(text, ';')) {
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos)
      return fail("bad clause '" + std::string(clause) +
                  "' (expected key=list)");
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value = clause.substr(eq + 1);
    const std::vector<std::string_view> items =
        split_outside_parens(value, ',');
    if (items.empty())
      return fail("empty list for '" + std::string(key) + "'");
    if (key == "families" || key == "family") {
      sweep.families.clear();
      for (const std::string_view item : items) {
        if (item == "all") {
          sweep.families.assign(std::begin(kAllFamilies),
                                std::end(kAllFamilies));
          continue;
        }
        const auto family = parse_family(item);
        if (!family)
          return fail("unknown family '" + std::string(item) +
                      "' (known: all, " + known_families() + ")");
        sweep.families.push_back(*family);
      }
    } else if (key == "n" || key == "m" || key == "max") {
      const std::int64_t cap = key == "n"    ? kMaxJobs
                               : key == "m"  ? kMaxMachines
                                             : kMaxJobSize;
      std::vector<std::int64_t> numbers;
      for (const std::string_view item : items) {
        std::int64_t number = 0;
        if (!parse_int(item, &number) || number < (key == "n" ? 0 : 1) ||
            number > cap)
          return fail(std::string(key) + " list entry '" + std::string(item) +
                      "' is not a valid integer (max " + std::to_string(cap) +
                      ")");
        numbers.push_back(number);
      }
      if (key == "n") {
        sweep.jobs.assign(numbers.begin(), numbers.end());
      } else if (key == "m") {
        sweep.machines.assign(numbers.begin(), numbers.end());
      } else {
        sweep.max_sizes.assign(numbers.begin(), numbers.end());
      }
    } else if (key == "seeds") {
      std::int64_t number = 0;
      if (items.size() != 1 || !parse_int(items[0], &number) || number < 1)
        return fail("seeds must be a single integer >= 1");
      sweep.seeds = static_cast<int>(number);
    } else if (key == "classes" || key == "sizes") {
      if (items.size() != 1)
        return fail(std::string(key) + " takes a single distribution");
      const auto dist = parse_dist(items[0], error);
      if (!dist) return std::nullopt;
      (key == "classes" ? sweep.class_size : sweep.job_size) = *dist;
    } else {
      return fail("unknown key '" + std::string(key) +
                  "' (known: families, n, m, max, seeds, classes, sizes)");
    }
  }
  return sweep;
}

std::vector<GeneratorSpec> expand(const SweepSpec& sweep) {
  std::vector<GeneratorSpec> specs;
  specs.reserve(sweep.size());
  for (const Family family : sweep.families)
    for (const int n : sweep.jobs)
      for (const int m : sweep.machines)
        for (const Time max_size : sweep.max_sizes)
          for (int seed = 1; seed <= sweep.seeds; ++seed) {
            GeneratorSpec spec;
            spec.family = family;
            spec.jobs = n;
            spec.machines = m;
            spec.max_size = max_size;
            spec.seed = static_cast<std::uint64_t>(seed);
            spec.class_size = sweep.class_size;
            spec.job_size = sweep.job_size;
            specs.push_back(spec);
          }
  return specs;
}

}  // namespace msrs
