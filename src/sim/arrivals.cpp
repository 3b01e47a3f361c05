#include "sim/arrivals.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/rng.hpp"

namespace msrs {
namespace {

bool parse_int(std::string_view text, std::int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_double(std::string_view text, double* out) {
  // Same portability posture as sim/spec.cpp: strtod on a bounded copy,
  // with the character set restricted so locales cannot change the result.
  if (text.empty() ||
      text.find_first_not_of("0123456789.+-eE") != std::string_view::npos)
    return false;
  const std::string copy(text);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

// Shortest decimal that round-trips through strtod, so parse_churn(str())
// reproduces the exact double (its bit pattern is folded into the seed).
std::string render_double(double v) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, v);
  (void)ec;
  return std::string(buffer, static_cast<std::size_t>(end - buffer));
}

// Parser-enforced caps: traces are materialized in memory and replayed
// event-by-event, so the event count stays modest; machines and sizes obey
// the shared input limits of core/types.hpp.
constexpr std::int64_t kMaxEvents = 1 << 24;    // ~16.7M events
constexpr std::int64_t kMaxClasses = 1 << 20;

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::string ChurnSpec::str() const {
  std::ostringstream out;
  out << arrival_kind_name(kind) << ":events=" << events
      << ",classes=" << classes << ",m=" << machines << ",max=" << max_size
      << ",cancel=" << render_double(cancel) << ",snap=" << snap_every
      << ",rate=" << render_double(rate);
  if (kind == ArrivalKind::kOnOff)
    out << ",burst=" << render_double(burst) << ",blen=" << burst_len;
  out << ",seed=" << seed;
  return out.str();
}

std::optional<ChurnSpec> parse_churn(std::string_view text,
                                     std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<ChurnSpec> {
    if (error) *error = message;
    return std::nullopt;
  };
  if (text.empty())
    return fail("empty churn spec (expected kind[:key=value,...])");

  ChurnSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view kind_part = text.substr(0, colon);
  if (kind_part == "poisson") spec.kind = ArrivalKind::kPoisson;
  else if (kind_part == "onoff") spec.kind = ArrivalKind::kOnOff;
  else
    return fail("unknown arrival kind '" + std::string(kind_part) +
                "' (known: poisson, onoff)");
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view clause = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                          : rest.substr(comma + 1);
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos)
      return fail("bad clause '" + std::string(clause) +
                  "' (expected key=value)");
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value = clause.substr(eq + 1);
    std::int64_t number = 0;
    double real = 0.0;
    if (key == "events") {
      if (!parse_int(value, &number) || number < 0 || number > kMaxEvents)
        return fail("events must be an integer in [0, " +
                    std::to_string(kMaxEvents) + "], got '" +
                    std::string(value) + "'");
      spec.events = static_cast<int>(number);
    } else if (key == "classes") {
      if (!parse_int(value, &number) || number < 1 || number > kMaxClasses)
        return fail("classes must be an integer in [1, " +
                    std::to_string(kMaxClasses) + "], got '" +
                    std::string(value) + "'");
      spec.classes = static_cast<int>(number);
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
    } else if (key == "cancel") {
      if (!parse_double(value, &real) || !std::isfinite(real) || real < 0.0 ||
          real > 1.0)
        return fail("cancel must be a fraction in [0, 1], got '" +
                    std::string(value) + "'");
      spec.cancel = real;
    } else if (key == "snap") {
      if (!parse_int(value, &number) || number < 0 || number > kMaxEvents)
        return fail("snap must be an integer >= 0, got '" +
                    std::string(value) + "'");
      spec.snap_every = static_cast<int>(number);
    } else if (key == "rate") {
      if (!parse_double(value, &real) || !std::isfinite(real) || real <= 0.0)
        return fail("rate must be a finite number > 0, got '" +
                    std::string(value) + "'");
      spec.rate = real;
    } else if (key == "burst") {
      if (!parse_double(value, &real) || !std::isfinite(real) || real < 1.0)
        return fail("burst must be a finite number >= 1, got '" +
                    std::string(value) + "'");
      spec.burst = real;
    } else if (key == "blen") {
      if (!parse_int(value, &number) || number < 1 || number > kMaxEvents)
        return fail("blen must be an integer >= 1, got '" +
                    std::string(value) + "'");
      spec.burst_len = static_cast<int>(number);
    } else if (key == "seed") {
      if (!parse_int(value, &number) || number < 0)
        return fail("seed must be an integer >= 0, got '" +
                    std::string(value) + "'");
      spec.seed = static_cast<std::uint64_t>(number);
    } else {
      return fail("unknown key '" + std::string(key) +
                  "' (known: events, classes, m, max, cancel, snap, rate, "
                  "burst, blen, seed)");
    }
  }
  return spec;
}

std::vector<ChurnEvent> generate_churn(const ChurnSpec& spec) {
  // Seed mix mirrors sim/generator.cpp: every structural field perturbs the
  // stream, so poisson and onoff traces with equal seeds differ, as do
  // traces that differ only in the cancel mix.
  std::uint64_t state = spec.seed;
  state ^= static_cast<std::uint64_t>(spec.kind) << 56;
  state ^= static_cast<std::uint64_t>(spec.events) << 32;
  state ^= static_cast<std::uint64_t>(spec.classes) << 16;
  state ^= static_cast<std::uint64_t>(spec.machines);
  std::uint64_t mix = splitmix64(state);
  state ^= static_cast<std::uint64_t>(spec.max_size);
  mix ^= splitmix64(state);
  state ^= double_bits(spec.cancel);
  mix ^= splitmix64(state);
  Rng root(mix);
  // Two independent child streams: `structure` decides what happens (all
  // integer draws — bit-identical everywhere), `timing` decides when (libm
  // transcendentals; excluded from the byte-identity contract).
  Rng structure = root.split(1);
  Rng timing = root.split(2);

  const std::int64_t cancel_ppm =
      std::llround(spec.cancel * 1e6);  // integer threshold, no float compare

  std::vector<ChurnEvent> events;
  events.reserve(static_cast<std::size_t>(spec.events) +
                 static_cast<std::size_t>(spec.events) /
                     std::max(1, spec.snap_every) +
                 2);
  std::vector<std::int64_t> alive;  // submission indices not yet cancelled
  std::int64_t submitted = 0;
  double at = 0.0;

  for (int i = 0; i < spec.events; ++i) {
    // Timing first: the gap distribution depends only on the event index
    // (on/off phases are event-count based), never on the structure draws.
    double gap_rate = spec.rate;
    if (spec.kind == ArrivalKind::kOnOff) {
      const bool on = (i / std::max(1, spec.burst_len)) % 2 == 0;
      gap_rate = on ? spec.rate * spec.burst : spec.rate / spec.burst;
    }
    at += -std::log1p(-timing.uniform01()) / gap_rate;

    ChurnEvent event;
    event.at_s = at;
    const bool want_cancel =
        structure.uniform(0, 999999) < cancel_ppm && !alive.empty();
    if (want_cancel) {
      event.kind = ChurnEvent::Kind::kCancel;
      const auto pick = static_cast<std::size_t>(
          structure.uniform(0, static_cast<std::int64_t>(alive.size()) - 1));
      event.target = alive[pick];
      alive[pick] = alive.back();  // O(1) swap-erase; order is irrelevant
      alive.pop_back();
    } else {
      event.kind = ChurnEvent::Kind::kSubmit;
      event.cls = static_cast<int>(structure.uniform(0, spec.classes - 1));
      event.size = structure.uniform(1, spec.max_size);
      event.target = submitted;
      alive.push_back(submitted++);
    }
    events.push_back(event);

    if (spec.snap_every > 0 && (i + 1) % spec.snap_every == 0) {
      ChurnEvent snap;
      snap.kind = ChurnEvent::Kind::kSnapshot;
      snap.at_s = at;
      events.push_back(snap);
    }
  }
  // Always end on a snapshot so every replay observes the final schedule
  // (the byte-identity smoke diffs these lines across shard counts).
  if (events.empty() || events.back().kind != ChurnEvent::Kind::kSnapshot) {
    ChurnEvent snap;
    snap.kind = ChurnEvent::Kind::kSnapshot;
    snap.at_s = at;
    events.push_back(snap);
  }
  return events;
}

}  // namespace msrs
