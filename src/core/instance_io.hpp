/// \file
/// Plain-text instance serialization (round-trip tested).
///
/// Format (one instance):
/// \verbatim
///   msrs 1
///   machines <m>
///   classes <k>
///   class <n_0> p p p ...
///   ...
/// \endverbatim
///
/// Tokens are separated by any whitespace (space, tab, newline, CR, VT,
/// FF); numbers are base-10 with an optional sign. A *corpus* is simply
/// instances concatenated in one stream; `read_corpus` parses them all,
/// which is what `msrs_engine_cli generate` emits and
/// `msrs_engine_cli solve --file=-` consumes.
///
/// Input limits (core/types.hpp), each refused with a message naming it:
/// at most 2^22 machines (kMaxMachines), job sizes in [1, 2^40]
/// (kMaxJobSize), a total load p(J) of at most 2^53 (kMaxTotalLoad: every
/// makespan renders exactly as a JSON double) and at most 2^31 - 1 jobs
/// (kMaxJobs).
///
/// One single-pass `std::from_chars` parser serves every entry point. It
/// reads the text into a FlatInstance — sizes class after class plus each
/// class's job count — which the serving layer canonicalizes without ever
/// building an Instance (engine/batch.hpp: canonical_shape).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"

namespace msrs {

/// Version of the text format this build reads and writes (the integer in
/// the `msrs 1` header line). Reported by `msrs_engine_cli version` next to
/// the bench-JSON and wire-protocol schema versions.
inline constexpr int kInstanceFormatVersion = 1;

/// One instance as its text lists it: the machine count, every job size
/// class after class in text order, and each class's job count.
struct FlatInstance {
  int machines = 1;                   ///< machine count m
  std::vector<Time> sizes;            ///< job sizes, class after class
  std::vector<std::int32_t> classes;  ///< job count of each class

  /// The Instance it lists (JobIds follow `sizes`).
  Instance build() const { return Instance(machines, sizes, classes); }
};

/// Lists an instance flat: classes in id order, each class's jobs in id
/// order. `flatten(i).build()` reproduces `i` exactly when its JobIds run
/// class after class, as every generator family and the text format
/// number them.
FlatInstance flatten(const Instance& instance);

/// Renders one instance as a text document.
std::string to_text(const Instance& instance);

/// Streams one instance as a text document.
void write_text(std::ostream& out, const Instance& instance);

/// Parses exactly one instance into its flat listing; trailing content is
/// an error. Returns std::nullopt (and fills *error if given) on malformed
/// input or input beyond the limits above.
std::optional<FlatInstance> parse_flat(std::string_view text,
                                       std::string* error = nullptr);

/// Parses exactly one instance; trailing content is an error. Returns
/// std::nullopt (and fills *error if given) on malformed input.
std::optional<Instance> from_text(std::string_view text,
                                  std::string* error = nullptr);

/// Stream variant of from_text (reads the stream to its end).
std::optional<Instance> read_text(std::istream& in,
                                  std::string* error = nullptr);

/// Parses a whole corpus: zero or more concatenated instances until EOF.
/// Returns std::nullopt on the first malformed instance (the error message
/// is prefixed with its position in the corpus).
std::optional<std::vector<Instance>> read_corpus(
    std::istream& in, std::string* error = nullptr);

}  // namespace msrs
