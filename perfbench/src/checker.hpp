// Output checker: compares what the system delivered against a reference
// computed in-process from the identical codes, and keeps the failure ledger
// the result line reports (attempted / failed operations).
//
// An operation is one owed verdict (plus one model push on ward_selective).
// A failed operation is a verdict that is missing, extra, or not
// byte-identical to the reference, or a push that was not acked Ok.
//
// Every workload treats a failed operation as an incorrect run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One verdict, normalized across the direct and wire paths.
struct Verdict {
  std::uint64_t seq = 0;
  std::uint64_t r_peak = 0;
  std::uint8_t beat_class = 0;
  std::uint8_t quality = 0;
  bool operator==(const Verdict&) const = default;
};

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sessions_checked = 0;
  std::uint64_t sessions_divergent = 0;
  bool print = true;

  /// Dense-sequence stream check (stream mode over the wire, or direct
  /// ingest). `samples` is the session's stream length, for the report.
  void check_stream(const std::vector<Verdict>& ref,
                    const std::vector<Verdict>& got, std::uint64_t samples,
                    const std::string& label);

  /// Selective node: `ref` holds every beat of the direct monitor run;
  /// every beat that is pathological or not Good is owed exactly one
  /// verdict, and every received verdict must equal the reference beat at
  /// its r_peak (drift escalations of normal beats included).
  void check_selective(const std::vector<Verdict>& ref,
                       const std::vector<Verdict>& got,
                       const std::string& label);

  /// One model push: acked Ok or not.
  void check_push(bool acked_ok);
};

/// True for verdict classes the node must escalate (not N), or for beats
/// whose quality is not Good.
bool owed_on_selective(const Verdict& v);

/// Proves the checker can fail: a reference with one class flipped, one
/// verdict dropped mid-stream and one NACKed push must yield exactly three
/// failed operations; a clean copy must yield none. Prints the outcome; true on pass.
bool checker_self_test(const std::vector<Verdict>& reference,
                       std::uint64_t samples);

}  // namespace perfbench
