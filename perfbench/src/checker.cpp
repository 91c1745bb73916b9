#include "checker.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

void describe(const char* what, const std::vector<Verdict>& v,
              std::size_t i) {
  if (i < v.size())
    std::printf("%s seq=%llu r_peak=%llu class=%u quality=%u", what,
                static_cast<unsigned long long>(v[i].seq),
                static_cast<unsigned long long>(v[i].r_peak),
                v[i].beat_class, v[i].quality);
  else
    std::printf("%s <missing>", what);
}

}  // namespace

bool owed_on_selective(const Verdict& v) {
  return v.beat_class != 0 || v.quality != 0;
}

void Ledger::check_stream(const std::vector<Verdict>& ref,
                          const std::vector<Verdict>& got,
                          std::uint64_t samples,
                          const std::string& label) {
  ++sessions_checked;
  // Align by sequence number: a verdict lost mid-stream is one missing
  // operation, not a shift of every later one.
  std::vector<const Verdict*> by_seq(ref.size(), nullptr);
  std::uint64_t bad = 0;
  std::size_t first = ref.size();
  std::size_t extra = 0;
  for (const Verdict& v : got) {
    if (v.seq >= ref.size()) {
      ++extra;
    } else if (by_seq[v.seq] != nullptr) {
      ++bad;  // a duplicate sequence number
      first = std::min<std::size_t>(first, v.seq);
    } else {
      by_seq[v.seq] = &v;
    }
  }
  attempted += ref.size() + extra;
  bad += extra;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (by_seq[i] != nullptr && *by_seq[i] == ref[i]) continue;
    ++bad;
    first = std::min(first, i);
  }
  if (bad == 0) return;
  failed += bad;
  ++sessions_divergent;
  if (!print) return;
  std::printf("DIVERGENCE %s: first at seq %zu (", label.c_str(), first);
  describe("ref", ref, first);
  std::printf("; got ");
  if (first < ref.size() && by_seq[first] != nullptr)
    describe("", std::vector<Verdict>{*by_seq[first]}, 0);
  else
    std::printf("<missing>");
  std::printf("); owed=%zu received=%zu failed=%llu stream=%llu samples\n",
              ref.size(), got.size(), static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(samples));
}

void Ledger::check_selective(const std::vector<Verdict>& ref,
                             const std::vector<Verdict>& got,
                             const std::string& label) {
  ++sessions_checked;
  std::map<std::uint64_t, const Verdict*> by_peak;
  for (const Verdict& v : ref) by_peak.emplace(v.r_peak, &v);
  std::map<std::uint64_t, int> seen;  // r_peak -> verdicts received
  std::uint64_t bad = 0;
  std::uint64_t ops = 0;
  auto same = [](const Verdict& a, const Verdict& b) {
    return a.r_peak == b.r_peak && a.beat_class == b.beat_class &&
           a.quality == b.quality;
  };
  for (const Verdict& v : got) {
    const int n = ++seen[v.r_peak];
    const auto it = by_peak.find(v.r_peak);
    const bool owed = it != by_peak.end() && owed_on_selective(*it->second);
    if (!owed && n == 1) ++ops;  // a drift escalation (or a stray verdict)
    if (it == by_peak.end() || !same(*it->second, v) || n > 1) {
      ++bad;
      if (print && bad <= 3) {
        std::printf("DIVERGENCE %s: received r_peak=%llu class=%u quality=%u "
                    "%s\n",
                    label.c_str(), static_cast<unsigned long long>(v.r_peak),
                    v.beat_class, v.quality,
                    n > 1                  ? "is a duplicate"
                    : it == by_peak.end() ? "matches no reference beat"
                                          : "differs from the reference");
      }
    }
  }
  for (const Verdict& v : ref) {
    if (!owed_on_selective(v)) continue;
    ++ops;
    if (seen.count(v.r_peak) == 0) {
      ++bad;
      if (print && bad <= 3)
        std::printf("DIVERGENCE %s: owed verdict for r_peak=%llu class=%u "
                    "quality=%u never arrived\n",
                    label.c_str(), static_cast<unsigned long long>(v.r_peak),
                    v.beat_class, v.quality);
    }
  }
  attempted += ops;
  failed += bad;
  if (bad > 0) ++sessions_divergent;
}

void Ledger::check_push(bool acked_ok) {
  ++attempted;
  if (acked_ok) return;
  ++failed;
}

bool checker_self_test(const std::vector<Verdict>& reference,
                       std::uint64_t samples) {
  bool pass = reference.size() >= 8;
  if (pass) {
    Ledger clean;
    clean.print = false;
    clean.check_stream(reference, reference, samples, "clean");
    clean.check_push(true);
    pass = clean.failed == 0 && clean.attempted == reference.size() + 1;

    // One flipped class and one dropped verdict, both mid-stream, plus a
    // NACKed push.
    std::vector<Verdict> tampered = reference;
    const std::size_t flip = reference.size() / 3;
    const std::size_t drop = 2 * reference.size() / 3;
    tampered[flip].beat_class = tampered[flip].beat_class == 0 ? 1 : 0;
    tampered.erase(tampered.begin() + static_cast<std::ptrdiff_t>(drop));
    Ledger seq;
    seq.print = false;
    seq.check_stream(reference, tampered, samples, "self-test");
    seq.check_push(false);
    pass = pass && seq.failed == 3 && seq.sessions_divergent == 1;

    // The selective checker on the same tampering: every beat is owed when
    // it is pathological or not Good; flip/drop one owed beat each.
    std::vector<Verdict> owed;
    for (const Verdict& v : reference)
      if (owed_on_selective(v)) owed.push_back(v);
    if (owed.size() >= 4) {
      std::vector<Verdict> got = owed;
      got[1].beat_class ^= 1;
      got.erase(got.begin() + 2);
      Ledger sel;
      sel.print = false;
      sel.check_selective(reference, got, "self-test");
      sel.check_push(false);
      pass = pass && sel.failed == 3 && sel.attempted == owed.size() + 1;
    }
  }
  std::printf("checker self-test (1 class flip + 1 dropped verdict + 1 NACKed "
              "push => exactly 3 failures): %s\n",
              pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace perfbench
