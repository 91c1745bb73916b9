// Wire-path replay under chaos: the scenario engine driven through
// SensorNodeClient -> ChaosProxy -> GatewayServer, asserting the
// acceptance properties of the adversarial ward:
//   - the StreamEverything verdict stream through *lossless* chaos
//     (fragmentation + latency jitter) is bit-identical to direct
//     FleetEngine ingest of the same scenario;
//   - the Selective path survives *lossy* chaos (seeded connection kills
//     mid-upload, frame bit-flips): every pathological upload still gets
//     exactly one verdict after retransmission + dedup — none lost, none
//     duplicated;
//   - direct ingest itself is thread/shard-invariant on scenario streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "scenario/chaos.hpp"
#include "scenario/episodes.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace hbrp;
using scenario::ChaosConfig;
using scenario::EpisodeKind;
using scenario::ScenarioSpec;

class ScenarioChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 211;
    const auto ts1 = ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 212;
    const auto ts2 = ecg::build_dataset({1200, 120, 150}, cfg);
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 21;
    const core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static ScenarioSpec vt_spec() {
    // VT + PVC background: a dense supply of pathological beats, i.e. of
    // FULL_BEAT uploads for the selective path to lose and recover.
    ScenarioSpec spec;
    spec.name = "vt_for_chaos";
    spec.seed = 303;
    spec.duration_s = 30.0;
    spec.background = ecg::RecordProfile::PvcOccasional;
    spec.episodes.push_back({EpisodeKind::SustainedVt, 8.0, 10.0, 1.0});
    return spec;
  }

  static const embedded::EmbeddedClassifier* bundle_;
};

const embedded::EmbeddedClassifier* ScenarioChaosTest::bundle_ = nullptr;

TEST_F(ScenarioChaosTest, DirectIngestIsThreadShardInvariant) {
  ScenarioSpec spec;
  spec.name = "invariance";
  spec.seed = 71;
  spec.duration_s = 20.0;
  spec.episodes.push_back({EpisodeKind::ArtefactStorm, 6.0, 5.0, 1.0});
  const auto stream = scenario::build_scenario(spec);
  const auto a = scenario::run_direct(*bundle_, stream, 1, 1);
  const auto b = scenario::run_direct(*bundle_, stream, 4, 3);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(ScenarioChaosTest, StreamPathThroughLosslessChaosIsBitIdentical) {
  ScenarioSpec spec;
  spec.name = "stream_chaos";
  spec.seed = 88;
  spec.duration_s = 20.0;
  spec.background = ecg::RecordProfile::PvcOccasional;
  const auto stream = scenario::build_scenario(spec);
  const auto reference = scenario::run_direct(*bundle_, stream);
  ASSERT_FALSE(reference.empty());

  ChaosConfig chaos;
  chaos.seed = 5;
  chaos.max_burst = 97;  // brutal fragmentation, prime on purpose
  chaos.jitter_probability = 0.4;
  chaos.jitter_max_ms = 2;
  const auto wire = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::StreamEverything, &chaos);
  EXPECT_TRUE(wire.completed);
  EXPECT_EQ(wire.verdicts, reference)
      << "delay + fragmentation must never change the verdict stream";
  EXPECT_EQ(wire.tx.verdict_seq_gaps, 0u);
  EXPECT_EQ(wire.chaos_kills, 0u);
  EXPECT_GT(wire.tx.bytes_tx, 0u);
}

// Satellite: FULL_BEAT retransmission + verdict-as-ack survive forced
// mid-upload disconnects. The kill budget is sized to land inside upload
// bursts (a 200-sample FULL_BEAT frame is about 200 bytes on the wire, so
// each kill budget spans several uploads).
TEST_F(ScenarioChaosTest, SelectiveUploadsSurviveConnectionKills) {
  const auto stream = scenario::build_scenario(vt_spec());
  ChaosConfig chaos;
  chaos.seed = 17;
  chaos.kill_probability = 0.6;
  chaos.kill_after_min_bytes = 1500;
  chaos.kill_after_max_bytes = 6000;
  const auto wire = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::Selective, &chaos, 1, 1,
      /*drain_budget_ms=*/60000);

  ASSERT_TRUE(wire.completed) << "drain must finish despite kills";
  EXPECT_GT(wire.chaos_kills, 0u) << "the chaos must actually bite";
  EXPECT_GT(wire.tx.reconnects, 0u);
  EXPECT_GT(wire.tx.retransmits, 0u);
  EXPECT_GT(wire.tx.beats_uploaded, 10u);

  // Exactly one verdict per upload: none lost...
  EXPECT_EQ(wire.tx.verdicts_rx, wire.tx.beats_uploaded);
  ASSERT_EQ(wire.verdicts.size(), wire.tx.beats_uploaded);
  // ...and none duplicated: seqs are exactly {0 .. uploads-1}.
  std::set<std::uint64_t> seqs;
  for (const auto& v : wire.verdicts) seqs.insert(v.seq);
  EXPECT_EQ(seqs.size(), wire.verdicts.size());
  EXPECT_EQ(*seqs.rbegin(), wire.tx.beats_uploaded - 1);
  // The at-least-once machinery visibly engaged somewhere: either the
  // gateway saw a duplicate upload or the client dropped a duplicate
  // verdict (which one depends on where each kill landed).
  EXPECT_GT(wire.gateway_full_beat_dups + wire.tx.verdict_dups +
                wire.tx.retransmits,
            0u);
}

// Satellite: the same guarantee under frame corruption — a flipped bit
// must never produce a wrong verdict, only a detected teardown + retry.
TEST_F(ScenarioChaosTest, SelectiveUploadsSurviveBitFlips) {
  const auto stream = scenario::build_scenario(vt_spec());
  ChaosConfig chaos;
  chaos.seed = 29;
  chaos.bit_flip_rate = 3e-4;
  const auto wire = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::Selective, &chaos, 1, 1,
      /*drain_budget_ms=*/60000);

  ASSERT_TRUE(wire.completed);
  EXPECT_GT(wire.chaos_bit_flips, 0u);
  EXPECT_EQ(wire.tx.verdicts_rx, wire.tx.beats_uploaded);
  std::set<std::uint64_t> seqs;
  for (const auto& v : wire.verdicts) seqs.insert(v.seq);
  EXPECT_EQ(seqs.size(), wire.verdicts.size());

  // A corrupted frame is detected by CRC on one side or the other; with
  // this flip rate at least one teardown is statistically certain (and
  // deterministic for this seed).
  EXPECT_GT(wire.tx.parse_rejects + wire.tx.reconnects, 0u);

  // CRC guarantees no corrupted frame was ever *accepted*: every verdict
  // that reached the sink carries a well-formed class.
  for (const auto& v : wire.verdicts)
    EXPECT_LE(v.beat_class,
              static_cast<std::uint8_t>(ecg::BeatClass::Unknown));
}

TEST_F(ScenarioChaosTest, SelectiveCleanLinkMatchesChaosLinkVerdicts) {
  // The chaos shim must be *transparent* end-to-end: the set of uploaded
  // beats and their verdicts after recovery equal the clean-link run.
  const auto stream = scenario::build_scenario(vt_spec());
  const auto clean = scenario::run_wire(*bundle_, stream,
                                        net::TxPolicy::Selective, nullptr);
  ASSERT_TRUE(clean.completed);

  ChaosConfig chaos;
  chaos.seed = 17;
  chaos.kill_probability = 0.6;
  chaos.kill_after_min_bytes = 1500;
  chaos.kill_after_max_bytes = 6000;
  const auto chaotic = scenario::run_wire(
      *bundle_, stream, net::TxPolicy::Selective, &chaos, 1, 1, 60000);
  ASSERT_TRUE(chaotic.completed);

  // Local normal-beat log is computed on the node, untouched by the link.
  EXPECT_EQ(chaotic.local_log, clean.local_log);

  // Verdicts may arrive in a different order after retransmission;
  // compare as seq-sorted sets.
  auto sort_by_seq = [](std::vector<scenario::Verdict> v) {
    std::sort(v.begin(), v.end(),
              [](const scenario::Verdict& a, const scenario::Verdict& b) {
                return a.seq < b.seq;
              });
    return v;
  };
  EXPECT_EQ(sort_by_seq(chaotic.verdicts), sort_by_seq(clean.verdicts));
}

}  // namespace
