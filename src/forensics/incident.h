// Forensic attribution: folding the obs event stream into labeled
// detection incidents.
//
// LITEWORP's claims are forensic — a guard matched (or failed to match) a
// frame in its watch buffer, accused a neighbor, and gamma distinct
// accusations produced an isolation. An Incident reconstructs that
// evidence chain for one accused node: the accusing guards, the suspicion
// kinds (fabrication vs drop), the peak MalC, the first suspicion,
// detection and isolation times, and the detection latency from the
// node's first malicious act — cross-checked against attack-layer
// ground-truth events (atk.spawn/tunnel/replay/drop) to label the incident
// a true or false positive.
//
// The same IncidentBuilder serves two callers: in-process as the one
// per-accused fold of every scenario::Network run (the run metrics and the
// alert-round spans read it), and offline in tools/lw-trace, fed with
// events parsed back from a JSONL trace. Both paths see identical Event
// streams, so labels never diverge between live runs and post-hoc
// analysis.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "forensics/trace_reader.h"
#include "obs/recorder.h"

namespace lw::forensics {

/// The reconstructed evidence chain against one accused node.
struct Incident {
  NodeId accused = kInvalidNode;

  /// The defense backend whose evidence built this incident, taken from
  /// the def attribution of the mon.* events (default LITEWORP when the
  /// trace predates backend tagging).
  obs::DefenseTag defense = obs::DefenseTag::kLiteworp;

  // ---- Ground-truth label (attack layer) ----
  /// True when the accused appears as the actor of any attack-layer event
  /// (atk.spawn at t=0 marks every malicious node, acting or not).
  bool ground_truth_malicious = false;
  /// First tunnel/replay/drop by the accused; negative when it never acted.
  Time first_malicious_act = -1.0;

  // ---- Fault ground truth (flt layer) ----
  /// True when compromised guards sent false alerts about the accused
  /// (flt.frame anchors, mirroring atk.spawn for the attack layer).
  bool framed = false;
  /// Distinct compromised guards that framed the accused, ascending.
  std::vector<NodeId> framers;

  // ---- Evidence ----
  Time first_suspicion = -1.0;
  /// First guard whose MalC crossed C_t (mon.detection).
  Time first_detection = -1.0;
  /// First node that collected gamma distinct accusations (mon.isolation);
  /// negative when the incident never progressed past local detection.
  Time first_isolation = -1.0;
  /// Distinct guards that transmitted alerts about the accused, ascending.
  std::vector<NodeId> accusing_guards;
  /// Revoking node -> the first time it revoked the accused: the guard of
  /// a mon.detection, the isolating node of a mon.isolation.
  std::map<NodeId, Time> revoked_at;
  std::uint64_t suspicions_fabrication = 0;
  std::uint64_t suspicions_drop = 0;
  std::uint64_t suspicions_anomaly = 0;
  std::uint64_t detections = 0;
  std::uint64_t alerts = 0;
  std::uint64_t isolations = 0;
  double peak_malc = 0.0;

  bool isolated() const { return isolations > 0; }
  bool true_positive() const { return ground_truth_malicious; }
  /// Three-way classification: "true" (accused really is malicious),
  /// "framed" (honest accused, accusations manufactured by compromised
  /// guards), "false" (honest accused, organic false suspicion).
  const char* label() const {
    if (ground_truth_malicious) return "true";
    return framed ? "framed" : "false";
  }
  /// Time from the accused's first malicious act to its first isolation;
  /// negative when either end is missing.
  double detection_latency() const {
    if (first_isolation < 0.0 || first_malicious_act < 0.0) return -1.0;
    return first_isolation - first_malicious_act;
  }
};

/// Per-run rollup of the incident list; lands in RunResult and the sweep
/// JSON so benches report precision and latency without rerunning.
struct ForensicsSummary {
  bool enabled = false;
  /// Accused nodes with at least one local detection or isolation.
  std::uint64_t incidents = 0;
  /// Incidents that reached isolation (gamma distinct guards).
  std::uint64_t isolated_incidents = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  /// Subset of false positives manufactured by guard framing (flt.frame
  /// ground truth); the paper's gamma bar should keep the *isolated*
  /// subset of these at zero while framers < gamma.
  std::uint64_t framed_accusations = 0;
  std::uint64_t framed_isolations = 0;
  /// Mean first-malicious-act -> first-isolation latency over true
  /// positives that acted and were isolated.
  double mean_detection_latency = 0.0;
  std::uint64_t latency_samples = 0;

  double precision() const {
    const std::uint64_t total = true_positives + false_positives;
    return total == 0 ? 1.0
                      : static_cast<double>(true_positives) /
                            static_cast<double>(total);
  }
};

/// EventSink folding monitor + attack + fault events into Incidents.
class IncidentBuilder final : public obs::EventSink {
 public:
  /// The layers it folds; events of other layers are ignored.
  static constexpr std::uint32_t kLayers =
      obs::layer_bit(obs::Layer::kMonitor) |
      obs::layer_bit(obs::Layer::kAttack) | obs::layer_bit(obs::Layer::kFault);

  void on_event(const obs::Event& event) override;

  /// Incidents for every accused with at least one detection or isolation,
  /// sorted by accused id (deterministic), labeled against the attack
  /// ground truth seen so far.
  std::vector<Incident> build() const;

  /// The evidence against every accused so far, suspicion-only ones
  /// included, keyed by accused. Unlabeled: build() adds the ground truth.
  const std::map<NodeId, Incident>& accused() const { return state_; }

  /// First tunnel/replay/drop by `node`; negative when it never acted.
  Time first_malicious_act(NodeId node) const {
    auto act = first_act_.find(node);
    return act == first_act_.end() ? -1.0 : act->second;
  }

  ForensicsSummary summarize() const { return summarize(build()); }
  static ForensicsSummary summarize(const std::vector<Incident>& incidents);

 private:
  /// Keyed by accused; std::map keeps build() output deterministic.
  std::map<NodeId, Incident> state_;
  /// Ground truth: nodes that emitted any attack-layer event.
  std::set<NodeId> malicious_;
  /// First non-spawn attack act per malicious node.
  std::map<NodeId, Time> first_act_;
  /// Fault ground truth: victim -> compromised guards that framed it.
  std::map<NodeId, std::set<NodeId>> framed_;
};

/// The incidents of one run segment of a trace: the records after one run
/// header, or before the first.
struct RunIncidents {
  std::string point;
  std::uint64_t seed = 0;
  std::vector<Incident> incidents;
  /// True when the segment has an atk.spawn record, the attack layer's
  /// ground-truth anchor. Without one (the atk layer was filtered out of
  /// the trace, or the run had no attacker) the trace does not say who is
  /// malicious, and the incidents carry no true/false-positive label.
  bool ground_truth = false;
};

/// Folds each run segment of a trace on its own, so incidents never bleed
/// across run headers; segments without events are left out. This is what
/// `lw-trace incidents` reports.
std::vector<RunIncidents> fold_runs(const std::vector<TraceRecord>& records);

/// The `lw-trace incidents --json` document: an array of runs, each with
/// its incidents one per line.
std::string incidents_to_json(const std::vector<RunIncidents>& runs);

}  // namespace lw::forensics
