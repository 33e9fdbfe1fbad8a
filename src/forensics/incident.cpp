#include "forensics/incident.h"

#include <algorithm>
#include <utility>

#include "util/json.h"

namespace lw::forensics {

void IncidentBuilder::on_event(const obs::Event& event) {
  switch (event.kind) {
    case obs::EventKind::kAtkSpawn:
      malicious_.insert(event.node);
      return;
    case obs::EventKind::kAtkTunnel:
    case obs::EventKind::kAtkReplay:
    case obs::EventKind::kAtkDrop:
      malicious_.insert(event.node);
      first_act_.try_emplace(event.node, event.t);
      return;

    case obs::EventKind::kFltFrame:
      // Fault ground truth mirroring atk.spawn: node is the compromised
      // guard, peer the honest victim it falsely accused.
      framed_[event.peer].insert(event.node);
      return;

    case obs::EventKind::kMonSuspicion:
    case obs::EventKind::kMonDetection:
    case obs::EventKind::kMonAlert:
    case obs::EventKind::kMonIsolation:
      break;  // evidence about event.peer, handled below

    default:
      return;  // watch bookkeeping and non-monitor layers carry no blame
  }

  const NodeId accused = event.peer;
  if (accused == kInvalidNode) return;
  Incident& incident = state_[accused];
  incident.accused = accused;
  incident.defense = static_cast<obs::DefenseTag>(event.def);

  switch (event.kind) {
    case obs::EventKind::kMonSuspicion:
      if (incident.first_suspicion < 0.0) incident.first_suspicion = event.t;
      if (event.detail == obs::kSuspicionDrop) {
        ++incident.suspicions_drop;
      } else if (event.detail == obs::kSuspicionAnomaly) {
        ++incident.suspicions_anomaly;
      } else {
        ++incident.suspicions_fabrication;
      }
      incident.peak_malc = std::max(incident.peak_malc, event.value);
      break;
    case obs::EventKind::kMonDetection:
      if (incident.first_detection < 0.0) incident.first_detection = event.t;
      ++incident.detections;
      incident.peak_malc = std::max(incident.peak_malc, event.value);
      incident.revoked_at.emplace(event.node, event.t);
      break;
    case obs::EventKind::kMonAlert: {
      ++incident.alerts;
      auto& guards = incident.accusing_guards;
      auto it = std::lower_bound(guards.begin(), guards.end(), event.node);
      if (it == guards.end() || *it != event.node) guards.insert(it, event.node);
      break;
    }
    case obs::EventKind::kMonIsolation:
      if (incident.first_isolation < 0.0) incident.first_isolation = event.t;
      ++incident.isolations;
      incident.revoked_at.emplace(event.node, event.t);
      break;
    default:
      break;
  }
}

std::vector<Incident> IncidentBuilder::build() const {
  std::vector<Incident> incidents;
  for (const auto& [accused, incident] : state_) {
    // Suspicion-only accusations never convicted anyone; an incident needs
    // at least a local detection (MalC crossed C_t) or an isolation — or
    // framing ground truth: a victim of compromised guards is on record
    // even when the gamma bar absorbed the false alerts.
    if (incident.detections == 0 && incident.isolations == 0 &&
        framed_.find(accused) == framed_.end()) {
      continue;
    }
    Incident labeled = incident;
    labeled.ground_truth_malicious = malicious_.count(accused) != 0;
    labeled.first_malicious_act = first_malicious_act(accused);
    if (auto framed = framed_.find(accused); framed != framed_.end()) {
      labeled.framed = true;
      labeled.framers.assign(framed->second.begin(), framed->second.end());
    }
    incidents.push_back(std::move(labeled));
  }
  return incidents;
}

ForensicsSummary IncidentBuilder::summarize(
    const std::vector<Incident>& incidents) {
  ForensicsSummary summary;
  summary.enabled = true;
  double latency_sum = 0.0;
  for (const Incident& incident : incidents) {
    ++summary.incidents;
    if (incident.isolated()) ++summary.isolated_incidents;
    if (incident.true_positive()) {
      ++summary.true_positives;
    } else {
      ++summary.false_positives;
      if (incident.framed) {
        ++summary.framed_accusations;
        if (incident.isolated()) ++summary.framed_isolations;
      }
    }
    const double latency = incident.detection_latency();
    if (incident.true_positive() && latency >= 0.0) {
      latency_sum += latency;
      ++summary.latency_samples;
    }
  }
  if (summary.latency_samples > 0) {
    summary.mean_detection_latency =
        latency_sum / static_cast<double>(summary.latency_samples);
  }
  return summary;
}

std::vector<RunIncidents> fold_runs(const std::vector<TraceRecord>& records) {
  std::vector<RunIncidents> runs;
  IncidentBuilder builder;
  RunIncidents current;  // implicit first segment for header-less traces
  bool saw_events = false;
  auto flush = [&] {
    if (saw_events) {
      current.incidents = builder.build();
      runs.push_back(std::move(current));
    }
    builder = IncidentBuilder();
    saw_events = false;
  };
  for (const TraceRecord& r : records) {
    if (r.is_run_header) {
      flush();
      current = RunIncidents{std::string(r.point()), r.run_seed, {}};
      continue;
    }
    saw_events = true;
    if (!r.kind_known) continue;
    if (r.kind == obs::EventKind::kAtkSpawn) current.ground_truth = true;
    builder.on_event(r.to_event());
  }
  flush();
  return runs;
}

std::string incidents_to_json(const std::vector<RunIncidents>& runs) {
  util::JsonWriter json;
  json.open('[');
  for (const RunIncidents& run : runs) {
    json.item("\n  ").open('{');
    json.key("point").string(run.point);
    json.key("seed").u64(run.seed);
    json.key("incidents").open('[');
    for (const Incident& inc : run.incidents) {
      json.item("\n    ").open('{');
      json.key("accused").u64(inc.accused);
      json.key("label").string(run.ground_truth ? inc.label() : "unknown");
      json.key("def").string(obs::to_string(inc.defense));
      json.key("malicious");
      if (run.ground_truth) {
        json.value(inc.ground_truth_malicious);
      } else {
        json.null();
      }
      json.key("isolated").value(inc.isolated());
      json.key("framers").open('[');
      for (NodeId framer : inc.framers) json.item().u64(framer);
      json.close(']');
      json.key("guards").open('[');
      for (NodeId guard : inc.accusing_guards) json.item().u64(guard);
      json.close(']');
      json.key("suspicions_fabrication").u64(inc.suspicions_fabrication);
      json.key("suspicions_drop").u64(inc.suspicions_drop);
      json.key("suspicions_anomaly").u64(inc.suspicions_anomaly);
      json.key("detections").u64(inc.detections);
      json.key("alerts").u64(inc.alerts);
      json.key("isolations").u64(inc.isolations);
      json.key("peak_malc").general<9>(inc.peak_malc);
      json.key("first_malicious_act").fixed<6>(inc.first_malicious_act);
      json.key("first_detection").fixed<6>(inc.first_detection);
      json.key("first_isolation").fixed<6>(inc.first_isolation);
      json.key("detection_latency").fixed<6>(inc.detection_latency());
      json.close('}');
    }
    json.raw("\n  ").close(']').close('}');
  }
  json.raw("\n").close(']').raw("\n");
  return json.str();
}

}  // namespace lw::forensics
