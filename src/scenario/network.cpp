#include "scenario/network.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "topology/field.h"

namespace lw::scenario {
namespace {

/// A relay attacker needs two honest neighbors that cannot hear each other.
bool has_relay_victims(const topo::DiscGraph& graph, NodeId x,
                       const std::vector<NodeId>& malicious) {
  const auto& neighbors = graph.neighbors(x);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
      NodeId a = neighbors[i];
      NodeId b = neighbors[j];
      if (graph.is_neighbor(a, b)) continue;
      if (std::find(malicious.begin(), malicious.end(), a) != malicious.end())
        continue;
      if (std::find(malicious.begin(), malicious.end(), b) != malicious.end())
        continue;
      return true;
    }
  }
  return false;
}

}  // namespace

Network::Network(ExperimentConfig config)
    : config_(std::move(config)), keys_(config_.key_master_secret) {
  config_.finalize();
  config_.validate();
  // Pair-key cache bucket hint: every id this deployment can mint.
  keys_.reserve_nodes(config_.node_count + config_.late_joiners);
  RngFactory rngs(config_.seed);

  // The recorder always exists so callers can attach their own sinks
  // right after construction. The incident builder and the metrics
  // collector keep the route, mon, atk and flt layers live in every run;
  // profile, series and counters read every layer from the recorder's
  // tally. Otherwise a phy, mac or nbr emit site with no sink
  // short-circuits on the wants() mask test.
  recorder_ = std::make_unique<obs::Recorder>();
  if (config_.obs.profile || config_.obs.series || config_.obs.counters) {
    recorder_->listen(obs::kAllLayers);
  }
  // First: the span builder reads an accused's incident at the isolation
  // that closes its alert round.
  recorder_->add_sink(&incident_builder_, forensics::IncidentBuilder::kLayers);
  if (config_.obs.trace) {
    trace_writer_ = std::make_unique<obs::TraceWriter>(trace_buffer_);
    recorder_->add_sink(trace_writer_.get(), config_.obs.trace_layers);
  }
  if (config_.obs.spans) {
    // Registered AFTER the trace writer so each span.begin/span.end line
    // lands immediately after the event that opened/closed it. Span lines
    // are written only when a trace is being recorded; otherwise the
    // builder collects statistics alone.
    span_builder_ = std::make_unique<forensics::SpanBuilder>(
        incident_builder_, config_.obs.trace ? &trace_buffer_ : nullptr);
    recorder_->add_sink(span_builder_.get(),
                        obs::layer_bit(obs::Layer::kNeighbor) |
                            obs::layer_bit(obs::Layer::kRouting) |
                            obs::layer_bit(obs::Layer::kMonitor) |
                            obs::layer_bit(obs::Layer::kAttack));
  }
  if (config_.obs.profile) {
    profiler_ = std::make_unique<obs::RunProfiler>();
    recorder_->set_profiler(profiler_.get());
  }
  if (config_.obs.series) {
    sampler_ = std::make_unique<obs::TelemetrySampler>(
        config_.obs.series_bucket);
  }
  if (config_.obs.series || config_.obs.watch) {
    // The boundary hook only OBSERVES (sampler close + watch print), so
    // arming it changes no event, counter, or trace byte of the run.
    simulator_.set_tick_hook(config_.obs.series_bucket, [this](Time boundary) {
      if (sampler_) sampler_->close_bucket(boundary, take_bucket_sample());
      if (config_.obs.watch) print_watch_line(boundary);
    });
  }

  graph_ = std::make_unique<topo::DiscGraph>(build_topology(rngs));
  medium_ = std::make_unique<phy::Medium>(simulator_, *graph_, config_.phy,
                                          rngs.stream("phy-loss"));
  medium_->set_recorder(recorder_.get());
  metrics_ = std::make_unique<stats::MetricsCollector>(*graph_, malicious_ids_,
                                                       incident_builder_);
  recorder_->add_sink(metrics_.get(), stats::MetricsCollector::kLayers);
  coordinator_ = std::make_unique<attack::WormholeCoordinator>(
      simulator_, config_.attack);

  const std::size_t total = config_.node_count + config_.late_joiners;
  nodes_.reserve(total);
  for (NodeId id = 0; id < total; ++id) {
    const bool malicious =
        std::find(malicious_ids_.begin(), malicious_ids_.end(), id) !=
        malicious_ids_.end();
    nodes_.push_back(std::make_unique<Node>(
        id, config_, simulator_, *medium_, keys_, factory_,
        rngs.stream("node", id), malicious, coordinator_.get(),
        recorder_.get()));
    // Geographical leashes need each node's own (GPS-style) location.
    const topo::Position& at = graph_->position(id);
    nodes_.back()->set_own_position(at.x, at.y);
  }
  configure_attack();
  for (NodeId id = 0; id < config_.node_count; ++id) {
    nodes_[id]->start(*graph_);
  }
  for (std::size_t j = 0; j < config_.late_joiners; ++j) {
    Node* joiner = nodes_[config_.node_count + j].get();
    simulator_.schedule_at(
        config_.late_join_time +
            static_cast<double>(j) * config_.late_join_stagger,
        [joiner] { joiner->start_late(); });
  }

  // Fault injection: armed only for a non-empty plan, so clean runs
  // schedule zero extra events, draw zero extra random numbers, and take
  // zero extra branches (the medium's fault paths stay disabled).
  if (!config_.fault.empty()) {
    medium_->enable_faults(rngs.stream("fault"));
    for (auto& hardened : nodes_) {
      hardened->enable_hardening(config_.fault.neighbor_age_timeout,
                                 config_.fault.neighbor_age_sweep_interval);
    }
    arm_faults();
  }
}

Network::~Network() = default;

topo::DiscGraph Network::build_topology(const RngFactory& rngs) {
  const std::size_t total = config_.node_count + config_.late_joiners;

  if (config_.positions) {
    topo::DiscGraph graph(*config_.positions, config_.radio_range);
    if (!config_.malicious_nodes.empty()) {
      malicious_ids_ = config_.malicious_nodes;
    } else if (config_.malicious_count > 0) {
      Rng pick_rng = rngs.stream("malicious", 0);
      malicious_ids_ = pick_malicious(graph, pick_rng,
                                      config_.malicious_count);
      if (malicious_ids_.empty()) {
        throw std::runtime_error(
            "explicit topology cannot satisfy the malicious-node "
            "constraints");
      }
    }
    return graph;
  }

  const double side = config_.field_side.value_or(topo::field_side_for_density(
      total, config_.radio_range, config_.target_neighbors));
  const topo::Field field{side, side};

  for (int attempt = 0; attempt < config_.max_topology_retries; ++attempt) {
    Rng place_rng = rngs.stream("topology", static_cast<std::uint64_t>(attempt));
    topo::DiscGraph graph(topo::place_uniform(field, total, place_rng),
                          config_.radio_range);
    // The network must also function before the joiners arrive.
    if (!graph.connected() || !graph.connected(config_.node_count)) continue;

    if (!config_.malicious_nodes.empty()) {
      malicious_ids_ = config_.malicious_nodes;
      return graph;
    }

    Rng pick_rng = rngs.stream("malicious", static_cast<std::uint64_t>(attempt));
    std::vector<NodeId> malicious =
        pick_malicious(graph, pick_rng, config_.malicious_count);
    if (config_.malicious_count > 0 && malicious.empty()) continue;

    malicious_ids_ = std::move(malicious);
    return graph;
  }
  char message[320];
  std::snprintf(message, sizeof message,
                "could not build a connected topology satisfying the "
                "malicious-node constraints: N=%zu, %d placement attempts, "
                "%.1f m square field; relax the configuration (node_count, "
                "target_neighbors, the malicious-node constraints or "
                "max_topology_retries)",
                total, config_.max_topology_retries, side);
  throw std::runtime_error(message);
}

std::vector<NodeId> Network::pick_malicious(const topo::DiscGraph& graph,
                                            Rng& rng,
                                            std::size_t count) const {
  if (count == 0) return {};
  if (count >= graph.size()) {
    throw std::invalid_argument("more malicious nodes than nodes");
  }
  constexpr int kTrials = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<NodeId> picked;
    while (picked.size() < count) {
      // Attackers come from the initial deployment (insiders from day one).
      NodeId candidate =
          static_cast<NodeId>(rng.uniform_int(0, config_.node_count - 1));
      if (std::find(picked.begin(), picked.end(), candidate) == picked.end()) {
        picked.push_back(candidate);
      }
    }
    bool separated = true;
    for (std::size_t i = 0; i < picked.size() && separated; ++i) {
      for (std::size_t j = i + 1; j < picked.size(); ++j) {
        auto hops = graph.hop_distance(picked[i], picked[j]);
        if (!hops || *hops < config_.min_malicious_hop_separation) {
          separated = false;
          break;
        }
      }
    }
    if (!separated) continue;
    if (config_.attack.mode == attack::WormholeMode::kRelay) {
      const bool viable =
          std::all_of(picked.begin(), picked.end(), [&](NodeId x) {
            return has_relay_victims(graph, x, picked);
          });
      if (!viable) continue;
    }
    return picked;
  }
  return {};
}

void Network::configure_attack() {
  for (std::size_t i = 0; i < malicious_ids_.size(); ++i) {
    for (std::size_t j = i + 1; j < malicious_ids_.size(); ++j) {
      const NodeId a = malicious_ids_[i];
      const NodeId b = malicious_ids_[j];
      coordinator_->set_hop_distance(a, b,
                                     graph_->hop_distance(a, b).value_or(1));
    }
  }

  if (config_.attack.mode == attack::WormholeMode::kRelay) {
    for (NodeId x : malicious_ids_) {
      // Pick the farthest-apart non-adjacent honest neighbor pair: the most
      // convincing fake link.
      const auto& neighbors = graph_->neighbors(x);
      NodeId best_a = kInvalidNode;
      NodeId best_b = kInvalidNode;
      double best_gap = -1.0;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
          NodeId a = neighbors[i];
          NodeId b = neighbors[j];
          if (graph_->is_neighbor(a, b)) continue;
          if (metrics_->is_malicious(a) || metrics_->is_malicious(b)) continue;
          const double gap = graph_->distance(a, b);
          if (gap > best_gap) {
            best_gap = gap;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (best_a != kInvalidNode) {
        nodes_[x]->malicious_agent()->set_relay_victims(best_a, best_b);
      }
    }
  }

  if (config_.attack.mode == attack::WormholeMode::kHighPower) {
    // An honest insider until the attack starts: the attacker completes
    // neighbor discovery at normal power, then turns its power up.
    simulator_.schedule_at(config_.attack.start_time, [this] {
      for (NodeId x : malicious_ids_) {
        medium_->set_rx_range_multiplier(x,
                                         config_.attack.high_power_multiplier);
      }
    });
  }
}

std::vector<Duration> Network::recovery_latencies() const {
  std::vector<Duration> latencies;
  for (const auto& node : nodes_) {
    const auto& samples = node->recovery_latencies();
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }
  return latencies;
}

std::vector<NodeId> Network::framing_guards(NodeId victim,
                                            std::size_t count) const {
  std::vector<NodeId> candidates(graph_->neighbors(victim).begin(),
                                 graph_->neighbors(victim).end());
  std::sort(candidates.begin(), candidates.end());
  std::vector<NodeId> guards;
  for (NodeId id : candidates) {
    if (guards.size() >= count) break;
    const Node& node = *nodes_.at(id);
    if (node.malicious() || !node.alive() || !node.deployed()) continue;
    guards.push_back(id);
  }
  return guards;
}

void Network::arm_faults() {
  const fault::FaultPlan& plan = config_.fault;
  // The flt layer is always live (the incident builder subscribes to it).
  auto emit = [this](obs::EventKind kind, NodeId node, NodeId peer,
                     double value) {
    recorder_->emit({.t = simulator_.now(),
                     .kind = kind,
                     .node = node,
                     .peer = peer,
                     .value = value});
  };

  for (const fault::CrashFault& crash : plan.crashes) {
    simulator_.schedule_at(crash.at, [this, emit, crash] {
      nodes_.at(crash.node)->crash();
      medium_->set_node_down(crash.node, true);
      emit(obs::EventKind::kFltCrash, crash.node, kInvalidNode,
           crash.recover_at);
    });
    if (crash.recover_at >= 0.0) {
      simulator_.schedule_at(crash.recover_at, [this, emit, crash] {
        medium_->set_node_down(crash.node, false);
        nodes_.at(crash.node)->recover();
        emit(obs::EventKind::kFltRecover, crash.node, kInvalidNode,
             simulator_.now() - crash.at);
      });
    }
  }

  for (const fault::LinkFault& link : plan.links) {
    simulator_.schedule_at(link.from, [this, emit, link] {
      medium_->set_link_fault(link.a, link.b, link.extra_loss);
      emit(obs::EventKind::kFltLinkDown, link.a, link.b, link.extra_loss);
    });
    simulator_.schedule_at(link.until, [this, emit, link] {
      medium_->clear_link_fault(link.a, link.b);
      emit(obs::EventKind::kFltLinkUp, link.a, link.b, 0.0);
    });
  }

  for (const fault::FramingFault& framing : plan.framings) {
    simulator_.schedule_at(framing.start, [this, emit, framing] {
      // Guard selection is deferred to compromise time so a crashed
      // neighbor is never conscripted.
      const std::vector<NodeId> guards =
          framing_guards(framing.victim, framing.guards);
      if (guards.size() < framing.guards) {
        std::fprintf(stderr,
                     "[WARN] fault: framing of node %u wanted %zu guards, "
                     "found only %zu\n",
                     framing.victim, framing.guards, guards.size());
      }
      for (NodeId guard : guards) {
        for (int shot = 0; shot < framing.alerts_per_guard; ++shot) {
          const Duration delay = static_cast<double>(shot) * framing.gap;
          simulator_.schedule(delay, [this, emit, guard,
                                      victim = framing.victim] {
            Node& framer = *nodes_.at(guard);
            if (framer.alive() && framer.defense() != nullptr) {
              framer.defense()->emit_false_alert(victim);
            }
            emit(obs::EventKind::kFltFrame, guard, victim, 0.0);
          });
        }
      }
    });
  }

  for (const fault::CorruptionFault& corruption : plan.corruptions) {
    simulator_.schedule_at(corruption.from, [this, corruption] {
      medium_->set_corruption(corruption.node, corruption.probability);
    });
    simulator_.schedule_at(corruption.until, [this, corruption] {
      medium_->clear_corruption(corruption.node);
    });
  }
}

obs::BucketSample Network::take_bucket_sample() {
  obs::BucketSample sample;
  sample.layer_events = recorder_->layer_counts();
  sample.events_executed = simulator_.executed();
  sample.deliveries = recorder_->count(obs::EventKind::kRouteDeliver);
  sample.delivery_latency_sum = metrics_->delivery_latency_sum;
  if (profiler_) sample.self_seconds = profiler_->self_seconds();
  sample.queue_depth = simulator_.pending();
  sample.queue_high_water = simulator_.take_window_max_pending();
  sample.memory.slab_slots = simulator_.slab_slots();
  // Per-node gauges summed in id order: deterministic, and cheap enough
  // for once-per-bucket (not per-event) cadence.
  for (const auto& node : nodes_) {
    sample.memory.neighbor_bytes += node->table().storage_bytes();
    if (const defense::Defense* defense = node->defense()) {
      const defense::CostSnapshot cost = defense->cost();
      sample.memory.watch_entries += cost.watch_entries;
      sample.memory.defense_storage_bytes += cost.storage_bytes;
    }
  }
  return sample;
}

std::string Network::trace_jsonl() const {
  // Still-open spans must close (outcome "open") before the buffer is
  // read; flush is idempotent and only appends trace bytes, never changes
  // simulation state, so the const_cast stays honest about the run.
  if (span_builder_) {
    const_cast<Network*>(this)->span_builder_->flush(simulator_.now());
  }
  return trace_buffer_.str();
}

forensics::SpanReport Network::spans() const {
  if (!span_builder_) return {};
  const_cast<Network*>(this)->span_builder_->flush(simulator_.now());
  return span_builder_->report();
}

obs::SeriesReport Network::series() const {
  if (!sampler_) return {};
  // The final sample closes the trailing partial bucket. take_bucket_sample
  // mutates only the observation window (window-max reset), never the run,
  // so the const_cast stays honest about simulation state.
  return sampler_->report(const_cast<Network*>(this)->take_bucket_sample());
}

void Network::print_watch_line(Time boundary) {
  const auto now = std::chrono::steady_clock::now();
  if (watch_running_ && now < watch_next_print_) return;
  watch_next_print_ = now + std::chrono::milliseconds(250);
  if (!watch_running_) {
    watch_started_ = now;
    watch_running_ = true;
  }
  const double wall =
      std::chrono::duration<double>(now - watch_started_).count();
  const double duration = config_.duration;
  const double fraction = duration > 0.0 ? boundary / duration : 0.0;
  const double eta =
      fraction > 0.0 ? wall * (1.0 - fraction) / fraction : 0.0;
  const double rate = wall > 0.0 ? simulator_.executed() / wall : 0.0;
  std::fprintf(stderr,
               "\r[watch] t=%.1f/%.1fs (%3.0f%%)  events %llu (%.0f/s wall)  "
               "queue %zu (hw %zu)  eta %.1fs   ",
               boundary, duration, 100.0 * fraction,
               static_cast<unsigned long long>(simulator_.executed()), rate,
               simulator_.pending(), simulator_.max_pending(), eta);
  std::fflush(stderr);
}

defense::CostSnapshot Network::defense_cost() const {
  defense::CostSnapshot total;
  for (const auto& node : nodes_) {
    if (node->defense()) total.accumulate(node->defense()->cost());
  }
  return total;
}

void Network::run() { run_until(config_.duration); }

void Network::run_until(Time t) {
  // Ground-truth anchor for forensics: one atk.spawn per malicious node,
  // leading the trace at t=0, so passive attackers are still labeled
  // malicious from the trace alone. Emitted on the first run call — after
  // callers have attached their own sinks, and without a scheduled event
  // that would perturb the events_executed counter.
  if (!spawns_emitted_) {
    spawns_emitted_ = true;
    if (recorder_->wants(obs::Layer::kAttack)) {
      for (NodeId bad : malicious_ids_) {
        obs::Event spawn;
        spawn.t = simulator_.now();
        spawn.kind = obs::EventKind::kAtkSpawn;
        spawn.node = bad;
        recorder_->emit(spawn);
      }
    }
  }
  const auto start = std::chrono::steady_clock::now();
  simulator_.run_until(t);
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (watch_running_) {
    // Terminate the carriage-return progress line so subsequent stderr
    // output starts on a fresh line.
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    watch_running_ = false;
  }
}

obs::ProfileReport Network::profile() const {
  obs::ProfileReport report;
  report.enabled = config_.obs.profile;
  report.wall_seconds = wall_seconds_;
  report.events_executed = simulator_.executed();
  report.max_queue_depth = simulator_.max_pending();
  report.virtual_seconds = simulator_.now();
  if (profiler_) {
    const auto events = recorder_->layer_counts();
    for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
      report.layers[i] = {events[i], profiler_->self_seconds()[i]};
    }
  }
  return report;
}

}  // namespace lw::scenario
