#include "obs/timeseries.h"

#include "util/json.h"

namespace lw::obs {
namespace {

void write_gauges(util::JsonWriter& json, const MemoryGauges& gauges) {
  json.open('{');
  json.key("slab_slots").value(gauges.slab_slots);
  json.key("watch_entries").value(gauges.watch_entries);
  json.key("neighbor_bytes").value(gauges.neighbor_bytes);
  json.key("defense_storage_bytes").value(gauges.defense_storage_bytes);
  json.close('}');
}

}  // namespace

TelemetrySampler::TelemetrySampler(Duration bucket_seconds)
    : bucket_seconds_(bucket_seconds) {}

SeriesBucket TelemetrySampler::make_bucket(Time start,
                                           const BucketSample& sample) const {
  SeriesBucket bucket;
  bucket.start = start;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    bucket.layer_events[i] = sample.layer_events[i] - last_.layer_events[i];
    bucket.events_emitted += bucket.layer_events[i];
    bucket.layer_self_seconds[i] =
        sample.self_seconds[i] - last_.self_seconds[i];
  }
  bucket.events_executed = sample.events_executed - last_.events_executed;
  bucket.deliveries = sample.deliveries - last_.deliveries;
  bucket.delivery_latency_sum =
      sample.delivery_latency_sum - last_.delivery_latency_sum;
  bucket.queue_depth = sample.queue_depth;
  bucket.queue_high_water = sample.queue_high_water;
  bucket.memory = sample.memory;
  return bucket;
}

void TelemetrySampler::close_bucket(Time boundary, const BucketSample& sample) {
  closed_.push_back(make_bucket(open_start_, sample));
  open_start_ = boundary;
  last_ = sample;
}

SeriesReport TelemetrySampler::report(const BucketSample& final_sample) const {
  SeriesReport report;
  report.enabled = true;
  report.bucket_seconds = bucket_seconds_;
  report.buckets = closed_;
  // Tail activity after the last boundary becomes a trailing partial
  // bucket; a quiet tail (e.g. duration an exact multiple of the bucket)
  // adds nothing, keeping the series free of an all-zero sentinel row.
  const SeriesBucket tail = make_bucket(open_start_, final_sample);
  if (tail.events_emitted > 0 || tail.events_executed > 0) {
    report.buckets.push_back(tail);
  }
  for (const SeriesBucket& bucket : report.buckets) {
    if (bucket.queue_high_water > report.queue_high_water) {
      report.queue_high_water = bucket.queue_high_water;
    }
    report.memory_high_water.max_with(bucket.memory);
  }
  return report;
}

std::string series_to_json(const SeriesReport& report, bool include_timing) {
  util::JsonWriter json;
  json.open('{');
  json.key("bucket_seconds").value(report.bucket_seconds);
  json.key("queue_high_water").value(report.queue_high_water);
  json.key("memory_high_water");
  write_gauges(json, report.memory_high_water);
  json.key("buckets").open('[');
  for (const SeriesBucket& bucket : report.buckets) {
    json.item().open('{');
    json.key("start").value(bucket.start);
    json.key("events_emitted").value(bucket.events_emitted);
    json.key("events_executed").value(bucket.events_executed);
    json.key("layers").open('{');
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      if (bucket.layer_events[i] == 0) continue;
      json.key(to_string(static_cast<Layer>(i))).value(bucket.layer_events[i]);
    }
    json.close('}');
    json.key("deliveries").value(bucket.deliveries);
    json.key("delivery_latency_sum").value(bucket.delivery_latency_sum);
    json.key("queue_depth").value(bucket.queue_depth);
    json.key("queue_high_water").value(bucket.queue_high_water);
    json.key("memory");
    write_gauges(json, bucket.memory);
    if (include_timing) {
      json.key("self_seconds").open('{');
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        if (bucket.layer_self_seconds[i] == 0.0) continue;
        json.key(to_string(static_cast<Layer>(i)))
            .value(bucket.layer_self_seconds[i]);
      }
      json.close('}');
    }
    json.close('}');
  }
  json.close(']');
  json.close('}');
  return json.str();
}

}  // namespace lw::obs
