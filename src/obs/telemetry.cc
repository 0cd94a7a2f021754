#include "obs/telemetry.hh"

#include "obs/json.hh"

namespace eat::obs
{

Result<std::unique_ptr<TelemetrySink>>
TelemetrySink::open(const std::string &path)
{
    auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
    if (!*file)
        return Status::error("cannot open telemetry file ", path);
    std::unique_ptr<TelemetrySink> sink(new TelemetrySink());
    sink->out_ = file.get();
    sink->file_ = std::move(file);
    return sink;
}

void
TelemetrySink::emit(const IntervalRecord &r)
{
    JsonObject o;
    o.put("schema", kTelemetrySchema);
    o.put("v", kTelemetryVersion);
    o.put("core", r.core);
    o.put("interval", r.interval);
    o.put("start_instr", r.startInstr);
    o.put("instructions", r.instructions);
    o.put("mem_ops", r.memOps);
    o.put("l1_hits", r.l1Hits);
    o.put("l1_misses", r.l1Misses);
    o.put("l2_hits", r.l2Hits);
    o.put("l2_misses", r.l2Misses);
    o.put("host_walk_refs", r.hostWalkRefs);
    o.put("l3_probes", r.l3Probes);
    o.put("l3_hits", r.l3Hits);
    o.put("miss_cycles", r.missCycles);
    // Exact: the provenance reconciliation oracle re-derives this value
    // from traced events and demands bit-identity after a round-trip.
    o.putExact("dynamic_pj", r.dynamicPj);
    o.put("l1_mpki", r.l1Mpki);
    o.put("l2_mpki", r.l2Mpki);
    o.put("l1_hit_ratio", r.l1HitRatio);
    o.put("l2_hit_ratio", r.l2HitRatio);

    JsonObject mask;
    for (const auto &[name, ways] : r.wayMask)
        mask.put(name, ways);
    o.putRaw("way_mask", mask.str());

    o.put("check_mismatches", r.checkMismatches);
    o.put("faults_injected", r.faultsInjected);

    // Flush per record: a child killed mid-run (watchdog, crash, the
    // campaign engine's retry SIGKILL) must leave at most one torn
    // final line behind, never a silently truncated stream.
    o.writeLine(*out_);
    out_->flush();
    ++records_;
}

Status
TelemetrySink::close()
{
    out_->flush();
    if (!*out_)
        return Status::error("telemetry stream write failure");
    if (file_)
        file_->close();
    return Status();
}

} // namespace eat::obs
