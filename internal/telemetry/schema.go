package telemetry

// Event types emitted by the instrumented control loop. Every event
// carries {seq, t, wl} plus the attributes listed here; attribute values
// are numeric (booleans encode as 0/1).
const (
	// EvRunStart opens a scenario run. msg=policy name;
	// attrs: duration_s, tick_s, slo_s (0 without an LC workload).
	EvRunStart = "run.start"
	// EvRunEnd closes a scenario run. msg=policy name; attrs:
	// violation_rate, max_p99_s, mean_p99_s, fairness, be_throughput,
	// migrated_bytes, ticks, slo_met.
	EvRunEnd = "run.end"
	// EvRunWorkload maps a workload ID to its name (msg) at run start;
	// attrs: is_lc, total_pages.
	EvRunWorkload = "run.workload"

	// EvSLOViolation marks a tick in which LC requests exceeded the SLO.
	// attrs: p99_s, frac (fraction of the tick's requests beyond SLO),
	// load (offered fraction of max load), fmem_ratio.
	EvSLOViolation = "slo.violation"
	// EvPromotion reports the pages promoted to FMem during one tick.
	// attrs: pages.
	EvPromotion = "promotion"
	// EvDemotion reports the pages demoted to SMem during one tick.
	// attrs: pages.
	EvDemotion = "demotion"
	// EvPolicySwitch marks a change in the policy's externally visible
	// regime: the per-request LC stall it imposes flipped. Fault-driven
	// policies like TPP switch when promotions move on or off the
	// request critical path. msg=policy name; attrs: stall_s (the new
	// stall in seconds).
	EvPolicySwitch = "policy.switch"
	// EvLoadShift marks a load-pattern level change on the LC workload.
	// attrs: load (the new offered fraction of max load).
	EvLoadShift = "load.shift"

	// EvPPMDecision is one PP-M partition decision (one RL step).
	// attrs: usage, acc_ratio, load (the state vector §3.2.1), raw
	// (policy action), applied (action after guards/clamps), reward
	// (assigned to the *previous* action, Eq. 2), cur_pages,
	// target_pages, shrink_scaled, hold, guard, clamped (0/1 flags).
	EvPPMDecision = "ppm.decision"
	// EvPPMAnneal is one BE fairness search (Algorithm 2).
	// attrs: iters, score (best min-NP), units, workloads.
	EvPPMAnneal = "ppm.anneal"

	// EvPPESlice is one Algorithm 3 bandwidth-sliced adjustment step.
	// attrs: delta_lc (outstanding LC delta in pages), budget_pages,
	// promote_req, demote_req (pages the slice asked to move),
	// promoted, demoted (pages actually moved), bytes.
	EvPPESlice = "ppe.slice"
	// EvPPERefine is one Figure 4b refinement pass that moved pages.
	// attrs: target_pages, promoted, demoted, bytes.
	EvPPERefine = "ppe.refine"
	// EvPPEHist summarizes a workload's unified access histogram at
	// refinement time. attrs: pages, occupied_bins, top_bin, top_len.
	EvPPEHist = "ppe.hist"
	// EvPPETarget reports one workload's partition target after PP-E
	// adopts a new policy file. attrs: target_pages, prev_pages, delta.
	EvPPETarget = "ppe.target"
	// EvPPEPolicyError marks a policy file PP-E could not apply.
	// attrs: generation.
	EvPPEPolicyError = "ppe.policy_error"

	// EvJournalReplay summarizes a journal open. msg=directory;
	// attrs: segments, records, torn (0/1).
	EvJournalReplay = "journal.replay"
	// EvJournalTorn marks a torn or corrupt record found during replay;
	// the tail from that record on was discarded. msg=segment file;
	// attrs: offset (last good byte), dropped_bytes.
	EvJournalTorn = "journal.torn"
	// EvJournalCompact marks a snapshot compaction. msg=snapshot record
	// type; attrs: dropped_segments.
	EvJournalCompact = "journal.compact"
)

// Metric names. Counters end in _total; gauges and histograms carry a
// unit suffix where meaningful. Per-workload metrics append ".<id>" (and
// BE outcome gauges ".<name>").
const (
	MetricPPMDecisions   = "ppm_decisions_total"
	MetricPPMClipShrink  = "ppm_clip_shrink_total"
	MetricPPMClipHold    = "ppm_clip_hold_total"
	MetricPPMGuard       = "ppm_guard_total"
	MetricPPMClamped     = "ppm_clamped_total"
	MetricPPMAnnealIters = "ppm_anneal_iters_total"
	MetricPPMStatErrors  = "ppm_stat_errors_total"
	MetricPPMLCTarget    = "ppm_lc_target_pages"
	MetricPPMDecideTime  = "ppm_decide_seconds"

	MetricPPEPromoted     = "ppe_promoted_pages_total"
	MetricPPEDemoted      = "ppe_demoted_pages_total"
	MetricPPEMigBytes     = "ppe_migrated_bytes_total"
	MetricPPESlices       = "ppe_slices_total"
	MetricPPERefines      = "ppe_refines_total"
	MetricPPEPolicyOK     = "ppe_policy_updates_total"
	MetricPPEPolicyErrors = "ppe_policy_errors_total"

	MetricFSReads    = "cgroupfs_reads_total"
	MetricFSWrites   = "cgroupfs_writes_total"
	MetricFSNotFound = "cgroupfs_notfound_total"

	MetricJournalAppendTime  = "journal_append_seconds"
	MetricJournalAppends     = "journal_appends_total"
	MetricJournalRotations   = "journal_rotations_total"
	MetricJournalCompactions = "journal_compactions_total"
	MetricJournalReplayed    = "journal_replayed_records_total"
	MetricJournalTorn        = "journal_torn_records_total"

	MetricSimTicks      = "sim_ticks_total"
	MetricSimViolations = "sim_slo_violations_total"
	MetricSimP99        = "sim_lc_p99_seconds"
	MetricSimLoad       = "sim_lc_load_frac"
	MetricSimFMemRatio  = "sim_lc_fmem_ratio"

	// Simulator-core resource accounting, published once per run from
	// the run's CoreStats (see internal/sim).
	MetricSimPromoted    = "sim_pages_promoted_total"
	MetricSimDemoted     = "sim_pages_demoted_total"
	MetricSimHistDecays  = "sim_hist_decays_total"
	MetricSimPEBSSamples = "sim_pebs_samples_total"
	MetricSimQueueDraws  = "sim_queue_draws_total"
	MetricSimAllocBytes  = "sim_alloc_bytes_total"
	MetricSimGCPause     = "sim_gc_pause_seconds"
	MetricSimTickRate    = "sim_ticks_per_second"

	// Fleet slow-cell visibility: per-cell wall time and the count of
	// cells flagged slower than SlowCellFactor × the sweep median.
	MetricFleetCellWall  = "fleet_cell_wall_seconds"
	MetricFleetSlowCells = "fleet_slow_cells_total"

	// Observability self-metrics: ring-buffer loss in the event tracer
	// and the span store (synced by Telemetry.SyncDropStats), and the
	// HTTP middleware's request families (per-route series via
	// SeriesName).
	MetricTraceDropped = "telemetry_trace_dropped_total"
	MetricSpansDropped = "telemetry_spans_dropped_total"
	MetricHTTPDuration = "http_request_duration_seconds"
	MetricHTTPRequests = "http_requests_total"
	MetricHTTPInFlight = "http_requests_in_flight"

	// Multi-tenant control plane (internal/tenant): per-tenant series via
	// SeriesName with a `tenant` label; rejections additionally carry a
	// `reason` label (auth, rate, queued, active, sweep_cells, cost).
	MetricTenantRuns      = "tenant_runs_total"
	MetricTenantCells     = "tenant_cells_total"
	MetricTenantQueueWait = "tenant_queue_wait_seconds"
	MetricTenantRejected  = "tenant_rejected_total"

	// Live event pipeline: run-trace ring loss summed over finished runs
	// (one unlabeled series; a run's own count is the `dropped` field of
	// its flight dump), and the EventBus's publish/overflow accounting.
	MetricFlightDropped = "flight_events_dropped_total"
	MetricBusPublished  = "telemetry_bus_events_total"
	MetricBusDropped    = "telemetry_bus_dropped_total"

	// Trained-policy cache (sim.PolicyCacheStats, process-wide): MTAT
	// policy builds served from a cached agent, and those that trained.
	MetricPolicyCacheHits   = "sim_policy_cache_hits_total"
	MetricPolicyCacheMisses = "sim_policy_cache_misses_total"
)
