// Command perfbench is the repository's benchmark: it measures how fast
// and at what cost published events reach every interested peer, end to
// end and layer by layer, on four workloads. It drives only the public
// APIs of live and core with inputs generated from a seed (by workload),
// checks every delivery it observes against those inputs, and prints one
// JSON result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the command into .bench_build/ and runs it. The last line
// of stdout is {"correct", "attempted", "failed", "metrics"}; the line
// before it is an environment block (CPU model, nproc, GOMAXPROCS, go
// version, commit or source digest), so numbers from different machines
// are never compared silently. BENCHMARK.json declares the workloads and
// metrics; TestMetricsMatchBenchmarkJSON keeps the two in step.
//
// # Workloads
//
//   - live-chan-content exists to measure per-message CPU: 64 live peers
//     on the in-process chan transport, 20 ms rounds, batch 32, static
//     levers, an open loop of 300 stock ticks/s (4 attributes, 16 B
//     payloads) under `symbol == S || price >= P` filters; decode,
//     SeenSet, Buffer select and filter matching dominate, and a
//     transport change should not move it.
//   - live-udp-payload exists to measure bytes: 32 live peers on loopback
//     UDP, 20 ms rounds, batch 32, an open loop of 250 events/s on 16 Zipf
//     topics (2 per peer) with 1 KiB payloads, so envelopes run to tens of
//     KB and syscalls, copies and GC dominate; attribute interning should
//     not move it, copy avoidance should.
//   - sim-paper exists to guard the paper's simulator engine: 5000 nodes
//     on the single-threaded kernel (shards=1) in topic mode with
//     subscription walks, Cyclon, AIMD (TargetRatio 2000) and per-node
//     jittered tickers; timers and charged membership traffic dominate.
//   - sim-huge exists to measure the sharded kernel at scale: the
//     fairbench -huge configuration (100k nodes, 2 shards, content mode,
//     full sampler, batched rounds, 8 publications per round) with a
//     dedup memory that holds every event of the run; it never
//     touches wire, transport or membership, so a live-path change must
//     not move it.
//
// A live workload is an open loop: one goroutine publishes at a fixed
// rate for --seconds, and latency is timed from each publication's due
// time, so a stalled Publish counts against it. The window ends 25 rounds
// after the last due publication. A sim workload is a batch job: a fixed
// number of publications before each of RoundsPerSecond × --seconds
// rounds, then 10 drain rounds; a faster program finishes sooner instead
// of doing more work. Set-up (build, subscribe, start, and sim-paper's 10
// walk warm-up rounds) is repeated SetupReps times and reported as the
// median; the last build is the one measured.
//
// # End-to-end metrics
//
// A delivery is one (event, subscriber) pair where the subscriber is not
// the publisher and its filter matches the event by the benchmark's own
// evaluation.
//
//	setup_s              median set-up time
//	deliver_p50_ms/p99   live: publish due time to the delivery callback,
//	                     the quantile taken per 1 s slice of publications,
//	                     reported as the mean of the middle half of the
//	                     slices; sim: deliver_p*_rounds × a typical round,
//	                     the mean of the middle half of the RunRounds(1)
//	                     windows' wall times
//	deliver_p50_rounds/  the same in gossip rounds: live, ms ÷ 20 ms; sim,
//	  p99_rounds         virtual rounds, each delivery in round k spread
//	                     over (k-1, k] (grouped-data quantile)
//	delivered_frac       deliveries made ÷ deliveries expected
//	cpu_us_per_delivery  process user+sys CPU ÷ deliveries; live: per 1 s
//	                     slice, middle half averaged; sim: over the window
//	deliveries_per_s     deliveries ÷ window wall time; sim: ÷ (rounds ×
//	                     the typical round)
//	bytes_per_delivery   ledger-charged app+infra bytes in the window
//	                     (equal to wire bytes on live) ÷ deliveries
//	ratio_jain           Ledger.Report().RatioJain, the paper's objective
//	max_rss_mb           peak resident memory of the process
//
// Averaging only the middle half of the slices or windows keeps a stall
// of the shared machine (CPU steal, a noisy neighbour) from moving a
// whole run: it moves a slice or a window. The
// seed permutes who subscribes to what, but the number of subscribers
// per topic, the topic mix of the events and the content filters'
// thresholds are fixed ladders, so the work a run does hardly depends on
// the seed.
//
// # Per-layer metrics
//
// A traced invocation (--trace 1) runs the workload untraced, then again
// with spans recorded in memory (each Publish as the root span with its
// deliveries as children, each transport Send and receiving handler call
// through a wrapped live.Config.Transport factory, each sim RunRounds(1)
// window) and written to .bench_build/trace/<workload>-seed<n>.jsonl.
// Send times are as seen through the wrapped transport: on the
// in-process transport they include the receiving handler (which runs
// inside Send) and the probe's record of the receipt. It
// keeps a sample of real inputs and afterwards replays them through each
// layer's public functions. Layers a workload never calls report 0.
// Each layer metric, the end-to-end metric it should move, and where:
//
//	metric                         moves                   on                  not on
//	live.publish_call_p99_us       deliver_p99_ms          live-*              sim-*
//	live.inbox_drops,              delivered_frac,         live-*              sim-*
//	  live.envelopes_per_delivery    bytes_per_delivery
//	transport.send_ns (median),    cpu_us_per_delivery,    live-udp-payload    live-chan-content,
//	  send_p99_us, hop_p99_us,       deliver_p99_ms                              sim-*
//	  drops, envelope_bytes_p50
//	wire.decode_ns_op,             cpu_us_per_delivery     live-chan-content   sim-*
//	  decode_allocs_op,                                      most, udp less
//	  decode_b_op, encode_ns_op
//	gossip.dup_frac                bytes_per_delivery,     all
//	                                 cpu_us_per_delivery
//	gossip.seen_add_ns_op,         cpu_us_per_delivery,    all
//	  gossip.select_ns_op            deliveries_per_s
//	pubsub.match_ns_op             cpu_us_per_delivery     live-chan-content   sim-huge (MatchAll)
//	membership.infra_bytes_frac,   bytes_per_delivery      live-*, sim-paper   sim-huge
//	  membership.shuffle_ns_op
//	fairness.add_ns_op,            deliveries_per_s        sim-huge            live-*
//	  fairness.add_2w_ns_op
//	eventsim.schedule_step_ns_op,  deliveries_per_s        sim-paper most,     live-*
//	  simnet.send_deliver_ns_op,                             sim-huge
//	  simnet.msgs_per_round
//	core.rounds_per_s (typical     deliveries_per_s        sim-huge            live-*
//	  round),
//	  window_p50_ms, window_p99_ms,
//	  shard_util
//	proc.gc_cpu_frac,              cpu_us_per_delivery,    all
//	  proc.alloc_bytes_per_delivery  deliver_p99_ms, max_rss_mb
//	proc.unexplained_cpu_frac      (a finding)             all
//	gen.late_p99_ms                guards deliver_p*_ms    live-*
//	trace.cpu_overhead_frac        (tracing cost)          all
//
// The replays: wire decodes captured envelopes into a reused Envelope and
// re-encodes them with AppendEnvelope/AppendMembership; SeenSet.Add takes
// the run's event-id stream (live: ids in captured envelopes; sim: each
// id followed by those published in the two rounds before it); SelectInto
// runs on a buffer holding every event of the last BufferMaxAge rounds;
// Interest.Match evaluates the run's filters over its events;
// Cyclon.HandleShuffle answers captured (live) or generated (sim-paper)
// offers; Ledger.AddSend runs with one writer and with two; the kernel
// replays schedule+step and simnet send+deliver at the run's heap depth
// (one ticker per node unless batched, plus one round of messages per
// shard). gossip.dup_frac is the ledger's JunkBytes ÷ (UsefulBytes +
// JunkBytes), membership.infra_bytes_frac its infra ÷ charged bytes,
// core.shard_util process CPU ÷ (window wall × shards). The proc.*
// figures come from runtime/metrics over the untraced pass.
// proc.unexplained_cpu_frac is 1 − Σ(layer ns/op × the traced run's call
// count) ÷ the untraced pass's CPU, with call counts seen from outside:
// envelopes received and encoded, sends, event records received
// (audited bytes ÷ mean event size), first receipts, node-rounds, shuffle
// offers, ledger writes, simulated messages and ticker fires.
//
// # Correctness checks
//
// A run reports correct=false, and names the failed check on stderr, on
// a false delivery (the subscriber's filter does not match), a delivery
// of an event nobody published, a duplicate (event, subscriber)
// delivery, a delivery whose topic, attributes or payload differ from
// what was published (compared inside the delivery callback, against a
// private copy), or, on live after Stop, Sent != Recv + Dropped. The
// command exits 0 whenever it printed a result. attempted counts
// publications and failed the Publish calls that returned false; missed
// deliveries are a metric (delivered_frac), not failures.
package main
