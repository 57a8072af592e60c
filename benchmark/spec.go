package main

import (
	"fmt"
	"io"
)

// This file is the benchmark's contract: every workload and metric name
// with its unit and direction. BENCHMARK.json at the repository root
// repeats it for the driver; TestSpecMatchesBenchmarkJSON fails when the
// two disagree.

// metricSpec names one reported number.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	What   string  // one line shown by -list
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"http-mtu", "Reference row: HTTP mix 200-1400 B, 64 flows, 8% planted matches, one stateless IDS; wire framing and syscalls dominate, the scan is a minority share."},
	{"small-pkt", "64 B payloads over a skewed 131072-flow population on a stateful IDS: per-packet cost (codec, window, acks, flow table) is all the work; a scan-only gain must not move it."},
	{"attack-dense", "1400 B payloads packed with pattern text: DFA worst case, every packet carries a report, so report encode, result frames and verdict forwarding are hot."},
	{"multi-tenant", "Four middleboxes on two chains share one merged automaton of tens of MB: compile time, resident size, DFA cache misses and regex confirmation show here."},
}

// End-to-end metrics, measured with tracing off on the deployed
// processes. fail_pct of the issue is carried by the result line's
// correct/attempted/failed fields and by driver.fail_pct below: a
// metric that is 0 on every healthy run cannot take a relative bound.
var e2eMetrics = []metricSpec{
	{"goodput_mbps", "Mbit/s", "higher", 0.25, "saturation: payload bits whose result came back / wall time, median of 5 slices"},
	{"inst_cpu_ns_per_pkt", "ns", "lower", 0.25, "saturation: dpinstance user+sys CPU / packets answered, median of 5 slices"},
	{"rtt_p50_us", "us", "lower", 0.25, "paced open loop: due time -> result at the sender, median; median of 5 slices"},
	{"setup_s", "s", "lower", 0.25, "exec of dpinstance -> first probe result (hello, config, compile, socket); median of 3 starts"},
	{"inst_rss_mb", "MiB", "lower", 0.10, "VmHWM of dpinstance at the end of the run"},
}

// Per-layer metrics, from the traced run: the in-process layer replay
// plus the traced end-to-end phases. No bounds; they explain, the
// end-to-end metrics gate.
var layerMetrics = []metricSpec{
	{"packet.summarize_ns_per_pkt", "ns", "lower", 0, "packet.Summarize over the corpus as Ethernet/IPv4/TCP frames"},
	{"packet.checksum_ns_per_pkt", "ns", "lower", 0, "packet.TCPChecksumValid over the same frames"},
	{"packet.report_encode_ns_per_pkt", "ns", "lower", 0, "Report.AppendEncoded, amortised over all packets"},
	{"packet.report_decode_ns_per_pkt", "ns", "lower", 0, "packet.DecodeReport, amortised over all packets"},
	{"packet.report_bytes_per_pkt", "B", "lower", 0, "encoded report bytes / packets"},
	{"reassembly.segment_ns_per_pkt", "ns", "lower", 0, "in-order Assembler.SegmentWithMeta (not on the deployed path yet)"},
	{"reassembly.ooo_segment_ns_per_pkt", "ns", "lower", 0, "same corpus with 25% seeded reorder"},
	{"reassembly.buffered_peak_bytes", "B", "lower", 0, "peak out-of-order bytes held during the reordered pass"},
	{"mpm.acfull_ns_per_byte", "ns/B", "lower", 0, "ACFull.Scan of the payloads, no engine around it"},
	{"mpm.prefilter_ns_per_byte", "ns/B", "lower", 0, "PrefilteredAC.ScanStats of the same payloads (not what the daemons run)"},
	{"mpm.prefilter_hit_pct", "%", "lower", 0, "prefilter probes that found a flagged bucket"},
	{"mpm.prefilter_confirm_pct", "%", "lower", 0, "payload bytes the exact automaton re-scanned"},
	{"mpm.prefilter_bailouts", "count", "lower", 0, "scans that exceeded the hit budget and were rescanned plain"},
	{"mpm.automaton_mb", "MiB", "lower", 0, "Engine.MemoryBytes of the engine dpinstance builds"},
	{"core.compile_s", "s", "lower", 0, "core.NewEngine on the controller-issued config"},
	{"core.inspect_ns_per_pkt", "ns", "lower", 0, "Engine.Inspect, single goroutine"},
	{"core.inspect_overhead_ns_per_pkt", "ns", "lower", 0, "Inspect minus the bare ACFull scan of the same payloads"},
	{"core.inspect_allocs_per_pkt", "count", "lower", 0, "heap allocations per Inspect call"},
	{"core.batch_ns_per_pkt", "ns", "lower", 0, "Engine.InspectBatch, workers = nproc"},
	{"core.pool_ns_per_pkt", "ns", "lower", 0, "Pool.Submit + Wait, workers = nproc"},
	{"core.flow_miss_pct", "%", "lower", 0, "flow-table lookups that created a flow"},
	{"core.flows_evicted", "count", "lower", 0, "flows evicted during the replay"},
	{"regexengine.confirm_ns_per_call", "ns", "lower", 0, "regexengine.Confirm on packets holding every anchor"},
	{"regexengine.confirm_hit_pct", "%", "higher", 0, "confirmations that matched"},
	{"wire.codec_ns_per_pkt", "ns", "lower", 0, "AppendData + AppendFrame + NextFrame + ParseDataHdr"},
	{"wire.endpoint_ns_per_pkt", "ns", "lower", 0, "instance-side Endpoint.HandleFrame + Send + ack handling, virtual clock"},
	{"wire.syscall_ns_per_pkt", "ns", "lower", 0, "UDPTransport over loopback as the server uses it: ReadBatch of 32 datagrams, one WriteBatch per datagram answered"},
	{"wire.null_goodput_mbps", "Mbit/s", "higher", 0, "Conn <-> Server with an empty OnData handler, closed loop"},
	{"wire.null_rtt_p50_us", "us", "lower", 0, "same, paced at the workload's rate"},
	{"wire.frames_per_batch_in", "count", "higher", 0, "dpinstance /metrics: wire.frames_in / wire.batches_in"},
	{"wire.acks_per_pkt", "count", "lower", 0, "dpinstance /metrics: wire.acks_sent / packets"},
	{"wire.retransmit_pct", "%", "lower", 0, "dpinstance /metrics: wire.retransmits / wire.frames_out"},
	{"wire.dup_pct", "%", "lower", 0, "dpinstance /metrics: wire.dup_frames / wire.frames_in"},
	{"middlebox.consume_ns_per_report", "ns", "lower", 0, "DecodeReport + CountLogic.OnResult per non-empty report"},
	{"middlebox.verdicts_delivered_pct", "%", "higher", 0, "mboxd mbox.verdicts / non-empty reports the driver saw"},
	{"controller.register_s", "s", "lower", 0, "registration, pattern and chain RPCs against the live dpictl"},
	{"controller.config_s", "s", "lower", 0, "InstanceInitMsg + ConfigFromInit"},
	{"obs.timed_overhead_ns_per_pkt", "ns", "lower", 0, "InspectTimed minus Inspect"},
	{"trace.overhead_pct", "%", "lower", 0, "saturation goodput lost with every packet sent traced"},
	{"trace.inst_decode_p50_ns", "ns", "lower", 0, "dpinstance /trace: decode span, median"},
	{"trace.inst_scan_p50_ns", "ns", "lower", 0, "dpinstance /trace: scan span, median"},
	{"trace.inst_encode_p50_ns", "ns", "lower", 0, "dpinstance /trace: encode span, median"},
	{"driver.cpu_ns_per_pkt", "ns", "lower", 0, "load generator user+sys CPU / packets answered, saturation"},
	{"driver.late_pct", "%", "lower", 0, "paced sends more than 1 ms behind schedule"},
	{"driver.rtt_p99_us", "us", "lower", 0, "paced open loop, traced: due time -> result, 99th percentile (too noisy to gate, see README)"},
	{"driver.fail_pct", "%", "lower", 0, "missing results + oracle mismatches + undelivered verdicts / packets attempted"},
	{"inst.cpu_util_pct", "%", "higher", 0, "dpinstance CPU / wall time at saturation: who was the bottleneck"},
	{"ledger.layers_sum_ns_per_pkt", "ns", "lower", 0, "wire codec + endpoint + syscall + core.inspect + report encode"},
	{"ledger.wire_share_pct", "%", "lower", 0, "wire.* share of ledger.layers_sum_ns_per_pkt"},
	{"ledger.scan_share_pct", "%", "lower", 0, "core.inspect (scan included) share of ledger.layers_sum_ns_per_pkt"},
	{"ledger.residual_pct", "%", "lower", 0, "(inst_cpu_ns_per_pkt - layers sum) / inst_cpu_ns_per_pkt: scheduling, GC, timers, anything unnamed"},
}

func specByName(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// printList writes every workload and metric with unit and direction.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadSpecs {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "  %-34s %-7s %-6s bound %.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.What)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-34s %-7s %-6s %s\n", m.Name, m.Unit, m.Better, m.What)
	}
}
