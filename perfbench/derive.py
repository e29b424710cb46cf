"""Turns one harness report (and, for a traced run, its span file) into the
named metrics of BENCHMARK.json.  METRICS.md defines each one."""

import collections
import json
import statistics

import stats


# --- end to end ----------------------------------------------------------------

def end_to_end(raw):
    """(metrics, extra): metrics are BENCHMARK.json's end_to_end names as
    {name: (value, unit)}; extra holds supporting figures for the results
    file and the printed report."""
    workload = raw["workload"]
    if workload == "sweep_deep":
        # One request is one sweep of the whole grid.
        latency = [s * 1e6 for s in raw["sweep_s"]]
        rates = [raw["records"] / s for s in raw["sweep_s"]]
        # The harness process over the timed sweeps.
        rss_kb = raw["peak_rss_kb"]
    elif workload == "dse_overlap":
        # The first epoch pays the process's own warm-up (page faults, first
        # allocations); it is checked but not timed.
        first = int(raw["epoch_answers"][0])
        latency = raw["latency_us"][first:]
        rates = [a / s for a, s in zip(raw["epoch_answers"][1:], raw["epoch_s"][1:])]
        # Each epoch's server process, over its whole life.
        rss_kb = statistics.median(raw["server_peak_rss_kb"][1:])
    else:
        raise ValueError("unknown workload " + workload)
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "p50_us": (stats.percentile(latency, 0.5), "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    q, tail = stats.tail(latency)
    extra = {
        "requests": len(latency),
        "rate_samples": len(rates),
        "tail_quantile": q,
        "tail_us": tail,
    }
    return metrics, extra


# --- per layer -----------------------------------------------------------------

def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_name = collections.defaultdict(list)
    for e in events:
        by_name[e["name"]].append(e)
    return by_name


def _ns_per_item(spans):
    items = sum(e["args"]["count"] for e in spans)
    return sum(e["dur"] for e in spans) * 1e3 / items if items else 0.0


def _durations_us(spans):
    return [e["dur"] for e in spans]


def _p50(values):
    return stats.percentile(values, 0.5) if values else 0.0


def _p99(values):
    return stats.tail(values)[1] if values else 0.0


def per_layer(raw, spans):
    """BENCHMARK.json's per_layer names as {name: (value, unit)}."""
    layers = raw["layers"]
    m = {}

    decode_ns = _ns_per_item(spans["trace.block_numbers"])
    pass_ns = _ns_per_item(spans["dew.pass"])
    m["trace.decode_ns_per_record"] = (decode_ns, "ns")
    m["dew.pass_ns_per_access"] = (pass_ns, "ns")

    counts = layers["dew_counts"]
    accesses = counts["accesses"]
    evals_per_access = counts["node_evaluations"] / accesses
    m["dew.ns_per_node"] = (pass_ns / evals_per_access, "ns")
    m["dew.node_evals_per_access"] = (evals_per_access, "count")
    m["dew.mra_hit_frac"] = (counts["mra_hits"] / counts["node_evaluations"], "frac")
    m["dew.searches_per_access"] = (counts["searches"] / accesses, "count")
    m["dew.tag_cmps_per_access"] = (counts["tag_comparisons"] / accesses, "count")

    steps = [e for e in spans["dew.session_step"] if e["args"]["count"] > 0]
    step_us = _durations_us(steps)
    m["dew.session_step_us_p50"] = (_p50(step_us), "us")
    m["dew.session_step_us_p99"] = (_p99(step_us), "us")
    # The session's own share: step time not explained by decoding each
    # block size once and feeding every pass, at the probes' measured rates.
    explained = sum(e["args"]["count"] * (e["args"]["streams"] * decode_ns +
                                          e["args"]["passes"] * pass_ns)
                    for e in steps) / 1e3
    m["dew.session_overhead_frac"] = (1.0 - explained / sum(step_us), "frac")

    m["cipar.pass_ns_per_access"] = (_ns_per_item(spans["cipar.pass"]), "ns")

    # Fig. 5: per-configuration simulation of the whole grid (mean sampled
    # dinero time x configurations) over one DEW sweep, summed over traces.
    dinero = collections.defaultdict(list)
    for e in spans["baseline.dinero"]:
        dinero[e["args"]["trace"]].append(e["dur"])
    sweeps = collections.defaultdict(list)
    for e in spans["dew.sweep"]:
        sweeps[e["args"]["trace"]].append((e["dur"], e["args"]["count"]))
    per_config = sum(statistics.median(dinero[t]) * sweeps[t][0][1] for t in sweeps)
    dew_time = sum(statistics.median([d for d, _ in sweeps[t]]) for t in sweeps)
    m["baseline.speedup_dew_vs_dinero"] = (per_config / dew_time, "x")

    answer_us = _durations_us(spans["serve.answer"])
    m["serve.submit_call_us_p50"] = (_p50(_durations_us(spans["serve.submit_call"])), "us")
    m["serve.answer_us_p50"] = (_p50(answer_us), "us")
    m["serve.answer_us_p99"] = (_p99(answer_us), "us")
    s = layers["serve_stats"]
    m["serve.cache_hit_rate"] = (s["cache_hits"] / s["submitted"], "frac")
    m["serve.coalesce_factor"] = (
        (s["computations"] + s["coalesced"]) / s["computations"]
        if s["computations"] else 1.0, "x")
    reuse_base = s["stream_builds"] + s["stream_reuses"]
    m["serve.stream_reuse_frac"] = (
        s["stream_reuses"] / reuse_base if reuse_base else 0.0, "frac")
    m["serve.computations"] = (s["computations"], "count")
    m["serve.shard_jobs"] = (s["shard_jobs"], "count")
    m["serve.queue_depth_max"] = (s["queue_depth_max"], "count")
    m["bench.repeat_frac"] = (layers["repeat_frac"], "frac")
    m["bench.config_overlap_frac"] = (layers["config_overlap_frac"], "frac")

    m["net.ping_rtt_us_p50"] = (_p50(_durations_us(spans["net.ping"])), "us")
    for codec in ("encode_submit", "decode_submit", "encode_result", "decode_result"):
        m["net." + codec + "_ns"] = (_ns_per_item(spans["net." + codec]), "ns")
    m["net.result_bytes"] = (layers["result_bytes_mean"], "bytes")
    m["net.wire_tax_us_p50"] = (
        _p50(_durations_us(spans["net.warm_answer"])) -
        _p50(_durations_us(spans["serve.warm_answer"])), "us")

    m["proc.threads_peak"] = (layers["threads_peak"], "count")
    m["proc.maps_peak"] = (layers["maps_peak"], "count")

    low, high = layers["phases"]
    # Generator lag at the fixed rates; on the ladder's overloaded steps the
    # machine is saturated by design and the due-time latency absorbs it.
    lag = stats.send_lag_us(low["due_ns"], low["sent_ns"]) + \
        stats.send_lag_us(high["due_ns"], high["sent_ns"])
    m["loadgen.lag_p99_us"] = (_p99(lag), "us")
    lo = stats.due_latencies_us(low["due_ns"], low["done_ns"])
    hi = stats.due_latencies_us(high["due_ns"], high["done_ns"])
    m["loadgen.p50_us_lo"] = (_p50(lo), "us")
    m["loadgen.p99_us_lo"] = (_p99(lo), "us")
    m["loadgen.p50_us_hi"] = (_p50(hi), "us")
    m["loadgen.p99_us_hi"] = (_p99(hi), "us")
    m["loadgen.max_rate_rps"] = (stats.max_rate(layers["ladder"]), "1/s")

    # The workload's own requests in the traced run: a dse_overlap request,
    # or one sweep_deep sweep.
    if raw["workload"] == "sweep_deep":
        own = [t * 1e6 for pair in raw["overhead_pairs"] for t in pair]
    else:
        own = raw["latency_us"]
    m["bench.request_p99_us"] = (_p99(own), "us")

    pct, pct_spread = stats.overhead_pct(raw["overhead_pairs"])
    m["bench.trace_overhead_pct"] = (pct, "%")
    m["bench.trace_overhead_spread_pct"] = (pct_spread, "%")
    return m
