"""Arithmetic of the campaign benchmark.

Pure functions over the driver's raw output: the percentile rule, span self
time, the failure share, the metric formulas and the result schema.
test_report.py covers the first four.
"""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# setup_s is the median of this many interleaved group means.
SETUP_GROUPS = 3

# Layers, named after the repository's modules; a span's layer is the part
# of its name before the first dot.
LAYERS = ("lang", "opt", "care", "sentinel", "backend", "vm", "inject",
          "engine", "service", "bench")


class Refused(ValueError):
    """A figure the benchmark will not report."""


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples` (0 < q < 1).

    Refuses when fewer than MIN_BEYOND samples lie beyond the chosen rank,
    so a p90 needs at least 100 samples and a median at least 20.
    """
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < MIN_BEYOND:
        raise Refused(f"p{round(q * 100)} of {n} samples has only "
                      f"{n - rank} beyond it (need {MIN_BEYOND})")
    return sorted(samples)[rank - 1]


def self_times(spans):
    """Self time of every span, as {span id: ns}.

    `spans` are (id, parent, trial, name, begin_ns, end_ns). A span's self
    time is its duration minus the part of it that its children cover;
    children that overlap each other (two worker threads under one parent)
    are counted once.
    """
    children = {}
    for sid, parent, _trial, _name, begin, end in spans:
        children.setdefault(parent, []).append((begin, end))
    out = {}
    for sid, _parent, _trial, _name, begin, end in spans:
        covered = 0
        reach = begin
        for b, e in sorted(children.get(sid, ())):
            b, e = max(b, reach), min(e, end)
            if e > b:
                covered += e - b
                reach = e
        out[sid] = (end - begin) - covered
    return out


def layer_self_ms(spans):
    """Summed self time per layer, in ms."""
    per = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span[3].split(".", 1)[0]
        if layer not in per:
            raise ValueError(f"span {span[3]!r} names no known layer")
    st = self_times(spans)
    for span in spans:
        per[span[3].split(".", 1)[0]] += st[span[0]] / 1e6
    return per


def failure_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def setup_seconds(samples):
    """setup_s from the run's setup times, in the order they were taken.

    The setups are spread over the run, and a shared host runs at a fast or
    a slow speed for seconds at a time, so the times fall in two clusters
    and a plain median jumps from one to the other. Each of SETUP_GROUPS
    interleaved groups spans the whole run; the median of their means moves
    in step with the share of slow setups and still ignores one wild group.
    """
    if len(samples) < SETUP_GROUPS:
        raise ValueError(f"{len(samples)} setups, need at least "
                         f"{SETUP_GROUPS}")
    return statistics.median(
        statistics.fmean(samples[g::SETUP_GROUPS])
        for g in range(SETUP_GROUPS))


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _pct_or_zero(xs, q, notes, name):
    """Per-layer percentile: 0 (and a note) when there are too few samples."""
    if not xs:
        return 0.0
    try:
        return percentile(xs, q)
    except Refused as e:
        notes[name] = f"refused: {e}"
        return 0.0


def end_to_end(raw):
    """The end-to-end metrics of one untraced run (raises Refused)."""
    c, s = raw["counters"], raw["samples"]
    lat = s.get("latency_ms", [])
    return {
        "trials_per_sec": c["campaign_trials"] / c["campaign_wall_s"],
        "setup_s": setup_seconds(s["setup_s"]),
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_p90_ms": percentile(lat, 0.9),
        "peak_rss_mb": c["peak_rss_mb"],
    }


def per_layer(raw, notes):
    """The per-layer metrics of one traced run; `notes` collects refusals."""
    c, s = raw["counters"], raw["samples"]
    get = lambda k: c.get(k, 0.0)
    workload = raw["info"]["workload"]
    m = {}
    for k in ("lang.compile_ms", "opt.optimize_ms", "care.armor_ms",
              "sentinel.instrument_ms", "backend.lower_ms", "vm.load_ms",
              "inject.profile_ms"):
        m[k] = _median(s.get(k, []))
    for k in ("opt.ir_instrs", "care.kernels", "sentinel.armed_sites",
              "sentinel.total_sites", "backend.mir_instrs", "vm.golden_instrs",
              "vm.ecc_corrected", "vm.ecc_uncorrectable", "inject.ckpt_count",
              "inject.care_reruns", "inject.tail_instrs",
              "inject.replay_saved_instrs", "care.activations",
              "care.recovered", "care.rollbacks",
              "care.rollback_reexec_instrs", "service.shards",
              "service.worker_restarts", "store.misses", "store.hits",
              "store.warm_ms"):
        m[k] = get(k)
    for o in ("benign", "sdc", "soft_failure", "hang", "detected",
              "corrected", "rolled_back"):
        m[f"inject.outcome.{o}"] = get(f"inject.outcome.{o}")

    # Native JIT throughput of deployed runs (deployed_golden, and the
    # deployed probe of the table2_jit traced run); campaign trials run on
    # the fast interpreter (jit hands armed trials to fast), per busy second.
    m["vm.jit_mips"] = (get("vm.jit_instrs") / get("vm.jit_run_s") / 1e6
                        if get("vm.jit_run_s") else 0.0)
    m["vm.jit_compile_ms"] = (
        _median(s.get("vm.first_run_ms", [])) - sum(s["vm.median_run_ms"])
        if s.get("vm.median_run_ms") else 0.0)
    m["vm.fast_mips"] = (get("campaign_sim_instrs") / get("campaign_busy_s")
                         / 1e6 if get("campaign_busy_s") else 0.0)

    plain, care = s.get("inject.plain_us", []), s.get("inject.care_us", [])
    for name, xs in (("plain", plain), ("care", care)):
        m[f"inject.{name}_us_p50"] = _pct_or_zero(
            xs, 0.5, notes, f"inject.{name}_us_p50")
        m[f"inject.{name}_us_p90"] = _pct_or_zero(
            xs, 0.9, notes, f"inject.{name}_us_p90")
    # Tail work is counted over the kept rounds, so its time is theirs too.
    m["inject.tail_mips"] = (
        get("inject.tail_instrs") / get("inject.kept_trial_s") / 1e6
        if get("inject.kept_trial_s") else 0.0)
    m["inject.hang_instr_share"] = (
        get("inject.hang_tail_instrs") / get("inject.tail_instrs")
        if get("inject.tail_instrs") else 0.0)
    for ph in ("key", "load", "param", "kernel", "patch", "rollback"):
        m[f"care.{ph}_us"] = _median(s.get(f"care.{ph}_us", []))

    util = (get("campaign_busy_s") / get("campaign_worker_capacity_s")
            if get("campaign_worker_capacity_s") else 0.0)
    forked = workload == "mem_ecc_procs"
    m["engine.utilization"] = 0.0 if forked else util
    m["service.utilization"] = util if forked else 0.0
    # Tracing cost, measured directly: spans recorded times the cost of
    # recording one, as a share of the timed loop.
    m["bench.trace_overhead_pct"] = 100.0 * (
        len(raw["spans"]) * get("bench.span_cost_ns") / 1e9
        / get("timed_loop_s"))
    # Summed per-trial runInjection spans against the engine's busy time.
    trial_s = (sum(plain) + sum(care)) / 1e6
    m["bench.span_busy_ratio"] = (trial_s / get("campaign_busy_s")
                                  if get("campaign_busy_s") else 0.0)
    for layer, ms in layer_self_ms(raw["spans"]).items():
        m[f"layer.{layer}.self_ms"] = ms
    return m


def result(attempted, failed, metrics, specs):
    """The result object carrying exactly the metrics `specs` names.

    `specs` is BENCHMARK.json's end_to_end or per_layer list. Raises
    ValueError when a metric is missing or the object breaks the schema.
    """
    missing = sorted({sp["name"] for sp in specs} - set(metrics))
    if missing:
        raise ValueError(f"metrics missing: {missing}")
    out = {"correct": failed == 0, "attempted": int(attempted),
           "failed": int(failed),
           "metrics": {sp["name"]: {"value": float(metrics[sp["name"]]),
                                    "unit": sp["unit"]} for sp in specs}}
    check_result(out, specs)
    return out


def check_result(obj, specs):
    """Raise ValueError unless `obj` has the result schema for `specs`."""
    if not isinstance(obj, dict) or set(obj) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ValueError("result must have exactly correct, attempted, "
                         "failed and metrics")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool):
            raise ValueError(f"{k} must be a whole number")
    failure_share(obj["attempted"], obj["failed"])
    want = {sp["name"]: sp["unit"] for sp in specs}
    if set(obj["metrics"]) != set(want):
        raise ValueError("metrics must be exactly " + ", ".join(sorted(want)))
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            raise ValueError(f"{name} must be {{value, unit: {want[name]}}}")
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            raise ValueError(f"{name} value must be a finite number")
