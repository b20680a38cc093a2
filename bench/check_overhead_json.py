"""Checks the BENCH_overhead.json that bench_overhead writes.

Structural checks fail: every timed arm has >= 10 rounds, a median, an
interval and a verdict, each plane recorded something, and an arm whose plane
is compiled out is marked `compiled_out` and carries no timing. An `over`
verdict only warns: shared CI runners jitter by more than the bounds.

Usage: python3 bench/check_overhead_json.py BENCH_overhead.json
"""
import json
import sys

r = json.load(open(sys.argv[1]))
configs = {c["name"]: c for c in r["configs"]}
tel, prof = r["telemetry_compiled_in"], r["fl_profiler_compiled_in"]
compiled = {"telemetry": tel, "ops_plane": tel,
            "profiler_idle": prof, "profiler_100hz": prof}
assert r["rounds"] >= 10, r["rounds"]
for name, c in configs.items():
    if not compiled.get(name, True):
        assert c["verdict"] == "compiled_out", c
        assert "cpu_seconds_per_round" not in c and "median_pct" not in c, c
        continue
    assert len(c["cpu_seconds_per_round"]) == r["rounds"], c
    if name == "reference":
        continue
    assert c["rounds"] >= 10, c
    assert c["ci95_lo_pct"] <= c["median_pct"] <= c["ci95_hi_pct"], c
    allowed = ({"within", "over", "unresolved"} if c["bound_pct"] is not None
               else {"no_bound"})
    assert c["verdict"] in allowed, c
    if c["verdict"] == "over":
        print(f"::warning::bench_overhead {name} over its {c['bound_pct']}% "
              f"bound: median {c['median_pct']:+.2f}%, 95% interval "
              f"[{c['ci95_lo_pct']:+.2f}, {c['ci95_hi_pct']:+.2f}]")
assert configs["reference"]["medians"]["flight_records"] > 0, configs
assert configs["journal"]["medians"]["journal_events"] > 0, configs
if prof:
    assert configs["profiler_100hz"]["medians"]["cpu_samples"] > 0, configs
if tel:
    assert r["throughput"]["requests_served"] > 0, r["throughput"]
if r["hot_loop_verdict"] != "within":
    print("::warning::bench_overhead hot-loop estimate over 2%:", r["hot_loop"])
print("bench_overhead JSON ok:",
      {n: c["verdict"] for n, c in configs.items() if "verdict" in c})
