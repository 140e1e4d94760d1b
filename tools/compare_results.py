#!/usr/bin/env python3
"""Diffs two bench --json results documents (harness::ResultWriter,
schema in DESIGN.md §7) and fails on regressions beyond tolerance.
Stdlib only; backs the CI perf-regression gate and works by hand:

    ./tools/compare_results.py BASELINE.json CURRENT.json \\
        --tol 'simcore_events_per_sec=0.5:down' \\
        --tol 'simcore_allocs_per_event=0.25:up'

Points are matched across documents by (series name, point label) —
falling back to the x value for unlabeled points. Numeric `meta` values
(environment facts such as wall_ms) are indexed as pseudo-series
"meta.<key>", so tolerance globs can gate them too. Each --tol rule is

    PATTERN=FRAC:DIRECTION

where PATTERN is a glob (fnmatch) over series names, FRAC the allowed
relative change, and DIRECTION which way counts as a regression:

    down  value dropping below baseline*(1-FRAC) fails (throughput)
    up    value rising above baseline*(1+FRAC) fails (latency, allocs)
    both  either direction beyond FRAC fails

A negative FRAC turns the rule into a required improvement: with `up`,
the current value must come in at least |FRAC| BELOW baseline (e.g.
'meta.wall_ms=-0.6:up' demands a >= 60% wall-clock drop — the parallel
speedup gate); with `down`, it must come in at least |FRAC| above.
`both` rejects negative FRAC.

Series not matched by any rule are reported but never gate. A baseline
point missing from the current document always fails (a silently dropped
series is itself a regression). Exit 0 = within tolerance, 1 = regression
or malformed input, 2 = usage error.

--preset NAME prepends a named built-in rule set (combinable with
explicit --tol rules, which take precedence by order):

    crash   bench_crash gates: silent corruption stays zero, recovery
            latency and journal replay/WA stay within drift bounds.
    kv      bench_kv gates: the placement WA ratio keeps its floor,
            crash recovery stays corruption-free, throughput and read
            tails stay within drift bounds.
    fig2    bench_fig2_latency gates: every host-stack latency series
            (fig2*) matches the committed baseline to a relative 1e-6,
            so the spdk / kernel-none / kernel-mq-deadline costs of
            Obs. 2 stay fixed. meta.* stays ungated.
    fig6    bench_fig6_gc_interference gates: every virtual-time series
            (fig6*) matches the committed baseline to a relative 1e-6,
            and the process's peak resident memory (meta.peak_rss_mib)
            rises at most 25% — a page queued at a NAND die must stay a
            small record. meta.wall_ms stays ungated.
    multidev
            bench_multidev gates: every virtual-time series (multidev*)
            matches the committed baseline to a relative 1e-6, and the
            process's peak resident memory (meta.peak_rss_mib) rises at
            most 25% — device state must stay proportional to the zones
            a run touches. meta.wall_ms stays ungated.
    multidev-speedup
            compares a --sim-threads=N run against a --sim-threads=1
            baseline of the same bench: wall time must drop >= 60%
            (the >= 2.5x acceptance speedup, DESIGN.md §12)."""
import fnmatch
import json
import sys

# Built-in tolerance rule sets (--preset). Order matters: earlier rules
# win, and explicit --tol rules are prepended ahead of any preset.
PRESETS = {
    "crash": (
        # Any silent corruption is a hard failure (baseline is zero, so
        # any positive current value is an infinite relative increase).
        "*silent_corruptions*=0.01:up",
        # Recovery outages are latency promises in both directions: a
        # longer outage regresses the host, a shorter one means the
        # recovery model stopped charging its work.
        "*recovery_ms*=0.25:both",
        # The journal-interval tradeoff must keep its shape.
        "conv_wa_vs_journal_interval=0.15:up",
        "conv_replay_entries_vs_journal_interval=0.5:both",
        "zns_verified_mib_*=0.25:down",
    ),
    # zkv acceptance (DESIGN.md §13): placement keeps reducing write
    # amplification, crash recovery stays corruption-free, and the
    # deterministic virtual-time throughput/latency numbers hold shape.
    "kv": (
        "kv_crash_silent_corruptions=0.01:up",
        "kv_wa_placement_ratio=0.10:down",
        "kv_wa_placement=0.15:up",
        "kv_ycsb_kiops=0.25:down",
        "kv_value_size_kiops=0.25:down",
        "kv_skew_kiops=0.25:down",
        "kv_interference_read_p99_us=0.5:up",
        "kv_crash_recovery_ms=0.5:both",
    ),
    # Fig. 2 (Obs. 1, 2, 4): the one bench that drives spdk, kernel-none
    # and kernel-mq-deadline side by side; deterministic in virtual time,
    # so a change to a host stack's costs or path shows up here.
    "fig2": (
        "fig2*=1e-6:both",
    ),
    # Fig. 6 (Obs. 11): the simulator is deterministic, so every
    # virtual-time series must reproduce the baseline to rounding; a
    # change that moves GC interference shows up here. The footprint
    # gate catches per-page state creeping back into the conventional
    # FTL's write buffer and GC copies (~20k pages queue at its dies).
    "fig6": (
        "fig6*=1e-6:both",
        "meta.peak_rss_mib=0.25:up",
    ),
    # Multi-device scale-out (DESIGN.md §12): deterministic in virtual
    # time like fig6, plus a memory-footprint gate — a 4-device run of the
    # full ZN540 geometry must not pay for blocks and zones it never
    # touches (eager per-block state would add ~3.6 MiB per device).
    "multidev": (
        "multidev*=1e-6:both",
        "meta.peak_rss_mib=0.25:up",
    ),
    # Parallel-engine acceptance (DESIGN.md §12): the same bench run with
    # --sim-threads=N on >= 4 cores must finish in at most 40% of the
    # --sim-threads=1 wall time. Virtual-time series are byte-identical
    # across thread counts (check_jobs_identity.sh), so only the
    # wall-clock meta fact is gated here.
    "multidev-speedup": (
        "meta.wall_ms=-0.6:up",
    ),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("series"), list):
        raise ValueError(f"{path}: not a results document")
    return doc


def index_points(doc):
    """(series, point-key) -> value. Key is the label when present, else x.

    Numeric meta values join the index as ("meta.<key>", "meta") so
    tolerance rules can gate environment facts like wall_ms."""
    out = {}
    meta = doc.get("meta")
    if isinstance(meta, dict):
        for k, v in meta.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[(f"meta.{k}", "meta")] = v
    for s in doc["series"]:
        if not isinstance(s, dict):
            continue
        name = s.get("name")
        for p in s.get("points", []):
            if not isinstance(p, dict):
                continue
            key = p.get("label") if p.get("label") else p.get("x")
            v = p.get("value")
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[(name, key)] = v
    return out


def parse_tol(spec):
    try:
        pattern, rule = spec.split("=", 1)
        frac, direction = rule.split(":", 1)
        frac = float(frac)
    except ValueError:
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(want PATTERN=FRAC:down|up|both)")
    if frac == 0 or direction not in ("down", "up", "both"):
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(want PATTERN=FRAC:down|up|both)")
    if frac < 0 and direction == "both":
        raise ValueError(f"bad --tol spec '{spec}' "
                         "(negative FRAC needs a single direction)")
    return pattern, frac, direction


def rule_for(name, rules):
    for pattern, frac, direction in rules:
        if fnmatch.fnmatch(name or "", pattern):
            return frac, direction
    return None


def main(argv):
    paths = []
    rules = []
    preset_rules = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--tol":
            try:
                rules.append(parse_tol(next(it)))
            except StopIteration:
                print("--tol needs an argument", file=sys.stderr)
                return 2
            except ValueError as e:
                print(e, file=sys.stderr)
                return 2
        elif arg.startswith("--tol="):
            try:
                rules.append(parse_tol(arg[len("--tol="):]))
            except ValueError as e:
                print(e, file=sys.stderr)
                return 2
        elif arg == "--preset" or arg.startswith("--preset="):
            if arg == "--preset":
                try:
                    name = next(it)
                except StopIteration:
                    print("--preset needs an argument", file=sys.stderr)
                    return 2
            else:
                name = arg[len("--preset="):]
            if name not in PRESETS:
                print(f"unknown preset '{name}' "
                      f"(have: {', '.join(sorted(PRESETS))})",
                      file=sys.stderr)
                return 2
            preset_rules.extend(parse_tol(spec) for spec in PRESETS[name])
        elif arg.startswith("-"):
            print(f"unrecognized flag {arg}", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rules.extend(preset_rules)  # explicit --tol rules take precedence
    try:
        base_doc, cur_doc = load(paths[0]), load(paths[1])
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(e, file=sys.stderr)
        return 1

    base = index_points(base_doc)
    cur = index_points(cur_doc)
    failures = []
    print(f"{'series':<28} {'point':<22} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}  verdict")
    for (name, key), b in sorted(base.items(), key=lambda kv: str(kv[0])):
        rule = rule_for(name, rules)
        c = cur.get((name, key))
        if c is None:
            verdict = "MISSING" if rule else "missing (ungated)"
            if rule:
                failures.append(f"{name}/{key}: missing from {paths[1]}")
            print(f"{name:<28} {str(key):<22} {b:>12.4g} {'-':>12} "
                  f"{'-':>8}  {verdict}")
            continue
        delta = (c - b) / b if b != 0 else (0.0 if c == 0 else float("inf"))
        if rule is None:
            verdict = "ungated"
        else:
            frac, direction = rule
            bad_down = direction in ("down", "both") and delta < -frac
            bad_up = direction in ("up", "both") and delta > frac
            if bad_down or bad_up:
                verdict = f"FAIL (tol {frac:.0%} {direction})"
                failures.append(
                    f"{name}/{key}: {b:.6g} -> {c:.6g} "
                    f"({delta:+.1%}, tolerance {frac:.0%} {direction})")
            else:
                verdict = "ok"
        print(f"{name:<28} {str(key):<22} {b:>12.4g} {c:>12.4g} "
              f"{delta:>+7.1%}  {verdict}")
    for (name, key) in sorted(set(cur) - set(base), key=lambda kv: str(kv)):
        print(f"{name:<28} {str(key):<22} {'-':>12} "
              f"{cur[(name, key)]:>12.4g} {'-':>8}  new (ungated)")
    if failures:
        print(f"\n{len(failures)} regression(s) vs {paths[0]}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nno regressions vs {paths[0]} "
          f"({len(rules)} tolerance rule(s), "
          f"{sum(1 for k in base if rule_for(k[0], rules))} gated point(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
