#!/usr/bin/env python3
"""Perf-trajectory dashboard for the recovery and kernel benchmarks.

Appends the current BENCH_recovery.json (and, when present, the
end-to-end kernel suite's BENCH_fig9.json) to the accumulated trajectory
(downloaded from the previous run's BENCH_trajectory artifact in CI)
and renders BENCH_trajectory.{json,md}; the markdown tables go to the
GitHub step summary.  This script is the dashboard, not the gate — the
enforced floors live in bench_recovery_ns itself — so it always exits 0
on well-formed input.

Usage:
  trajectory.py --current BENCH_recovery.json \
                [--current-fig9 BENCH_fig9.json] \
                [--current-serving BENCH_serving.json] \
                [--history BENCH_trajectory.json] \
                --out-json BENCH_trajectory.json \
                --out-md BENCH_trajectory.md \
                [--sha SHA] [--run RUN_NUMBER] [--date ISO8601]
"""

import argparse
import json
import sys

MAX_RUNS = 200          # cap the accumulated history
MD_ROWS = 30            # rows rendered in the markdown tables
ENGINE_FLOOR = 2.5      # enforced engine-vs-search floor (gated nests)
BIND_FLOOR = 10.0       # enforced plan-cache-hit vs cold collapse+bind floor
SELECT_CEIL = 2.0       # enforced auto_select-vs-measured-best ratio ceiling
                        # (gated nests, guard picks included)
JIT_FLOOR = 1.5         # enforced jit-kernel-vs-engine floor (specialized
                        # compiled kernel on gated nests, toolchain runs only)


def load_json(path, default):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True)
    ap.add_argument("--current-fig9", default="")
    ap.add_argument("--current-serving", default="")
    ap.add_argument("--history", default="")
    ap.add_argument("--out-json", required=True)
    ap.add_argument("--out-md", required=True)
    ap.add_argument("--sha", default="local")
    ap.add_argument("--run", default="0")
    ap.add_argument("--date", default="")
    args = ap.parse_args()

    current = load_json(args.current, None)
    if current is None or "nests" not in current:
        print(f"trajectory: cannot read {args.current}", file=sys.stderr)
        return 1

    history = load_json(args.history, {}) if args.history else {}
    runs = history.get("runs", []) if isinstance(history, dict) else []

    entry = {
        "run": args.run,
        "sha": args.sha[:10],
        "date": args.date,
        "simd_abi": current.get("simd_abi", "?"),
        "threads": current.get("threads"),
        "nests": {},
    }
    for nest in current["nests"]:
        schemes = nest.get("schemes", {})
        bind = nest.get("bind", {})
        entry["nests"][nest["name"]] = {
            "engine": schemes.get("engine"),
            "block64": schemes.get("block64"),
            "search": schemes.get("search"),
            "bind_cold_ns": bind.get("cold_ns"),
            "bind_cached_ns": bind.get("cached_ns"),
            "speedup_engine_vs_search": nest.get("speedup_engine_vs_search"),
            "speedup_bind": nest.get("speedup_bind_cached_vs_cold"),
            "jit": schemes.get("jit"),
            "jit_compile_ms": nest.get("jit_compile_ms"),
            "speedup_jit": nest.get("speedup_jit_vs_engine"),
            "gate": bool(nest.get("gate", False)),
            "gate_jit": bool(nest.get("gate_jit", False)),
        }
        sel = nest.get("selection")
        if sel:
            entry["nests"][nest["name"]]["selection"] = {
                "chosen": sel.get("chosen"),
                "ratio_vs_best": sel.get("ratio_vs_best"),
                "best": sel.get("best"),
            }

    fig9 = load_json(args.current_fig9, None) if args.current_fig9 else None
    if fig9 and "kernels" in fig9:
        entry["fig9"] = {
            k["name"]: {
                "gain_vs_static": k.get("gain_vs_static"),
                "gain_vs_dynamic": k.get("gain_vs_dynamic"),
                "t_collapsed": k.get("t_collapsed_auto"),
                "checksum_ok": bool(k.get("checksum_ok", False)),
            }
            for k in fig9["kernels"]
        }

    serving = (load_json(args.current_serving, None)
               if args.current_serving else None)
    if serving and "slo" in serving:
        slo = serving["slo"]
        entry["serving"] = {
            "requests_per_s": serving.get("requests_per_s"),
            "p99_request_ns": serving.get("p99_request_ns"),
            "hit_rate": serving.get("hit_rate"),
            "p99_hit_uncontended_ns": slo.get("p99_hit_uncontended_ns"),
            "p99_hit_contended_ns": slo.get("p99_hit_contended_ns"),
            "contended_over_uncontended": slo.get("contended_over_uncontended"),
            "slo_ok": bool(slo.get("ok", False)),
        }
        hp = serving.get("hit_path")
        if hp:
            # Median over trials of each trial's p50, per verb, one value
            # per hot key in the bench's order (depth 2, 3, 4).
            entry["serving"]["hit_path"] = {
                "omp_threads": hp.get("omp_threads"),
                "p50_ns": {
                    verb: [k["verbs"][verb]["p50_ns"][0] for k in hp["keys"]]
                    for verb in ("describe", "run", "emit", "lint")
                },
                "depths": [k.get("depth") for k in hp["keys"]],
            }
        sj = serving.get("jit")
        if sj and sj.get("available"):
            entry["serving"]["jit"] = {
                "compile_ms": sj.get("compile_ms"),
                "warm_hit_p50_ns": sj.get("warm_hit_p50_ns"),
                "warm_hit_p99_ns": sj.get("warm_hit_p99_ns"),
                "disk_restart_ms": sj.get("disk_restart_ms"),
            }

    runs.append(entry)
    runs = runs[-MAX_RUNS:]

    with open(args.out_json, "w", encoding="utf-8") as f:
        json.dump({"bench": "recovery_ns+fig9_gains", "runs": runs}, f, indent=1)

    def fmt(v, floor=None, suffix="x"):
        if v is None:
            return "—"
        mark = ""
        if floor is not None:
            mark = " ✓" if v >= floor else " ✗"
        return f"{v:.2f}{suffix}{mark}"

    # Table 1: recovery solver speedups, one row per run.
    nest_names = []
    for r in runs:
        for name in r.get("nests", {}):
            if name not in nest_names:
                nest_names.append(name)

    lines = [
        "## Recovery perf trajectory",
        "",
        f"ns/iteration engine speedups per run (floors: engine ≥{ENGINE_FLOOR}x "
        f"vs exact search on gated nests, plan-cache bind hit ≥{BIND_FLOOR:.0f}x vs a cold "
        "collapse+bind on every nest, auto_select picks "
        f"≤{SELECT_CEIL:.0f}x the measured-best candidate on gated nests, "
        f"and the jit-compiled kernel ≥{JIT_FLOOR}x vs engine on gated "
        "nests when a C toolchain is present; enforced by "
        "bench_recovery_ns).",
        "",
        "| run | sha | abi | "
        + " | ".join(f"{n} eng | {n} bind | {n} sel | {n} jit"
                     for n in nest_names)
        + " |",
        "|" + "---|" * (3 + 4 * len(nest_names)),
    ]
    for r in runs[-MD_ROWS:]:
        cells = [str(r.get("run", "?")), str(r.get("sha", "?")),
                 str(r.get("simd_abi", "?"))]
        for n in nest_names:
            d = r.get("nests", {}).get(n, {})
            # Floors are marked only where bench_recovery_ns enforces
            # them (gated nests).  Runs from before the search baseline
            # recorded no engine-vs-search speedup and render "—".
            cells.append(fmt(d.get("speedup_engine_vs_search"),
                             ENGINE_FLOOR if d.get("gate") else None))
            b = d.get("speedup_bind")
            cells.append(fmt(b if b else None, BIND_FLOOR if b else None))
            # Selection accuracy: chosen-vs-best ratio.  A ceiling, not a
            # floor — mark ✓ when the pick stays ≤ SELECT_CEIL on a gated
            # nest; ungated nests render unmarked.
            sel = d.get("selection")
            if sel is None or sel.get("ratio_vs_best") is None:
                cells.append("—")
            else:
                ratio = sel["ratio_vs_best"]
                if d.get("gate"):
                    cells.append(f"{ratio:.2f}x"
                                 + (" ✓" if ratio <= SELECT_CEIL else " ✗"))
                else:
                    cells.append(f"{ratio:.2f}x")
            # JIT kernel speedup vs engine.  The floor is enforced only
            # on gated nests and only when that run had a C toolchain
            # (gate_jit already folds toolchain availability in).
            j = d.get("speedup_jit")
            cells.append(fmt(j if j else None,
                             JIT_FLOOR if d.get("gate_jit") else None))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    latest = runs[-1]["nests"]
    lines.append(
        "Latest absolute ns/iteration: "
        + "; ".join(
            f"{n}: engine {d.get('engine')}, block64 {d.get('block64')}, "
            f"jit {d.get('jit')}"
            + (f" (compile {d['jit_compile_ms']:.0f} ms)"
               if d.get("jit_compile_ms") else "")
            for n, d in latest.items()
        )
        + "."
    )
    if any("selection" in d for d in latest.values()):
        lines.append("")
        lines.append(
            "Latest auto_select picks (chosen vs measured-best candidate): "
            + "; ".join(
                f"{n}: {d['selection'].get('chosen')} at "
                f"{d['selection'].get('ratio_vs_best')}x of best "
                f"({d['selection'].get('best')})"
                for n, d in latest.items() if "selection" in d
            )
            + "."
        )

    # Table 2: end-to-end kernel gains (fig9), when any run recorded them.
    kernel_names = []
    for r in runs:
        for name in r.get("fig9", {}):
            if name not in kernel_names:
                kernel_names.append(name)
    if kernel_names:
        lines += [
            "",
            "## Kernel suite trajectory (fig9_gains)",
            "",
            "gain = (t_baseline - t_collapsed_auto) / t_baseline, the "
            "collapsed loop under the production pick (auto_select); "
            "✗ marks a checksum mismatch (correctness, enforced by the "
            "bench's exit status).",
            "",
            "| run | sha | "
            + " | ".join(f"{n} vs-dyn" for n in kernel_names)
            + " |",
            "|" + "---|" * (2 + len(kernel_names)),
        ]
        for r in runs[-MD_ROWS:]:
            if "fig9" not in r:
                continue
            cells = [str(r.get("run", "?")), str(r.get("sha", "?"))]
            for n in kernel_names:
                d = r.get("fig9", {}).get(n)
                if d is None:
                    cells.append("—")
                    continue
                g = d.get("gain_vs_dynamic")
                mark = "" if d.get("checksum_ok", True) else " ✗"
                cells.append(("—" if g is None else f"{100.0 * g:+.1f}%") + mark)
            lines.append("| " + " | ".join(cells) + " |")

    # Table 3: serving trajectory (serving_hammer), when any run recorded it.
    if any("serving" in r for r in runs):
        lines += [
            "",
            "## Serving trajectory (serving_hammer)",
            "",
            "Protocol throughput over the process-global cache, and the "
            "serving SLO: cached-hit p99 with cold quartic binds in flight "
            "on the same shard must stay within 10x of the uncontended hit "
            "p99 (enforced by the bench's exit status; ✗ marks a violation).",
            "",
            "The jit columns track the kernel-serving steady state: "
            "warm KernelCache hit p99 and the restart path through the "
            "on-disk object cache (— on runs without a C toolchain; "
            "reported, not gated).",
            "",
            "| run | sha | req/s | req p99 µs | hit rate | hit p99 unc µs "
            "| hit p99 cont µs | cont/unc | jit warm p99 µs "
            "| jit restart ms |",
            "|" + "---|" * 10,
        ]
        for r in runs[-MD_ROWS:]:
            s = r.get("serving")
            if s is None:
                continue

            def us(v):
                return "—" if v is None else f"{v / 1e3:.1f}"

            rps = s.get("requests_per_s")
            hr = s.get("hit_rate")
            ratio = s.get("contended_over_uncontended")
            lines.append(
                "| " + " | ".join([
                    str(r.get("run", "?")), str(r.get("sha", "?")),
                    "—" if rps is None else f"{rps:,.0f}",
                    us(s.get("p99_request_ns")),
                    "—" if hr is None else f"{100.0 * hr:.1f}%",
                    us(s.get("p99_hit_uncontended_ns")),
                    us(s.get("p99_hit_contended_ns")),
                    ("—" if ratio is None else f"{ratio:.2f}x")
                    + (" ✓" if s.get("slo_ok") else " ✗"),
                    us(s.get("jit", {}).get("warm_hit_p99_ns")),
                    ("—" if s.get("jit", {}).get("disk_restart_ms") is None
                     else f"{s['jit']['disk_restart_ms']:.2f}"),
                ]) + " |")

    # Table 4: the hit path per verb (serving_hammer's in-process
    # handle_request on one primed key per depth), when recorded.
    if any("hit_path" in r.get("serving", {}) for r in runs):
        lines += [
            "",
            "## Hit path per verb (serving_hammer)",
            "",
            "handle_request p50 in µs on one primed key per depth, each "
            "cell `d2 / d3 / d4` (median over trials).",
            "",
            "| run | sha | omp threads | describe | run | emit | lint |",
            "|" + "---|" * 7,
        ]
        for r in runs[-MD_ROWS:]:
            hp = r.get("serving", {}).get("hit_path")
            if hp is None:
                continue
            cells = [str(r.get("run", "?")), str(r.get("sha", "?")),
                     str(hp.get("omp_threads", "?"))]
            for verb in ("describe", "run", "emit", "lint"):
                cells.append(" / ".join(f"{v / 1e3:.1f}"
                                        for v in hp["p50_ns"].get(verb, [])))
            lines.append("| " + " | ".join(cells) + " |")

    with open(args.out_md, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    print(f"trajectory: {len(runs)} runs -> {args.out_json}, {args.out_md}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
