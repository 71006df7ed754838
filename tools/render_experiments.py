#!/usr/bin/env python3
"""Render the EXPERIMENTS.md result sections from a study CSV.

Usage: python3 tools/render_experiments.py results.csv
Prints markdown to stdout; the maintainer pastes/updates EXPERIMENTS.md.
"""
import csv
import math
import sys
from collections import defaultdict

ORDER = [
    "ARepair", "ICEBAR", "BeAFix", "ATR",
    "Single-Round_Loc+Fix", "Single-Round_Loc", "Single-Round_Pass",
    "Single-Round_None", "Single-Round_Loc+Pass",
    "Multi-Round_None", "Multi-Round_Generic", "Multi-Round_Auto",
]
SHORT = {t: t.replace("Single-Round", "SR").replace("Multi-Round", "MR") for t in ORDER}

PAPER_T1 = {  # (A4F, ARepair-bench, total) from the paper's Table I
    "ARepair": (185, 9, 194), "ICEBAR": (1051, 21, 1072),
    "BeAFix": (981, 24, 1005), "ATR": (1286, 22, 1308),
    "Single-Round_Loc+Fix": (401, 29, 430), "Single-Round_Loc": (497, 20, 517),
    "Single-Round_Pass": (303, 26, 329), "Single-Round_None": (147, 4, 151),
    "Single-Round_Loc+Pass": (374, 11, 385), "Multi-Round_None": (1348, 24, 1372),
    "Multi-Round_Generic": (1290, 29, 1319), "Multi-Round_Auto": (1237, 27, 1264),
}
PAPER_FIG2 = {"ATR": (0.985, 0.997), "Multi-Round_Generic": (0.938, 0.943)}

def pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    dx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    dy = math.sqrt(sum((b - my) ** 2 for b in ys))
    return num / (dx * dy) if dx > 0 and dy > 0 else 0.0

def main(path):
    rows = list(csv.DictReader(open(path)))
    per = defaultdict(lambda: defaultdict(int))
    domain_n = defaultdict(set)
    bench_of = {}
    tmsm = defaultdict(lambda: [0.0, 0.0, 0])
    score = defaultdict(dict)
    repaired = defaultdict(set)
    for r in rows:
        t, d, v = r["technique"], r["domain"], r["variant_id"]
        per[(r["benchmark"], d)][t] += int(r["rep"])
        domain_n[d].add(v)
        bench_of[d] = r["benchmark"]
        acc = tmsm[t]
        acc[0] += float(r["tm"]); acc[1] += float(r["sm"]); acc[2] += 1
        score[t][v] = (float(r["tm"]) + float(r["sm"])) / 2
        if r["rep"] == "1":
            repaired[t].add(v)
    total_n = len({r["variant_id"] for r in rows})

    print("## Table I — REP counts (per technique, per domain)\n")
    print("| benchmark | domain | n | " + " | ".join(SHORT[t] for t in ORDER) + " |")
    print("|---" * (3 + len(ORDER)) + "|")
    for bench in ["A4F", "ARepair"]:
        for d in [d for d in domain_n if bench_of[d] == bench]:
            cells = " | ".join(str(per[(bench, d)][t]) for t in ORDER)
            print(f"| {bench} | {d} | {len(domain_n[d])} | {cells} |")
        tot = {t: sum(per[(bench, d)][t] for d in domain_n if bench_of[d] == bench) for t in ORDER}
        n = sum(len(v) for d, v in domain_n.items() if bench_of[d] == bench)
        print(f"| {bench} | **summary** | {n} | " + " | ".join(f"**{tot[t]}**" for t in ORDER) + " |")
    print()
    print("Paper vs. measured (totals over 1,974 specs):\n")
    print("| technique | paper | paper % | measured | measured % |")
    print("|---|---|---|---|---|")
    for t in ORDER:
        m = len(repaired[t])
        p = PAPER_T1[t][2]
        print(f"| {t} | {p} | {100*p/1974:.1f}% | {m} | {100*m/max(1,total_n):.1f}% |")

    print("\n## Figure 2 — similarity to ground truth (mean TM / SM)\n")
    print("| technique | TM | SM |")
    print("|---|---|---|")
    for t in ORDER:
        tm, sm, n = tmsm[t]
        print(f"| {t} | {tm/n:.3f} | {sm/n:.3f} |")

    print("\n## Figure 3 — Pearson correlation matrix\n")
    variants = sorted({r["variant_id"] for r in rows})
    vec = {t: [score[t][v] for v in variants] for t in ORDER}
    print("| | " + " | ".join(SHORT[t] for t in ORDER) + " |")
    print("|---" * (1 + len(ORDER)) + "|")
    for a in ORDER:
        cells = " | ".join(f"{pearson(vec[a], vec[b]):.2f}" for b in ORDER)
        print(f"| {SHORT[a]} | {cells} |")
    trad = ORDER[:4]
    trad_min = min(pearson(vec[a], vec[b]) for a in trad for b in trad if a < b)
    mr_pair = pearson(vec["Multi-Round_Generic"], vec["Multi-Round_Auto"])
    cross_min = min(pearson(vec[a], vec[b])
                    for a in ORDER if a.startswith("Single")
                    for b in trad)
    print(f"\nTraditional cluster minimum r = {trad_min:.3f}; "
          f"MR_Generic~MR_Auto r = {mr_pair:.3f}; "
          f"weakest single-round-vs-traditional r = {cross_min:.3f} "
          f"(paper: 0.972+, 0.949, down to 0.644).")

    print("\n## Table II / Figure 4 — hybrid combinations (best per traditional)\n")
    print("| traditional | + LLM | trad | llm | overlap | union | union % |")
    print("|---|---|---|---|---|---|---|")
    best = None
    for trad in ORDER[:4]:
        combos = []
        for llm in ORDER[4:]:
            u = repaired[trad] | repaired[llm]
            combos.append((len(u), llm))
        combos.sort(reverse=True)
        u, llm = combos[0]
        ov = len(repaired[trad] & repaired[llm])
        print(f"| {trad} | {SHORT[llm]} | {len(repaired[trad])} | {len(repaired[llm])} | {ov} | {u} | {100*u/total_n:.1f}% |")
        if best is None or u > best[0]:
            best = (u, trad, llm)
    print(f"\nBest hybrid overall: **{best[1]} + {best[2]} = {best[0]}/{total_n} "
          f"({100*best[0]/total_n:.1f}%)** (paper: ATR + Multi-Round_None = 1,677/1,974 = 85.5%).")

def shape_checklist(rows):
    per_bench = defaultdict(lambda: defaultdict(set))
    repaired = defaultdict(set)
    tmsm = defaultdict(lambda: [0.0, 0.0, 0])
    score = defaultdict(dict)
    for r in rows:
        t, v = r["technique"], r["variant_id"]
        if r["rep"] == "1":
            repaired[t].add(v)
            per_bench[r["benchmark"]][t].add(v)
        acc = tmsm[t]
        acc[0] += float(r["tm"]); acc[1] += float(r["sm"]); acc[2] += 1
        score[t][v] = (float(r["tm"]) + float(r["sm"])) / 2
    total_n = len({r["variant_id"] for r in rows})
    n = {t: len(repaired[t]) for t in ORDER}
    a4f = {t: len(per_bench["A4F"][t]) for t in ORDER}
    checks = []
    def add(name, ok):
        checks.append((name, ok))
    # 1. A4F orderings
    mr = ["Multi-Round_None", "Multi-Round_Generic", "Multi-Round_Auto"]
    top4 = sorted(ORDER, key=lambda t: -a4f[t])[:4]
    add("A4F: Multi-Round family and ATR/BeAFix dominate the top 4",
        sum(1 for t in top4 if t in mr + ["ATR", "BeAFix"]) >= 3)
    add("A4F: ICEBAR > every Single-Round setting",
        all(a4f["ICEBAR"] > a4f[t] for t in ORDER if t.startswith("Single")))
    add("A4F: every Single-Round setting > ARepair is FALSE for weak hints "
        "(ARepair lowest among traditional)",
        a4f["ARepair"] == min(a4f[t] for t in ORDER[:4]))
    add("A4F: Single-Round_None is the weakest technique",
        n["Single-Round_None"] == min(n.values()))
    # 2. ARepair bench
    arep = {t: len(per_bench["ARepair"][t]) for t in ORDER}
    add("ARepair bench: a Multi-Round setting is at or near the top",
        max(arep[t] for t in mr) >= max(arep.values()) - 2)
    add("ARepair bench: BeAFix is the best traditional tool",
        arep["BeAFix"] == max(arep[t] for t in ORDER[:4]))
    # 3. Figure 2
    mean_sm = {t: tmsm[t][1] / tmsm[t][2] for t in ORDER}
    mean_tm = {t: tmsm[t][0] / tmsm[t][2] for t in ORDER}
    add("Fig 2: SM >= TM for most techniques",
        sum(1 for t in ORDER if mean_sm[t] >= mean_tm[t]) >= 8)
    trad_tm = sum(mean_tm[t] for t in ORDER[:4]) / 4
    llm_tm = sum(mean_tm[t] for t in ORDER[4:]) / 8
    add("Fig 2: traditional mean TM >= LLM mean TM", trad_tm >= llm_tm)
    # 4. Figure 3 clusters
    variants = sorted({r["variant_id"] for r in rows})
    def corr(a, b):
        return pearson([score[a][v] for v in variants], [score[b][v] for v in variants])
    trad_internal = min(corr(a, b) for a in ORDER[:4] for b in ORDER[:4] if a < b)
    cross = corr("Single-Round_None", "ATR")
    add("Fig 3: traditional internal correlation exceeds single-vs-traditional",
        trad_internal > cross)
    add("Fig 3: MR_Generic ~ MR_Auto is a strong pair",
        corr("Multi-Round_Generic", "Multi-Round_Auto") > cross)
    # 5. hybrids
    def union(a, b):
        return len(repaired[a] | repaired[b])
    best_union = max(union(tr, llm) for tr in ORDER[:4] for llm in ORDER[4:])
    best_single = max(n.values())
    add("Hybrids: best union beats best individual technique",
        best_union > best_single)
    add("Hybrids: best union is in the 80-90% band (paper: 85.5%)",
        0.78 * total_n <= best_union <= 0.93 * total_n)
    add("Hybrids: ARepair gains the most from hybridisation (relative)",
        max(union("ARepair", llm) for llm in ORDER[4:]) / max(1, n["ARepair"])
        >= max(max(union(tr, llm) for llm in ORDER[4:]) / max(1, n[tr])
               for tr in ORDER[1:4]))
    print("\n## Shape checklist (DESIGN.md contract)\n")
    for name, ok in checks:
        print(f"- [{'x' if ok else ' '}] {name}")
    passed = sum(1 for _, ok in checks if ok)
    print(f"\n{passed}/{len(checks)} checks hold.")

if __name__ == "__main__":
    rows = list(csv.DictReader(open(sys.argv[1])))
    main(sys.argv[1])
    shape_checklist(rows)
