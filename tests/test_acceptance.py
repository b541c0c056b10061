"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them as they happen). The
random corpora are fully seeded, so the suite is deterministic.

AC-5, AC-6 and AC-7 check the paper's three claims on the runs that publish
them: each runs its file in configs/ through the CLI, with only --out
changed, and reads the files the run writes. AC-3 likewise runs the CLI's
oracle-check.
"""

import csv
import itertools
import json
import math
import os
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from friendbias import (GenSpec, bias_all, build_graph, erase_to_simple,
                        mix_seed, realize, truncated_poisson)
from friendbias.cli import main
from friendbias.measures import levy_distance
from friendbias.oracle import oracle_avg_bias_exact, small_graph_corpus
from friendbias.stationary import (mixing_time, pi_vertex,
                                   stationarity_residual, stationary_bias)
from friendbias.tree_limits import OffspringLaw, exact_mu, sample_mu

from component_bfs import bfs_components
from conftest import carries
from tree_enum_oracle import mu_mean_enumerated, mu_star_mean_enumerated
from walk_oracle import bt_avg_bias_is_zero


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _er_giants(count, n, lam, master):
    out, i = [], 0
    while len(out) < count:
        g = realize(GenSpec(model="erdos_renyi", n=n, lam=lam,
                            seed=mix_seed(master, i)), restrict_giant=True)
        i += 1
        info = bfs_components(g)
        if g.n >= 10 and len(info.sizes) == 1 and not info.is_bipartite[0]:
            out.append(g)
    return out


def _cm_erased(count, n, pmf, master, min_degree=2):
    out, i = [], 0
    while len(out) < count:
        g = realize(GenSpec(model="configuration", n=n, degree_pmf=pmf,
                            seed=mix_seed(master, i)), erase=True)
        i += 1
        info = bfs_components(g)
        if (len(info.sizes) == 1 and not info.is_bipartite[0]
                and int(g.degrees.min()) >= min_degree):
            out.append(g)
    return out


def test_ac01_nonnegativity():
    """500 seeded random graphs, both kinds, levels 1..5: mean bias >= -1e-12."""
    t0 = time.time()
    worst = 0.0
    graphs = 0
    checks = 0
    for i in range(250):
        n = 50 + (7 * i) % 151
        g = realize(GenSpec(model="erdos_renyi", n=n, lam=3.5,
                            seed=mix_seed(101, i)), restrict_giant=True)
        graphs += 1
        for kind in ("bt", "lazy"):
            for k in range(1, 6):
                worst = min(worst, bias_all(g, k, kind).meta["mean_bias"])
                checks += 1
    pmfs = ({2: 1 / 3, 3: 1 / 3, 4: 1 / 3}, {3: 0.5, 4: 0.5})
    for i in range(250):
        n = 50 + (11 * i) % 151
        g = realize(GenSpec(model="configuration", n=n, degree_pmf=pmfs[i % 2],
                            seed=mix_seed(202, i)))
        graphs += 1
        for k in range(1, 6):
            worst = min(worst, bias_all(g, k, "nb").meta["mean_bias"])
            checks += 1
        gs, _ = erase_to_simple(g)
        if carries(gs, "bt"):
            for k in range(1, 6):
                worst = min(worst, bias_all(gs, k, "bt").meta["mean_bias"])
                checks += 1
    elapsed = time.time() - t0
    _report("AC-1", worst >= -1e-12 and elapsed < 60 and graphs == 500,
            f"{graphs} graphs, {checks} averages, min {worst:.2e}, {elapsed:.1f}s")


def _connected_graphs_up_to(nmax):
    for n in range(2, nmax + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            if len({find(i) for i in range(n)}) == 1:
                yield n, edges


def test_ac02_equality_characterization_exhaustive():
    """All connected graphs on <= 6 vertices: backtracking average bias is
    exactly zero for odd k iff regular, for even k iff regular or bi-regular
    bipartite; the two witness graphs have exact nb zeros at k=3 / k=4."""
    t0 = time.time()
    counts = {}
    mismatches = 0
    total = 0
    for n, edges in _connected_graphs_up_to(6):
        counts[n] = counts.get(n, 0) + 1
        total += 1
        g = build_graph(n, edges)
        info = bfs_components(g)
        reg = all(info.is_regular)
        reg_or_bireg = all(r or b for r, b in
                           zip(info.is_regular, info.is_biregular_bipartite))
        for k in (1, 2, 3, 4):
            expect = reg if k % 2 else reg_or_bireg
            if bt_avg_bias_is_zero(g, k) != expect:
                mismatches += 1
    # labeled connected graph counts, a cross-check of the enumeration
    counts_ok = counts == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    fig_a = small_graph_corpus()["nb_zero_k3"]
    fig_b = small_graph_corpus()["nb_zero_k4"]
    figs_ok = (oracle_avg_bias_exact(fig_a, 3, "nb") == Fraction(0)
               and oracle_avg_bias_exact(fig_b, 4, "nb") == Fraction(0)
               and not all(bfs_components(fig_a).is_regular)
               and not all(bfs_components(fig_b).is_regular))
    elapsed = time.time() - t0
    _report("AC-2", mismatches == 0 and counts_ok and figs_ok and elapsed < 300,
            f"{total} connected graphs x k=1..4, {mismatches} mismatches, "
            f"figure zeros exact, {elapsed:.1f}s")


def test_ac03_oracle_equivalence(capsys):
    """Kernel k-step laws match exhaustive enumeration on the fixed corpus
    (k <= 5, both kinds) to 1e-12, and so do the kernels' average biases;
    definitional and symmetrised averages agree exactly. Checked on the run
    that publishes it: `oracle-check` through the CLI."""
    t0 = time.time()
    code = main(["oracle-check"])
    found = re.search(r"(\d+) k-step laws compared, max abs error (\S+)",
                      capsys.readouterr().out)
    laws, worst = found.groups() if found else ("no", "unreported")
    _report("AC-3", code == 0 and found and float(worst) <= 1e-12,
            f"exit {code}, {laws} k-step laws, max abs error {worst}, "
            f"{time.time() - t0:.1f}s")


def test_ac04_stationarity_and_long_level():
    """50 ER giants + 50 erased CM graphs: stationarity residual <= 1e-12,
    Levy(level-k bias, stationary bias) <= 1e-6 once the chain is within
    1e-8 of stationarity, stationary-weighted mean bias <= 1e-10."""
    t0 = time.time()
    ers = _er_giants(50, n=60, lam=3.0, master=4001)
    cms = _cm_erased(50, n=40, pmf={3: 0.5, 4: 0.5}, master=4002)
    worst_resid = 0.0
    worst_levy = 0.0
    worst_pi_mean = 0.0
    crossings_found = 0
    cases = 0
    for g, kinds in ([(g, ("bt", "lazy")) for g in ers]
                     + [(g, ("bt", "lazy", "nb")) for g in cms]):
        limit = stationary_bias(g)
        pi = pi_vertex(g)
        ratio = float(np.dot(g.degrees_float, g.degrees_float)
                      / g.degrees_float.sum())
        worst_pi_mean = max(worst_pi_mean, abs(float(
            np.dot(pi.weights, ratio - g.degrees_float))))
        for kind in kinds:
            worst_resid = max(worst_resid, stationarity_residual(g, kind))
            k_star = mixing_time(g, kind, 1e-8, 4000)
            assert k_star is not None, (kind, g.n)
            crossings_found += 1
            mu = bias_all(g, k_star, kind)
            worst_levy = max(worst_levy, levy_distance(mu, limit))
            cases += 1
    ok = worst_resid <= 1e-12 and worst_levy <= 1e-6 and worst_pi_mean <= 1e-10
    _report("AC-4", ok,
            f"{cases} graph/kind cases, residual {worst_resid:.2e}, "
            f"levy {worst_levy:.2e}, pi-weighted mean {worst_pi_mean:.2e}, "
            f"{time.time() - t0:.1f}s")


AC5_LIMIT = exact_mu(OffspringLaw.from_dict({3: 0.5, 4: 0.5}))
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _run_config(name, tmp_path):
    """Run configs/<name>.json through the CLI into tmp_path, the file as it
    is but for --out, and return the output directory once every process
    the run forked has been reaped."""
    path = CONFIGS / f"{name}.json"
    out = tmp_path / name
    experiment = json.loads(path.read_text())["experiment"]
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
    with pytest.raises(ChildProcessError):      # no child is left
        os.waitpid(-1, os.WNOHANG)
    return out


def _joint_rows(out):
    """The rows of joint.csv, below its '# config:' line."""
    lines = (out / "joint.csv").read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


def test_ac05_joint_regime_before_mixing(tmp_path):
    """configs/joint-nb-log.json: CM with degrees {3, 4}, nb exploration,
    k_n = ceil(log n), 20 replicas: the pooled level-k_n bias law approaches
    the exact two-atom limit, decreasing in n and within 0.05 at n = 32000."""
    t0 = time.time()
    # the limit law has atoms 25/7 - 3 and 25/7 - 4 with equal masses
    assert np.allclose(AC5_LIMIT.values, [25 / 7 - 4, 25 / 7 - 3])
    assert np.allclose(AC5_LIMIT.weights, [0.5, 0.5])
    rows = _joint_rows(_run_config("joint-nb-log", tmp_path))
    ns = [int(r["n"]) for r in rows]
    k_ns = [int(r["k_n"]) for r in rows]
    dists = [float(r["levy"]) for r in rows]
    elapsed = time.time() - t0
    ok = (ns[-1] == 32000 and k_ns == [math.ceil(math.log(n)) for n in ns]
          and all(a > b for a, b in zip(dists, dists[1:]))
          and dists[-1] <= 0.05 and elapsed < 600)
    _report("AC-5", ok,
            "levy by n: " + ", ".join(f"{d:.4f}" for d in dists)
            + " at k_n " + ", ".join(map(str, k_ns)) + f", {elapsed:.1f}s")


def test_ac06_post_mixing_regime(tmp_path):
    """configs/joint-bt-mix10.json: the same CM family, erased, bt
    exploration, k_n = 10x the 1e-4 mixing crossing: Levy distance to the
    exact limit <= 0.05 at n = 32000."""
    t0 = time.time()
    [row] = _joint_rows(_run_config("joint-bt-mix10", tmp_path))
    k_n, dist = int(row["k_n"]), float(row["levy"])
    _report("AC-6", row["n"] == "32000" and dist <= 0.05,
            f"crossing {k_n // 10}, k_n {k_n}, levy {dist:.4f}, "
            f"{time.time() - t0:.1f}s")


def test_ac07_mu_differs_from_mu_star(tmp_path):
    """configs/noncommute.json, p = {1: 3/4, 2: 1/4}: Monte Carlo means of
    the two limit laws differ by > 5 combined standard errors, and each
    matches an independent enumeration oracle over trees of <= 12
    vertices."""
    t0 = time.time()
    report = json.loads((_run_config("noncommute", tmp_path)
                         / "noncommute_report.json").read_text())
    assert report["config"]["pmf"] == {"1": 0.75, "2": 0.25}
    mean_mu, se_mu = report["mean_mu"], report["se_mu"]
    mean_star, se_star = report["mean_mu_star"], report["se_mu_star"]
    gap = abs(mean_mu - mean_star)
    sep_ok = gap > 5 * math.sqrt(se_mu ** 2 + se_star ** 2)

    enum_mu = mu_mean_enumerated({1: 0.75, 2: 0.25})
    enum_star, mass = mu_star_mean_enumerated({1: 0.75, 2: 0.25}, 12)
    # degrees in these trees never exceed 3, so |bias| <= 3 bounds the tail
    tail_bound = (1.0 - mass) * 3.0
    mu_ok = abs(mean_mu - enum_mu) <= 3 * se_mu
    star_ok = abs(mean_star - enum_star) <= 3 * se_star + tail_bound
    _report("AC-7", sep_ok and mu_ok and star_ok,
            f"mean(mu) {mean_mu:.4f} vs enum {enum_mu:.4f}, "
            f"mean(mu*) {mean_star:.4f} vs enum {enum_star:.4f} "
            f"(tail mass {1 - mass:.1e}), gap {gap:.4f} "
            f"= {gap / math.sqrt(se_mu ** 2 + se_star ** 2):.0f} SE, "
            f"{time.time() - t0:.1f}s")


def test_ac08_limit_law_moment_identity():
    """Five offspring laws: mean(sample_mu) = Var(D)/E[D] within 3 SE at
    1e5 samples; for Poisson laws the value is 1."""
    t0 = time.time()
    laws = [("poisson(1)", truncated_poisson(1.0)),
            ("poisson(4)", truncated_poisson(4.0)),
            ("3/4 mix", OffspringLaw.from_dict({3: 0.5, 4: 0.5})),
            ("1/2 mix", OffspringLaw.from_dict({1: 0.75, 2: 0.25})),
            ("2/4 mix", OffspringLaw.from_dict({2: 0.5, 4: 0.5}))]
    n = 100_000
    details = []
    ok = True
    for i, (name, p) in enumerate(laws):
        m = sample_mu(p, n, seed=mix_seed(808, i))
        target = (p.m2 - p.m1 ** 2) / p.m1
        se = math.sqrt(max(m.moment(2) - m.mean() ** 2, 0.0) / n)
        ok &= abs(m.mean() - target) <= 3 * se + 1e-9
        if name.startswith("poisson"):
            ok &= abs(m.mean() - 1.0) <= 3 * se + 1e-6
        details.append(f"{name}: {m.mean():.4f}~{target:.4f}")
    _report("AC-8", ok, "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_ac09_level1_kind_independence():
    """bias_all(., 1, bt) and bias_all(., 1, nb) produce byte-identical
    measures on 100 nb-valid random graphs."""
    t0 = time.time()
    accepted = 0
    i = 0
    while accepted < 100:
        g = realize(GenSpec(model="configuration", n=20 + (13 * i) % 81,
                            degree_pmf={2: 0.4, 3: 0.3, 4: 0.3},
                            seed=mix_seed(909, i)))
        i += 1
        if not (carries(g, "nb") and carries(g, "bt")):
            continue
        accepted += 1
        a = bias_all(g, 1, "bt")
        b = bias_all(g, 1, "nb")
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.weights, b.weights)
        assert json.dumps(a.to_dict()["atoms"]) == json.dumps(b.to_dict()["atoms"])
    _report("AC-9", accepted == 100,
            f"{accepted} graphs byte-identical at level 1 "
            f"({i - accepted} rejected drafts), {time.time() - t0:.1f}s")


def _snapshot(outdir):
    return {p.relative_to(outdir): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def test_ac10_cli_determinism(tmp_path):
    """Any experiment rerun with the same config writes byte-identical files."""
    t0 = time.time()
    cm_gen = {"model": "configuration", "n": 30,
              "degree_pmf": {"3": 0.5, "4": 0.5}}
    configs = [
        {"experiment": "bias",
         "gen": {"model": "erdos_renyi", "n": 200, "lam": 4.0},
         "restrict_giant": True, "kind": "lazy", "k": 3, "seed": 7,
         "replicas": 3},
        {"experiment": "joint",
         "gen": {"model": "configuration", "n": 100,
                 "degree_pmf": {"3": 0.5, "4": 0.5}},
         "kind": "nb", "k": "log_n(1)", "replicas": 2, "seed": 8,
         "n_grid": [100, 200]},
        {"experiment": "noncommute", "pmf": {"1": 0.75, "2": 0.25},
         "n_samples": 3000, "seed": 9},
        {"experiment": "mixing", "gen": cm_gen, "erase": True, "kind": "bt",
         "k_max": 40, "seed": 10},
        {"experiment": "generate", "gen": cm_gen, "seed": 11},
        {"experiment": "stationary", "gen": cm_gen, "erase": True, "seed": 12},
        {"experiment": "limit-mu", "pmf": {"3": 0.5, "4": 0.5},
         "n_samples": 4000, "seed": 13},
        {"experiment": "limit-mu-star", "pmf": {"1": 0.75, "2": 0.25},
         "n_samples": 2000, "seed": 14},
        {"experiment": "sweep", "gen": cm_gen, "erase": True, "kind": "lazy",
         "k_max": 5, "n_grid": [30, 60], "seed": 15},
    ]
    checked = 0
    for idx, base in enumerate(configs):
        out = tmp_path / f"exp{idx}"
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps(dict(base, out=str(out))))
        assert main([base["experiment"], "--config", str(cfg_path)]) == 0
        first = _snapshot(out)
        assert first, base["experiment"]
        assert main([base["experiment"], "--config", str(cfg_path)]) == 0
        assert _snapshot(out) == first, base["experiment"]
        checked += len(first)
    _report("AC-10", True,
            f"{len(configs)} experiments, {checked} files byte-stable, "
            f"{time.time() - t0:.1f}s")
